"""Run `vnum` with spans recorded around each module's public functions.

    python3 bench/tracer.py SPANS_JSON batch INPUT --graph6 --json ...

Everything after SPANS_JSON is passed to `vnum.cli.main`, whose output goes
to standard output as usual.  The program's code is not changed: before
`main` runs, every public function of formats, clutters, monomials,
complexes, classify and cli, and every public method of the graph and
input classes, is replaced, in every vnum module that holds a reference to
it, by a wrapper that records a span (name, start, end, parent).
Functions with a `field` argument get the field in their span name, as in
`complexes.regularity[Q]`.  The spans
stay in memory and are written to SPANS_JSON at exit, together with the
`cache_info()` of every module-level cache.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("formats", "clutters", "monomials", "complexes", "classify", "cli")

# Private functions wrapped all the same, because a layer metric counts them.
EXTRA = {"classify": ("_symbolic_square_cm_oracle",)}

# Classes whose public methods are wrapped.  The value classes (monomials,
# vertex sets, homology profiles) are left out: their methods run millions
# of times inside ideal arithmetic, and a span each quadruples the run time.
# Per-mask helpers (names ending in _mask) and generators are left out for
# the same reason and because a generator's span would close before its work.
CLASSES = {"formats": ("InputDocument",), "clutters": ("Clutter", "Graph")}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        field_at = None
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        if "field" in params:
            field_at = params.index("field")
        plain = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = plain
            if field_at is not None:
                field = args[field_at] if len(args) > field_at else kwargs.get("field")
                nid = self._name_id(f"{name}[{getattr(field, 'value', field)}]")
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, start, clock(), parent)
                stack.pop()

        return traced


def _targets(module):
    """(qualified name, owner, attribute, function) for each wrapped callable."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            if attr not in CLASSES.get(short, ()):
                continue
            for mattr, meth in vars(obj).items():
                if (
                    inspect.isfunction(meth)
                    and not mattr.startswith("_")
                    and not mattr.endswith("_mask")
                    and not inspect.isgeneratorfunction(meth)
                ):
                    yield f"{short}.{obj.__name__}.{mattr}", obj, mattr, meth
        elif callable(obj) and (
            not attr.startswith("_") or attr in EXTRA.get(short, ())
        ):
            if inspect.isgeneratorfunction(obj):
                continue
            yield f"{short}.{attr}", module, attr, obj


def install(tracer: Tracer) -> None:
    modules = [importlib.import_module(f"vnum.{m}") for m in MODULES]
    replaced = {}
    for module in modules:
        for name, owner, attr, fn in list(_targets(module)):
            wrapper = tracer.wrap(name, fn)
            replaced[id(fn)] = (fn, wrapper)
            setattr(owner, attr, wrapper)
    # Names imported with `from .x import f` still point at the originals.
    for modname, module in list(sys.modules.items()):
        if modname != "vnum" and not modname.startswith("vnum."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])


def cache_report() -> dict:
    out = {}
    for m in MODULES:
        module = sys.modules[f"vnum.{m}"]
        for attr, obj in vars(module).items():
            info = getattr(obj, "cache_info", None)
            if callable(info) and obj.__module__ == module.__name__:
                ci = info()
                out[f"{m}.{attr}"] = {
                    "hits": ci.hits,
                    "misses": ci.misses,
                    "currsize": ci.currsize,
                }
    return out


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from vnum import cli

    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": tracer.names,
                    "spans": tracer.spans,
                    "caches": cache_report(),
                },
                fh,
            )
    return code


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line front end.

Subcommands: report, symbolic-power, catalog-verify, batch.  Exit codes:
0 success, 1 input error (usage errors included), 2 internal cross-route
disagreement, 3 fixture or assertion failure, 4 input refused as too large.
Output is deterministic:
identical inputs and flags produce byte-identical output at any parallelism
level.

Every algorithm is exponential in the vertex count, so every command
refuses an input with more than MAX_VERTICES (24) vertices instead of
starting a scan that would not finish.  `report`, `symbolic-power` and
`catalog-verify --edge-critical` then exit 4; `batch` prints the input as an
in-band `"error": "too large: ..."` row, keeps every other row, and exits 4
unless a cross-route disagreement (exit 2) also occurred.  A batch with at
least one input, every one of them an input-error row, exits 1 after
printing every row.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

from .catalog import CM36, cm36_vertex_split
from .classify import CrossRouteError, InvariantReport, full_report
from .clutters import Clutter
from .complexes import Field
from .formats import InputDocument, ParseError, parse_edge_list, parse_graph6
from .monomials import symbolic_power

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CROSS_ROUTE = 2
EXIT_ASSERTION = 3
EXIT_TOO_LARGE = 4

# the largest vertex count any command accepts
MAX_VERTICES = 24

SCHEMA = "vnum/1"

# Prefixes of the in-band errors of batch rows whose routes disagreed or
# whose input was refused as too large.
CROSS_ROUTE_PREFIX = "cross-route: "
TOO_LARGE_PREFIX = "too large: "


class InputTooLargeError(ValueError):
    """The input has more vertices than the exponential algorithms accept."""


def _check_size(doc: InputDocument) -> Clutter:
    """The document's clutter, refused before it is built when too large."""
    if doc.vertex_count > MAX_VERTICES:
        raise InputTooLargeError(
            f"{doc.vertex_count} vertices exceed the limit of {MAX_VERTICES}"
        )
    return doc.to_clutter()


# the fields each --field choice prints; every report computes both
FIELDS = {"q": (Field.Q,), "f2": (Field.F2,), "both": (Field.Q, Field.F2)}


def _report_dict(rep: InvariantReport, fields: Sequence[Field]) -> dict:
    """The report as one output row: its fields in order, under their names.

    A `<name>_by_field` dict gives one `<name>_<field>` key for each of
    `fields` that it holds (a clutter's symbolic-square dict holds none),
    tuples become lists, and the matching bounds, which the report only
    asserts, are left out.
    """
    out: dict = {"schema": SCHEMA}
    for f in dataclasses.fields(rep):
        value = getattr(rep, f.name)
        if f.name.endswith("_by_field"):
            stem = f.name.removesuffix("_by_field")
            out.update((f"{stem}_{k.value}", value[k]) for k in fields if k in value)
        elif f.name != "matching_bounds":
            out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(str(v) for v in value) if value else "-"
    return str(value)


def _tsv_lines(dicts: Sequence[dict]) -> list[str]:
    keys: list[str] = []
    for d in dicts:
        for k in d:
            if k not in keys:
                keys.append(k)
    lines = ["\t".join(keys)]
    for d in dicts:
        lines.append("\t".join(_cell(d.get(k)) for k in keys))
    return lines


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")


def _load_document(path: str) -> InputDocument:
    text = _read_text(path)
    name = os.path.basename(path)
    if text.lstrip().startswith(("graph", "clutter", "#")):
        return parse_edge_list(text, name=name)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) == 1:
        return parse_graph6(lines[0], name=name)
    raise ParseError(f"{path}: expected an edge-list document or one graph6 line")


def cmd_report(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    c = _check_size(doc)
    data = _report_dict(full_report(c, name=doc.name), FIELDS[args.field])
    if args.json:
        print(json.dumps(data, indent=2))
    elif args.tsv:
        print("\n".join(_tsv_lines([data])))
    else:
        for k, v in data.items():
            print(f"{k}: {_cell(v)}")
    return EXIT_OK


def _monomial_text(exponents: Sequence[int]) -> str:
    """The monomial t^a as text: t1^2*t3 for (2, 0, 1), and 1 for zeros."""
    parts = [f"t{i}" if e == 1 else f"t{i}^{e}" for i, e in enumerate(exponents, 1) if e]
    return "*".join(parts) or "1"


def cmd_symbolic_power(args: argparse.Namespace) -> int:
    c = _check_size(_load_document(args.file))
    # symbolic_power refuses k < 1 and the zero ideal before anything prints
    for exponents in symbolic_power(c, args.k):
        print(_monomial_text(exponents))
    return EXIT_OK


def cmd_catalog_verify(args: argparse.Namespace) -> int:
    if args.table:
        return _verify_cm36()
    return _scan_edge_critical(args.edge_critical)


def _verify_cm36() -> int:
    """Both routes to a Cohen-Macaulay I^(2) over both fields, on every entry.

    Reports run the polarization oracle only up to ORACLE_CAP vertices;
    the table runs it on all 36 entries and prints each route's verdict
    instead of comparing them, so an entry passes only when all are true.
    """
    from .classify import (
        _symbolic_square_cm_combinatorial,
        _symbolic_square_cm_oracle,
        is_edge_critical,
    )

    failures = []
    for fix in CM36:
        g = fix.graph()
        combo = _symbolic_square_cm_combinatorial(g)
        oracle = _symbolic_square_cm_oracle(g)
        verdicts = {f"symbolic_square_cm_{f.value}": f in combo for f in Field}
        verdicts.update((f"polarized_square_cm_{f.value}", f in oracle) for f in Field)
        verdicts["edge_critical"] = is_edge_critical(g)
        status = "pass" if all(verdicts.values()) else "FAIL"
        if status == "FAIL":
            failures.append(fix.label)
        cells = "".join(f"\t{k}={_cell(v)}" for k, v in verdicts.items())
        print(
            f"{fix.label}\tvertices={fix.vertex_count}\tedges={len(fix.edges)}"
            f"{cells}\t{status}"
        )
    small, nine = cm36_vertex_split()
    print(f"total: {len(CM36)} fixtures, split {small} + {nine}")
    if failures:
        print("failing fixtures: " + ", ".join(failures))
        return EXIT_ASSERTION
    if (small, nine) != (19, 17):
        print("unexpected vertex-count split")
        return EXIT_ASSERTION
    print(f"{len(CM36)} pass")
    return EXIT_OK


def _scan_edge_critical(path: str) -> int:
    from .classify import is_edge_critical

    counts: dict[int, int] = {}
    total = 0
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        doc = parse_graph6(line, name=f"line {lineno}")
        g = _check_size(doc)
        total += 1
        if g.vertex_count >= 2 and is_edge_critical(g):
            counts[g.vertex_count] = counts.get(g.vertex_count, 0) + 1
    for n in sorted(counts):
        print(f"vertices={n}\tedge_critical={counts[n]}")
    grand = sum(v for n, v in counts.items() if 2 <= n <= 9)
    nine = counts.get(9, 0)
    print(
        f"scanned {total} graphs; edge-critical with 2..9 vertices: {grand}, "
        f"of which {nine} have 9 vertices"
    )
    return EXIT_OK


def _batch_worker(task: tuple[int, str, str, str]) -> dict:
    index, kind, payload, field_spec = task
    try:
        if kind == "graph6":
            doc = parse_graph6(payload, name=f"line {index + 1}")
        else:
            doc = _load_document(payload)
        c = _check_size(doc)
        return _report_dict(full_report(c, name=doc.name), FIELDS[field_spec])
    except InputTooLargeError as exc:
        error = TOO_LARGE_PREFIX + str(exc)
    except ValueError as exc:
        error = str(exc)
    except CrossRouteError as exc:
        error = CROSS_ROUTE_PREFIX + str(exc)
    return {"schema": SCHEMA, "name": f"line {index + 1}", "error": error}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cmd_batch(args: argparse.Namespace) -> int:
    lines = [ln.strip() for ln in _read_text(args.file).splitlines() if ln.strip()]
    if args.graph6:
        # graph6 bytes are 63..126, so a graph ends at the first whitespace
        # and what follows on its line, such as a label, is not read
        lines = [ln.split(None, 1)[0] for ln in lines]
    kind = "graph6" if args.graph6 else "files"
    tasks = [(i, kind, line, args.field) for i, line in enumerate(lines)]
    # the executor starts every worker up front, so never more than can run
    workers = min(args.parallel, len(tasks), _usable_cpus())
    if workers > 1:
        # imported here: the pool costs a quarter of the start-up of a run
        # that never uses it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_batch_worker, tasks))
    else:
        rows = [_batch_worker(t) for t in tasks]
    if args.json:
        for row in rows:
            print(json.dumps(row))
    else:
        print("\n".join(_tsv_lines(rows)))
    crossed = [
        row for row in rows if row.get("error", "").startswith(CROSS_ROUTE_PREFIX)
    ]
    for row in crossed:
        detail = row["error"].removeprefix(CROSS_ROUTE_PREFIX)
        print(
            f"internal cross-route disagreement in {row['name']}: {detail}",
            file=sys.stderr,
        )
    if crossed:
        return EXIT_CROSS_ROUTE
    if any(row.get("error", "").startswith(TOO_LARGE_PREFIX) for row in rows):
        return EXIT_TOO_LARGE
    if rows and all("error" in row for row in rows):
        return EXIT_INPUT
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors.

    argparse exits 2 on a usage error, the code of a cross-route
    disagreement; raising ParseError makes `main` exit 1 instead.  Its
    subparsers are of this class too.
    """

    def error(self, message: str):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vnum",
        description="Exact v-number, regularity, and Cohen-Macaulay "
        "classification of edge ideals of graphs and clutters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="full invariant report for one input")
    rep.add_argument("file")
    rep.add_argument("--field", default="q", choices=FIELDS)
    fmt = rep.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--tsv", action="store_true")
    rep.set_defaults(func=cmd_report)

    sp = sub.add_parser("symbolic-power", help="minimal generators of I^(k)")
    sp.add_argument("file")
    sp.add_argument("k", type=int)
    sp.set_defaults(func=cmd_symbolic_power)

    cat = sub.add_parser("catalog-verify", help="check embedded or external catalogs")
    which = cat.add_mutually_exclusive_group(required=True)
    which.add_argument("--table", choices=["cm36"])
    which.add_argument("--edge-critical", dest="edge_critical", metavar="GRAPH6_FILE")
    cat.set_defaults(func=cmd_catalog_verify)

    bat = sub.add_parser("batch", help="report many inputs, one row each")
    bat.add_argument("file", help="file of edge-list paths, or graph6 stream with --graph6")
    bat.add_argument("--graph6", action="store_true")
    bat.add_argument("--field", default="q", choices=FIELDS)
    bfmt = bat.add_mutually_exclusive_group()
    bfmt.add_argument("--json", action="store_true")
    bfmt.add_argument("--tsv", action="store_true", help="tab-separated (default)")
    bat.add_argument("--parallel", type=int, default=1)
    bat.set_defaults(func=cmd_batch)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CrossRouteError as exc:
        print(f"internal cross-route disagreement: {exc}", file=sys.stderr)
        return EXIT_CROSS_ROUTE
    except InputTooLargeError as exc:
        print(f"input too large: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except ValueError as exc:
        # ParseError and ZeroIdealError are ValueErrors too
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())

"""The package surface: no function or method in `src/vnum`, exported or
not, lacks a caller, and the README's CLI synopsis names every command-line
option."""

from __future__ import annotations

import argparse
import ast
import pathlib
import re

import vnum
from vnum.cli import build_parser

SRC = pathlib.Path(vnum.__file__).parent
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# Names that no code in src/vnum refers to, kept on purpose.
KEEP = {
    "alpha_of_colon_quotient": "the per-prime colon degree the acceptance checks use",
    "blocker": "the cover clutter that acceptance criterion 5 reads",
    "is_pure": "the purity that acceptance criterion 5 reads",
    "regularity": "the single-field entry point to the paper's headline number",
    "face_masks": "face lists for the oracles and the Euler characteristic",
    "render_edge_list": "canonical edge-list text, with parse_edge_list a round trip",
    "is_cohen_macaulay": "the one-field Cohen-Macaulay test of the public API",
    "is_w2": "the W2 test of the public API; reports read W2 off their checked v",
    "symbolic_square_cm": "the one-field symbolic-square test of the public API",
    "error": "argparse calls it on every usage error",
}


def caller_less_names() -> set[str]:
    """Top-level functions and public methods that no code in src/vnum names.

    A name counts as used when code in src/vnum other than `__init__.py`
    refers to it: a function as a variable, an attribute or an imported
    name, a method only as an attribute or an imported name, so that a
    local variable of the same name does not hide a dead method.  The
    package's own re-exports do not count, so an export with no caller is
    listed too.  Definitions, comments and docstrings do not count, so a
    name that only prose mentions is listed.  A reference search cannot
    follow calls, so this misses dead chains such as `link` -> `link_mask`
    -> `has_face`, where each name has a caller that is itself dead, and
    names that a live method shares.
    """
    functions: set[str] = set()
    methods: set[str] = set()
    variables: set[str] = set()
    attributes: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.add(node.name)
            elif isinstance(node, ast.ClassDef):
                methods.update(
                    sub.name
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                variables.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                attributes.add(node.name)
    return (functions - variables - attributes) | (methods - attributes)


def test_every_caller_less_name_is_kept_on_purpose():
    assert caller_less_names() == set(KEEP)


def test_readme_synopsis_names_every_option():
    documented: dict[str, set[str]] = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("vnum "):
            command = line.split()[1]
            documented.setdefault(command, set()).update(re.findall(r"--[\w-]+", line))
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    parsed = {
        command: {
            opt
            for action in parser._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"
        }
        for command, parser in sub.choices.items()
    }
    assert parsed == documented

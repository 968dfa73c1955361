"""Every function and method in ``src/invdist`` is reached by a
verification: a ``verify all`` run, one failing invariance run and one
failing independence run call it, or it is on ``ALLOWED`` with the reason
it stays.  Code that nothing reaches shows here as soon as it appears."""

import ast
import json
import os
import sys

from invdist import cli, scalars
from test_constructions import repeat_first_member, twist_shift2

SRC = os.path.dirname(cli.__file__)

# qualified name -> why it stays although these runs do not call it
ALLOWED = {
    "clifford.REpsElement.__str__":
        "prints h_closure_check's counterexample diagonal",
    "scalars.GaussianRational.__bool__":
        "without it a zero value would be truthy",
    "weyl.WeylOp.compose": "resolved by name by invbench/spans.py; moves to "
                           "tests with the next benchmark change",
}


def defined():
    """(path, first line) -> qualified name of every def in the package;
    the first line of a decorated def is its first decorator's, as in its
    code object."""
    out = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                out[path, first] = f"{prefix}{child.name}"
                walk(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", path)

    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path) as fh:
                walk(ast.parse(fh.read()), f"{name[:-3]}.", path)
    return out


def cold_memos(monkeypatch):
    """Start the runs with every memo of the package empty, as a fresh
    process does, so that code reached only on a memo miss is reached
    whichever tests ran before; ``monkeypatch`` puts the warm memos back."""
    for module, name in ((scalars, "_MONO_PRODUCTS"),
                         (scalars, "_MONO_CONJUGATES"),
                         (scalars, "_EXPONENT_SCALARS")):
        monkeypatch.setattr(module, name, {})
    monkeypatch.setattr(scalars, "_INT_SCALARS",
                        {0: scalars.Scalar.zero(), 1: scalars.Scalar.one()})


def test_every_definition_is_reached_or_allowed(tmp_path, monkeypatch):
    cold_memos(monkeypatch)
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        assert cli.main(["verify", "all", "--n", "3", "--lmax", "2",
                         "--format", "json",
                         "--out", str(tmp_path / "all.json")]) == 0
        twist_shift2(monkeypatch)
        assert cli.main(["verify", "invariance", "--n", "3", "--lmax", "3",
                         "--lambda", "formal",
                         "--format", "text",
                         "--out", str(tmp_path / "twisted.txt")]) == 1
        # a repeated member defeats the disjoint-support certificate, so
        # only this run reaches the elimination kernel's lam evaluation
        repeat_first_member(monkeypatch)
        assert cli.main(["verify", "independence", "--n", "3", "--lmax", "3",
                         "--format", "json",
                         "--out", str(tmp_path / "repeated.json")]) == 1
    finally:
        sys.setprofile(previous)
    unreached = {name for key, name in defined().items()
                 if key not in called}
    assert unreached - ALLOWED.keys() == set(), "reached by no run"
    assert ALLOWED.keys() - unreached == set(), "allowed but reached"
    repeated = json.loads((tmp_path / "repeated.json").read_text())
    assert repeated["checks"][0]["details"] == {"rank": 3, "expected": 4}

"""The benchmark's span tracer (``invbench/spans.py``) against this source
tree: entering it resolves every traced name, its observers read what the
traced calls take and return, and leaving it restores every binding it
replaced."""

import os
import sys

import invdist.cli  # the tracer wraps names in every module
from invdist.cli import RunConfig
from invdist.constructions import FamilySpec, build_family, \
    build_vector_field
from invdist.distributions import independence_rank

INVBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "invbench")


def bindings():
    """Every name bound in an invdist module or in a class it defines."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "invdist" and not mod_name.startswith("invdist."):
            continue
        for key, value in vars(mod).items():
            out[mod_name, key] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    out[mod_name, f"{key}.{attr}"] = member
    return out


def changed(before, after):
    return sorted(k for k in before.keys() | after.keys()
                  if before.get(k) is not after.get(k))


def test_tracer_resolves_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(INVBENCH)
    import spans

    before = bindings()
    with spans.Tracer() as tracer:
        assert set(tracer.bound) == set(spans.SPANS) | set(spans.COUNTS)
        assert ("invdist.weyl", "WeylOp.compose") in changed(before,
                                                             bindings())
    assert changed(before, bindings()) == []


def test_observers_count_the_traced_work(monkeypatch):
    monkeypatch.syspath_prepend(INVBENCH)
    import spans

    configs = [RunConfig(suite="invariance", n=3, lmax=2),
               RunConfig(suite="independence", n=3, lmax=2),
               RunConfig(suite="orbits", n=3)]
    # no suite composes operators, and every chain a suite builds has rank
    # certified by disjoint supports, so compose and the elimination kernel
    # are called here directly: the latter through a chain that repeats a
    # member
    d, dbar = build_vector_field(3, 2), build_vector_field(3, 2, True)
    chain = build_family(FamilySpec(3, "T", 2))
    repeated = chain + [chain[0]]
    keys = {k for e in chain for k in e.terms}
    with spans.Tracer() as tracer:
        for config in configs:
            assert invdist.cli.run_suite(config).all_passed
        composed = d.compose(dbar)
        assert independence_rank(repeated) == 3
    counts = tracer.counts
    assert counts["weyl.compose.terms_out"] == len(composed.terms) > 0
    assert counts["scalars.rank.cells"] == 4 * len(keys) > 0
    for name in ("distributions.apply_weyl.terms_out",
                 "orbits.witness.exact"):
        assert counts[name] > 0, name
    assert counts["orbits.witness.exact"] == counts["orbits.witness.attempted"]
    assert counts["orbits.witness.failures"] == 0

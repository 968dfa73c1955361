"""JSON reports pinned byte for byte against reports committed in
``tests/golden/``, so a change of number type or printing that alters any
report shows here."""

import os
from fractions import Fraction

import pytest

from invdist.cli import RunConfig, emit_report, run_suite
from test_constructions import twist_shift2

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# file name -> the config of ``invdist verify <suite> ... --format json``;
# the names keep the --samples and --seed of the runs that first wrote them
CASES = {
    "orbits_n4_s60_seed7": dict(suite="orbits", n=4),
    "orbits_n8_s200_seed21": dict(suite="orbits", n=8),
    "complex-orbits_n4_s2_seed7": dict(suite="complex-orbits", n=4),
    "algebra_n4_s5_seed7": dict(suite="algebra", n=4),
    # the census workload's algebra config
    "algebra_n8_s25": dict(suite="algebra", n=8),
    "independence_n3_lmax4": dict(suite="independence", n=3, lmax=4),
    "invariance_n4_lmax4_s2_seed3": dict(suite="invariance", n=4, lmax=4),
    "invariance_n2_lmax3": dict(suite="invariance", n=2, lmax=3),
    # bytes made by the action through powers of g.D, pinned at a size
    # that action was slow on
    "invariance_n6_lmax8_s5": dict(suite="invariance", n=6, lmax=8),
    # bytes made by the action with the whole g.D, at a north-star size
    "invariance_n8_lmax12_s5": dict(suite="invariance", n=8, lmax=12),
    "all_n3_lmax2_s3_lam1_3": dict(suite="all", n=3, lmax=2,
                                   lam=Fraction(1, 3)),
    "all_n2_lmax2_s3": dict(suite="all", n=2, lmax=2),
    # formal lam at n >= 3: T and the support chain Tj(j=n-1) are one chain
    "all_n4_lmax3_s3": dict(suite="all", n=4, lmax=3),
    # at lam = 0 the power factor (z3 zbar3)^1 is the monomial z3 zbar3, so
    # the action substitutes it
    "all_n4_lmax3_s3_lam0": dict(suite="all", n=4, lmax=3, lam=Fraction(0)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_report_matches_golden(name):
    with open(os.path.join(GOLDEN, f"{name}.json")) as f:
        expected = f.read()
    report = run_suite(RunConfig(fmt="json", **CASES[name]))
    assert emit_report(report, "json") == expected


def test_failing_report_matches_golden(monkeypatch):
    # the twisted shift2 lies outside H: T of order 2 fails, and its
    # difference, E_g applied to the member of order 1, is pinned as text
    twist_shift2(monkeypatch)
    name = "invariance_n3_lmax4_s2_seed3_twisted"
    with open(os.path.join(GOLDEN, f"{name}.json")) as f:
        expected = f.read()
    report = run_suite(RunConfig(fmt="json", suite="invariance", n=3,
                                 lmax=4))
    assert not report.all_passed
    assert emit_report(report, "json") == expected

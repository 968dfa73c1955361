"""Acceptance criteria for the verification engine.

Each test pins one headline claim; every identity is exact, orbit
reachability included (the identity G_z e_j = z over formal coordinates,
one per stratum).  Timed criteria assert their wall-clock budget.
"""

import random
import time
from fractions import Fraction
from math import factorial

import pytest

from invdist import cli
from invdist.clifford import REpsElement, h_det_check
from invdist.constructions import (FamilySpec, build_family,
                                   verify_independence, verify_invariance,
                                   verify_lemma_d, verify_support_filtration)
from invdist.distributions import DistExpr, independence_rank
from invdist.orbits import complex_orbit_check, enumerate_strata
from invdist.scalars import AffineExponent, Scalar
from invdist.records import PASS
from reference import dense, dense_mul, iota, mat_mul_scalar, parts, \
    random_toeplitz, value


def elapsed(start):
    return time.monotonic() - start


def test_01_clifford_relations_and_iota():
    """eps^2 = 1, i^2 = -1, i*eps = -eps*i; iota multiplicative on 100
    random profile pairs for n <= 4, formal and plain; exact; < 5 s."""
    start = time.monotonic()
    one = REpsElement(Scalar.one(), Scalar.zero())
    i = REpsElement(Scalar.of(0, 1), Scalar.zero())
    eps = REpsElement(Scalar.zero(), Scalar.one())
    assert value(eps * eps) == value(one)
    assert value(i * i) == value(REpsElement(-Scalar.one(), Scalar.zero()))
    ie, ei = i * eps, eps * i
    assert value(ie) == value(REpsElement(-ei.a, -ei.b))
    rng = random.Random(0)
    checked = 0
    while checked < 100:
        for n in (2, 3, 4):
            formal = checked % 2 == 1
            a = dense(random_toeplitz(n, rng, formal))
            b = dense(random_toeplitz(n, rng, formal))
            assert iota(dense_mul(a, b)) == mat_mul_scalar(iota(a), iota(b))
            checked += 1
    assert elapsed(start) < 5.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_02_determinant_one(n):
    """det(iota(g)) = 1 symbolically for both generator kinds; exact."""
    record = h_det_check(n)
    assert record.status == PASS, record.details


def test_03_conjugated_operator_closed_form():
    """Conjugated D minus the displayed RHS is the zero operator, symbolic
    in a, abar, for n in {3,4,5}; likewise D' at n = 2; exact; < 5 s."""
    start = time.monotonic()
    for n in (3, 4, 5):
        record = verify_lemma_d(n)
        assert record.status == PASS, record.details
        assert record.check_id == f"lemma-d.D.n{n}"
    record = verify_lemma_d(2)
    assert record.status == PASS, record.details
    assert record.check_id == "lemma-d.Dprime.n2"
    assert elapsed(start) < 5.0


def test_04_invariance_of_families():
    """act_group(g, T) = T exactly for every generator, n in {3,4},
    l <= 3, symbolic in lam, a, abar, u; same for Tbar and T_{lam,j}
    (n = 4, j in {2,3}); exact; < 60 s total."""
    start = time.monotonic()
    specs = []
    for n in (3, 4):
        for l in range(4):
            specs.append(FamilySpec(n, "T", l))
            specs.append(FamilySpec(n, "Tbar", l))
    for j in (2, 3):
        for l in range(4):
            specs.append(FamilySpec(4, "Tj", l, j=j))
    for spec in specs:
        record = verify_invariance(spec)
        assert record.status == PASS, (spec, record.details)
    assert elapsed(start) < 60.0


def test_05_homogeneity_and_parity():
    """Every built family member has degree -lam and even parity; exact."""
    minus_lam = AffineExponent(Fraction(0), Fraction(-1))
    for n, family in ((3, "T"), (3, "Tbar"), (4, "T")):
        for l in range(4):
            expr = build_family(FamilySpec(n, family, l))[-1]
            assert expr.degree() == minus_lam
            assert expr.parity() == "even"
    for l in range(4):
        expr = build_family(FamilySpec(2, "T2", l, lam=Fraction(2)))[-1]
        assert expr.degree() == AffineExponent.of(-2)
        assert expr.parity() == "even"


def test_06_independence_rank_grows_unboundedly():
    """Rank of {T^l}_{l=0..5} is 6 for n = 3 over the lam-function field,
    and rank = lmax+1 for lmax <= 8; exact; < 60 s."""
    start = time.monotonic()
    record = verify_independence(FamilySpec(3, "T", 5))
    assert record.status == PASS and record.details["rank"] == 6
    family = build_family(FamilySpec(3, "T", 8))
    for lmax in range(9):
        assert independence_rank(family[:lmax + 1]) == lmax + 1
    assert elapsed(start) < 60.0


def test_07_n_equals_2_branch():
    """Invariance and rank lmax+1 for {T2^l}, l <= 5, at lam = 2; exact."""
    for l in range(6):
        record = verify_invariance(FamilySpec(2, "T2", l, lam=Fraction(2)))
        assert record.status == PASS, record.details
    record = verify_independence(FamilySpec(2, "T2", 5, lam=Fraction(2)))
    assert record.status == PASS and record.details["rank"] == 6


def test_08_orbit_census():
    """Exactly n strata with exact tangent-rank dimensions 2j-1 for
    n in {2,3,4,5}; per stratum the fixed witness pair e_j -> i*e_j, its
    stratum's exact read-off certificate G_z e_j = z over formal
    coordinates (residual 0), and no pair across strata; < 30 s."""
    start = time.monotonic()
    for n in (2, 3, 4, 5):
        record = enumerate_strata(n, residual_tol=0)
        assert record.status == PASS, record.details
        assert record.details["witness_failures"] == 0
        assert record.details["cross_failures"] == 0
        assert record.details["dimensions"] == {
            str(j): 2 * j - 1 for j in range(1, n + 1)}
        assert record.details["max_residual"] == 0
    assert elapsed(start) < 30.0


@pytest.mark.parametrize("n,j", [(4, 2), (4, 3), (3, 2)])
def test_09_support_filtration(n, j):
    """The T_{lam,j} family has support descriptor X_j and rank lmax+1,
    certifying the infinite-dimensional quotient formally; exact."""
    lmax = 4
    record = verify_support_filtration(n, j, lmax)
    assert record.status == PASS, record.details
    assert record.details["supports"] == [f"X{j}"] * (lmax + 1)
    assert record.details["rank"] == lmax + 1


def test_10_complexified_orbit_continuum(monkeypatch):
    """zeta-invariance symbolic; the 100 distinct rational zeta values the
    complex-orbits suite plans give 100 pairwise-distinct complexified
    orbit labels; exact."""
    planned = []

    def check(n, labels):
        planned.append(labels)
        return complex_orbit_check(n, labels)

    monkeypatch.setattr(cli, "complex_orbit_check", check)
    record, = cli.run_suite(cli.RunConfig(suite="complex-orbits", n=3)).checks
    labels, = planned
    assert len(labels) == len({parts(z) for z in labels}) == 100
    assert record.status == PASS, record.details
    assert record.details["symbolic_invariance"] is True
    assert record.details["distinct_labels"] == 100


def test_11_rewrite_soundness_jet_pairing():
    """The pairing oracle agrees with normalization on every
    z^p zbar^q d^a dbar^b delta with p,q,a,b <= 4; exact."""
    def oracle(p, q, a, b, r, s):
        if p + r == a and q + s == b:
            sign = -1 if (a + b) % 2 else 1
            return Scalar.of(sign * factorial(a) * factorial(b))
        return Scalar.zero()

    for p in range(5):
        for q in range(5):
            for a in range(5):
                for b in range(5):
                    expr = DistExpr.single(1, mono={0: p, 1: q},
                                           delta={1: (a, b)})
                    for (mono, powers, delta), coeff in expr.terms.items():
                        assert not powers and mono == ()
                    for r in range(5):
                        for s in range(5):
                            got = Scalar.zero()
                            for (mono, powers, delta), c in \
                                    expr.terms.items():
                                (_, aa, bb), = delta
                                if r == aa and s == bb:
                                    sign = -1 if (aa + bb) % 2 else 1
                                    got = got + c * Scalar.of(
                                        sign * factorial(aa) * factorial(bb))
                            assert got == oracle(p, q, a, b, r, s)

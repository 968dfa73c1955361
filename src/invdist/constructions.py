"""Builders for the named vector fields and distribution families, and the
verification procedures for their invariance, independence, homogeneity,
and support properties."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .clifford import GaussianRational, REpsMatrix, h_phase, h_shift, \
    h_shift_formal
from .distributions import DistExpr, act_on_power, independence_rank
from .records import FAIL, PASS, CheckRecord
from .scalars import AffineExponent, Scalar
from .weyl import Substitution, WeylOp, conjugate_op, substitution_from_group, \
    sym_z, sym_zbar

__all__ = [
    "FamilySpec",
    "build_vector_field",
    "build_family",
    "verify_lemma_d",
    "verify_invariance",
    "verify_independence",
    "verify_support_filtration",
]


# ---------------------------------------------------------------------------
# Vector fields
# ---------------------------------------------------------------------------

def build_vector_field(kind: str, n: int, j: Optional[int] = None) -> WeylOp:
    """The displayed first-order operators.

    kind "D":      zbar_{n-2} d/dzbar_{n-1} + z_{n-1} d/dz_n  (n >= 3)
    kind "Dbar":   its conjugate
    kind "Dj":     zbar_{j-1} d/dzbar_j + z_j d/dz_{j+1}      (2 <= j <= n-1)
    kind "Dprime": z_1 d/dz_2                                  (n = 2)
    """
    one = Scalar.one()
    if kind == "D":
        if n < 3:
            raise ValueError("D requires n >= 3")
        return (WeylOp.term(n, one, {sym_zbar(n - 2): 1}, {sym_zbar(n - 1): 1})
                + WeylOp.term(n, one, {sym_z(n - 1): 1}, {sym_z(n): 1}))
    if kind == "Dbar":
        if n < 3:
            raise ValueError("Dbar requires n >= 3")
        return (WeylOp.term(n, one, {sym_z(n - 2): 1}, {sym_z(n - 1): 1})
                + WeylOp.term(n, one, {sym_zbar(n - 1): 1}, {sym_zbar(n): 1}))
    if kind == "Dj":
        if j is None or not 2 <= j <= n - 1:
            raise ValueError(f"Dj requires 2 <= j <= n-1, got j={j}, n={n}")
        return (WeylOp.term(n, one, {sym_zbar(j - 1): 1}, {sym_zbar(j): 1})
                + WeylOp.term(n, one, {sym_z(j): 1}, {sym_z(j + 1): 1}))
    if kind == "Dprime":
        if n != 2:
            raise ValueError("Dprime is the n = 2 operator")
        return WeylOp.term(n, one, {sym_z(1): 1}, {sym_z(2): 1})
    raise ValueError(f"unknown vector field kind {kind!r}")


# ---------------------------------------------------------------------------
# Distribution families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """Which family to build: the members of order 0..l.

    family: "T" | "Tbar" | "Tj" | "T2"; j only for "Tj"; lam None means the
    formal holomorphic parameter, otherwise a fixed rational value.
    """

    n: int
    family: str
    l: int
    j: Optional[int] = None
    lam: Optional[Fraction] = None

    def validate(self) -> None:
        if self.l < 0:
            raise ValueError("order must be nonnegative")
        if self.family in ("T", "Tbar"):
            if self.n < 3:
                raise ValueError(f"{self.family} requires n >= 3")
        elif self.family == "Tj":
            if self.j is None or not 2 <= self.j <= self.n - 1:
                raise ValueError("Tj requires 2 <= j <= n-1")
        elif self.family == "T2":
            if self.n != 2:
                raise ValueError("T2 is the n = 2 family")
            if self.lam is not None and self.lam != 2:
                raise ValueError("T2 is defined at lam = 2")
        else:
            raise ValueError(f"unknown family {self.family!r}")


def _sigma(base_r: Fraction, lam: Optional[Fraction]) -> AffineExponent:
    # exponent (base_r*2 - lam)/2 as an affine function of lam
    if lam is None:
        return AffineExponent(base_r, Fraction(-1, 2))
    return AffineExponent(base_r - lam / 2, Fraction(0))


def _seed(spec: FamilySpec) -> Tuple[WeylOp, DistExpr]:
    """The family's operator and its member of order 0."""
    spec.validate()
    n = spec.n
    if spec.family in ("T", "Tbar"):
        sigma = _sigma(Fraction(1), spec.lam)
        base = DistExpr.single(n, powers={n - 1: sigma},
                               delta={n: (0, 0)})
        op = build_vector_field("D" if spec.family == "T" else "Dbar", n)
    elif spec.family == "Tj":
        j = spec.j
        sigma = _sigma(Fraction(n - j), spec.lam)
        base = DistExpr.single(n, powers={j: sigma},
                               delta={k: (0, 0) for k in range(j + 1, n + 1)})
        op = build_vector_field("Dj", n, j)
    else:  # T2
        base = DistExpr.single(n, delta={2: (0, 0)})
        op = build_vector_field("Dprime", n)
    return op, base


def build_family(spec: FamilySpec) -> List[DistExpr]:
    """The members of order 0..l, each the operator applied to the one
    before."""
    op, member = _seed(spec)
    family = [member]
    for _ in range(spec.l):
        family.append(family[-1].apply_weyl(op))
    return family


# ---------------------------------------------------------------------------
# Generators of the group and sampled composites
# ---------------------------------------------------------------------------

def generator_substitutions(n: int) -> List[Substitution]:
    """The phase generator (formal unit u) and each shift generator with a
    formal coefficient a_j."""
    subs = [substitution_from_group(h_phase(n))]
    for j in range(1, n):
        subs.append(substitution_from_group(h_shift_formal(n, j)))
    return subs


_RATIONAL_UNITS = [
    GaussianRational.of(1),
    GaussianRational.of(0, 1),
    GaussianRational.of(Fraction(3, 5), Fraction(4, 5)),
    GaussianRational.of(Fraction(5, 13), Fraction(-12, 13)),
    GaussianRational.of(Fraction(-8, 17), Fraction(15, 17)),
]


def random_group_element(n: int, rng: random.Random,
                         max_factors: int = 4) -> REpsMatrix:
    """A product of up to max_factors generators with rational-unit phases
    and small Gaussian-rational shift coefficients."""
    g = REpsMatrix.identity(n)
    for _ in range(rng.randint(1, max_factors)):
        if rng.random() < 0.4:
            factor = _phase_matrix(n, rng.choice(_RATIONAL_UNITS))
        else:
            j = rng.randint(1, n - 1)
            a = GaussianRational.of(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            factor = h_shift(n, j, Scalar.from_gauss(a))
        g = g * factor
    return g


def _phase_matrix(n: int, phase: GaussianRational) -> REpsMatrix:
    from .clifford import h_element
    return h_element(n, Scalar.from_gauss(phase), [Scalar.zero()] * (n - 1))


# ---------------------------------------------------------------------------
# Named verification procedures
# ---------------------------------------------------------------------------

def verify_lemma_d(n: int, which: str = "D") -> CheckRecord:
    """The closed form of the conjugated vector field under the first
    shift generator, with a formal coefficient."""
    a = Scalar.var("a1")
    abar = a.conjugate()
    one = Scalar.one()
    if which == "D":
        if n < 3:
            raise ValueError("the D identity needs n >= 3")
        op = build_vector_field("D", n)
        # expected: D + a(zbar_{n-2} - abar z_{n-1} + a abar zbar_n) d_{n-2}
        #             - a zbar_n d_n
        expected = op \
            + WeylOp.term(n, a, {sym_zbar(n - 2): 1}, {sym_z(n - 2): 1}) \
            + WeylOp.term(n, -(a * abar), {sym_z(n - 1): 1},
                          {sym_z(n - 2): 1}) \
            + WeylOp.term(n, a * a * abar, {sym_zbar(n): 1},
                          {sym_z(n - 2): 1}) \
            + WeylOp.term(n, -a, {sym_zbar(n): 1}, {sym_z(n): 1})
    elif which == "Dprime":
        if n != 2:
            raise ValueError("the Dprime identity is the n = 2 case")
        op = build_vector_field("Dprime", n)
        # expected: D' + abar(z_1 - a zbar_2) dbar_1 - a zbar_2 d_2
        expected = op \
            + WeylOp.term(n, abar, {sym_z(1): 1}, {sym_zbar(1): 1}) \
            + WeylOp.term(n, -(a * abar), {sym_zbar(2): 1},
                          {sym_zbar(1): 1}) \
            + WeylOp.term(n, -a, {sym_zbar(2): 1}, {sym_z(2): 1})
    else:
        raise ValueError(f"unknown identity {which!r}")
    sub = substitution_from_group(h_shift_formal(n, 1))
    got = conjugate_op(op, sub)
    residual = got - expected
    ok = residual.is_zero()
    return CheckRecord(
        check_id=f"lemma-d.{which}.n{n}",
        statement=(f"conjugating {which} by the first shift generator "
                   f"gives the closed form (n={n})"),
        paper_ref="Lemma 4.4" if which == "D" else "n=2 proof display",
        status=PASS if ok else FAIL,
        details={"residual": str(residual)},
    )


def _family_name(spec: FamilySpec) -> str:
    if spec.family == "Tj":
        return f"Tj(j={spec.j})"
    return spec.family


def verify_invariance(spec: FamilySpec, composite_samples: int = 0,
                      seed: int = 0) -> CheckRecord:
    """Exact invariance of the family member under every generator (formal
    phase and formal shift coefficients), plus grading side checks and an
    optional belt-and-braces pass over random composite group elements.
    The action is derived from the operator and the order-0 member
    (``act_on_power``) and compared with the member itself."""
    op, base = _seed(spec)
    expr = build_family(spec)[-1]
    n = spec.n
    details = {"family": _family_name(spec), "l": spec.l}
    failures = []
    for idx, sub in enumerate(generator_substitutions(n)):
        acted = act_on_power(op, spec.l, base, sub)
        if acted != expr:
            failures.append({
                "generator": "phase" if idx == 0 else f"shift{idx}",
                "difference": (acted - expr).canonical_str(),
            })
    rng = random.Random(seed)
    for _ in range(composite_samples):
        g = random_group_element(n, rng)
        sub = substitution_from_group(g)
        acted = act_on_power(op, spec.l, base, sub)
        if acted != expr:
            failures.append({"generator": "random composite",
                             "difference": (acted - expr).canonical_str()})
            break
    weights = expr.u1_weights()
    deg = expr.degree()
    expected_deg = AffineExponent.of(0, -1) if spec.lam is None \
        else AffineExponent.of(-spec.lam)
    side_ok = (weights <= {0} and expr.parity() == "even"
               and deg == expected_deg)
    details.update({
        "u1_weights": sorted(weights),
        "parity": expr.parity(),
        "degree": str(deg),
        "composite_samples": composite_samples,
    })
    if failures:
        details["failures"] = failures
    ok = not failures and side_ok
    return CheckRecord(
        check_id=f"invariance.{_family_name(spec)}.n{n}.l{spec.l}",
        statement=(f"{_family_name(spec)} of order {spec.l} is fixed by "
                   f"every generator (n={n})"),
        paper_ref="Proposition 4.5" if spec.family != "T2"
        else "n=2 proof",
        status=PASS if ok else FAIL,
        details=details,
    )


def verify_independence(spec: FamilySpec) -> CheckRecord:
    """The members of order 0..lmax = spec.l are linearly independent:
    coefficient rank over the lam-function field equals lmax + 1."""
    lmax = spec.l
    family = build_family(spec)
    rank = independence_rank(family)
    ok = rank == lmax + 1
    return CheckRecord(
        check_id=f"independence.{_family_name(spec)}.n{spec.n}.lmax{lmax}",
        statement=(f"{_family_name(spec)} orders 0..{lmax} have rank "
                   f"{lmax + 1} (n={spec.n})"),
        paper_ref="Proposition 4.6" if spec.family != "T2" else "n=2 proof",
        status=PASS if ok else FAIL,
        details={"rank": rank, "expected": lmax + 1},
    )


def verify_support_filtration(n: int, j: int, lmax: int) -> CheckRecord:
    """The order-j family is supported on the closure of the (2j-1)-
    dimensional stratum and stays independent, witnessing the infinite-
    dimensional quotient of the support filtration.  Proposition 4.8 holds
    for generic lam, so the family is built at formal lam."""
    if n < 3 or not 2 <= j <= n - 1:
        raise ValueError("need n >= 3 and 2 <= j <= n-1")
    family = build_family(FamilySpec(n, "Tj", lmax, j))
    supports = [e.formal_support() for e in family]
    support_ok = all(s.stratum == j for s in supports)
    rank = independence_rank(family)
    rank_ok = rank == lmax + 1
    excluded = f"2N + {2 + 2 * n - 2 * j}"
    return CheckRecord(
        check_id=f"support.n{n}.j{j}.lmax{lmax}",
        statement=(f"order-(0..{lmax}) members supported on X{j} with rank "
                   f"{lmax + 1} (n={n})"),
        paper_ref="Proposition 4.8",
        status=PASS if (support_ok and rank_ok) else FAIL,
        details={
            "supports": [s.label() for s in supports],
            "rank": rank,
            "expected_rank": lmax + 1,
            "lambda": "formal",
            "excluded_lambda": excluded,
            "excluded_lambda_note": (
                "support equality at the excluded spectral values is "
                "analytic content, recorded but not formally verified"),
        },
    )

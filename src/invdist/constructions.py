"""The one vector field D_j, the one family table built on it, and the
verification procedures for the families' invariance, independence,
homogeneity, and support properties."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Tuple

from .clifford import h_generators, h_shift_formal
from .distributions import DistExpr, Residuals, independence_rank
from .records import FAIL, PASS, CheckRecord
from .scalars import AffineExponent, Scalar
from .weyl import WeylOp, conjugate_op, substitution_from_group, sym_z, \
    sym_zbar

__all__ = [
    "FamilySpec",
    "build_vector_field",
    "build_family",
    "verify_lemma_d",
    "FamilyWork",
    "verify_invariance",
    "verify_independence",
    "verify_support_filtration",
]


# ---------------------------------------------------------------------------
# Vector fields
# ---------------------------------------------------------------------------

def build_vector_field(n: int, j: int, conjugate: bool = False) -> WeylOp:
    """The first-order operator

        D_j = zbar_{j-1} d/dzbar_j + z_j d/dz_{j+1}   (no first term at j = 1)

    for 1 <= j <= n-1, or with ``conjugate`` its conjugate (z and zbar
    swapped).  The paper's D is (n, n-1), its conjugate (n, n-1, True), and
    D' is (2, 1)."""
    if not 1 <= j <= n - 1:
        raise ValueError(f"D_j requires 1 <= j <= n-1, got j={j}, n={n}")
    z, zbar = (sym_zbar, sym_z) if conjugate else (sym_z, sym_zbar)
    one = Scalar.one()
    op = WeylOp.term(n, one, {z(j): 1}, {z(j + 1): 1})
    if j == 1:
        return op
    return WeylOp.term(n, one, {zbar(j - 1): 1}, {zbar(j): 1}) + op


# ---------------------------------------------------------------------------
# Distribution families
# ---------------------------------------------------------------------------

# The one family table.  Every family is D_j, or its conjugate, applied l
# times to (z_j zbar_j)^sigma times the delta at z_{j+1} = ... = z_n = 0,
# with sigma = (n-j) - lam/2; a family's row gives (j, conjugate, lam).
_FAMILIES = {
    "T": lambda spec: (spec.n - 1, False, spec.lam),    # Proposition 4.5
    "Tbar": lambda spec: (spec.n - 1, True, spec.lam),  # Proposition 4.5
    "Tj": lambda spec: (spec.j, False, spec.lam),       # Proposition 4.8
    "T2": lambda spec: (1, False, Fraction(2)),         # n = 2, sigma = 0
}


def check_lam(lam, name: str) -> None:
    """Refuse a lam that is not formal (None), an int or a Fraction.  A
    bool is an int to Python, but would print as True or False."""
    if lam is not None and (not isinstance(lam, (int, Fraction))
                            or isinstance(lam, bool)):
        raise ValueError(f"{name} must be formal, an int or a Fraction, "
                         f"got {lam!r}")


class FamilySpec:
    """Which family to build: the members of order 0..l.

    family: "T" | "Tbar" | "Tj" | "T2"; j only for "Tj"; lam None means the
    formal holomorphic parameter, otherwise a fixed rational value (an int
    or a Fraction).  ``validate`` is the one check of a family's n, j and
    lam.  Immutable by convention.
    """

    __slots__ = ("n", "family", "l", "j", "lam")

    def __init__(self, n: int, family: str, l: int, j: Optional[int] = None,
                 lam: Optional[Fraction] = None):
        self.n, self.family, self.l, self.j, self.lam = n, family, l, j, lam

    def validate(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.l < 0:
            raise ValueError("order must be nonnegative")
        check_lam(self.lam, "lam")
        j = self.row()[0]
        if self.family == "T2":
            if self.n != 2 or self.lam not in (None, 2):
                raise ValueError("T2 is the n = 2 family, defined only at "
                                 "lam = 2 (or formal)")
        elif j is None or not 2 <= j <= self.n - 1:
            raise ValueError(f"{self.family} requires n >= 3 and "
                             f"2 <= j <= n-1, got n={self.n}, j={j}")

    def row(self) -> Tuple[Optional[int], bool, Optional[Fraction]]:
        """The family's (j, conjugate, lam) from the family table: T2 runs
        at lam = 2 also when ``self.lam`` is formal."""
        return _FAMILIES[self.family](self)


def _seed(spec: FamilySpec) -> Tuple[WeylOp, DistExpr]:
    """The family's operator D_j, or its conjugate, and its member of
    order 0, (z_j zbar_j)^sigma times the delta at z_{j+1} = ... = z_n = 0,
    with (j, conjugate, lam) from the family table."""
    spec.validate()
    n = spec.n
    j, conjugate, lam = spec.row()
    sigma = AffineExponent.of(n - j, Fraction(-1, 2)) if lam is None \
        else AffineExponent.of(n - j - Fraction(lam, 2))
    base = DistExpr.single(n, powers={j: sigma},
                           delta={k: (0, 0) for k in range(j + 1, n + 1)})
    return build_vector_field(n, j, conjugate), base


def build_family(spec: FamilySpec) -> List[DistExpr]:
    """The members of order 0..l, each the operator applied to the one
    before."""
    op, member = _seed(spec)
    family = [member]
    for _ in range(spec.l):
        family.append(family[-1].apply_weyl(op))
    return family


# ---------------------------------------------------------------------------
# Named verification procedures
# ---------------------------------------------------------------------------

def verify_lemma_d(n: int) -> CheckRecord:
    """The closed form of the conjugated vector field under the first
    shift generator, with a formal coefficient: D and Lemma 4.4 for
    n >= 3, D' and the n = 2 display for n = 2."""
    a = Scalar.var("a1")
    abar = a.conjugate()
    op = build_vector_field(n, n - 1)
    if n >= 3:
        which = "D"
        # expected: D + a(zbar_{n-2} - abar z_{n-1} + a abar zbar_n) d_{n-2}
        #             - a zbar_n d_n
        expected = op \
            + WeylOp.term(n, a, {sym_zbar(n - 2): 1}, {sym_z(n - 2): 1}) \
            + WeylOp.term(n, -(a * abar), {sym_z(n - 1): 1},
                          {sym_z(n - 2): 1}) \
            + WeylOp.term(n, a * a * abar, {sym_zbar(n): 1},
                          {sym_z(n - 2): 1}) \
            + WeylOp.term(n, -a, {sym_zbar(n): 1}, {sym_z(n): 1})
    else:
        which = "Dprime"
        # expected: D' + abar(z_1 - a zbar_2) dbar_1 - a zbar_2 d_2
        expected = op \
            + WeylOp.term(n, abar, {sym_z(1): 1}, {sym_zbar(1): 1}) \
            + WeylOp.term(n, -(a * abar), {sym_zbar(2): 1},
                          {sym_zbar(1): 1}) \
            + WeylOp.term(n, -a, {sym_zbar(2): 1}, {sym_z(2): 1})
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


class FamilyWork:
    """The work the family checks of one run share for one chain of orders
    0..spec.l, each part computed by the first check that reads it: the
    chain from one ``build_family`` call, its rank from one
    ``independence_rank`` call, and the invariance work of ``residuals``:
    the ``Residuals`` on the chain of each labelled generator of
    ``h_generators`` that the window lemma leaves, each holding its
    generator's difference operator g.D - D and its residuals of the
    orders asked for so far.  The generators generate H, so invariance
    under them is invariance under H.  Each part is a ``cached_property``,
    which keeps it in the instance's ``__dict__``, so this class has no
    ``__slots__``."""

    def __init__(self, spec: FamilySpec):
        self.spec = spec

    def check(self, spec: FamilySpec, rank: bool = False) -> "FamilyWork":
        """This work, if it serves a check of ``spec``: the same n and
        family row, at an order up to this one's, or at this very order for
        a ``rank`` check.  Otherwise ``ValueError``."""
        spec.validate()
        order_ok = spec.l == self.spec.l if rank else spec.l <= self.spec.l
        if (spec.n, spec.row()) != (self.spec.n, self.spec.row()) \
                or not order_ok:
            have, want = ((s.n, s.row(), s.l) for s in (self.spec, spec))
            raise ValueError(f"the family work of (n, (j, conjugate, lam), "
                             f"l) = {have} does not serve a check of {want}")
        return self

    @cached_property
    def chain(self) -> List[DistExpr]:
        return build_family(self.spec)

    @cached_property
    def rank(self) -> int:
        return independence_rank(self.chain)

    @cached_property
    def residuals(self) -> Tuple[List[Tuple[str, Residuals]], dict]:
        """(name, residuals) of each labelled generator the window lemma
        leaves, and {"width": w, "decided": how many it decided}.

        The window is {z_m..z_n}, of width w = n - m + 1, m the least
        variable index that a term of D or a key of a chain member reads
        (each ``Mono``, power and delta tuple is sorted, so its first pair
        holds its least index).  The lemma (Lemma 4.4, made local) decides
        g with no substitution, ``conjugate_op`` or residual when its
        profile has the diagonal exactly 1 and no entry at distances
        1..w-1; it reads the profile, not the generator's label:
        1. g is upper-triangular Toeplitz, so the inverse row of a window
           symbol z_i reads only window symbols and the entries X_k,
           k <= n - i < w.  By the recurrence of ``group_inverse``,
           X_0 = 1 and X_k = -sum_{1<=m<=k} A_m X_(k-m) = 0 for 0 < k < w,
           so these rows are the identity.
        2. The forward column of a derivative symbol of D, at a window
           variable j, is its own symbol plus entries A_k at distances
           k >= w, on the variables j - k < m, below the window.
        3. So E_g = g.D - D is a sum of terms that each differentiate a
           variable below the window, and ``_derive`` of a term that does
           not hold its variable gives no term: E_g T^l = 0 at every l.
           T^0 reads only window symbols, whose inverse rows are the
           identity, so g.T^0 = T^0.
        Every other generator's residuals are formed by ``Residuals``."""
        n = self.spec.n
        op = build_vector_field(n, *self.spec.row()[:2])
        reads = [mono[0][0] // 2 + 1 for key in op.terms for mono in key
                 if mono]
        for member in self.chain:
            for mono, powers, delta in member.terms:
                reads += [pairs[0][0] for pairs in (powers, delta) if pairs]
                if mono:
                    reads.append(mono[0][0] // 2 + 1)
        w = n - min(reads) + 1
        kept, decided = [], 0
        for name, g in h_generators(n):
            d = g.entries.get(0)
            if d and d.a == Scalar.one() and d.b.is_zero() \
                    and not any(0 < k < w for k in g.entries):
                decided += 1
            else:
                kept.append((name, Residuals(op, self.chain,
                                             substitution_from_group(g))))
        return kept, {"width": w, "decided": decided}


def verify_invariance(spec: FamilySpec, *,
                      work: Optional[FamilyWork] = None) -> CheckRecord:
    """Exact invariance of the family member under every generator (formal
    phase and formal shift coefficients), plus grading side checks.  By the
    induction of Proposition 4.5 (``Residuals``), an element fixes the
    members of orders 0..l exactly when its residuals g.T^0 - T^0 and
    E_g T^(k-1), 1 <= k <= l, are zero, with the difference operator
    E_g = g.D - D of Lemma 4.4.  A failure's ``difference`` is the
    first nonzero residual, which is g.T^l - T^l when the lower orders are
    fixed; its ``order`` is given when it lies below l.  The generators
    that the window lemma decides (``FamilyWork.residuals``) fix every
    order; when there are any, ``window_lemma`` gives the window width and
    their number.

    ``work`` is the ``FamilyWork`` a run shares between its checks of the
    orders 0..lmax and its other checks of the same chain; left out, it is
    built for ``spec`` alone."""
    work = (work or FamilyWork(spec)).check(spec)
    expr = work.chain[spec.l]
    n = spec.n
    details = {"family": _family_name(spec), "l": spec.l}
    failures = []
    kept, window = work.residuals
    for name, residuals in kept:
        failure = residuals.first_failure(spec.l)
        if failure:
            k, residual = failure
            failures.append({"generator": name,
                             "difference": residual.canonical_str()})
            if k < spec.l:
                failures[-1]["order"] = k
    weights = expr.u1_weights()
    deg = expr.degree()
    lam = spec.row()[2]
    expected_deg = AffineExponent.of(0, -1) if lam is None \
        else AffineExponent.of(-lam)
    parity = expr.parity()
    side_ok = weights <= {0} and parity == "even" and deg == expected_deg
    details.update({
        "u1_weights": sorted(weights),
        "parity": parity,
        "degree": str(deg),
    })
    if window["decided"]:
        details["window_lemma"] = dict(window)
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


def verify_independence(spec: FamilySpec, *,
                        work: Optional[FamilyWork] = None) -> CheckRecord:
    """The members of order 0..lmax = spec.l are linearly independent:
    coefficient rank over the lam-function field equals lmax + 1.
    ``work`` is the run's ``FamilyWork`` of this chain, as for
    ``verify_invariance``."""
    work = (work or FamilyWork(spec)).check(spec, rank=True)
    lmax = spec.l
    rank = work.rank
    ok = rank == lmax + 1
    return CheckRecord(
        check_id=f"independence.{_family_name(spec)}.n{spec.n}.lmax{lmax}",
        statement=(f"{_family_name(spec)} orders 0..{lmax} have rank "
                   f"{lmax + 1} (n={spec.n})"),
        paper_ref="Proposition 4.6" if spec.family != "T2" else "n=2 proof",
        status=PASS if ok else FAIL,
        details={"rank": rank, "expected": lmax + 1},
    )


def verify_support_filtration(n: int, j: int, lmax: int, *,
                              work: Optional[FamilyWork] = None
                              ) -> CheckRecord:
    """The order-j family is supported on the closure of the (2j-1)-
    dimensional stratum and stays independent, witnessing the infinite-
    dimensional quotient of the support filtration.  Proposition 4.8 holds
    for generic lam, so the family is built at formal lam.  ``work`` is the
    run's ``FamilyWork`` of this chain, as for ``verify_invariance``."""
    spec = FamilySpec(n, "Tj", lmax, j)
    work = (work or FamilyWork(spec)).check(spec, rank=True)
    supports = [e.formal_support() for e in work.chain]
    support_ok = all(s == j for s in supports)
    rank = work.rank
    rank_ok = rank == lmax + 1
    excluded = f"2N + {2 + 2 * n - 2 * j}"
    return CheckRecord(
        check_id=f"support.n{n}.j{j}.lmax{lmax}",
        statement=(f"order-(0..{lmax}) members supported on X{j} with rank "
                   f"{lmax + 1} (n={n})"),
        paper_ref="Proposition 4.8",
        status=PASS if (support_ok and rank_ok) else FAIL,
        details={
            "supports": ["irregular" if s is None else f"X{s}"
                         for s in supports],
            "rank": rank,
            "expected_rank": lmax + 1,
            "lambda": "formal",
            "excluded_lambda": excluded,
            "excluded_lambda_note": (
                "support equality at the excluded spectral values is "
                "analytic content, recorded but not formally verified"),
        },
    )

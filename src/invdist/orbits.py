"""Orbit stratification of the real projective space of C^n, and the
complexified picture with its continuum of orbit labels.

Points carry Gaussian-rational coordinates.  Strata are labelled by the
index of the last nonzero complex coordinate; the stratum of index j is a
(2j-1)-dimensional orbit.  Reachability: every point p of stratum j is
G_p e_j for the Toeplitz element G_p read off its coordinates, so
p ~ e_j ~ q for any q of the stratum.  Row j - k of G_z e_j is
z_{j-k} eps^k(1) = z_{j-k}, so one identity per parity of k, over formal
j, k and coordinates, certifies every stratum at every n (see
``Witness``); it is computed once per process.  The dimension
2j-1 is then read at e_j alone, as the exact rank 2j of the tangent and
radial directions there, read off the coordinates without building them
(see ``orbit_dimension``).  So the census reads every stratum at e_j and
draws no point.

The complexified label reads only the last two pairs of a point, and the
upper-triangular group moves them through a two-row tail that reads only
its diagonal and first shift (see ``_move_tail``); one formal identity
certifies the label's invariance at every n.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .clifford import eps_times_coeff
from .records import FAIL, PASS, CheckRecord
from .scalars import GR_I, GaussianRational, Scalar

__all__ = [
    "ProjPoint",
    "stratum_of",
    "stratum_dimension",
    "orbit_dimension",
    "transitivity_witness",
    "enumerate_strata",
    "complex_orbit_check",
    "Witness",
]


class ProjPoint:
    """A point of (C^n \\ {0}) / R^x with exact coordinates.  ``last`` is
    the index of its last nonzero coordinate (1-based), found on
    construction by one scan from the end.  Immutable by convention."""

    __slots__ = ("coords", "last")

    def __init__(self, coords: Tuple[GaussianRational, ...]):
        for j, c in zip(range(len(coords), 0, -1), reversed(coords)):
            if not c.is_zero():
                break
        else:
            raise ValueError("projective point needs a nonzero coordinate")
        self.coords, self.last = coords, j

    @property
    def n(self) -> int:
        return len(self.coords)


def stratum_of(p: ProjPoint) -> int:
    """Index of the last nonzero complex coordinate (1-based)."""
    return p.last


def stratum_dimension(j: int) -> int:
    return 2 * j - 1


# ---------------------------------------------------------------------------
# Exact tangent rank
# ---------------------------------------------------------------------------

def orbit_dimension(p: ProjPoint) -> int:
    """Exact rank of the tangent directions together with the radial
    direction, minus one: 2j - 1 for a point of stratum j.

    The directions are the images of z under a basis of the Lie algebra,
    plus the point itself: z (radial), i z (rotation), and for each shift
    k = 1..n-1 the two vectors with component m equal to a eps^k(z_{m+k})
    (zero when m + k > n), for a = 1 and a = i.  In real coordinates,
    component m is the pair (re, im) at 2m-2, 2m-1:

    - Upper bound.  Component m of every direction is z_m, i z_m or
      a eps^k(z_{m+k}), so each of its components m > j reads one of
      z_{j+1..n}.  These are zero, so the rank is at most 2j.
    - Lower bound.  Take the radial/rotation pair (k = 0) and shifts
      k = 1..j-1.  Pair k is zero past component j-k, and at component
      j-k its 2x2 block is [[x, +-y], [-+y, x]] with x + iy = z_j, of
      determinant |z_j|^2 > 0.  These 2j directions form a block
      triangular 2j x 2j minor with a nonzero determinant, so the rank
      is at least 2j.

    Both conditions are what ``stratum_of`` means by j, so no direction
    is built.  The tests rank the built directions by elimination as an
    oracle."""
    return 2 * stratum_of(p) - 1


# ---------------------------------------------------------------------------
# Transitivity witnesses
# ---------------------------------------------------------------------------

def _read_off(j, k):
    """The index of the coordinate that the k-th profile entry of G_z
    reads, for a point z of stratum j (k = 0 the diagonal): z_{j-k}.  The
    entries k >= j are zero."""
    return j - k


def _read_off_misses() -> int:
    """The parities of k for which row j - k of G_z e_j misses z_{j-k},
    over formal j and k and a formal coordinate z_m named by its index m:
    0 certifies G_p e_j = p for every point p of every stratum j at every
    n, its coordinates substituted.

    G_z is upper triangular and Toeplitz, so column j holds its k-th
    profile entry at row j - k, and e_j reads column j alone.  That entry
    is x eps^k with x the coordinate ``_read_off`` names, and it acts on
    e_j's entry 1 as (a + b*eps).1 = a + b*conj(1).  eps^k depends only on
    the parity of k, so two identities cover every k < j; the rows past j
    are empty sums, zero as z is there."""
    j, k = Scalar.var("j"), Scalar.var("k")

    def z(index: Scalar) -> Scalar:
        return Scalar.var(f"z[{index}]")

    x, one = z(_read_off(j, k)), Scalar.one()
    misses = 0
    for parity in (0, 1):
        entry = eps_times_coeff(x, parity)
        misses += entry.a * one + entry.b * one.conjugate() != z(j - k)
    return misses


# _read_off_misses(), computed on the first witness: it depends on
# neither n nor j
_READ_OFF_MISSES: Optional[int] = None


class Witness:
    """p ~ e_j ~ q for two points of stratum j.

    G_z, read off a point z of stratum j (diagonal z_j, k-th shift
    z_{j-k}), maps e_j to z: since eps^k(1) = 1, row j - k of G_z e_j is
    z_{j-k}.  z_j is nonzero, so G_z/|z_j| lies in H and maps e_j to a
    positive multiple of z, the same projective point.  ``residual``
    counts the parities of k for which that read-off identity fails over
    formal coordinates, one certificate for every stratum at every n;
    ``exact`` is True, since the identity is decided in exact arithmetic
    with no tolerance."""

    __slots__ = ("stratum", "residual")
    exact = True

    def __init__(self, stratum: int, residual: int):
        self.stratum, self.residual = stratum, residual


def transitivity_witness(p: ProjPoint, q: ProjPoint) -> Optional[Witness]:
    """The read-off certificate when p and q share a stratum, or None when
    the strata differ: two ``stratum_of`` reads, no solve."""
    global _READ_OFF_MISSES
    if p.n != q.n:
        raise ValueError("dimension mismatch")
    j = stratum_of(p)
    if stratum_of(q) != j:
        return None
    if _READ_OFF_MISSES is None:
        _READ_OFF_MISSES = _read_off_misses()
    return Witness(j, _READ_OFF_MISSES)


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

def enumerate_strata(n: int, residual_tol: int = 0) -> CheckRecord:
    """The orbit structure read at the unit points e_1, ..., e_n: exactly
    n stratum labels, each stratum's exact tangent dimension 2j-1, and
    reachability inside each stratum by its witness for the fixed pair
    e_j -> i*e_j.  A witness fails when more than ``residual_tol`` parities
    of k miss the read-off identity G_z e_j = z (``_read_off_misses``),
    which every witness shares.  That identity puts every point of stratum
    j in the orbit of e_j, and the dimension is constant along an orbit,
    so e_j stands for its stratum; a ``dim_failures`` entry names a
    stratum.

    No pair across strata is reachable: every g in H is upper triangular
    with an invertible diagonal, so for p of stratum j, (g p)_m = 0 for
    m > j and (g p)_j = g_jj p_j is nonzero.  H preserves ``stratum_of``,
    and ``cross_failures`` counts the pairs (e_j, e_{j+1}) that
    ``transitivity_witness`` does not decline."""
    if n < 2:
        raise ValueError("n must be at least 2")

    def unit(j: int, value: GaussianRational) -> ProjPoint:
        coords = [GaussianRational()] * n
        coords[j - 1] = value
        return ProjPoint(tuple(coords))

    one = GaussianRational.of(1)
    labels, dim_failures = [], []
    max_residual = witness_failures = cross_failures = 0
    e_next = unit(1, one)
    for j in range(1, n + 1):
        # e_(j+1) serves the cross pair, then as the next e_j
        e_j, e_next = e_next, unit(j + 1, one) if j < n else None
        labels.append(stratum_of(e_j))
        d = orbit_dimension(e_j)
        if d != stratum_dimension(j):
            dim_failures.append({"stratum": j, "rank_dim": d,
                                 "expected": stratum_dimension(j)})
        w = transitivity_witness(e_j, unit(j, GR_I))
        if w is None or w.residual > residual_tol:
            witness_failures += 1
        if w is not None:
            max_residual = max(max_residual, w.residual)
        if j < n and transitivity_witness(e_j, e_next) is not None:
            cross_failures += 1
    ok = (labels == list(range(1, n + 1)) and not dim_failures
          and witness_failures == 0 and cross_failures == 0)
    return CheckRecord(
        check_id=f"orbits.census.n{n}",
        statement=(f"exactly {n} strata with dimensions "
                   f"{[stratum_dimension(j) for j in range(1, n + 1)]} "
                   f"and same-stratum reachability (n={n})"),
        paper_ref="Proposition 4.3",
        status=PASS if ok else FAIL,
        details={
            "certificate": "read-off identity",
            "dimensions": {str(j): stratum_dimension(j)
                           for j in range(1, n + 1)},
            "max_residual": max_residual,
            "dim_failures": dim_failures,
            "witness_failures": witness_failures,
            "cross_failures": cross_failures,
        },
    )


# ---------------------------------------------------------------------------
# Complexified orbits
# ---------------------------------------------------------------------------

def _move_tail(diag, shift, tail):
    """Rows n-1 and n of g z, from the last two pairs of z, for the
    complexified Toeplitz element g with diagonal pair diag = (t, s) and
    first shift (a, b)*eps, shift = (a, b), which sends a pair (z, w) to
    (a conj(w), b conj(z)).  g is upper triangular and its k-th shift
    reaches row m from pair m + k, so no other pair or shift reaches these
    rows.  Works over any ring with ``conjugate``: formal Scalars or plain
    Gaussian rationals."""
    (t, s), (a, b) = diag, shift
    (z_prev, w_prev), (z_last, w_last) = tail
    return [(t * z_prev + a * w_last.conjugate(),
             s * w_prev + b * z_last.conjugate()),
            (t * z_last, s * w_last)]


def _symbolic_zeta_check() -> bool:
    """With a formal group element and a formal point on the ratio locus,
    the last pair scales by the diagonal phase and the ratio of the last
    two z-components is unchanged (checked by cross-multiplication).

    The label reads only z_{n-1}, z_n and w_n of the image, which
    ``_move_tail`` forms from the last two pairs, the diagonal and one
    formal shift pair.  The pairs above, and every shift past the first,
    never reach the label, so this one identity certifies it for the full
    formal element at every n >= 2, and no symbol depends on n."""
    t = Scalar.var("t")
    diag = (t, Scalar.var("tdual"))
    shift = (Scalar.var("A1"), Scalar.var("B1"))
    zeta = Scalar.var("zeta")
    zn = Scalar.var("q")
    tail = [(zeta * zn, Scalar.var("W")),
            (zn, Scalar.zero())]  # the locus w_n = 0
    (z_prev, _), (z_last, w_last) = _move_tail(diag, shift, tail)
    # cross-multiplied ratio identity: z'_{n-1} == zeta * z'_n
    return (w_last.is_zero() and z_last == t * zn
            and z_prev == zeta * z_last)


def complex_orbit_check(n: int, zeta_values: Sequence[GaussianRational]
                        ) -> CheckRecord:
    """The ratio label is constant on complexified orbits, and distinct
    rational labels give pairwise distinct orbits, so the number of orbits
    exceeds every finite bound.  The label's invariance is the one formal
    identity of ``_symbolic_zeta_check``, which holds for the full group
    element at every n >= 2, so no value is sampled."""
    if n < 2:
        raise ValueError("n must be at least 2")
    symbolic_ok = _symbolic_zeta_check()
    distinct = len(set(zeta_values)) == len(zeta_values)
    return CheckRecord(
        check_id=f"complex-orbits.n{n}",
        statement=(f"{len(zeta_values)} distinct ratio labels certify "
                   f"pairwise distinct complexified orbits (n={n})"),
        paper_ref="Proposition 4.10",
        status=PASS if symbolic_ok and distinct else FAIL,
        details={
            "symbolic_invariance": symbolic_ok,
            "distinct_labels": len(zeta_values) if distinct else "collision",
        },
    )

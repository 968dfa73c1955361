"""Orbit stratification of the real projective space of C^n, and the
complexified picture with its continuum of orbit labels.

Points carry Gaussian-rational coordinates.  Strata are labelled by the
index of the last nonzero complex coordinate; the stratum of index j is a
(2j-1)-dimensional orbit, which we certify by exact tangent-space rank at
the point, plus constructive reachability witnesses.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .records import FAIL, PASS, CheckRecord
from .scalars import GR_I, GaussianRational, Scalar, integer_rank

__all__ = [
    "ProjPoint",
    "CplxProjPoint",
    "stratum_of",
    "stratum_dimension",
    "orbit_dimension",
    "transitivity_witness",
    "enumerate_strata",
    "zeta_invariant",
    "complex_orbit_check",
    "Witness",
]


@dataclass(frozen=True)
class ProjPoint:
    """A point of (C^n \\ {0}) / R^x with exact coordinates."""

    coords: Tuple[GaussianRational, ...]

    def __post_init__(self):
        if all(c.is_zero() for c in self.coords):
            raise ValueError("projective point needs a nonzero coordinate")

    @property
    def n(self) -> int:
        return len(self.coords)

    @staticmethod
    def of(*values) -> "ProjPoint":
        coords = []
        for v in values:
            if isinstance(v, GaussianRational):
                coords.append(v)
            elif isinstance(v, tuple):
                coords.append(GaussianRational.of(*v))
            else:
                coords.append(GaussianRational.of(v))
        return ProjPoint(tuple(coords))


@dataclass(frozen=True)
class CplxProjPoint:
    """A point of the complexified projective space: n pairs (z_j, w_j)
    modulo the scaling c.(z, w) = (c z, conj(c) w)."""

    coords: Tuple[Tuple[GaussianRational, GaussianRational], ...]

    def __post_init__(self):
        if all(z.is_zero() and w.is_zero() for z, w in self.coords):
            raise ValueError("point needs a nonzero coordinate")

    @property
    def n(self) -> int:
        return len(self.coords)


def stratum_of(p: ProjPoint) -> int:
    """Index of the last nonzero complex coordinate (1-based)."""
    for j in range(p.n, 0, -1):
        if not p.coords[j - 1].is_zero():
            return j
    raise ValueError("zero vector")  # unreachable by construction


def stratum_dimension(j: int) -> int:
    return 2 * j - 1


# ---------------------------------------------------------------------------
# Exact tangent rank
# ---------------------------------------------------------------------------

def _interleave(re: Sequence[int], im: Sequence[int]) -> List[int]:
    return [x for pair in zip(re, im) for x in pair]


def _lie_directions(p: ProjPoint) -> List[List[int]]:
    """Images of the point under a basis of the (2n-1)-dimensional Lie
    algebra: the i-rotation direction and both real directions of every
    superdiagonal coefficient, plus the point itself (radial direction).

    The point is first scaled by the lcm of its denominators, a positive
    real scale that names the same projective point, so each image is an
    integer vector (re, im interleaved): multiplying by i and conjugating
    only permute and negate components."""
    n = p.n
    scale = math.lcm(*[part.denominator for c in p.coords
                       for part in (c.re, c.im)])
    xs = [int(c.re * scale) for c in p.coords]
    ys = [int(c.im * scale) for c in p.coords]
    vectors = [_interleave(xs, ys), _interleave([-y for y in ys], xs)]
    for k in range(1, n):
        # component m is z_{m+k}, conjugated for odd k, or 0 past the end
        sign = -1 if k % 2 else 1
        re = xs[k:] + [0] * k
        im = [sign * y for y in ys[k:]] + [0] * k
        vectors.append(_interleave(re, im))
        vectors.append(_interleave([-y for y in im], re))
    return vectors


def orbit_dimension(p: ProjPoint) -> int:
    """Exact rank of the tangent directions together with the radial
    direction, minus one."""
    return integer_rank(_lie_directions(p)) - 1


# ---------------------------------------------------------------------------
# Transitivity witnesses
# ---------------------------------------------------------------------------

@dataclass
class Witness:
    theta: float
    shifts: List[complex]
    scale: float
    residual: float
    exact: bool = False


def _eps_pow(v: complex, k: int) -> complex:
    return v.conjugate() if k % 2 else v


def _apply_group_float(theta: float, shifts: Sequence[complex],
                       z: Sequence[complex]) -> List[complex]:
    n = len(z)
    phase = cmath.exp(1j * theta)
    out = []
    for m in range(1, n + 1):
        acc = phase * z[m - 1]
        for k in range(1, n - m + 1):
            if k - 1 < len(shifts):
                acc += shifts[k - 1] * _eps_pow(z[m + k - 1], k)
        out.append(acc)
    return out


def _sqrt_fraction(f: Fraction) -> Optional[Fraction]:
    if f < 0:
        return None
    num = math.isqrt(f.numerator)
    den = math.isqrt(f.denominator)
    if num * num == f.numerator and den * den == f.denominator:
        return Fraction(num, den)
    return None


def transitivity_witness(p: ProjPoint, q: ProjPoint) -> Optional[Witness]:
    """A group element (phase, shift coefficients) and a real scale mapping
    p to q, or None when the strata differ.

    When the required phase happens to be a Gaussian-rational unit the
    witness is computed exactly (residual 0); otherwise the solve is done
    in floating point with the residual reported.
    """
    if p.n != q.n:
        raise ValueError("dimension mismatch")
    jp, jq = stratum_of(p), stratum_of(q)
    if jp != jq:
        return None
    j = jp
    ratio = q.coords[j - 1] / p.coords[j - 1]
    r_exact = _sqrt_fraction(ratio.norm2())
    if r_exact is not None:
        return _exact_witness(p, q, j, ratio, r_exact)
    return _float_witness(p, q, j)


def _exact_witness(p: ProjPoint, q: ProjPoint, j: int,
                   ratio: GaussianRational, r: Fraction) -> Witness:
    phase = GaussianRational(ratio.re / r, ratio.im / r)
    shifts: List[GaussianRational] = [GaussianRational()] * (j - 1)
    inv_r = GaussianRational.of(Fraction(1) / r)
    for m in range(j - 1, 0, -1):
        k_new = j - m
        rhs = inv_r * q.coords[m - 1] - phase * p.coords[m - 1]
        for k in range(1, k_new):
            src = p.coords[m + k - 1]
            rhs = rhs - shifts[k - 1] * (src.conj() if k % 2 else src)
        pj = p.coords[j - 1]
        coeff = pj.conj() if k_new % 2 else pj
        shifts[k_new - 1] = rhs / coeff
    # confirm exactly
    scaled = _apply_group_exact(phase, shifts, p.coords)
    ok = all((GaussianRational.of(r) * a - b).is_zero()
             for a, b in zip(scaled, q.coords))
    theta = math.atan2(float(phase.im), float(phase.re))
    return Witness(theta, [complex(a) for a in shifts], float(r),
                   0.0 if ok else float("inf"), exact=True)


def _apply_group_exact(phase: GaussianRational,
                       shifts: Sequence[GaussianRational],
                       z: Sequence[GaussianRational]) -> List[GaussianRational]:
    n = len(z)
    out = []
    for m in range(1, n + 1):
        acc = phase * z[m - 1]
        for k in range(1, n - m + 1):
            if k - 1 < len(shifts):
                src = z[m + k - 1]
                acc = acc + shifts[k - 1] * (src.conj() if k % 2 else src)
        out.append(acc)
    return out


def _float_witness(p: ProjPoint, q: ProjPoint, j: int) -> Witness:
    pz = [complex(c) for c in p.coords]
    qz = [complex(c) for c in q.coords]
    ratio = qz[j - 1] / pz[j - 1]
    r = abs(ratio)
    phase = ratio / r
    theta = cmath.phase(phase)
    shifts: List[complex] = [0j] * (j - 1)
    for m in range(j - 1, 0, -1):
        k_new = j - m
        rhs = qz[m - 1] / r - phase * pz[m - 1]
        for k in range(1, k_new):
            rhs -= shifts[k - 1] * _eps_pow(pz[m + k - 1], k)
        coeff = _eps_pow(pz[j - 1], k_new)
        shifts[k_new - 1] = rhs / coeff
    image = _apply_group_float(theta, shifts, pz)
    residual = math.sqrt(sum(abs(r * a - b) ** 2
                             for a, b in zip(image, qz)))
    return Witness(theta, shifts, r, residual)


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

def _random_point(n: int, rng: random.Random) -> ProjPoint:
    while True:
        coords = []
        for _ in range(n):
            coords.append(GaussianRational.of(
                Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 4))))
        if any(not c.is_zero() for c in coords):
            # truncate to a random stratum so every stratum gets samples
            j = rng.randint(1, n)
            trunc = list(coords[:j]) + [GaussianRational()] * (n - j)
            if not trunc[j - 1].is_zero():
                return ProjPoint(tuple(trunc))


def enumerate_strata(n: int, samples: int = 100, seed: int = 0,
                     witness_pairs: int = 50,
                     residual_tol: float = 1e-9) -> CheckRecord:
    """Random census of the orbit structure: exactly n stratum labels, each
    with exact tangent dimension 2j-1, and reachability witnesses inside
    each stratum."""
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = random.Random(seed)
    buckets: Dict[int, List[ProjPoint]] = {j: [] for j in range(1, n + 1)}
    points = []
    for j in range(1, n + 1):
        unit = [GaussianRational()] * n
        unit[j - 1] = GaussianRational.of(1)
        points.append(ProjPoint(tuple(unit)))
    points.extend(_random_point(n, rng) for _ in range(samples))
    dim_failures = []
    for p in points:
        j = stratum_of(p)
        buckets[j].append(p)
        d = orbit_dimension(p)
        if d != stratum_dimension(j):
            dim_failures.append({"point": [str(c) for c in p.coords],
                                 "rank_dim": d,
                                 "expected": stratum_dimension(j)})
    max_residual = 0.0
    witness_failures = 0
    cross_failures = 0
    pairs_tested: Dict[str, int] = {}
    for j, bucket in buckets.items():
        # one fixed exact pair e_j -> i*e_j, drawn without the rng, so no
        # stratum passes without a witness even at samples=0
        e_j = points[j - 1]
        pairs = [(e_j, ProjPoint(tuple(GR_I * c for c in e_j.coords)))]
        if len(bucket) >= 2:
            pairs.extend(rng.sample(bucket, 2) for _ in range(witness_pairs))
        for a, b in pairs:
            w = transitivity_witness(a, b)
            if w is None or w.residual > residual_tol:
                witness_failures += 1
            else:
                max_residual = max(max_residual, w.residual)
        pairs_tested[str(j)] = len(pairs)
    # cross-stratum pairs must fail
    for j in range(1, n):
        if buckets[j] and buckets[j + 1]:
            if transitivity_witness(buckets[j][0], buckets[j + 1][0]) \
                    is not None:
                cross_failures += 1
    labels = sorted(j for j, b in buckets.items() if b)
    ok = (labels == list(range(1, n + 1)) and not dim_failures
          and all(pairs_tested.values())
          and witness_failures == 0 and cross_failures == 0)
    return CheckRecord(
        check_id=f"orbits.census.n{n}",
        statement=(f"exactly {n} strata with dimensions "
                   f"{[stratum_dimension(j) for j in range(1, n + 1)]} "
                   f"and same-stratum reachability (n={n})"),
        paper_ref="Proposition 4.3",
        status=PASS if ok else FAIL,
        details={
            "strata": {str(j): len(b) for j, b in buckets.items()},
            "dimensions": {str(j): stratum_dimension(j)
                           for j in range(1, n + 1)},
            "max_residual": max_residual,
            "dim_failures": dim_failures,
            "witness_failures": witness_failures,
            "witness_pairs": pairs_tested,
            "cross_failures": cross_failures,
            "samples": samples,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# Complexified orbits
# ---------------------------------------------------------------------------

def zeta_invariant(p: CplxProjPoint) -> Optional[GaussianRational]:
    """The ratio z_{n-1} / z_n on the locus w_n = 0, z_n != 0; None off
    the locus.  Invariant under the complexified scaling and group."""
    z_n, w_n = p.coords[-1]
    if not w_n.is_zero() or z_n.is_zero():
        return None
    z_prev, _ = p.coords[-2]
    return z_prev / z_n


def _cplx_apply(diag, super_pairs, pairs):
    """Image of the pairs (z_j, w_j) under the complexified Toeplitz element
    with diagonal pair diag = (t, s) and k-th superdiagonal entry
    (a_k, b_k)*eps^k.

    (a, b)*eps^k sends (z, w) to (a z, b w) for even k and to
    (a conj(w), b conj(z)) for odd k.  Works over any ring with
    ``conjugate``: formal Scalars or plain Gaussian rationals.
    """
    t, s = diag
    n = len(pairs)
    out = []
    for i in range(n):
        z, w = pairs[i]
        z_acc, w_acc = t * z, s * w
        for k in range(1, n - i):
            a, b = super_pairs[k - 1]
            z, w = pairs[i + k]
            if k % 2:
                z, w = w.conjugate(), z.conjugate()
            z_acc = z_acc + a * z
            w_acc = w_acc + b * w
        out.append((z_acc, w_acc))
    return out


def _symbolic_zeta_check(n: int) -> bool:
    """With a fully formal group element and a formal point on the ratio
    locus, the last pair scales by the diagonal phase and the ratio of the
    last two z-components is unchanged (checked by cross-multiplication)."""
    t = Scalar.var("t")
    diag = (t, Scalar.var("tdual"))
    super_pairs = [(Scalar.var(f"A{k}"), Scalar.var(f"B{k}"))
                   for k in range(1, n)]
    zeta = Scalar.var("zeta")
    zn = Scalar.var("q")
    pairs: List[Tuple[Scalar, Scalar]] = []
    for i in range(1, n - 1):
        pairs.append((Scalar.var(f"Z{i}"), Scalar.var(f"W{i}")))
    pairs.append((zeta * zn, Scalar.var(f"W{n - 1}")))
    pairs.append((zn, Scalar.zero()))  # the locus w_n = 0
    image = _cplx_apply(diag, super_pairs, pairs)
    z_last, w_last = image[-1]
    z_prev, _ = image[-2]
    if not w_last.is_zero():
        return False
    if z_last != t * zn:
        return False
    # cross-multiplied ratio identity: z'_{n-1} == zeta * z'_n
    return z_prev == zeta * z_last


def _random_cplx_unit(rng: random.Random) -> GaussianRational:
    while True:
        t = GaussianRational.of(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if not t.is_zero():
            return t


def complex_orbit_check(n: int, zeta_values: Sequence[GaussianRational],
                        samples: int = 50, seed: int = 0) -> CheckRecord:
    """The ratio label is constant on complexified orbits, and distinct
    rational labels give pairwise distinct orbits, so the number of orbits
    exceeds every finite bound."""
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = random.Random(seed)
    symbolic_ok = _symbolic_zeta_check(n)
    distinct = len({(z.re, z.im) for z in zeta_values}) == len(zeta_values)
    numeric_failures = 0
    for zeta in zeta_values:
        # a point on the ratio locus
        coords = []
        for _ in range(n - 2):
            coords.append((_random_cplx_unit(rng), _random_cplx_unit(rng)))
        zn = _random_cplx_unit(rng)
        coords.append((zeta * zn, _random_cplx_unit(rng)))
        coords.append((zn, GaussianRational()))
        point = CplxProjPoint(tuple(coords))
        if zeta_invariant(point) != zeta:
            numeric_failures += 1
            continue
        for _ in range(samples):
            t = _random_cplx_unit(rng)
            diag = (t, t.conj().inverse())
            super_pairs = [(_random_cplx_unit(rng), _random_cplx_unit(rng))
                           for _ in range(n - 1)]
            moved = CplxProjPoint(tuple(
                _cplx_apply(diag, super_pairs, point.coords)))
            if zeta_invariant(moved) != zeta:
                numeric_failures += 1
                break
            # scaling invariance
            c = _random_cplx_unit(rng)
            scaled = CplxProjPoint(tuple(
                (c * z, c.conj() * w) for z, w in moved.coords))
            if zeta_invariant(scaled) != zeta:
                numeric_failures += 1
                break
    ok = symbolic_ok and distinct and numeric_failures == 0
    return CheckRecord(
        check_id=f"complex-orbits.n{n}",
        statement=(f"{len(zeta_values)} distinct ratio labels certify "
                   f"pairwise distinct complexified orbits (n={n})"),
        paper_ref="Proposition 4.10",
        status=PASS if ok else FAIL,
        details={
            "symbolic_invariance": symbolic_ok,
            "distinct_labels": len(zeta_values) if distinct else "collision",
            "numeric_failures": numeric_failures,
            "samples_per_label": samples,
            "seed": seed,
        },
    )

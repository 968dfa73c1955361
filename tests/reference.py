"""Reference algebra shared by several test modules.

None of this is used by ``invdist``: each helper is a plain, direct
construction that a test compares the engine with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from invdist.clifford import REpsElement, Toeplitz, h_element, h_shift, \
    h_shift_formal
from invdist.distributions import DistExpr, RawTerm, \
    UnsupportedSubstitutionError
from invdist.orbits import ProjPoint, stratum_of
from invdist.scalars import LAM, AffineExponent, GaussianRational, Scalar, \
    _canonical, _mono_sorted
from invdist.weyl import Poly, Substitution, WeylOp, poly_linear, poly_mul, \
    substitute_poly, sym_z, sym_zbar


def _re_part(x: Scalar) -> Scalar:
    return (x + x.conjugate()) * Fraction(1, 2)


def _im_part(x: Scalar) -> Scalar:
    return (x - x.conjugate()) * Scalar.of(0, Fraction(-1, 2))


def add(x: REpsElement, y: REpsElement) -> REpsElement:
    """x + y, part by part: the engine adds its elements only inside a
    product's sums (``clifford._sum``)."""
    return REpsElement(x.a + y.a, x.b + y.b)


def iota_blocks(e: REpsElement) -> List[List[Scalar]]:
    """2x2 real block of left multiplication by a + b*eps on C = R^2
    in the basis (x, y): z -> a*z + b*conj(z)."""
    ra, ia = _re_part(e.a), _im_part(e.a)
    rb, ib = _re_part(e.b), _im_part(e.b)
    return [[ra + rb, -ia + ib],
            [ia + ib, ra - rb]]


# A dense matrix over the algebra: a tuple of n rows of n entries.
Dense = Tuple[Tuple[REpsElement, ...], ...]


def dense(t: Toeplitz) -> Dense:
    """The n x n matrix of a Toeplitz element, every entry written out:
    profile[j - i] at (i, j) for j >= i, zero below the diagonal."""
    zero = REpsElement()
    return tuple(tuple(t.profile[j - i] if j >= i else zero
                       for j in range(t.n)) for i in range(t.n))


def value(x):
    """The value of an ``REpsElement`` as its parts (a, b), of a
    ``Toeplitz`` element as n and its profile's values, and of a dense
    matrix or a row as its entries' values: nested tuples of Scalars, which
    compare by value.  The engine's classes compare by identity."""
    if isinstance(x, REpsElement):
        return x.a, x.b
    if isinstance(x, Toeplitz):
        return x.n, value(x.profile)
    return tuple(value(e) for e in x)


def iota(m: Dense) -> List[List[Scalar]]:
    """The reference embedding: the real 2n x 2n matrix of left
    multiplication on C^n = R^(2n) in the interleaved basis
    (x1, y1, ..., xn, yn), assembled from the 2x2 blocks."""
    n = len(m)
    out = [[Scalar.zero()] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            blk = iota_blocks(m[i][j])
            for bi in range(2):
                for bj in range(2):
                    out[2 * i + bi][2 * j + bj] = blk[bi][bj]
    return out


def identity(n: int) -> Toeplitz:
    """The identity of H: diagonal 1 and every shift zero."""
    return Toeplitz(n, (REpsElement(Scalar.one()),)
                    + (REpsElement(),) * (n - 1))


def twisted_shift2(n: int) -> Toeplitz:
    """The second shift generator h_2(a2) with a2*eps in place of
    a2*eps^2 = a2 on its second superdiagonal, which takes it out of H."""
    profile = list(h_shift_formal(n, 2).profile)
    profile[2] = REpsElement(Scalar.zero(), Scalar.var("a2"))
    return Toeplitz(n, tuple(profile))


def factor_into_generators(g: Toeplitz) -> List[Toeplitz]:
    """[phase(u), shift_1(b_1), ..., shift_{n-1}(b_{n-1})], whose product
    is g exactly; ``ValueError`` when g lies outside H.

    The shifts past k reach only the entries past k, so entry k of the
    product is entry k of P = phase(u) shift_1(b_1) ... shift_{k-1}(b_{k-1})
    times shift_k(b_k): P_k + u b_k eps^k.  So b_k is u^-1 (g_k - P_k) read
    at eps^k, a triangular recurrence, and the other part of g_k - P_k
    must be zero."""
    n, diag = g.n, g.profile[0]
    u = diag.a
    if not diag.b.is_zero() or not u.is_monomial() \
            or u * u.conjugate() != Scalar.one():
        raise ValueError(f"the diagonal {diag} is not a unit phase")
    factors = [h_element(n, u, [Scalar.zero()] * (n - 1))]
    product = factors[0]
    for k in range(1, n):
        rest = add(g.profile[k], -product.profile[k])
        at_eps_k, other = (rest.b, rest.a) if k % 2 else (rest.a, rest.b)
        if not other.is_zero():
            raise ValueError(f"entry {k}, {g.profile[k]}, is not in "
                             f"C eps^{k}")
        factors.append(h_shift(n, k, u.inverse_unit() * at_eps_k))
        product = product * factors[-1]
    if value(product) != value(g):
        raise ValueError("the factors do not multiply to g")
    return factors


def dense_mul(x: Dense, y: Dense) -> Dense:
    """The product by the dense n^3 loop over every index triple, each
    element product by the full formula
    (a+b*eps)(c+d*eps) = (ac + b*conj(d)) + (b*conj(c) + a*d)*eps."""
    n = len(x)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = REpsElement()
            for k in range(n):
                e, f = x[i][k], y[k][j]
                acc = add(acc, REpsElement(
                    e.a * f.a + e.b * f.b.conjugate(),
                    e.b * f.a.conjugate() + e.a * f.b))
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def neumann_inverse(m: Dense) -> Dense:
    """m^-1 = (I + N)^-1 D^-1 for m = D(I + N), D the constant diagonal
    unit d and N strictly upper triangular, from the finite Neumann series
    sum_k (-N)^k, with every product by ``dense_mul``."""
    n = len(m)
    d_inv = REpsElement(m[0][0].a.inverse_unit())
    zero = REpsElement()
    minus_n = tuple(tuple(-(d_inv * m[i][j]) if j > i else zero
                          for j in range(n)) for i in range(n))
    acc = power = tuple(tuple(REpsElement(Scalar.one()) if i == j else zero
                              for j in range(n)) for i in range(n))
    for _ in range(1, n):
        power = dense_mul(power, minus_n)
        acc = tuple(tuple(add(a, b) for a, b in zip(ra, rb))
                    for ra, rb in zip(acc, power))
    return dense_mul(acc, tuple(tuple(d_inv if i == j else zero
                                      for j in range(n)) for i in range(n)))


def from_gauss(g: GaussianRational) -> Scalar:
    """The constant scalar g."""
    return Scalar.of(*parts(g))


def _below(getrandbits, width: int) -> int:
    """Uniform on [0, width) by the rejection loop of CPython's
    ``Random.randint`` (3.11), so it consumes the same bits and returns
    the same value as ``randint(lo, lo + width - 1) - lo``."""
    k = width.bit_length()
    r = getrandbits(k)
    while r >= width:
        r = getrandbits(k)
    return r


def random_gaussian(rng, top: int, den: int) -> GaussianRational:
    """a/b + i*c/d with a, c uniform on [-top, top] and b, d on [1, den],
    drawn in the order a, b, c, d, equal to the draws of ``rng.randint``."""
    bits, span = rng.getrandbits, 2 * top + 1
    a, b = _below(bits, span) - top, _below(bits, den) + 1
    c, d = _below(bits, span) - top, _below(bits, den) + 1
    return _canonical(a * d, c * b, b * d)


def random_coefficient(rng, formal: bool) -> Scalar:
    """A plain Q(i) value, plus a formal symbol times a power of the unit u
    when ``formal``."""
    c = Scalar.of(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                  rng.randint(-2, 2))
    if formal:
        c = c + Scalar.var(rng.choice(["a1", "a2~", "lam"])) \
            * Scalar.var("u", rng.randint(-2, 2))
    return c


def random_entry(rng, formal: bool) -> REpsElement:
    """An element of one of the four kinds: zero, C-part only, eps-part
    only, or both; with formal or plain Q(i) coefficients."""
    kind = rng.randrange(4)
    return REpsElement(
        random_coefficient(rng, formal) if kind & 1 else Scalar.zero(),
        random_coefficient(rng, formal) if kind & 2 else Scalar.zero())


def random_toeplitz(n: int, rng, formal: bool,
                    diag: Optional[REpsElement] = None) -> Toeplitz:
    """A Toeplitz element whose entries are ``random_entry`` draws, with
    the diagonal ``diag`` if one is given."""
    first = random_entry(rng, formal) if diag is None else diag
    return Toeplitz(n, (first,) + tuple(random_entry(rng, formal)
                                        for _ in range(n - 1)))


# unit phases with rational parts
RATIONAL_UNITS = [(1, 0), (0, 1), (Fraction(3, 5), Fraction(4, 5)),
                  (Fraction(5, 13), Fraction(-12, 13)),
                  (Fraction(-8, 17), Fraction(15, 17))]


def random_h_element(n: int, rng, formal: bool) -> Toeplitz:
    """An element of H: a rational unit phase on the diagonal (times a
    power of the formal unit u when ``formal``) and ``random_coefficient``
    a_k at eps^k on the k-th superdiagonal."""
    phase = Scalar.of(*rng.choice(RATIONAL_UNITS))
    if formal:
        phase = phase * Scalar.var("u", rng.randint(-2, 2))
    return h_element(n, phase, [random_coefficient(rng, formal)
                                for _ in range(n - 1)])


def generator_product(n: int, rng) -> Toeplitz:
    """A plain element of H drawn as the product of its generator factors
    by ``factor_into_generators``."""
    return reduce(lambda x, y: x * y,
                  factor_into_generators(random_h_element(n, rng, False)))


def mat_mul_scalar(A: List[List[Scalar]],
                   B: List[List[Scalar]]) -> List[List[Scalar]]:
    size = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(size)), Scalar.zero())
             for j in range(size)] for i in range(size)]


def act(e: REpsElement, z: Scalar, zbar: Scalar) -> Tuple[Scalar, Scalar]:
    """R-linear action on C: (a+b*eps).z = a*z + b*conj(z), on a pair
    (z, zbar) with zbar == conj(z); the returned pair satisfies it too."""
    w = e.a * z + e.b * zbar
    wbar = e.a.conjugate() * zbar + e.b.conjugate() * z
    return w, wbar


def parts(g: GaussianRational) -> Tuple[Fraction, Fraction]:
    """The real and imaginary parts of g as Fractions."""
    return Fraction(g.num_re, g.den), Fraction(g.num_im, g.den)


def op_parts(op: WeylOp) -> Tuple[int, dict]:
    """An operator's size and its terms, by which the tests compare
    operators."""
    return op.n, op.terms


def expr_parts(e: DistExpr) -> Tuple[int, dict]:
    """An expression's size and its canonical terms, by which the tests
    compare expressions."""
    return e.n, e.terms


def constant_value(x: Scalar) -> GaussianRational:
    if set(x.terms) - {()}:
        raise ValueError(f"not a constant scalar: {x}")
    return x.terms.get((), GaussianRational())


def ratio_label(tail) -> Optional[Tuple[Fraction, Fraction]]:
    """The complexified orbit label of a point from its last two pairs
    (z_{n-1}, w_{n-1}), (z_n, w_n): the parts of z_{n-1} / z_n on the locus
    w_n = 0, z_n != 0, formed over Fractions, and None off the locus."""
    (z_prev, _), (z_last, w_last) = tail
    (a, b), (c, d) = parts(z_prev), parts(z_last)
    if parts(w_last) != (0, 0) or (c, d) == (0, 0):
        return None
    norm = c * c + d * d
    return (a * c + b * d) / norm, (b * c - a * d) / norm


@dataclass(frozen=True)
class CplxPairElement:
    """(a, c) + (b, d)*eps in the complexification
    (C (+) Cbar) (+) (C (+) Cbar)*eps, all four components scalars."""

    # a factory: Scalar is unhashable, so dataclasses refuse it as a default
    a: Scalar = field(default_factory=Scalar.zero)
    c: Scalar = field(default_factory=Scalar.zero)
    b: Scalar = field(default_factory=Scalar.zero)
    d: Scalar = field(default_factory=Scalar.zero)

    @staticmethod
    def one() -> "CplxPairElement":
        return CplxPairElement(Scalar.one(), Scalar.one())

    @staticmethod
    def eps() -> "CplxPairElement":
        return CplxPairElement(b=Scalar.one(), d=Scalar.one())

    @staticmethod
    def diagonal(a: Scalar, c: Scalar) -> "CplxPairElement":
        return CplxPairElement(a, c)

    def __mul__(self, other: "CplxPairElement") -> "CplxPairElement":
        # ((a,c)+(b,d)e)((a',c')+(b',d')e)
        #   = (aa' + b*conj(d'), cc' + d*conj(b'))
        #     + (ab' + b*conj(c'), cd' + d*conj(a'))e
        a, c, b, d = self.a, self.c, self.b, self.d
        a2, c2, b2, d2 = other.a, other.c, other.b, other.d
        return CplxPairElement(
            a * a2 + b * d2.conjugate(),
            c * c2 + d * b2.conjugate(),
            a * b2 + b * c2.conjugate(),
            c * d2 + d * a2.conjugate(),
        )

    def act(self, z: Scalar, w: Scalar) -> Tuple[Scalar, Scalar]:
        """Action on the complexified plane: (az + b*conj(w), cw + d*conj(z))."""
        return (self.a * z + self.b * w.conjugate(),
                self.c * w + self.d * z.conjugate())


def cplx_pair_times_eps_power(a: Scalar, b: Scalar,
                              k: int) -> CplxPairElement:
    """(a, b)*eps^k as an algebra element."""
    eps_k = CplxPairElement.one() if k % 2 == 0 else CplxPairElement.eps()
    return CplxPairElement.diagonal(a, b) * eps_k


def ref_mono_mul(m1, m2):
    """The product monomial, summed and sorted afresh (no memo)."""
    acc = dict(m1)
    for name, e in m2:
        acc[name] = acc.get(name, 0) + e
    return _mono_sorted(acc.items())


def loop_mul(x: Scalar, y: Scalar) -> dict:
    """The terms of x * y by the pairwise loop: each pair's
    ``GaussianRational`` product, reduced, added to its monomial's sum,
    reduced again; zeros pruned at the end.  The oracle of
    ``Scalar.__mul__``, which reduces each monomial's sum once."""
    acc = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            m = ref_mono_mul(m1, m2)
            acc[m] = acc[m] + c1 * c2 if m in acc else c1 * c2
    return {m: c for m, c in acc.items() if not c.is_zero()}


@dataclass(frozen=True)
class FractionGaussian:
    """An element re + i*im of Q(i) with two Fraction components: the
    direct representation that ``GaussianRational``'s int triple is
    compared with."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other: "FractionGaussian") -> "FractionGaussian":
        return FractionGaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "FractionGaussian") -> "FractionGaussian":
        return FractionGaussian(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "FractionGaussian") -> "FractionGaussian":
        return FractionGaussian(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    def conjugate(self) -> "FractionGaussian":
        return FractionGaussian(self.re, -self.im)

    def inverse(self) -> "FractionGaussian":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return FractionGaussian(self.re / n, -self.im / n)

    def __truediv__(self, other: "FractionGaussian") -> "FractionGaussian":
        return self * other.inverse()

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


@dataclass(frozen=True)
class FractionExponent:
    """An exponent r + s*lam with two Fraction parts: the direct
    representation that ``AffineExponent``'s int triple is compared with.
    ``+`` and ``-`` take an exponent, an int or a Fraction."""

    r: Fraction = Fraction(0)
    s: Fraction = Fraction(0)

    def __add__(self, other) -> "FractionExponent":
        if isinstance(other, FractionExponent):
            return FractionExponent(self.r + other.r, self.s + other.s)
        return FractionExponent(self.r + other, self.s)

    def __sub__(self, other) -> "FractionExponent":
        if isinstance(other, FractionExponent):
            return FractionExponent(self.r - other.r, self.s - other.s)
        return FractionExponent(self.r - other, self.s)

    def is_zero(self) -> bool:
        return not (self.r or self.s)

    def is_integer(self) -> bool:
        return not self.s and self.r.denominator == 1

    def as_scalar(self) -> Scalar:
        return Scalar.of(self.r) + Scalar.of(self.s) * LAM

    def __str__(self) -> str:
        if self.s == 0:
            return str(self.r)
        if self.r == 0:
            return f"{self.s}*lam"
        return f"{self.r}+{self.s}*lam"


def _interleave(re: List[int], im: List[int]) -> List[int]:
    out = [0] * (2 * len(re))
    out[0::2] = re
    out[1::2] = im
    return out


def lie_directions(p: ProjPoint) -> List[List[int]]:
    """The 2n directions whose rank ``orbit_dimension`` reads off the
    coordinates: the point itself (radial), its i-rotation, and both real
    directions of every superdiagonal coefficient, each the image of the
    point under one Lie algebra basis element.

    On the integer coordinates each image is an integer vector (re, im
    interleaved): multiplying by i and conjugating only permute and negate
    components."""
    n = p.n
    xs, ys = (list(part) for part in zip(*integer_coords(p)))
    vectors = [_interleave(xs, ys), _interleave([-y for y in ys], xs)]
    for k in range(1, n):
        # component m is z_{m+k}, conjugated for odd k, or 0 past the end
        sign = -1 if k % 2 else 1
        re = xs[k:] + [0] * k
        im = [sign * y for y in ys[k:]] + [0] * k
        vectors.append(_interleave(re, im))
        vectors.append(_interleave([-y for y in im], re))
    return vectors


def triangular_rank(vectors: Sequence[Sequence[int]], j: int
                    ) -> Optional[int]:
    """2j when the directions of a stratum-j point certify rank 2j by
    their zero pattern, or None: ``orbit_dimension``'s argument, checked
    on built vectors.

    Pair k is vectors[2k], vectors[2k+1].  Upper bound: every vector is
    zero at the real coordinates 2j and on.  Lower bound: for k < j, with
    m = 2(j-1-k), pair k is zero at coordinates m+2 .. 2j-1 and its 2x2
    block at columns m, m+1 (|eps^k(z_j)|^2 on a true point) is nonzero.
    The 2j x 2j minor of pairs 0..j-1 is then block triangular with a
    nonzero determinant."""
    width = 2 * j
    if any(any(v[width:]) for v in vectors):
        return None
    for k in range(j):
        m = 2 * (j - 1 - k)
        a, b = vectors[2 * k], vectors[2 * k + 1]
        if any(a[m + 2:width]) or any(b[m + 2:width]) \
                or a[m] * b[m + 1] == a[m + 1] * b[m]:
            return None
    return width


# ---------------------------------------------------------------------------
# The pairwise reachability solve over Z[i]
# ---------------------------------------------------------------------------

GaussInt = Tuple[int, int]  # re + i*im with integer parts


def integer_coords(p: ProjPoint) -> List[GaussInt]:
    """The coordinates scaled by the lcm of their denominators: a positive
    real scale, so they name the same projective point."""
    scale = math.lcm(*[c.den for c in p.coords])
    return [(c.num_re * (scale // c.den), c.num_im * (scale // c.den))
            for c in p.coords]


def _mul(a: GaussInt, b: GaussInt) -> GaussInt:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _conj(a: GaussInt) -> GaussInt:
    return a[0], -a[1]


def _toeplitz_row(u: GaussInt, shifts: Sequence[GaussInt],
                  z: Sequence[GaussInt]) -> GaussInt:
    """First coordinate of the image: u z_1 + sum_k v_k eps^k(z_{1+k}),
    where eps acts on C by conjugation: the odd k (shifts[0::2] against
    z[1::2]) take v_k conj(z_{1+k}), the even k take v_k z_{1+k}."""
    (ur, ui), (zr, zi) = u, z[0]
    re, im = ur * zr - ui * zi, ur * zi + ui * zr
    for (vr, vi), (sr, si) in zip(shifts[0::2], z[1::2]):
        re += vr * sr + vi * si
        im += vi * sr - vr * si
    for (vr, vi), (sr, si) in zip(shifts[1::2], z[2::2]):
        re += vr * sr - vi * si
        im += vr * si + vi * sr
    return re, im


def apply_toeplitz(u: GaussInt, shifts: Sequence[GaussInt],
                   z: Sequence[GaussInt]) -> List[GaussInt]:
    """Image of z under the upper-triangular Toeplitz matrix over Z[i] with
    diagonal u and k-th superdiagonal shifts[k-1]*eps^k (missing shifts are
    zero): (G z)_m = u z_m + sum_k v_k eps^k(z_{m+k}), over every row."""
    return [_toeplitz_row(u, shifts, z[m:]) for m in range(len(z))]


@dataclass
class PairSolve:
    """An integer certificate G p = scale * q on the integer coordinates
    of p and q, with G the Toeplitz matrix over Z[i] of ``diagonal`` and
    ``shifts``.  G/|diagonal| lies in H and maps p to the positive
    multiple scale/|diagonal| of q.  ``residual`` counts the coordinates
    where the identity fails, recomputed densely from G after the solve."""

    diagonal: GaussInt
    shifts: List[GaussInt]
    scale: int
    residual: int


def pair_solve(p: ProjPoint, q: ProjPoint) -> Optional[PairSolve]:
    """A fraction-free solve of G p = s q over Z[i], or None when the
    strata differ: the oracle of ``orbits.transitivity_witness``.

    With c = p_j (j the common stratum) and N = |c|^2, the diagonal
    q_j conj(c) and s = N solve the last row.  Each row above solves for
    one new shift v_k: u, s and the earlier shifts are multiplied by N,
    which keeps the rows below satisfied, and v_k is the row's residual
    times conj(eps^k(c)), since v_k eps^k(c) must then equal N times it.
    """
    j = stratum_of(p)
    if stratum_of(q) != j:
        return None
    z, w = integer_coords(p), integer_coords(q)
    c = z[j - 1]
    norm = c[0] * c[0] + c[1] * c[1]
    u, s = _mul(w[j - 1], _conj(c)), norm
    shifts: List[GaussInt] = []
    for k in range(1, j):
        m = j - 1 - k  # the 0-based row that fixes v_k
        image = _toeplitz_row(u, shifts, z[m:])
        rest = (s * w[m][0] - image[0], s * w[m][1] - image[1])
        u, s = (u[0] * norm, u[1] * norm), s * norm
        shifts = [(a * norm, b * norm) for a, b in shifts]
        shifts.append(_mul(rest, c if k % 2 else _conj(c)))
    image = apply_toeplitz(u, shifts, z)
    residual = sum(g != (s * a, s * b) for g, (a, b) in zip(image, w))
    return PairSolve(u, shifts, s, residual)


# ---------------------------------------------------------------------------
# The group action on distributions by jet expansion
# ---------------------------------------------------------------------------

def falling_factorial(sigma: AffineExponent, k: int) -> Scalar:
    """sigma*(sigma-1)*...*(sigma-k+1) as a polynomial in lam."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    acc = Scalar.one()
    for j in range(k):
        acc = acc * (sigma - j).as_scalar()
    return acc


def generalized_binomial(sigma: AffineExponent, k: int) -> Scalar:
    """Binomial coefficient C(sigma, k) with affine upper index."""
    return falling_factorial(sigma, k) * Scalar.of(
        Fraction(1, math.factorial(k)))


def transform_delta(delta, sub):
    """The derivative block pulled back one linear factor at a time: each
    d_s becomes sum_r F[r][s] d_r over the delta symbols r, with F the
    forward map; the underived block is fixed (unit determinant)."""
    base = {tuple(sorted((k, 0, 0) for k in delta)): Scalar.one()}
    for k, (alpha, beta) in delta.items():
        for s, count in ((sym_z(k), alpha), (sym_zbar(k), beta)):
            col = {}
            for r in delta:
                for rs in (sym_z(r), sym_zbar(r)):
                    cc = sub.fwd[rs].get(s)
                    if cc:
                        col[rs] = cc
            for _ in range(count):
                nxt = {}
                for dkey, dc in base.items():
                    orders = {kk: (a, b) for kk, a, b in dkey}
                    for rs, cc in col.items():
                        kk = rs // 2 + 1
                        a, b = orders[kk]
                        orders2 = dict(orders)
                        orders2[kk] = (a + 1, b) if rs % 2 == 0 \
                            else (a, b + 1)
                        key2 = tuple(sorted(
                            (m, x, y) for m, (x, y) in orders2.items()))
                        val = dc * cc
                        prev = nxt.get(key2)
                        nxt[key2] = val if prev is None else prev + val
                base = {kk: vv for kk, vv in nxt.items() if vv}
    return base


def _expand_power(j: int, sigma: AffineExponent, sub: Substitution,
                  order: int, width: int
                  ) -> List[Tuple[Scalar, Poly, AffineExponent]]:
    """The jets of |(g^-1 z)_j|^(2 sigma) up to ``order``, as
    (coefficient, polynomial, exponent) triples.

    With (g^-1 z)_j = c (z_j + w), |c| = 1 and w = conj(c) times the rest
    of the row, the power is (z_j + w)^sigma (zbar_j + wbar)^sigma
    = sum_{k,m} C(sigma, k) C(sigma, m) w^k wbar^m z_j^m zbar_j^k
    (z_j zbar_j)^(sigma-k-m).  Past k + m = order every term meets more
    delta symbols than the delta block has derivatives, so it is zero."""
    row, rowbar = sub.inv[sym_z(j)], sub.inv[sym_zbar(j)]
    c = row.get(sym_z(j), Scalar.zero())
    w = poly_linear({s: c.conjugate() * v for s, v in row.items()
                     if s != sym_z(j)}, width)
    wbar = poly_linear({s: c * v for s, v in rowbar.items()
                        if s != sym_zbar(j)}, width)
    out = []
    wk: Poly = {tuple([0] * width): Scalar.one()}
    for k in range(order + 1):
        if k:
            wk = poly_mul(wk, w)
        wkm = wk
        for m in range(order - k + 1):
            if m:
                wkm = poly_mul(wkm, wbar)
            extra = [0] * width
            extra[sym_z(j)], extra[sym_zbar(j)] = m, k
            out.append((generalized_binomial(sigma, k)
                        * generalized_binomial(sigma, m),
                        poly_mul(wkm, {tuple(extra): Scalar.one()}),
                        sigma - k - m))
    return out


def _check_jet_shape(t: RawTerm, sub: Substitution) -> None:
    """Raise ``ValueError`` unless g^-1 sends each delta variable z_k and
    each power base z_j to c z_k (or c z_j) with |c| = 1 plus delta symbols
    of other variables: the shape the jet expansion is exact on."""
    dset = set(t.delta)
    for k in (*t.delta, *t.powers):
        row = sub.inv[sym_z(k)]
        c = row.get(sym_z(k), Scalar.zero())
        if c * c.conjugate() != Scalar.one():
            raise ValueError(f"z{k} has the non-unit coefficient {c}")
        for s in row:
            if s != sym_z(k) and (s // 2 + 1 == k or s // 2 + 1 not in dset):
                raise ValueError(f"z{k} maps to symbol {s}, off the delta "
                                 "block")


def act_group(expr: DistExpr, sub: Substitution) -> DistExpr:
    """g.T = T o g^-1 on any expression, derived deltas included, by jet
    expansion: the monomial substitutes through the inverse map, each power
    factor expands around z_j (``_expand_power``) and the delta block pulls
    back through the forward map (``transform_delta``).  The oracle of
    ``DistExpr.act_group``.  It is exact only where g^-1 keeps the delta
    variables among themselves with a unit-modulus diagonal and each power
    base reads only z_j, with a unit-modulus coefficient, and delta
    symbols; ``_check_jet_shape`` raises ``ValueError`` anywhere else."""
    n, width = expr.n, 2 * expr.n
    raws = []
    for t in expr.raw_terms():
        _check_jet_shape(t, sub)
        order = sum(a + b for a, b in t.delta.values())
        # every combination of one jet of each power factor
        jets: List[Tuple[Scalar, Poly, Dict[int, AffineExponent]]] = [
            (t.coeff, substitute_poly({tuple(t.mono): Scalar.one()},
                                      sub.inv, width), {})]
        for j, sigma in t.powers.items():
            jets = [(c0 * c1, poly_mul(p0, p1), {**pw, j: e})
                    for c0, p0, pw in jets
                    for c1, p1, e in _expand_power(j, sigma, sub, order,
                                                   width)]
        for dkey, dc in transform_delta(t.delta, sub).items():
            for c, poly, powers in jets:
                for mono, pc in poly.items():
                    raws.append(RawTerm(list(mono), dict(powers),
                                        {k: (a, b) for k, a, b in dkey},
                                        c * pc * dc))
    return DistExpr.from_raw(n, raws)


# ---------------------------------------------------------------------------
# Term normalization, step by step
# ---------------------------------------------------------------------------

def canonical_key(t: RawTerm):
    """(key, coefficient) of one raw term, or None when it rewrites to
    zero: the oracle of ``distributions._canonical_key``.  It works on
    copies, one rule at a time: refuse a power factor on a delta variable,
    absorb each delta variable's monomial factors, fold the shared
    exponents of z_j and zbar_j into the power factor and turn a
    nonnegative-integer power factor back into monomials, then sort."""
    mono = list(t.mono)
    coeff = t.coeff
    delta = dict(t.delta)
    powers = {}
    for j, sigma in t.powers.items():
        if j in delta:
            raise UnsupportedSubstitutionError(
                f"power factor on delta variable z{j}")
        if not sigma.is_zero():
            powers[j] = sigma
    for k, (alpha, beta) in list(delta.items()):
        p, q = mono[sym_z(k)], mono[sym_zbar(k)]
        if p > alpha or q > beta:
            return None
        if p or q:
            f = math.perm(alpha, p) * math.perm(beta, q)
            if (p + q) % 2:
                f = -f
            coeff = coeff * Scalar.of(f)
            mono[sym_z(k)] = 0
            mono[sym_zbar(k)] = 0
            delta[k] = (alpha - p, beta - q)
    for j in list(powers):
        sigma = powers[j]
        m = min(mono[sym_z(j)], mono[sym_zbar(j)])
        if m:
            sigma = sigma + m
            mono[sym_z(j)] -= m
            mono[sym_zbar(j)] -= m
        if sigma.is_integer() and sigma.r >= 0:
            e = int(sigma.r)
            mono[sym_z(j)] += e
            mono[sym_zbar(j)] += e
            del powers[j]
        else:
            powers[j] = sigma
    if not coeff:
        return None
    return ((tuple(mono),
             tuple(sorted(powers.items())),
             tuple(sorted((k, a, b) for k, (a, b) in delta.items()))),
            coeff)

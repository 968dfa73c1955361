"""Reference algebra shared by several test modules.

None of this is used by ``invdist``: each helper is a plain, direct
construction that a test compares the engine with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from invdist.clifford import REpsElement, REpsMatrix, h_shift_formal, \
    iota_blocks
from invdist.orbits import ProjPoint, _integer_coords
from invdist.scalars import GaussianRational, Scalar, _mono_sorted


def iota(m: REpsMatrix) -> List[List[Scalar]]:
    """The reference embedding: the real 2n x 2n matrix of left
    multiplication on C^n = R^(2n) in the interleaved basis
    (x1, y1, ..., xn, yn), assembled from the 2x2 blocks."""
    n = m.n
    out = [[Scalar.zero()] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            blk = iota_blocks(m.entries[i][j])
            for bi in range(2):
                for bj in range(2):
                    out[2 * i + bi][2 * j + bj] = blk[bi][bj]
    return out


def twisted_shift2(n: int) -> REpsMatrix:
    """The second shift generator h_2(a2) with a2*eps in place of
    a2*eps^2 = a2 on its second superdiagonal, which takes it out of H."""
    rows = [list(r) for r in h_shift_formal(n, 2).entries]
    for i in range(n - 2):
        rows[i][i + 2] = REpsElement(Scalar.zero(), Scalar.var("a2"))
    return REpsMatrix.from_rows(rows)


def dense_mul(x: REpsMatrix, y: REpsMatrix) -> REpsMatrix:
    """The product by the dense n^3 loop over every index triple, each
    element product by the full formula
    (a+b*eps)(c+d*eps) = (ac + b*conj(d)) + (b*conj(c) + a*d)*eps."""
    n = x.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = REpsElement()
            for k in range(n):
                e, f = x.entries[i][k], y.entries[k][j]
                acc = acc + REpsElement(e.a * f.a + e.b * f.b.conjugate(),
                                        e.b * f.a.conjugate() + e.a * f.b)
            row.append(acc)
        rows.append(tuple(row))
    return REpsMatrix(n, tuple(rows))


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


def constant_value(x: Scalar) -> GaussianRational:
    if set(x.terms) - {()}:
        raise ValueError(f"not a constant scalar: {x}")
    return x.terms.get((), GaussianRational())


@dataclass(frozen=True)
class CplxPairElement:
    """(a, c) + (b, d)*eps in the complexification
    (C (+) Cbar) (+) (C (+) Cbar)*eps, all four components scalars."""

    a: Scalar = Scalar.zero()
    c: Scalar = Scalar.zero()
    b: Scalar = Scalar.zero()
    d: Scalar = Scalar.zero()

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

    def conj(self) -> "FractionGaussian":
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
    xs, ys = (list(part) for part in zip(*_integer_coords(p)))
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

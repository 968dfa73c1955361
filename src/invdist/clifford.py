"""The twisted algebra C + C*eps and matrices over it.

The four-dimensional real algebra is C (+) C*eps with product

    (a + b*eps)(c + d*eps) = (a*c + b*conj(d)) + (b*conj(c) + a*d)*eps,

so eps^2 = 1, i^2 = -1, i*eps = -eps*i.  It acts R-linearly on C by
(a + b*eps).z = a*z + b*conj(z).  The subgroup of upper-triangular Toeplitz
matrices with unit-phase diagonal and k-th superdiagonal entries a_k*eps^k
lands in SL(2n, R) under the left-multiplication embedding of C^n = R^(2n),
which sends a + b*eps to the 2x2 real block of z -> a*z + b*conj(z) in the
basis (x, y); that block has determinant |a|^2 - |b|^2.

The subgroup is closed under products (eq. (7)): if g and g' are upper
triangular and Toeplitz with profiles A_m and B_m, entry (i, i+k) of g g'
is sum_{m=0..k} A_m B_{k-m}, which does not depend on i, and an entry below
the diagonal is an empty sum.  So a product of two such factors is read
off its first row (see ``h_closure_check``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .records import FAIL, PASS, SKIPPED, CheckRecord
from .scalars import Scalar, random_gaussian

__all__ = [
    "REpsElement",
    "REpsMatrix",
    "h_phase",
    "h_shift",
    "h_element",
    "h_generators",
    "h_det_check",
    "h_closure_check",
    "group_inverse",
]


# ---------------------------------------------------------------------------
# Elements a + b*eps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class REpsElement:
    a: Scalar = Scalar.zero()
    b: Scalar = Scalar.zero()

    @staticmethod
    def one() -> "REpsElement":
        return REpsElement(Scalar.one())

    def __add__(self, other: "REpsElement") -> "REpsElement":
        # a sum of products of group-element entries keeps one zero part,
        # which is carried over without a Scalar sum
        a, b = self.a, self.b
        c, d = other.a, other.b
        return REpsElement(c if a.is_zero() else a if c.is_zero() else a + c,
                           d if b.is_zero() else b if d.is_zero() else b + d)

    def __neg__(self) -> "REpsElement":
        return REpsElement(-self.a, -self.b)

    def __mul__(self, other: "REpsElement") -> "REpsElement":
        # (a+b*eps)(c+d*eps) = (ac + b*conj(d)) + (b*conj(c) + a*d)*eps;
        # every entry of an h_element has a zero a or a zero b, and only
        # the products of two nonzero parts are formed
        a, b = self.a, self.b
        c, d = other.a, other.b
        if b.is_zero():
            if d.is_zero():
                return REpsElement(a * c)
            if c.is_zero():
                return REpsElement(Scalar.zero(), a * d)
            return REpsElement(a * c, a * d)
        if a.is_zero():
            if c.is_zero():
                return REpsElement(b * d.conjugate())
            if d.is_zero():
                return REpsElement(Scalar.zero(), b * c.conjugate())
            return REpsElement(b * d.conjugate(), b * c.conjugate())
        return REpsElement(a * c + b * d.conjugate(),
                           b * c.conjugate() + a * d)

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def __str__(self) -> str:
        return f"({self.a}) + ({self.b})*eps"


def eps_times_coeff(a: Scalar, k: int) -> REpsElement:
    """The element a*eps^k (eps^k is 1 for even k, eps for odd k)."""
    if k % 2 == 0:
        return REpsElement(a)
    return REpsElement(Scalar.zero(), a)


# ---------------------------------------------------------------------------
# Matrices over the algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class REpsMatrix:
    n: int
    entries: Tuple[Tuple[REpsElement, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[REpsElement]]) -> "REpsMatrix":
        n = len(rows)
        return REpsMatrix(n, tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(n: int) -> "REpsMatrix":
        one, zero = REpsElement.one(), REpsElement()
        return REpsMatrix(n, tuple(
            tuple(one if i == j else zero for j in range(n))
            for i in range(n)))

    def __mul__(self, other: "REpsMatrix") -> "REpsMatrix":
        """The product, formed from the nonzero entries only: each nonzero
        self[i][k] meets the nonzero (j, f) of row k of other once."""
        n = self.n
        if other.n != n:
            raise ValueError(f"cannot multiply n={n} by n={other.n}")
        nonzero = [[(j, f) for j, f in enumerate(row) if not f.is_zero()]
                   for row in other.entries]
        zero = REpsElement()
        rows = []
        for left in self.entries:
            acc: List[Optional[REpsElement]] = [None] * n
            for e, right in zip(left, nonzero):
                if e.is_zero():
                    continue
                for j, f in right:
                    p = e * f
                    acc[j] = p if acc[j] is None else acc[j] + p
            rows.append(tuple(zero if x is None else x for x in acc))
        return REpsMatrix(n, tuple(rows))


# ---------------------------------------------------------------------------
# Group generators (upper-triangular Toeplitz with unit-phase diagonal)
# ---------------------------------------------------------------------------

def h_element(n: int, diag: Scalar,
              superdiag: Sequence[Scalar]) -> REpsMatrix:
    """The Toeplitz element with given diagonal phase and superdiagonal
    coefficients (a_1, ..., a_{n-1}); entry (i, i+k) is a_k*eps^k."""
    if len(superdiag) != n - 1:
        raise ValueError("need n-1 superdiagonal coefficients")
    zero = REpsElement()
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j == i:
                row.append(REpsElement(diag))
            elif j > i:
                row.append(eps_times_coeff(superdiag[j - i - 1], j - i))
            else:
                row.append(zero)
        rows.append(tuple(row))
    return REpsMatrix(n, tuple(rows))


def h_phase(n: int) -> REpsMatrix:
    """The diagonal phase generator with the formal unit u."""
    return h_element(n, Scalar.var("u"), [Scalar.zero()] * (n - 1))


def h_shift(n: int, j: int, a: Scalar) -> REpsMatrix:
    """The generator with a single coefficient a on the j-th superdiagonal."""
    if not 1 <= j <= n - 1:
        raise ValueError(f"shift index {j} out of range for n={n}")
    coeffs = [Scalar.zero()] * (n - 1)
    coeffs[j - 1] = a
    return h_element(n, Scalar.one(), coeffs)


def h_shift_formal(n: int, j: int) -> REpsMatrix:
    """h_j(a) with a the formal symbol a{j}."""
    return h_shift(n, j, Scalar.var(f"a{j}"))


def h_generators(n: int) -> List[Tuple[str, REpsMatrix]]:
    """The labelled generators of H: the formal phase, then each shift
    with a formal coefficient."""
    return [("phase", h_phase(n))] + [
        (f"shift{j}", h_shift_formal(n, j)) for j in range(1, n)]


# ---------------------------------------------------------------------------
# Inverses of unit-diagonal-plus-unipotent elements
# ---------------------------------------------------------------------------

def group_inverse(g: REpsMatrix) -> REpsMatrix:
    """Inverse of g = D(I + N) with D a constant unit-phase diagonal and N
    strictly upper triangular, by back substitution on g x = I:
    x_jj = d^-1 and x_ij = -d^-1 * sum_{i<k<=j} g_ik x_kj."""
    n = g.n
    d = g.entries[0][0]
    if not d.b.is_zero() or not d.a.is_monomial():
        raise ValueError("diagonal must be a single-term unit in the C-part")
    for i in range(n):
        if g.entries[i][i] != d:
            raise ValueError("diagonal entries must all equal the unit phase")
        for j in range(i):
            if not g.entries[i][j].is_zero():
                raise ValueError("matrix must be upper triangular")
    d_inv = REpsElement(d.a.inverse_unit())
    zero = REpsElement()
    x = [[zero] * n for _ in range(n)]
    for j in range(n):
        x[j][j] = d_inv
        for i in range(j - 1, -1, -1):
            acc = zero
            for k in range(i + 1, j + 1):
                e, f = g.entries[i][k], x[k][j]
                if not e.is_zero() and not f.is_zero():
                    acc = acc + e * f
            if not acc.is_zero():
                x[i][j] = -(d_inv * acc)
    return REpsMatrix.from_rows(x)


# ---------------------------------------------------------------------------
# Verification records for the matrix group
# ---------------------------------------------------------------------------

def _block_det(g: REpsMatrix) -> Optional[Scalar]:
    """The determinant of the real 2n x 2n matrix of g, for upper-triangular
    g, or None if g has a nonzero entry below the diagonal.  The real
    matrix is then block upper triangular (the block of e is zero only
    when e is), so its determinant is the product of the diagonal blocks'
    determinants.  The block of a + b*eps is [[Re a + Re b, Im b - Im a],
    [Im a + Im b, Re a - Re b]], whose determinant is
    (Re a)^2 + (Im a)^2 - (Re b)^2 - (Im b)^2 = a*conj(a) - b*conj(b)."""
    n = g.n
    if any(not g.entries[i][j].is_zero() for i in range(n) for j in range(i)):
        return None
    det = Scalar.one()
    for i in range(n):
        a, b = g.entries[i][i].a, g.entries[i][i].b
        det = det * (a * a.conjugate() - b * b.conjugate())
    return det


def h_det_check(n: int) -> CheckRecord:
    """Symbolic unimodularity of the generators inside the real 2n x 2n
    picture, with the formal unit phase u (conj(u) = u^-1, so a phase block
    has determinant exactly 1) and formal shift coefficients."""
    if n < 2:
        raise ValueError("n must be at least 2")
    # every generator, and one element mixing the phase u with a shift a1
    cases = [(f"{name}_det", g) for name, g in h_generators(n)]
    cases.append(("mixed_det", h_element(
        n, Scalar.var("u"), [Scalar.var("a1")] + [Scalar.zero()] * (n - 2))))
    details = {}
    ok = True
    for key, g in cases:
        det = _block_det(g)
        if det is None:
            details["below_diagonal"] = key
            ok = False
            break
        details[key] = str(det)
        ok = ok and det == Scalar.one()
    return CheckRecord(
        check_id=f"algebra.det.n{n}",
        statement=f"det of the embedded generators is identically 1 (n={n})",
        paper_ref="Lemma 4.2",
        status=PASS if ok else FAIL,
        details=details,
    )


def _toeplitz_form(m: REpsMatrix) -> Optional[List[REpsElement]]:
    """If m is upper-triangular Toeplitz, return its diagonal profile
    [d, a_1*eps, a_2*eps^2, ...]; otherwise None."""
    n = m.n
    profile = []
    for k in range(n):
        e = m.entries[0][k]
        for i in range(1, n - k):
            if m.entries[i][i + k] != e:
                return None
        profile.append(e)
    for i in range(n):
        for j in range(i):
            if not m.entries[i][j].is_zero():
                return None
    return profile


def _first_row_of_product(g: REpsMatrix, h: REpsMatrix) -> List[REpsElement]:
    """Row 0 of g * h for upper-triangular h: entry k is
    sum_{m<=k} g[0][m] * h[m][k], from the entries of h themselves and
    formed, like ``REpsMatrix.__mul__``, from the nonzero entries only."""
    zero = REpsElement()
    row = []
    for k in range(h.n):
        acc: Optional[REpsElement] = None
        for m in range(k + 1):
            e, f = g.entries[0][m], h.entries[m][k]
            if e.is_zero() or f.is_zero():
                continue
            p = e * f
            acc = p if acc is None else acc + p
        row.append(zero if acc is None else acc)
    return row


def h_closure_check(n: int, samples: int = 20, seed: int = 0) -> CheckRecord:
    """Products of random group elements stay in H: the Toeplitz form, with
    multiplied diagonal phases and the k-th superdiagonal in C*eps^k.
    Phases stay formal (u and v).  With no sample the check is skipped,
    since no product certifies it.

    Each sample forms row 0 of its product alone, n(n+1)/2 element
    products rather than the C(n+2, 3) of the full product.  Both factors
    are first checked upper triangular and Toeplitz, with profiles A_m and
    B_m; a factor that fails is the counterexample.  Then

        (g g')_{i,i+k} = sum_{m=0..k} g_{i,i+m} g'_{i+m,i+k}
                       = sum_{m=0..k} A_m B_{k-m},

    which does not depend on i, and below the diagonal the index set of
    the sum is empty.  So the product is upper triangular and Toeplitz,
    and row 0 is its whole profile: the diagonal must be u*v and the k-th
    entry must lie in C*eps^k."""
    rng = random.Random(seed)
    ok = True
    details = {"samples": samples}
    if samples == 0:
        details["reason"] = "no sampled product at --samples 0"
    for trial in range(samples):
        ca = [Scalar.from_gauss(random_gaussian(rng, 5, 5))
              for _ in range(n - 1)]
        cb = [Scalar.from_gauss(random_gaussian(rng, 5, 5))
              for _ in range(n - 1)]
        g = h_element(n, Scalar.var("u"), ca)
        gp = h_element(n, Scalar.var("v"), cb)
        # the read-off is sound only for upper-triangular Toeplitz factors
        if _toeplitz_form(g) is None or _toeplitz_form(gp) is None:
            ok = False
            details["counterexample"] = {"trial": trial}
            break
        profile = _first_row_of_product(g, gp)
        diag = profile[0]
        if not (diag.b.is_zero()
                and diag.a == Scalar.var("u") * Scalar.var("v")):
            ok = False
            details["counterexample"] = {"trial": trial,
                                         "diagonal": str(diag)}
            break
        # eps^k is 1 for even k and eps for odd k
        k = next((k for k in range(1, n) if not (
            profile[k].a if k % 2 else profile[k].b).is_zero()), None)
        if k is not None:
            ok = False
            details["counterexample"] = {"trial": trial, "superdiagonal": k}
            break
    return CheckRecord(
        check_id=f"algebra.closure.n{n}",
        statement=("random products keep the Toeplitz form with "
                   f"multiplied phases (n={n})"),
        paper_ref="eq. (7)",
        status=SKIPPED if not samples else PASS if ok else FAIL,
        details=details,
    )

"""The twisted algebra C + C*eps and the group H over it.

The four-dimensional real algebra is C (+) C*eps with product

    (a + b*eps)(c + d*eps) = (a*c + b*conj(d)) + (b*conj(c) + a*d)*eps,

so eps^2 = 1, i^2 = -1, i*eps = -eps*i.  It acts R-linearly on C by
(a + b*eps).z = a*z + b*conj(z).  The subgroup H of upper-triangular
Toeplitz matrices with unit-phase diagonal and k-th superdiagonal entries
a_k*eps^k lands in SL(2n, R) under the left-multiplication embedding of
C^n = R^(2n), which sends a + b*eps to the 2x2 real block of
z -> a*z + b*conj(z) in the basis (x, y); that block has determinant
|a|^2 - |b|^2.

Each element is held as the nonzero entries of its profile (``Toeplitz``):
the diagonal and one entry per superdiagonal.  Upper-triangular Toeplitz
matrices are closed under products (eq. (7)): if g and g' have profiles A_m
and B_m, entry (i, i+k) of g g' is sum_{m=0..k} A_m B_{k-m}, which does not
depend on i, and an entry below the diagonal is an empty sum.  So the
product's profile is that convolution, and no other matrix is ever formed.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .records import FAIL, PASS, CheckRecord
from .scalars import Scalar

__all__ = [
    "REpsElement",
    "Toeplitz",
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

class REpsElement:
    """The element a + b*eps, immutable by convention."""

    __slots__ = ("a", "b")

    def __init__(self, a: Scalar = Scalar.zero(), b: Scalar = Scalar.zero()):
        self.a, self.b = a, b

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


def _sum(elements: Sequence[REpsElement]) -> REpsElement:
    """The sum of the elements, each part added up by one ``Scalar.sum``:
    entry k of a product sums up to k + 1 products, and repeated ``+``
    would copy a partial sum that grows to k terms at each step.  A sum of
    a generator's entries has at most one term, and is read off."""
    if len(elements) < 2:
        return elements[0] if elements else REpsElement()
    return REpsElement(Scalar.sum(e.a for e in elements),
                       Scalar.sum(e.b for e in elements))


def eps_times_coeff(a: Scalar, k: int) -> REpsElement:
    """The element a*eps^k (eps^k is 1 for even k, eps for odd k)."""
    if k % 2 == 0:
        return REpsElement(a)
    return REpsElement(Scalar.zero(), a)


# ---------------------------------------------------------------------------
# Upper-triangular Toeplitz matrices over the algebra
# ---------------------------------------------------------------------------

class Toeplitz:
    """The n x n upper-triangular Toeplitz matrix with entry A_(j-i) at
    (i, j) for j >= i, zero below, held as its nonzero profile entries:
    ``entries[k]`` is A_k (k = 0 the diagonal, k > 0 the k-th superdiagonal),
    in increasing k; a missing k is zero.  Immutable by convention."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: Dict[int, REpsElement]):
        self.n, self.entries = n, entries

    def __mul__(self, other: "Toeplitz") -> "Toeplitz":
        """The product by eq. (7): entry k of its profile is
        sum_{m<=k} A_m B_{k-m}, formed from the nonzero entries only."""
        n = self.n
        if other.n != n:
            raise ValueError(f"cannot multiply n={n} by n={other.n}")
        left, right = self.entries.items(), other.entries
        sums = ((k, _sum([a * right[k - m] for m, a in left
                          if k - m in right])) for k in range(n))
        return Toeplitz(n, {k: e for k, e in sums if not e.is_zero()})


# ---------------------------------------------------------------------------
# Group generators (upper-triangular Toeplitz with unit-phase diagonal)
# ---------------------------------------------------------------------------

def h_element(n: int, diag: Scalar,
              superdiag: Sequence[Scalar]) -> Toeplitz:
    """The Toeplitz element with given diagonal phase and superdiagonal
    coefficients (a_1, ..., a_{n-1}); entry (i, i+k) is a_k*eps^k."""
    if len(superdiag) != n - 1:
        raise ValueError("need n-1 superdiagonal coefficients")
    return Toeplitz(n, {k: eps_times_coeff(a, k)
                        for k, a in enumerate([diag, *superdiag]) if a})


def h_phase(n: int) -> Toeplitz:
    """The diagonal phase generator with the formal unit u."""
    return Toeplitz(n, {0: REpsElement(Scalar.var("u"))})


def h_shift(n: int, j: int, a: Scalar) -> Toeplitz:
    """The generator with a single coefficient a on the j-th superdiagonal."""
    if not 1 <= j <= n - 1:
        raise ValueError(f"shift index {j} out of range for n={n}")
    entries = {0: REpsElement(Scalar.one())}
    if a:
        entries[j] = eps_times_coeff(a, j)
    return Toeplitz(n, entries)


def h_shift_formal(n: int, j: int) -> Toeplitz:
    """h_j(a) with a the formal symbol a{j}."""
    return h_shift(n, j, Scalar.var(f"a{j}"))


def h_generators(n: int) -> List[Tuple[str, Toeplitz]]:
    """The labelled generators of H: the formal phase, then each shift
    with a formal coefficient."""
    return [("phase", h_phase(n))] + [
        (f"shift{j}", h_shift_formal(n, j)) for j in range(1, n)]


# ---------------------------------------------------------------------------
# Inverses of unit-diagonal-plus-unipotent elements
# ---------------------------------------------------------------------------

def group_inverse(g: Toeplitz) -> Toeplitz:
    """Inverse of g = d(I + N) with d a single-term unit in the C-part and N
    strictly upper triangular.  Row 0 of g x = I reads
    sum_{m<=k} A_m X_{k-m} = [k = 0], so X_0 = d^-1 and
    X_k = -d^-1 * sum_{1<=m<=k} A_m X_{k-m} over nonzero terms only:
    (n-1)(n+2)/2 element products when every entry is nonzero.  Then g x is
    I by eq. (7), and a right inverse in a group is the inverse."""
    d = g.entries.get(0, REpsElement())
    if not d.b.is_zero() or not d.a.is_monomial():
        raise ValueError("diagonal must be a single-term unit in the C-part")
    d_inv = REpsElement(d.a.inverse_unit())
    tail = [(m, e) for m, e in g.entries.items() if m]
    # the k = m + k' with A_m and X_k' nonzero, visited in increasing order
    x, due = {0: d_inv}, {m for m, _ in tail}
    while due:
        k = min(due)
        due.remove(k)
        acc = _sum([e * x[k - m] for m, e in tail if k - m in x])
        if not acc.is_zero():
            x[k] = -(d_inv * acc)
            due.update(k + m for m, _ in tail if k + m < g.n)
    return Toeplitz(g.n, x)


# ---------------------------------------------------------------------------
# Verification records for the matrix group
# ---------------------------------------------------------------------------

def _block_det(g: Toeplitz) -> Scalar:
    """The determinant of the real 2n x 2n matrix of g.  That matrix is
    block upper triangular (the block of e is zero only when e is), so its
    determinant is the product of the n diagonal blocks' determinants.  The
    block of a + b*eps is [[Re a + Re b, Im b - Im a], [Im a + Im b,
    Re a - Re b]], whose determinant is
    (Re a)^2 + (Im a)^2 - (Re b)^2 - (Im b)^2 = a*conj(a) - b*conj(b)."""
    d = g.entries.get(0, REpsElement())
    block = d.a * d.a.conjugate() - d.b * d.b.conjugate()
    det = Scalar.one()
    for _ in range(g.n):
        det = det * block
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
    dets = {key: _block_det(g) for key, g in cases}
    return CheckRecord(
        check_id=f"algebra.det.n{n}",
        statement=f"det of the embedded generators is identically 1 (n={n})",
        paper_ref="Lemma 4.2",
        status=PASS if all(det == Scalar.one() for det in dets.values())
        else FAIL,
        details={key: str(det) for key, det in dets.items()},
    )


def h_closure_check(n: int) -> CheckRecord:
    """H is closed under products (eq. (7)), certified by one product of
    two fully formal elements: diagonals u and v, and k-th entries
    a_k*eps^k and b_k*eps^k with every a_k and b_k a symbol.  Its profile
    must have the diagonal exactly u*v and entry k in C*eps^k: a zero
    C-part for odd k and a zero eps-part for even k.

    Each part of the product's profile is a polynomial in the symbols and
    their conjugates, Laurent in u and v.  Any two elements of H, with unit
    phases u0, v0 and coefficients c_k, d_k, have as product its
    specialisation u -> u0, v -> v0, a_k -> c_k, b_k -> d_k, with each
    conjugate symbol sent to the conjugate value (conj(u) = u^-1, as
    conj(u0) = u0^-1).  A zero polynomial stays zero under any
    specialisation, and u*v specialises to the unit phase u0*v0, so the
    check holds for all of H at this n.  The product makes n(n+1)/2
    element products."""
    u, v = Scalar.var("u"), Scalar.var("v")
    g = h_element(n, u, [Scalar.var(f"a{k}") for k in range(1, n)])
    gp = h_element(n, v, [Scalar.var(f"b{k}") for k in range(1, n)])
    entries = (g * gp).entries
    details = {"certificate": "formal product"}
    diag = entries.get(0, REpsElement())
    if not (diag.b.is_zero() and diag.a == u * v):
        details["counterexample"] = {"diagonal": str(diag)}
    else:
        # eps^k is 1 for even k and eps for odd k
        k = next((k for k, e in entries.items() if k and not (
            e.a if k % 2 else e.b).is_zero()), None)
        if k is not None:
            details["counterexample"] = {"superdiagonal": k}
    return CheckRecord(
        check_id=f"algebra.closure.n{n}",
        statement=("products of elements of H keep the Toeplitz form with "
                   f"multiplied phases (n={n})"),
        paper_ref="eq. (7)",
        status=FAIL if "counterexample" in details else PASS,
        details=details,
    )

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
depend on i, and an entry below the diagonal is an empty sum.  The checks
certify H at every n at once: closure by the four parities of the terms
(x eps^p)(y eps^q) of that convolution, and the determinant by the one
diagonal block the real matrix repeats n times.  No product of two
elements is formed.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

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
        # the product of the module docstring; Scalar skips a zero part
        a, b, c, d = self.a, self.b, other.a, other.b
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


def h_generators(n: int) -> Iterator[Tuple[str, Toeplitz]]:
    """The labelled generators of H, each formed when pulled: the formal
    phase, then each shift with a formal coefficient."""
    yield "phase", h_phase(n)
    for j in range(1, n):
        yield f"shift{j}", h_shift_formal(n, j)


# ---------------------------------------------------------------------------
# Inverses of unit-diagonal-plus-unipotent elements
# ---------------------------------------------------------------------------

def group_inverse(g: Toeplitz) -> Iterator[Tuple[int, REpsElement]]:
    """The inverse of g = d(I + N), d a single-term unit in the C-part and N
    strictly upper triangular, as its profile's pairs (k, X_k), k = 0..n-1,
    each formed when pulled; the diagonal is checked on the call.  Row 0 of
    g x = I reads sum_{m<=k} A_m X_{k-m} = [k = 0], so X_0 = d^-1 and
    X_k = -d^-1 * sum_{1<=m<=k} A_m X_{k-m} over nonzero terms only:
    (n-1)(n+2)/2 element products when every entry is nonzero.  Then g x is
    I by eq. (7), and a right inverse in a group is the inverse."""
    d = g.entries.get(0, REpsElement())
    if not d.b.is_zero() or not d.a.is_monomial():
        raise ValueError("diagonal must be a single-term unit in the C-part")
    return _inverse_entries(g, REpsElement(d.a.inverse_unit()))


def _inverse_entries(g: Toeplitz, d_inv: REpsElement
                     ) -> Iterator[Tuple[int, REpsElement]]:
    tail = [(m, e) for m, e in g.entries.items() if m]
    x = {0: d_inv}
    yield 0, d_inv
    for k in range(1, g.n):
        terms = [e * x[k - m] for m, e in tail if k - m in x]
        acc = REpsElement(sum((t.a for t in terms), Scalar.zero()),
                          sum((t.b for t in terms), Scalar.zero()))
        if not acc.is_zero():
            acc = x[k] = -(d_inv * acc)
        yield k, acc


# ---------------------------------------------------------------------------
# Verification records for the matrix group
# ---------------------------------------------------------------------------

def _block_det(g: Toeplitz) -> Scalar:
    """The determinant of the real 2n x 2n matrix of g.  That matrix is
    block upper triangular (the block of e is zero only when e is), and its
    n diagonal blocks are all the block of the diagonal entry, so its
    determinant is that block's determinant to the n-th power.  The block
    of a + b*eps is [[Re a + Re b, Im b - Im a], [Im a + Im b,
    Re a - Re b]], whose determinant is
    (Re a)^2 + (Im a)^2 - (Re b)^2 - (Im b)^2 = a*conj(a) - b*conj(b).
    The power is formed only when the block's determinant is not 1."""
    d = g.entries.get(0, REpsElement())
    block = d.a * d.a.conjugate() - d.b * d.b.conjugate()
    det = block
    if block != Scalar.one():
        for _ in range(g.n - 1):
            det = det * block
    return det


def h_det_check(n: int) -> CheckRecord:
    """Symbolic unimodularity of the generators inside the real 2n x 2n
    picture, with the formal unit phase u (conj(u) = u^-1, so a phase block
    has determinant exactly 1) and formal shift coefficients.  The
    determinant reads only the diagonal, so it is formed once per distinct
    diagonal: the shifts share the diagonal 1."""
    if n < 2:
        raise ValueError("n must be at least 2")
    # every generator, and one element mixing the phase u with a shift a1
    cases = [(f"{name}_det", g) for name, g in h_generators(n)]
    cases.append(("mixed_det", h_element(
        n, Scalar.var("u"), [Scalar.var("a1")] + [Scalar.zero()] * (n - 2))))
    known: List[Tuple[REpsElement, Scalar]] = []  # (diagonal, its det)

    def det(g: Toeplitz) -> Scalar:
        d = g.entries.get(0, REpsElement())
        for e, value in known:
            if e.a == d.a and e.b == d.b:
                return value
        known.append((d, _block_det(g)))
        return known[-1][1]

    dets = {key: det(g) for key, g in cases}
    return CheckRecord(
        check_id=f"algebra.det.n{n}",
        statement=f"det of the embedded generators is identically 1 (n={n})",
        paper_ref="Lemma 4.2",
        status=PASS if all(det == Scalar.one() for det in dets.values())
        else FAIL,
        details={key: str(det) for key, det in dets.items()},
    )


def h_closure_check(n: int) -> CheckRecord:
    """H is closed under products (eq. (7)), certified by the four-parity
    lemma, the same five formal products at every n.

    Entry k of the product of two elements of H is
    sum_{m<=k} (a_m eps^m)(b_(k-m) eps^(k-m)), and eps^m depends only on
    the parity of m.  So each term is a specialisation of one of four
    formal products (x eps^p)(y eps^q), p and q in {0, 1}, with x and y
    symbols and each conjugate symbol sent to the conjugate value.  Each
    must lie in C*eps^(p+q): a zero C-part for odd p + q and a zero
    eps-part for even p + q.  A zero part stays zero under any
    specialisation, and C*eps^k is closed under sums, so every entry k
    lies in C*eps^k.  The diagonal is the one term k = 0, which must be
    exactly u*v for the formal unit phases u and v; it specialises to the
    unit phase u0*v0 (conj(u) = u^-1, as conj(u0) = u0^-1)."""
    u, v = Scalar.var("u"), Scalar.var("v")
    diag = eps_times_coeff(u, 0) * eps_times_coeff(v, 0)
    details = {"certificate": "four-parity lemma"}
    if not (diag.b.is_zero() and diag.a == u * v):
        details["counterexample"] = {"diagonal": str(diag)}
    else:
        x, y = Scalar.var("x"), Scalar.var("y")
        for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
            e = eps_times_coeff(x, p) * eps_times_coeff(y, q)
            # eps^k is 1 for even k and eps for odd k
            if not (e.a if (p + q) % 2 else e.b).is_zero():
                details["counterexample"] = {"parities": [p, q]}
                break
    return CheckRecord(
        check_id=f"algebra.closure.n{n}",
        statement=("products of elements of H keep the Toeplitz form with "
                   f"multiplied phases (n={n})"),
        paper_ref="eq. (7)",
        status=FAIL if "counterexample" in details else PASS,
        details=details,
    )

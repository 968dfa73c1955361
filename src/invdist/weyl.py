"""Polynomial-coefficient differential operators in z_1, zbar_1, ..., z_n, zbar_n.

Operators are kept in normal order (all multiplications to the left of all
derivatives) with a unique sorted term list, so equal operators compare
equal structurally.  The 2n symbols commute; the only nontrivial
commutators are [d/dz_j, z_j] = 1 and [d/dzbar_j, zbar_j] = 1.

Symbol indexing: variable j (1-based, matching the usual z_j) owns symbol
2*(j-1) for z_j and 2*(j-1)+1 for zbar_j.

Group conventions: g acts on C^n by (g z)_i = sum_j g_ij . z_j.  The
forward rows of ``substitution_from_group(g)`` send z_i to (g z)_i, so
substituting them into f gives f o g, and the inverse rows give f o g^-1.
The group acts on the left: g.f = f o g^-1 on functions and distributions
(``DistExpr.act_group`` on members with underived deltas, and
``act_group`` in ``tests/reference.py`` on any member, by jet expansion)
and g.D = g o D o g^-1 on operators (``conjugate_op``), so
(g.D)(f) = g.(D(g^-1.f)), and acting by g1 and then by g2 is acting by the
product g2 * g1.
"""

from __future__ import annotations

from itertools import product
from math import comb, perm
from typing import Dict, Iterable, List, Tuple

from .clifford import REpsElement, Toeplitz, group_inverse
from .scalars import Scalar

__all__ = [
    "WeylOp",
    "Substitution",
    "substitution_from_group",
    "conjugate_op",
    "sym_z",
    "sym_zbar",
]


def sym_z(j: int) -> int:
    return 2 * (j - 1)


def sym_zbar(j: int) -> int:
    return 2 * (j - 1) + 1


def sym_conj(s: int) -> int:
    return s ^ 1


def sym_name(s: int) -> str:
    j = s // 2 + 1
    return f"z{j}" if s % 2 == 0 else f"zbar{j}"


# A monomial in the 2n symbols: its nonzero (symbol, exponent) pairs in
# increasing symbol order, () for 1.
Mono = Tuple[Tuple[int, int], ...]

# A polynomial in the 2n symbols with scalar coefficients.
Poly = Dict[Mono, Scalar]


def mono_of(exps: Dict[int, int]) -> Mono:
    """The monomial with exponents {symbol: exponent}; zeros drop out."""
    return tuple(sorted((s, e) for s, e in exps.items() if e))


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    """The product m1 m2: exponents add, and a symbol whose exponent sums
    to zero drops out, so a factor with negative exponents divides."""
    if not m2:
        return m1
    if not m1:
        return m2
    exps = dict(m1)
    for s, e in m2:
        e += exps.get(s, 0)
        if e:
            exps[s] = e
        else:
            exps.pop(s, None)
    return tuple(sorted(exps.items()))


def mono_sort_key(m: Mono) -> Mono:
    """Orders monomials as their exponent vectors over the 2n symbols
    compare: a symbol one lacks is a 0 in its vector."""
    return tuple((-s, e) for s, e in m)


def mono_factors(m: Mono, prefix: str = "") -> List[str]:
    """The printed factors of m, each symbol with its exponent above 1."""
    return [prefix + sym_name(s) + (f"^{e}" if e > 1 else "") for s, e in m]


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono_mul(m1, m2)
            c = c1 * c2
            prev = out.get(m)
            out[m] = c if prev is None else prev + c
    return {m: c for m, c in out.items() if c}


class WeylOp:
    """Normal-ordered operator: sum of coeff * z^mono * d^deriv terms, each
    keyed by (mono, deriv), two ``Mono``s."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[Tuple[Mono, Mono], Scalar] | None = None):
        self.n = n
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    # -- constructors -----------------------------------------------------

    @staticmethod
    def term(n: int, coeff: Scalar, mono: Dict[int, int] | None = None,
             deriv: Dict[int, int] | None = None) -> "WeylOp":
        return WeylOp(n, {(mono_of(mono or {}), mono_of(deriv or {})): coeff})

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "WeylOp") -> "WeylOp":
        acc = dict(self.terms)
        for k, c in other.terms.items():
            prev = acc.get(k)
            acc[k] = c if prev is None else prev + c
        return WeylOp(self.n, acc)

    def __sub__(self, other: "WeylOp") -> "WeylOp":
        acc = dict(self.terms)
        for k, c in other.terms.items():
            prev = acc.get(k)
            acc[k] = -c if prev is None else prev - c
        return WeylOp(self.n, acc)

    def is_zero(self) -> bool:
        return not self.terms

    # -- composition ------------------------------------------------------

    def compose(self, other: "WeylOp") -> "WeylOp":
        """Normal-ordered product self o other.

        Per symbol, d^b z^m = sum_k C(b, k) m!/(m-k)! z^(m-k) d^(b-k); the
        exponents are integers, so each contraction factor is an int and
        each output term costs at most one scalar product.
        """
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        acc: Dict[Tuple[Mono, Mono], Scalar] = {}
        for (m1, d1), c1 in self.terms.items():
            b1 = dict(d1)
            for (m2, d2), c2 in other.terms.items():
                base = c1 * c2
                mono0, deriv0 = mono_mul(m1, m2), mono_mul(d1, d2)
                # each contraction k where d^b of self meets z^m of other at
                # a symbol s: both lowered by k at s, and its factor
                choices = [[(((s, -k),) if k else (),
                             comb(b1[s], k) * perm(m, k))
                            for k in range(min(b1[s], m) + 1)]
                           for s, m in m2 if s in b1]
                for choice in product(*choices):
                    drop, f = (), 1
                    for pair, g in choice:
                        drop += pair
                        f *= g
                    key = (mono_mul(mono0, drop), mono_mul(deriv0, drop))
                    coeff = base if f == 1 else base * Scalar.of(f)
                    prev = acc.get(key)
                    acc[key] = coeff if prev is None else prev + coeff
        return WeylOp(self.n, acc)

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, deriv in sorted(self.terms, key=lambda k: (
                mono_sort_key(k[0]), mono_sort_key(k[1]))):
            parts.append("*".join([f"({self.terms[mono, deriv]})",
                                   *mono_factors(mono),
                                   *mono_factors(deriv, "d_")]))
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Linear substitutions induced by group elements
# ---------------------------------------------------------------------------

class Rows:
    """The rows of an n x n Toeplitz element g, each built on its first read
    and memoised: row s is the image of symbol s as a linear form
    {symbol: coefficient}, the z_i row (g.z)_i = sum_{j>=i} A_(j-i) . z_j,
    eps-twisted, and the zbar_i row its conjugate mirror; ``column(t)`` is
    {r: coefficient of symbol t in row r}.  The profile's pairs (k, A_k),
    in increasing k, are pulled as far as a read needs: k < n - i for row
    i, k <= j for column j."""

    __slots__ = ("n", "profile", "reach", "parts", "rows", "cols")

    def __init__(self, n: int, profile: Iterable[Tuple[int, REpsElement]]):
        self.n, self.profile, self.reach = n, iter(profile), -1
        # (k, q, c, conj c) per nonzero part c of A_k, at z (q = 0) or zbar (1)
        self.rows, self.cols, self.parts = {}, {}, []

    def _pull(self, k: int) -> None:
        """Pull the profile until every entry up to k is in ``parts``."""
        while self.reach < k:
            self.reach, e = next(self.profile, (k, REpsElement()))
            self.parts += [(self.reach, q, c, c.conjugate())
                           for q, c in enumerate((e.a, e.b)) if c]

    def __getitem__(self, s: int) -> Dict[int, Scalar]:
        if s not in self.rows:
            i, r = divmod(s, 2)  # the zbar_i row (r = 1) swaps, conjugates
            self._pull(self.n - 1 - i)
            self.rows[s] = {2 * (i + k) + (q ^ r): cc if r else c
                            for k, q, c, cc in self.parts if i + k < self.n}
        return self.rows[s]

    def column(self, t: int) -> Dict[int, Scalar]:
        if t not in self.cols:
            j, p = divmod(t, 2)
            self._pull(j)
            self.cols[t] = {2 * (j - k) + (q ^ p): cc if q ^ p else c
                            for k, q, c, cc in reversed(self.parts) if k <= j}
        return self.cols[t]


class Substitution:
    """A linear change of the 2n symbols with its exact inverse: ``fwd[s]``
    is the image of symbol s as a linear form {symbol: coefficient}, and
    ``inv[s]`` that of the inverse map.  Immutable by convention."""

    __slots__ = ("n", "fwd", "inv")

    def __init__(self, n: int, fwd: Rows, inv: Rows):
        self.n, self.fwd, self.inv = n, fwd, inv


def substitution_from_group(g: Toeplitz) -> Substitution:
    """The substitution on (z, zbar) induced by g, with its exact inverse
    from ``group_inverse``, each row and inverse entry formed where read."""
    return Substitution(g.n, Rows(g.n, g.entries.items()),
                        Rows(g.n, group_inverse(g)))


def substitute_poly(p: Poly, rows: Rows | Dict[int, Dict[int, Scalar]]
                    ) -> Poly:
    """Apply the linear substitution to every symbol of a polynomial: each
    monomial is the product of its symbols' rows, none for the empty one."""
    out: Poly = {}
    for mono, c in p.items():
        term: Poly = {(): c}
        for s, e in mono:
            form = {((t, 1),): v for t, v in rows[s].items()}
            for _ in range(e):
                term = poly_mul(term, form)
        for m, cc in term.items():
            prev = out.get(m)
            out[m] = cc if prev is None else prev + cc
    return {m: c for m, c in out.items() if c}


def conjugate_op(d: WeylOp, s: Substitution) -> WeylOp:
    """The transformed operator g.D with (g.D)(f) = g.(D(g^-1.f)).

    Coefficients substitute through the inverse map; derivative symbols
    transform by the columns of the forward map (chain rule).
    """
    n = d.n
    if s.n != n:
        raise ValueError("dimension mismatch")
    acc: Dict[Tuple[Mono, Mono], Scalar] = {}
    for (mono, deriv), c in d.terms.items():
        coeff_poly = substitute_poly({mono: c}, s.inv)
        # d_t goes to sum_r F[r][t] d_r
        cols = {t: s.fwd.column(t) for t, _ in deriv}
        deriv_poly = substitute_poly({deriv: Scalar.one()}, cols)
        for pm, pc in coeff_poly.items():
            for dm, dc in deriv_poly.items():
                key = (pm, dm)
                val = pc * dc
                prev = acc.get(key)
                acc[key] = val if prev is None else prev + val
    return WeylOp(n, acc)

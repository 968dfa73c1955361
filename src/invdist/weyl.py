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

from itertools import compress, product
from math import comb, perm
from operator import add
from typing import Dict, Iterator, Tuple

from .clifford import Toeplitz, group_inverse
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


Expo = Tuple[int, ...]

# A polynomial in the 2n symbols with scalar coefficients.
Poly = Dict[Expo, Scalar]


def nonzero(m: Expo) -> Iterator[int]:
    """The symbols with a nonzero exponent in m, in increasing order."""
    return compress(range(len(m)), m)


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(map(add, m1, m2))
            c = c1 * c2
            prev = out.get(m)
            out[m] = c if prev is None else prev + c
    return {m: c for m, c in out.items() if c}


def poly_linear(form: Dict[int, Scalar], width: int) -> Poly:
    out: Poly = {}
    for s, c in form.items():
        m = [0] * width
        m[s] = 1
        out[tuple(m)] = c
    return out


class WeylOp:
    """Normal-ordered operator: sum of coeff * z^mono * d^deriv terms."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[Tuple[Expo, Expo], Scalar] | None = None):
        self.n = n
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    # -- constructors -----------------------------------------------------

    @staticmethod
    def term(n: int, coeff: Scalar, mono: Dict[int, int] | None = None,
             deriv: Dict[int, int] | None = None) -> "WeylOp":
        m = [0] * (2 * n)
        d = [0] * (2 * n)
        for s, e in (mono or {}).items():
            m[s] = e
        for s, e in (deriv or {}).items():
            d[s] = e
        return WeylOp(n, {(tuple(m), tuple(d)): coeff})

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "WeylOp") -> "WeylOp":
        acc = dict(self.terms)
        for k, c in other.terms.items():
            prev = acc.get(k)
            acc[k] = c if prev is None else prev + c
        return WeylOp(self.n, acc)

    def __sub__(self, other: "WeylOp") -> "WeylOp":
        return self + (-other)

    def __neg__(self) -> "WeylOp":
        return WeylOp(self.n, {k: -c for k, c in self.terms.items()})

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
        acc: Dict[Tuple[Expo, Expo], Scalar] = {}
        for (m1, d1), c1 in self.terms.items():
            for (m2, d2), c2 in other.terms.items():
                base = c1 * c2
                mono0 = tuple(a + b for a, b in zip(m1, m2))
                deriv0 = tuple(a + b for a, b in zip(d1, d2))
                # symbols where a derivative of self meets a monomial of other
                syms = [s for s, (b, m) in enumerate(zip(d1, m2)) if b and m]
                for ks in product(*(range(min(d1[s], m2[s]) + 1)
                                    for s in syms)):
                    mono, deriv, f = list(mono0), list(deriv0), 1
                    for s, k in zip(syms, ks):
                        if k:
                            mono[s] -= k
                            deriv[s] -= k
                            f *= comb(d1[s], k) * perm(m2[s], k)
                    key = (tuple(mono), tuple(deriv))
                    coeff = base if f == 1 else base * Scalar.of(f)
                    prev = acc.get(key)
                    acc[key] = coeff if prev is None else prev + coeff
        return WeylOp(self.n, acc)

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (mono, deriv) in sorted(self.terms):
            c = self.terms[(mono, deriv)]
            factors = [f"({c})"]
            for s, e in enumerate(mono):
                if e:
                    factors.append(sym_name(s) + (f"^{e}" if e > 1 else ""))
            for s, e in enumerate(deriv):
                if e:
                    factors.append(f"d_{sym_name(s)}"
                                   + (f"^{e}" if e > 1 else ""))
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Linear substitutions induced by group elements
# ---------------------------------------------------------------------------

class Rows:
    """The rows of a Toeplitz element g, each built from g's nonzero profile
    entries on its first read and memoised: row s is the image of symbol s
    as a linear form {symbol: coefficient}, the z_i row (g.z)_i =
    sum_{j>=i} A_(j-i) . z_j, eps-twisted, and the zbar_i row its conjugate
    mirror; ``column(t)`` is {r: coefficient of symbol t in row r}."""

    __slots__ = ("n", "parts", "rows", "cols")

    def __init__(self, g: Toeplitz):
        # (k, q, c, conj c) per nonzero part c of A_k, at z (q = 0) or zbar (1)
        self.n, self.rows, self.cols = g.n, {}, {}
        self.parts = [(k, q, c, c.conjugate()) for k, e in g.entries.items()
                      for q, c in enumerate((e.a, e.b)) if c]

    def __getitem__(self, s: int) -> Dict[int, Scalar]:
        if s not in self.rows:
            i, r = divmod(s, 2)  # the zbar_i row (r = 1) swaps, conjugates
            self.rows[s] = {2 * (i + k) + (q ^ r): cc if r else c
                            for k, q, c, cc in self.parts if i + k < self.n}
        return self.rows[s]

    def column(self, t: int) -> Dict[int, Scalar]:
        if t not in self.cols:
            j, p = divmod(t, 2)
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
    from ``group_inverse``, each row built where read."""
    return Substitution(g.n, Rows(g), Rows(group_inverse(g)))


def substitute_poly(p: Poly, rows: Rows | Dict[int, Dict[int, Scalar]],
                    width: int) -> Poly:
    """Apply the linear substitution to every symbol of a polynomial: each
    monomial is the product of its symbols' rows, none for the empty one."""
    out: Poly = {}
    one = tuple([0] * width)
    for mono, c in p.items():
        term: Poly = {one: c}
        for s in nonzero(mono):
            for _ in range(mono[s]):
                term = poly_mul(term, poly_linear(rows[s], width))
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
    width = 2 * n
    if s.n != n:
        raise ValueError("dimension mismatch")
    acc: Dict[Tuple[Expo, Expo], Scalar] = {}
    for (mono, deriv), c in d.terms.items():
        coeff_poly = substitute_poly({mono: c}, s.inv, width)
        # d_t goes to sum_r F[r][t] d_r
        cols = {t: s.fwd.column(t) for t in nonzero(deriv)}
        deriv_poly = substitute_poly({deriv: Scalar.one()}, cols, width)
        for pm, pc in coeff_poly.items():
            for dm, dc in deriv_poly.items():
                key = (pm, dm)
                val = pc * dc
                prev = acc.get(key)
                acc[key] = val if prev is None else prev + val
    return WeylOp(n, acc)

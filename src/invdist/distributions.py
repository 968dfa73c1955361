"""Canonical delta-supported distribution expressions.

A term is  coeff * z^p zbar^q * prod_j (z_j zbar_j)^sigma_j * delta-block,
where the delta block is a product over a variable set S of mixed
derivatives  d^a/dz_k^a d^b/dzbar_k^b  applied to the two-real-variable
delta at z_k = 0.  The rewrite rules

    z_k * (d^a dbar^b delta_k) -> -a * (d^(a-1) dbar^b delta_k)
    zbar_k * (d^a dbar^b delta_k) -> -b * (d^a dbar^(b-1) delta_k)

(zero when the order is exhausted) are applied exhaustively, monomial
factors shared between z_j and zbar_j are folded into the power factor,
and terms are merged under a fixed total order, giving a unique canonical
form: two expressions are equal exactly when their difference has no term.

The jet-pairing convention: <d^a dbar^b delta_k, z_k^p zbar_k^q> equals
(-1)^(a+b) a! b! when (p, q) == (a, b) and 0 otherwise.  (The conventional
overall constant of the underlying two-variable delta is dropped; every
identity verified here is linear, so it is immaterial.)
"""

from __future__ import annotations

from math import perm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalars import AffineExponent, Scalar, rank_over_function_field
from .weyl import Mono, Substitution, WeylOp, conjugate_op, mono_factors, \
    mono_sort_key, substitute_poly, sym_conj, sym_name, sym_z, sym_zbar

__all__ = [
    "DistExpr",
    "Residuals",
    "UnsupportedSubstitutionError",
    "SupportDescriptor",
    "independence_rank",
]

Powers = Tuple[Tuple[int, AffineExponent], ...]
Delta = Tuple[Tuple[int, int, int], ...]
TermKey = Tuple[Mono, Powers, Delta]


class UnsupportedSubstitutionError(ValueError):
    """A group action hit a substitution outside the supported shape."""


class RawTerm:
    """Mutable scratch term used during rewriting; ``mono`` is
    {symbol: exponent} over the nonzero exponents."""

    __slots__ = ("mono", "powers", "delta", "coeff")

    def __init__(self, mono: Dict[int, int], powers: Dict[int, AffineExponent],
                 delta: Dict[int, Tuple[int, int]], coeff: Scalar):
        self.mono, self.powers, self.delta = mono, powers, delta
        self.coeff = coeff

    def copy(self) -> "RawTerm":
        return RawTerm(dict(self.mono), dict(self.powers),
                       dict(self.delta), self.coeff)


def _canonical_key(t: RawTerm) -> Optional[Tuple[TermKey, Scalar]]:
    """Normalize one raw term to (key, coefficient); None when it rewrites
    to zero.  One pass over the delta block absorbs the monomial factors of
    each delta variable; one pass over the power factors folds the shared
    exponents of z_j and zbar_j into the power factor and turns a
    nonnegative-integer power factor back into monomials.  A power factor
    on a delta variable is refused before either pass, so the two passes
    touch disjoint variables.  A pass that changes the monomial makes it
    anew, so t is left as it was."""
    powers, delta = t.powers, t.delta
    if powers and delta and not delta.keys().isdisjoint(powers):
        j = next(j for j in powers if j in delta)
        raise UnsupportedSubstitutionError(
            f"power factor on delta variable z{j}")
    mono = t.mono
    coeff = t.coeff
    delta_key = []
    for k, (alpha, beta) in sorted(delta.items()):
        z = sym_z(k)  # z_k, and zbar_k at z + 1
        if z in mono or z + 1 in mono:
            p, q = mono.get(z, 0), mono.get(z + 1, 0)
            if p > alpha or q > beta:
                return None
            mono = {s: e for s, e in mono.items() if s // 2 + 1 != k}
            f = perm(alpha, p) * perm(beta, q)
            coeff = coeff * Scalar.of(-f if (p + q) % 2 else f)
            alpha, beta = alpha - p, beta - q
        delta_key.append((k, alpha, beta))
    powers_key = []
    for j, sigma in sorted(powers.items()):
        if sigma.is_zero():
            continue
        z = sym_z(j)
        p, q = mono.get(z, 0), mono.get(z + 1, 0)
        m = p if p < q else q  # z_j and zbar_j each lose m, less what unfolds
        if m:
            sigma = sigma + m
        if sigma.is_integer() and sigma.num_r >= 0:
            m -= sigma.num_r
        else:
            powers_key.append((j, sigma))
        if m:
            mono = {**mono, z: p - m, z + 1: q - m}
            mono = {s: e for s, e in mono.items() if e}
    if not coeff:
        return None
    return (tuple(sorted(mono.items())), tuple(powers_key),
            tuple(delta_key)), coeff


class DistExpr:
    """Canonical sum of distribution terms."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[TermKey, Scalar] | None = None):
        self.n = n
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_raw(n: int, raws: Iterable[RawTerm]) -> "DistExpr":
        acc: Dict[TermKey, Scalar] = {}
        for t in raws:
            if not t.coeff:
                continue
            normalized = _canonical_key(t)
            if normalized is None:
                continue
            key, coeff = normalized
            prev = acc.get(key)
            acc[key] = coeff if prev is None else prev + coeff
        return DistExpr(n, acc)

    @staticmethod
    def single(n: int, coeff: Scalar = Scalar.one(),
               mono: Dict[int, int] | None = None,
               powers: Dict[int, AffineExponent] | None = None,
               delta: Dict[int, Tuple[int, int]] | None = None) -> "DistExpr":
        mono = {s: e for s, e in (mono or {}).items() if e}
        return DistExpr.from_raw(n, [RawTerm(
            mono, dict(powers or {}), dict(delta or {}), coeff)])

    def raw_terms(self) -> List[RawTerm]:
        out = []
        for (mono, powers, delta), coeff in self.terms.items():
            out.append(RawTerm(dict(mono), dict(powers),
                               {k: (a, b) for k, a, b in delta}, coeff))
        return out

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "DistExpr") -> "DistExpr":
        acc = dict(self.terms)
        for k, c in other.terms.items():
            prev = acc.get(k)
            acc[k] = c if prev is None else prev + c
        return DistExpr(self.n, acc)

    def __sub__(self, other: "DistExpr") -> "DistExpr":
        return self + other.scale(Scalar.of(-1))

    def scale(self, c: Scalar) -> "DistExpr":
        return DistExpr(self.n, {k: c * v for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    # -- differential operators -------------------------------------------

    def _derive_term(self, t: RawTerm, s: int) -> List[RawTerm]:
        """Single derivative d/d(symbol s) of one term, by Leibniz."""
        j = s // 2 + 1
        out = []
        e = t.mono.get(s)
        if e:
            nt = t.copy()
            if nt.mono.pop(s) > 1:
                nt.mono[s] = e - 1
            nt.coeff = nt.coeff * Scalar.of(e)
            out.append(nt)
        if j in t.powers:
            sigma = t.powers[j]
            nt = t.copy()
            nt.coeff = nt.coeff * sigma.as_scalar()
            nt.powers[j] = sigma - 1
            c = sym_conj(s)
            nt.mono[c] = nt.mono.get(c, 0) + 1
            out.append(nt)
        if j in t.delta:
            a, b = t.delta[j]
            nt = t.copy()
            nt.delta[j] = (a + 1, b) if s % 2 == 0 else (a, b + 1)
            out.append(nt)
        return out

    def apply_weyl(self, op: WeylOp) -> "DistExpr":
        """Normal-ordered operator applied by Leibniz differentiation."""
        if op.n != self.n:
            raise ValueError("dimension mismatch")
        raws: List[RawTerm] = []
        for (mono, deriv), c in op.terms.items():
            current = self.raw_terms()
            for s, e in deriv:
                for _ in range(e):
                    nxt: List[RawTerm] = []
                    for t in current:
                        nxt.extend(self._derive_term(t, s))
                    current = nxt
            for t in current:
                t.coeff = t.coeff * c
                for s, e in mono:
                    t.mono[s] = t.mono.get(s, 0) + e
            raws.extend(current)
        return DistExpr.from_raw(self.n, raws)

    # -- group action -----------------------------------------------------

    def act_group(self, sub: Substitution) -> "DistExpr":
        """The group action g.T = T o g^-1 (no Jacobian factor by
        unimodularity) on an expression whose deltas are all underived, as
        the member of order 0 of a chain is; a derived delta raises
        ``ValueError``.

        Each term must have the supported shape, or
        ``UnsupportedSubstitutionError`` is raised: the inverse map sends
        each delta variable z_k to a combination of z_k and of delta
        variables of higher index, with a unit-modulus coefficient on z_k,
        and the forward map keeps the delta variables among themselves;
        each power base (g^-1 z)_j reads only z_j and delta symbols, with a
        unit-modulus coefficient c on z_j.  On the support every delta
        variable vanishes, so (g^-1 z)_j = c z_j and |(g^-1 z)_j|^2 =
        |z_j|^2: each power factor is unchanged.  The delta block pulls
        back through a triangular real map with |det| = 1, so it is
        unchanged too.  The monomial substitutes through the inverse map,
        and ``from_raw`` drops every term that a delta variable kills."""
        raws: List[RawTerm] = []
        for (mono, powers, delta), coeff in self.terms.items():
            if any(a or b for _, a, b in delta):
                raise ValueError(f"act_group acts on underived deltas only, "
                                 f"got the delta block {delta}")
            dset = {k for k, _, _ in delta}
            dsyms = {s for k in dset for s in (sym_z(k), sym_zbar(k))}
            # -- delta block: triangular with unit-modulus diagonal --------
            for k in sorted(dset):
                row = sub.inv[sym_z(k)]
                for s in row:
                    kk = s // 2 + 1
                    if kk not in dset or (kk == k and s != sym_z(k)):
                        raise UnsupportedSubstitutionError(
                            f"delta variable z{k} maps outside the supported "
                            f"triangular shape (hits {sym_name(s)})")
                    if kk < k:
                        raise UnsupportedSubstitutionError(
                            f"delta variable z{k} maps to lower index z{kk}")
                c = row.get(sym_z(k), Scalar.zero())
                if c * c.conjugate() != Scalar.one():
                    raise UnsupportedSubstitutionError(
                        f"delta variable z{k} has non-unit diagonal ({c})")
                for s in sub.fwd[sym_z(k)]:
                    if s // 2 + 1 not in dset:
                        raise UnsupportedSubstitutionError(
                            f"forward image of delta variable z{k} leaves "
                            "the delta block")
            # -- power bases: c z_j plus delta symbols, |c| = 1 ------------
            for j, _ in powers:
                row = sub.inv[sym_z(j)]
                c = row.get(sym_z(j), Scalar.zero())
                for s in row:
                    if s != sym_z(j) and s not in dsyms:
                        raise UnsupportedSubstitutionError(
                            f"power-factor base for z{j} depends on "
                            f"non-delta symbol {sym_name(s)}")
                if c * c.conjugate() != Scalar.one():
                    raise UnsupportedSubstitutionError(
                        f"power-factor base for z{j} has non-unit leading "
                        f"coefficient ({c})")
            for m, c in substitute_poly({mono: coeff}, sub.inv).items():
                raws.append(RawTerm(dict(m), dict(powers),
                                    {k: (0, 0) for k in dset}, c))
        return DistExpr.from_raw(self.n, raws)

    # -- gradings ----------------------------------------------------------

    def term_degrees(self) -> List[AffineExponent]:
        out = []
        for (mono, powers, delta), _ in self.terms.items():
            d = AffineExponent.of(sum(e for _, e in mono))
            for _, sigma in powers:
                d = d + sigma + sigma
            for _, a, b in delta:
                d = d - (2 + a + b)
            out.append(d)
        return out

    def degree(self) -> Optional[AffineExponent]:
        """The common homogeneity degree, or None when inhomogeneous."""
        degs = set(self.term_degrees())
        if len(degs) == 1:
            return degs.pop()
        return None

    def parity(self) -> str:
        seen = set()
        for (mono, _powers, delta), _ in self.terms.items():
            p = sum(e for _, e in mono) + sum(a + b for _, a, b in delta)
            seen.add(p % 2)
        if not seen or seen == {0}:
            return "even"
        if seen == {1}:
            return "odd"
        return "mixed"

    def u1_weights(self) -> set:
        """The set of phase weights across terms; all-zero weight is
        equivalent to invariance under every diagonal phase."""
        out = set()
        for (mono, _powers, delta), _ in self.terms.items():
            w = sum(-e if s % 2 else e for s, e in mono)
            w -= sum(a - b for _, a, b in delta)
            out.add(w)
        return out

    # -- support -----------------------------------------------------------

    def formal_support(self) -> "SupportDescriptor":
        if self.is_zero():
            raise ValueError("zero expression has empty support")
        dsets = {tuple(k for k, _, _ in delta)
                 for (_, _, delta) in self.terms}
        if len(dsets) != 1:
            raise ValueError("mixed delta-variable sets")
        S = frozenset(dsets.pop())
        j = 0
        for (mono, powers, _delta) in self.terms:
            for jj, _ in powers:
                j = max(j, jj)
            for s, _ in mono:
                if s // 2 + 1 not in S:
                    j = max(j, s // 2 + 1)
        stratum = None
        if S == frozenset(range(j + 1, self.n + 1)):
            stratum = j
        return SupportDescriptor(S, j, stratum)

    # -- display -----------------------------------------------------------

    def canonical_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=_term_sort_key):
            mono, powers, delta = key
            c = self.terms[key]
            factors = [f"({c})", *mono_factors(mono)]
            for j, sigma in powers:
                factors.append(f"(z{j}*zbar{j})^({sigma})")
            for k, a, b in delta:
                factors.append(f"delta{k}[{a},{b}]")
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = canonical_str


def _term_sort_key(key: TermKey):
    mono, powers, delta = key
    return (delta, tuple((j, sigma.r, sigma.s) for j, sigma in powers),
            mono_sort_key(mono))


class SupportDescriptor:
    """Delta-variable set S, leading free index j, and the stratum-closure
    label when S = {j+1, ..., n} (the support is then the closure of the
    (2j-1)-dimensional stratum).  Immutable by convention."""

    __slots__ = ("delta_vars", "leading_index", "stratum")

    def __init__(self, delta_vars: frozenset, leading_index: int,
                 stratum: Optional[int]):
        self.delta_vars, self.leading_index = delta_vars, leading_index
        self.stratum = stratum

    def label(self) -> str:
        return f"X{self.stratum}" if self.stratum is not None else "irregular"


class Residuals:
    """The residuals of one group element g on a chain (``build_family``'s
    members T^0, T^1, ... with T^l = D T^(l-1)), by the induction of
    Proposition 4.5: g.D = D + E_g with E_g = g.D - D (Lemma 4.4), so when g
    fixes T^(l-1), g.T^l - T^l = E_g T^(l-1).  Hence g fixes T^0..T^l
    exactly when the residual g.T^0 - T^0 of order 0 and E_g T^(k-1) of
    each order 1 <= k <= l are all zero.

    E_g and the residual of order 0 are computed once; the residual of
    order k is formed when first asked for, and none past the first
    nonzero one."""

    def __init__(self, op: WeylOp, chain: Sequence[DistExpr],
                 sub: Substitution):
        self.chain = chain
        self.difference = conjugate_op(op, sub) - op  # E_g
        self.residuals = [chain[0].act_group(sub) - chain[0]]

    def first_failure(self, order: int) -> Optional[Tuple[int, DistExpr]]:
        """(k, residual) for the lowest order k <= ``order`` whose residual
        is nonzero, or None when g fixes the members of orders 0..order."""
        res = self.residuals
        while len(res) <= order and res[-1].is_zero():
            res.append(self.chain[len(res) - 1].apply_weyl(self.difference))
        k = min(order, len(res) - 1)
        return None if res[k].is_zero() else (k, res[k])


# ---------------------------------------------------------------------------
# Linear independence over the lam-function field
# ---------------------------------------------------------------------------

def independence_rank(family: Sequence[DistExpr]) -> int:
    """Rank of the family's coefficient matrix over all distinct basis
    terms, computed exactly over the field of rational functions in lam.

    Disjoint supports certify full rank first: when every member has a
    term and no two members share a term key, each row is nonzero only in
    columns where every other row is zero (a ``DistExpr`` keeps no zero
    coefficient), so the rank is ``len(family)`` over any field.  Any
    other family is ranked by ``rank_over_function_field``."""
    seen: set = set()
    for e in family:
        if not e.terms or not seen.isdisjoint(e.terms):
            break
        seen.update(e.terms)
    else:
        return len(family)
    keys = sorted({k for e in family for k in e.terms}, key=_term_sort_key)
    matrix = [[e.terms.get(k, Scalar.zero()) for k in keys] for e in family]
    if not keys:
        return 0
    return rank_over_function_field(matrix)

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

from bisect import bisect_left
from math import perm
from operator import itemgetter
from typing import Dict, Optional, Sequence, Tuple

from .scalars import AffineExponent, Scalar, rank_over_function_field
from .weyl import Mono, Substitution, WeylOp, conjugate_op, mono_factors, \
    mono_mul, mono_of, mono_sort_key, substitute_poly, sym_conj, sym_name, \
    sym_z, sym_zbar

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


def _find(pairs: tuple, k: int) -> int:
    """The index of the entry keyed k in sorted pairs, or -1."""
    i = bisect_left(pairs, (k,))
    return i if i < len(pairs) and pairs[i][0] == k else -1


def _derive(key: TermKey, coeff: Scalar, s: int
            ) -> Optional[Tuple[TermKey, Scalar]]:
    """d/d(symbol s) of the canonical term coeff * key: one canonical term,
    or None.  Only variable j = s // 2 + 1 changes; it is a delta variable,
    a power factor's or neither, so one Leibniz term survives.  A delta
    raises its order in s; (z_j zbar_j)^sigma gives sigma, the conjugate
    symbol and sigma - 1, which folds back to sigma when the key holds s^e
    (then the factor is e + sigma); else s^e gives e s^(e-1)."""
    mono, powers, delta = key
    j = s // 2 + 1
    i, p = _find(mono, s), _find(powers, j)
    if p >= 0:
        sigma = powers[p][1]
        if i < 0:
            return (mono_mul(mono, ((sym_conj(s), 1),)),
                    powers[:p] + ((j, sigma - 1),) + powers[p + 1:], delta), \
                coeff * sigma.as_scalar()
        return (mono_mul(mono, ((s, -1),)), powers, delta), \
            coeff * (sigma + mono[i][1]).as_scalar()
    if i >= 0:
        return (mono_mul(mono, ((s, -1),)), powers, delta), \
            coeff * Scalar.of(mono[i][1])
    d = _find(delta, j)
    if d < 0:
        return None
    _, a, b = delta[d]
    raised = (j, a, b + 1) if s & 1 else (j, a + 1, b)
    return (mono, powers, delta[:d] + (raised,) + delta[d + 1:]), coeff


def _times(key: TermKey, s: int, e: int) -> Optional[Tuple[TermKey, int]]:
    """symbol^e times the canonical term key: the canonical key and its
    integer factor, or None when a delta kills the term.  Only variable
    j = s // 2 + 1 changes.  On a delta, z_j^e (zbar_j^e) lowers the order
    a (b) by e with the factor (-1)^e a!/(a-e)!, or kills the term past
    it; on a power factor, the exponent shared with the conjugate symbol
    folds in, and a nonnegative-integer power unfolds into monomials."""
    mono, powers, delta = key
    j = s // 2 + 1
    d = _find(delta, j)
    if d >= 0:
        _, a, b = delta[d]
        order = b if s & 1 else a
        if e > order:
            return None
        lowered = (j, a, b - e) if s & 1 else (j, a - e, b)
        f = perm(order, e)
        return (mono, powers, delta[:d] + (lowered,) + delta[d + 1:]), \
            -f if e % 2 else f
    p = _find(powers, j)
    c = _find(mono, sym_conj(s)) if p >= 0 else -1
    if c < 0:
        return (mono_mul(mono, ((s, e),)), powers, delta), 1
    m = min(e, mono[c][1])
    sigma = powers[p][1] + m
    if sigma.is_integer() and sigma.num_r >= 0:
        m -= sigma.num_r
        powers = powers[:p] + powers[p + 1:]
    else:
        powers = powers[:p] + ((j, sigma),) + powers[p + 1:]
    return (mono_mul(mono, ((s, e - m), (sym_conj(s), -m))), powers,
            delta), 1


def _multiply(acc: Dict[TermKey, Scalar], mono: Mono, key: TermKey,
              coeff: Scalar) -> None:
    """Add coeff * mono * key to acc, one symbol at a time by ``_times``."""
    f = 1
    for s, e in mono:
        hit = _times(key, s, e)
        if hit is None:
            return
        key, g = hit
        f *= g
    if f != 1:
        coeff = coeff * Scalar.of(f)
    prev = acc.get(key)
    acc[key] = coeff if prev is None else prev + coeff


class DistExpr:
    """Canonical sum of distribution terms."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[TermKey, Scalar] | None = None):
        self.n = n
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    # -- construction -----------------------------------------------------

    @staticmethod
    def single(n: int, coeff: Scalar = Scalar.one(),
               mono: Dict[int, int] | None = None,
               powers: Dict[int, AffineExponent] | None = None,
               delta: Dict[int, Tuple[int, int]] | None = None) -> "DistExpr":
        """The canonical term: the power factors (a nonnegative-integer one
        unfolded) and the delta block, times the monomial by ``_multiply``;
        a power factor on a delta variable is refused."""
        powers, delta = powers or {}, delta or {}
        for j in powers:
            if j in delta:
                raise UnsupportedSubstitutionError(
                    f"power factor on delta variable z{j}")
        unfolded, kept = {}, []
        for j, sigma in sorted(powers.items()):
            if sigma.is_integer() and sigma.num_r >= 0:
                unfolded[sym_z(j)] = unfolded[sym_zbar(j)] = sigma.num_r
            else:
                kept.append((j, sigma))
        acc: Dict[TermKey, Scalar] = {}
        _multiply(acc, mono_of(mono or {}), (mono_of(unfolded), tuple(kept),
                  tuple((k, a, b) for k, (a, b) in sorted(delta.items()))),
                  coeff)
        return DistExpr(n, acc)

    # -- linear structure -------------------------------------------------

    def __sub__(self, other: "DistExpr") -> "DistExpr":
        acc = dict(self.terms)
        for k, c in other.terms.items():
            prev = acc.get(k)
            acc[k] = -c if prev is None else prev - c
        return DistExpr(self.n, acc)

    def is_zero(self) -> bool:
        return not self.terms

    # -- differential operators -------------------------------------------

    def apply_weyl(self, op: WeylOp) -> "DistExpr":
        """Normal-ordered operator applied by Leibniz: per operator term, e
        steps of ``_derive`` per derivative of order e, then ``_multiply``."""
        if op.n != self.n:
            raise ValueError("dimension mismatch")
        acc: Dict[TermKey, Scalar] = {}
        for (mono, deriv), c in op.terms.items():
            terms = self.terms
            for s, e in deriv:
                for _ in range(e):
                    step: Dict[TermKey, Scalar] = {}
                    for key, coeff in terms.items():
                        term = _derive(key, coeff, s)
                        if term is not None:
                            k, v = term
                            prev = step.get(k)
                            step[k] = v if prev is None else prev + v
                    terms = step
            for key, coeff in terms.items():
                _multiply(acc, mono, key, coeff * c)
        return DistExpr(self.n, acc)

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
        and ``_multiply`` drops every term that a delta variable kills."""
        acc: Dict[TermKey, Scalar] = {}
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
                _multiply(acc, m, ((), powers, delta), c)
        return DistExpr(self.n, acc)

    # -- gradings ----------------------------------------------------------

    def degree(self) -> Optional[AffineExponent]:
        """The common homogeneity degree, or None when inhomogeneous."""
        degs = set()
        for mono, powers, delta in self.terms:
            d = AffineExponent.of(sum(e for _, e in mono))
            for _, sigma in powers:
                d = d + sigma + sigma
            for _, a, b in delta:
                d = d - (2 + a + b)
            degs.add(d)
        return degs.pop() if len(degs) == 1 else None

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
        dsets = {tuple(map(itemgetter(0), delta))
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
        stratum = j if S == frozenset(range(j + 1, self.n + 1)) else None
        return SupportDescriptor(S, j, stratum)

    # -- display -----------------------------------------------------------

    def canonical_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=_term_sort_key):
            mono, powers, delta = key
            parts.append("*".join([
                f"({self.terms[key]})", *mono_factors(mono),
                *(f"(z{j}*zbar{j})^({sigma})" for j, sigma in powers),
                *(f"delta{k}[{a},{b}]" for k, a, b in delta)]))
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

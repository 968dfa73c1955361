"""Exact coefficient arithmetic.

Everything downstream computes over the ring

    K = Q(i)[lam, a1, a1~, a2, a2~, ...][u, u^-1]

where ``lam`` is the holomorphic parameter, ``u`` is a formal unit-modulus
phase (conjugation negates its exponent, so u*conj(u) == 1 automatically),
and each ``ak`` has a formal conjugate ``ak~``.  Extra ad-hoc symbol names
are allowed and get a formal conjugate too; ``lam`` is real and fixed by
conjugation.

A coefficient of Q(i) is a ``GaussianRational``: a canonical triple
(num_re + i*num_im)/den of Python ints, so every ring operation is integer
arithmetic.  All arithmetic is exact; there is no floating point anywhere
in this module.

The exact rank kernel lives in ``rank`` and is re-exported here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Tuple

from .rank import integer_rank, rank_over_function_field

__all__ = [
    "GaussianRational",
    "Scalar",
    "AffineExponent",
    "integer_rank",
    "rank_over_function_field",
]


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

class GaussianRational:
    """An element (num_re + i*num_im)/den of Q(i), held as three ints.

    The triple is canonical: den > 0, gcd(num_re, num_im, den) == 1, and
    zero is (0, 0, 1).  Equal values therefore have equal triples, so
    ``==`` and ``hash`` compare ints, and every ring operation is integer
    arithmetic reduced by one three-way gcd.  Immutable by convention.

    ``GaussianRational(re, im)`` and ``.of(re, im)`` take ints or
    Fractions only, else raise ``TypeError``.
    """

    __slots__ = ("num_re", "num_im", "den")

    def __new__(cls, re=0, im=0) -> "GaussianRational":
        if not (isinstance(re, (int, Fraction))
                and isinstance(im, (int, Fraction))):
            raise TypeError(f"expected ints or Fractions, got {re!r}, {im!r}")
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        return _canonical(p * s, r * q, q * s)

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(re, im)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        if type(other) is not GaussianRational:
            return NotImplemented
        d, e = self.den, other.den
        if d == e:
            return _canonical(self.num_re + other.num_re,
                              self.num_im + other.num_im, d)
        return _canonical(self.num_re * e + other.num_re * d,
                          self.num_im * e + other.num_im * d, d * e)

    def __neg__(self) -> "GaussianRational":
        return _canonical(-self.num_re, -self.num_im, self.den)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        if type(other) is not GaussianRational:
            return NotImplemented
        a, b, c, d = self.num_re, self.num_im, other.num_re, other.num_im
        return _canonical(a * c - b * d, a * d + b * c, self.den * other.den)

    def conjugate(self) -> "GaussianRational":
        return _canonical(self.num_re, -self.num_im, self.den)

    def inverse(self) -> "GaussianRational":
        """den/(a + i*b) = den*(a - i*b)/(a^2 + b^2)."""
        a, b, d = self.num_re, self.num_im, self.den
        norm = a * a + b * b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _canonical(d * a, -d * b, norm)

    def is_zero(self) -> bool:
        return not (self.num_re or self.num_im)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return (self.num_re == other.num_re and self.num_im == other.num_im
                and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num_re, self.num_im, self.den))

    def __str__(self) -> str:
        a, b, d = self.num_re, self.num_im, self.den
        if b == 0:
            return _ratio_str(a, d)
        if a == 0:
            return f"{_ratio_str(b, d)}*i"
        sign = "+" if b > 0 else "-"
        return f"({_ratio_str(a, d)}{sign}{_ratio_str(abs(b), d)}*i)"

    __repr__ = __str__


def _canonical(num_re: int, num_im: int, den: int) -> GaussianRational:
    """(num_re + i*num_im)/den in lowest terms, for den > 0."""
    g = gcd(num_re, num_im, den)
    if g != 1:
        num_re, num_im, den = num_re // g, num_im // g, den // g
    new = object.__new__(GaussianRational)
    new.num_re, new.num_im, new.den = num_re, num_im, den
    return new


def _ratio_str(num: int, den: int) -> str:
    """num/den as ``str(Fraction(num, den))`` prints it, for den > 0."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational.of(1)
GR_I = GaussianRational.of(0, 1)


# ---------------------------------------------------------------------------
# The coefficient ring K
# ---------------------------------------------------------------------------

# Symbols fixed (and real) under conjugation.
_REAL_VARS = frozenset({"lam"})
# Unit-modulus symbols: conjugation negates the (Laurent) exponent.
# u is the primary formal phase; v is a second independent one (used when
# two group elements with unrelated phases meet in the same computation).
_UNIT_VARS = frozenset({"u", "v"})

Mono = Tuple[Tuple[str, int], ...]
_EMPTY_MONO: Mono = ()


def _var_rank(name: str) -> Tuple[int, str]:
    # Fixed total order: lam first, then u, then everything else by name.
    if name == "lam":
        return (0, name)
    if name in _UNIT_VARS:
        return (1, name)
    return (2, name)


def _mono_sorted(pairs: Iterable[Tuple[str, int]]) -> Mono:
    return tuple(sorted(((n, e) for n, e in pairs if e != 0),
                        key=lambda p: _var_rank(p[0])))


def _mono_key(m: Mono):
    # Lexicographic comparison key in the fixed variable order.
    return tuple((_var_rank(n), e) for n, e in m)


# Memos of the monomial product and conjugate, pure functions of their
# keys.  The chains meet few monomials and hit them often, and the algebra
# checks meet the same few pairs at every n, so the memos stay unbounded.
_MONO_PRODUCTS: Dict[Tuple[Mono, Mono], Mono] = {}
_MONO_CONJUGATES: Dict[Mono, Mono] = {}


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    m = _MONO_PRODUCTS.get((m1, m2))
    if m is None:
        acc: Dict[str, int] = dict(m1)
        for n, e in m2:
            acc[n] = acc.get(n, 0) + e
        m = _MONO_PRODUCTS[m1, m2] = _mono_sorted(acc.items())
    return m


def _mono_conj(m: Mono) -> Mono:
    """The conjugate monomial: a unit symbol's exponent negates, lam is
    fixed, and any other symbol swaps with its partner ``name~``."""
    c = _MONO_CONJUGATES.get(m)
    if c is None:
        pairs = []
        for n, e in m:
            if n in _UNIT_VARS:
                pairs.append((n, -e))
            elif n in _REAL_VARS:
                pairs.append((n, e))
            else:
                pairs.append((n[:-1] if n.endswith("~") else n + "~", e))
        c = _MONO_CONJUGATES[m] = _mono_sorted(pairs)
    return c


class Scalar:
    """Sparse element of K: a dict from monomials to Gaussian rationals.

    Immutable; operations return new values, except that a zero or unit
    operand short-circuits: x + 0 is x, x * 0 is zero, x * 1 is x, and zero
    is self-conjugate.  ``+``, ``*`` and ``==`` take Scalars only, so an
    int, Fraction or GaussianRational operand raises ``TypeError`` or
    compares unequal; ``Scalar.of`` lifts an int or a Fraction.
    Canonical form (sorted terms, zero coefficients pruned) is maintained
    on construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Mono, GaussianRational] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items()
                      if not c.is_zero()}

    @staticmethod
    def _nonzero(terms: Dict[Mono, GaussianRational]) -> "Scalar":
        """A Scalar that takes terms holding no zero coefficient as is."""
        new = object.__new__(Scalar)
        new.terms = terms
        return new

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    @staticmethod
    def of(re, im=0) -> "Scalar":
        """re + i*im for ints or Fractions; an int is memoised, so
        ``Scalar.of(1) is Scalar.one()`` and a product by it short-circuits."""
        if type(re) is int and type(im) is int and not im:
            c = _INT_SCALARS.get(re)
            if c is None:
                c = _INT_SCALARS[re] = Scalar(
                    {_EMPTY_MONO: GaussianRational(re)})
            return c
        return Scalar({_EMPTY_MONO: GaussianRational.of(re, im)})

    @staticmethod
    def var(name: str, exp: int = 1,
            coeff: GaussianRational = GR_ONE) -> "Scalar":
        if exp < 0 and name not in _UNIT_VARS:
            raise ValueError(f"negative exponent only allowed on u, got {name}")
        return Scalar({_mono_sorted([(name, exp)]): coeff})

    # -- ring operations --------------------------------------------------

    def __add__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        acc = dict(self.terms)
        for m, c in other.terms.items():
            prev = acc.get(m)
            total = c if prev is None else prev + c
            if total.is_zero():
                del acc[m]
            else:
                acc[m] = total
        return Scalar._nonzero(acc)

    def __neg__(self) -> "Scalar":
        return Scalar({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Scalar":
        return self + (-other)

    def __mul__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            return NotImplemented
        if other is _ONE:
            return self
        if self is _ONE:
            return other
        if not (self.terms and other.terms):
            return _ZERO
        if len(self.terms) == 1 and len(other.terms) == 1:
            # Q(i) has no zero divisors, so the one term is nonzero
            (m1, c1), = self.terms.items()
            (m2, c2), = other.terms.items()
            return Scalar._nonzero({_mono_mul(m1, m2): c1 * c2})
        # Each output monomial sums its products as an unreduced integer
        # triple (re, im, den) and is reduced once at the end.
        acc: Dict[Mono, Tuple[int, int, int]] = {}
        right = [(m2, c2.num_re, c2.num_im, c2.den)
                 for m2, c2 in other.terms.items()]
        for m1, c1 in self.terms.items():
            a, b, d = c1.num_re, c1.num_im, c1.den
            for m2, c, e, f in right:
                m = _mono_mul(m1, m2)
                re, im, den = a * c - b * e, a * e + b * c, d * f
                prev = acc.get(m)
                if prev is not None:
                    p_re, p_im, p_den = prev
                    if p_den == den:
                        re, im = re + p_re, im + p_im
                    else:
                        re, im, den = (re * p_den + p_re * den,
                                       im * p_den + p_im * den, den * p_den)
                acc[m] = (re, im, den)
        return Scalar._nonzero({m: _canonical(re, im, den)
                                for m, (re, im, den) in acc.items()
                                if re or im})

    __rmul__ = __mul__

    # -- involution and structure -----------------------------------------

    def conjugate(self) -> "Scalar":
        if not self.terms:
            return self
        return Scalar._nonzero({_mono_conj(m): c.conjugate()
                                for m, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not Scalar:
            return NotImplemented
        return self.terms == other.terms

    def free_symbols(self) -> frozenset:
        return frozenset(n for m in self.terms for n, _ in m)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def inverse_unit(self) -> "Scalar":
        """Inverse of a single-term scalar (exponents negate; only valid
        when every negative exponent lands on a Laurent symbol)."""
        if len(self.terms) != 1:
            raise ValueError("inverse_unit requires a single-term scalar")
        (m, c), = self.terms.items()
        for name, _ in m:
            if name not in _UNIT_VARS:
                raise ValueError(f"cannot invert symbol {name}")
        inv_m = _mono_sorted((n, -e) for n, e in m)
        return Scalar({inv_m: c.inverse()})

    # -- univariate view --------------------------------------------------

    def lam_coeffs(self) -> List[GaussianRational]:
        """Coefficient list [c0, c1, ...] of a polynomial in lam alone."""
        extra = self.free_symbols() - {"lam"}
        if extra:
            raise ValueError(
                f"entry contains non-lam symbols {sorted(extra)}; "
                "specialize group parameters before taking ranks")
        if not self.terms:
            return []
        deg = max(dict(m).get("lam", 0) for m in self.terms)
        coeffs = [GR_ZERO] * (deg + 1)
        for m, c in self.terms.items():
            coeffs[dict(m).get("lam", 0)] = c
        return coeffs

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=_mono_key):
            c = self.terms[m]
            factors = [str(c)] if m == _EMPTY_MONO or str(c) != "1" else []
            for name, e in m:
                factors.append(name if e == 1 else f"{name}^{e}")
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)

    __repr__ = __str__


_ZERO = Scalar({})
_ONE = Scalar({_EMPTY_MONO: GR_ONE})
# Scalar.of's memo of ints: a chain multiplies by few distinct ones.
_INT_SCALARS: Dict[int, Scalar] = {0: _ZERO, 1: _ONE}

LAM = Scalar.var("lam")


# ---------------------------------------------------------------------------
# Affine exponents r + s*lam
# ---------------------------------------------------------------------------

class AffineExponent:
    """An exponent (num_r + num_s*lam)/den, that is r + s*lam with rational
    r and s, held as three ints.

    The triple is canonical, as a ``GaussianRational``'s is: den > 0 and
    gcd(num_r, num_s, den) == 1, so equal exponents have equal triples,
    ``==`` compares ints, and ``+`` and ``-`` are integer arithmetic reduced
    by one gcd.  A ``TermKey`` is hashed on every dict probe, so the hash
    is taken once, on construction.  Immutable by convention.

    ``AffineExponent(r, s)`` and ``.of(r, s)`` take ints or Fractions only,
    else raise ``TypeError``, and so do ``+`` and ``-`` for an operand that
    is not an exponent, an int or a Fraction; ``r`` and ``s`` read the
    parts as Fractions.
    """

    __slots__ = ("num_r", "num_s", "den", "_hash")

    def __new__(cls, r=0, s=0) -> "AffineExponent":
        if not (isinstance(r, (int, Fraction))
                and isinstance(s, (int, Fraction))):
            raise TypeError(f"expected ints or Fractions, got {r!r}, {s!r}")
        p, q = r.numerator, r.denominator
        u, v = s.numerator, s.denominator
        return _exponent(p * v, u * q, q * v)

    @staticmethod
    def of(r, s=0) -> "AffineExponent":
        return AffineExponent(r, s)

    def __add__(self, other) -> "AffineExponent":
        a, b, e = _exponent_parts(other)
        d = self.den
        if d == e:
            return _exponent(self.num_r + a, self.num_s + b, d)
        return _exponent(self.num_r * e + a * d, self.num_s * e + b * d,
                         d * e)

    def __sub__(self, other) -> "AffineExponent":
        a, b, e = _exponent_parts(other)
        d = self.den
        if d == e:
            return _exponent(self.num_r - a, self.num_s - b, d)
        return _exponent(self.num_r * e - a * d, self.num_s * e - b * d,
                         d * e)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineExponent):
            return NotImplemented
        return (self.num_r == other.num_r and self.num_s == other.num_s
                and self.den == other.den)

    def __hash__(self) -> int:
        return self._hash

    @property
    def r(self) -> Fraction:
        return Fraction(self.num_r, self.den)

    @property
    def s(self) -> Fraction:
        return Fraction(self.num_s, self.den)

    def is_integer(self) -> bool:
        # canonical: with num_s == 0, gcd(num_r, den) == 1
        return not self.num_s and self.den == 1

    def as_scalar(self) -> Scalar:
        """r + s*lam, memoised by value: each derivative step makes a new
        ``sigma - 1``, but a chain meets only O(l) distinct exponents."""
        c = _EXPONENT_SCALARS.get(self)
        if c is None:
            c = _EXPONENT_SCALARS[self] = \
                Scalar.of(self.r) + Scalar.of(self.s) * LAM
        return c

    def __str__(self) -> str:
        r, s, d = self.num_r, self.num_s, self.den
        if not s:
            return _ratio_str(r, d)
        if not r:
            return f"{_ratio_str(s, d)}*lam"
        return f"{_ratio_str(r, d)}+{_ratio_str(s, d)}*lam"


def _exponent(num_r: int, num_s: int, den: int) -> AffineExponent:
    """(num_r + num_s*lam)/den in lowest terms, for den > 0."""
    g = gcd(num_r, num_s, den)
    if g != 1:
        num_r, num_s, den = num_r // g, num_s // g, den // g
    new = object.__new__(AffineExponent)
    new.num_r, new.num_s, new.den = num_r, num_s, den
    new._hash = hash((num_r, num_s, den))
    return new


def _exponent_parts(x) -> Tuple[int, int, int]:
    """The triple of an exponent, or of an int or a Fraction as a constant
    exponent, else ``TypeError``; a float would put its binary expansion
    into an exact exponent."""
    if isinstance(x, AffineExponent):
        return x.num_r, x.num_s, x.den
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"expected an AffineExponent, int or Fraction, "
                        f"got {x!r}")
    return x.numerator, 0, x.denominator


_EXPONENT_SCALARS: Dict[AffineExponent, Scalar] = {}

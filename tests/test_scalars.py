"""Exact scalar ring: Gaussian rationals, sparse Laurent polynomials,
affine exponents, and generic rank over the lam function field."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invdist.scalars as scalar_module
from invdist.scalars import (AffineExponent, GaussianRational, Scalar,
                             _mono_mul, _mono_sorted, integer_rank,
                             rank_over_function_field, LAM)
from reference import FractionExponent, FractionGaussian, constant_value, \
    falling_factorial, from_gauss, generalized_binomial, loop_mul, parts, \
    random_gaussian, ref_mono_mul

U = Scalar.var("u")  # the unimodular phase symbol
fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
gaussians = st.builds(GaussianRational, fractions, fractions)


def at_lam(x, t):
    """x, a polynomial in lam alone, evaluated at lam = t."""
    return sum((from_gauss(c) * Scalar.of(t ** k)
                for k, c in enumerate(x.lam_coeffs())), Scalar.zero())


class TestGaussianRational:
    def test_field_ops(self):
        a = GaussianRational.of(Fraction(3, 4), Fraction(-1, 2))
        b = GaussianRational.of(2, 5)
        assert (a + b) + -b == a
        assert (a * b) * b.inverse() == a
        assert a * a.inverse() == GaussianRational.of(1)

    def test_conj_norm(self):
        a = GaussianRational.of(3, 4)
        assert a * a.conjugate() == GaussianRational.of(25)
        assert a.conjugate().conjugate() == a

    def test_i_squares_to_minus_one(self):
        i = GaussianRational.of(0, 1)
        assert i * i == GaussianRational.of(-1)

    @given(gaussians, gaussians, gaussians)
    @settings(max_examples=50)
    def test_ring_axioms(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


# numerators up to 10**12, denominators up to 10**9, zero parts often
big_fractions = st.builds(
    Fraction, st.one_of(st.just(0), st.integers(-10**12, 10**12)),
    st.integers(1, 10**9))
big_pairs = st.one_of(st.just((Fraction(0), Fraction(0))),
                      st.tuples(big_fractions, big_fractions))


def assert_canonical(g: GaussianRational) -> None:
    assert g.den > 0
    assert gcd(g.num_re, g.num_im, g.den) == 1
    if g.is_zero():
        assert (g.num_re, g.num_im, g.den) == (0, 0, 1)


def assert_same(g: GaussianRational, ref: FractionGaussian) -> None:
    assert_canonical(g)
    assert parts(g) == (ref.re, ref.im)
    assert str(g) == str(ref)


class TestAgainstFractionReference:
    """The int triple against the two-Fraction representation."""

    @given(big_pairs, big_pairs)
    @settings(max_examples=300, deadline=None)
    def test_ring_operations(self, x, y):
        a, b = GaussianRational(*x), GaussianRational(*y)
        ra, rb = FractionGaussian(*x), FractionGaussian(*y)
        assert_same(a, ra)
        assert_same(a + b, ra + rb)
        assert_same(a * b, ra * rb)
        assert_same(-a, FractionGaussian() - ra)
        assert_same(a.conjugate(), ra.conjugate())
        assert (a == b) == (ra == rb)
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                b.inverse()
        else:
            assert_same(b.inverse(), rb.inverse())
            assert_same(a * b.inverse(), ra / rb)

    @given(big_pairs, st.integers(-10**6, 10**6).filter(bool))
    @settings(max_examples=200, deadline=None)
    def test_constructors_agree(self, x, k):
        (p, q), (r, s) = ((f.numerator, f.denominator) for f in x)
        a = GaussianRational(*x)
        for other in (GaussianRational.of(*x),
                      GaussianRational.from_triple(p * s, r * q, q * s),
                      GaussianRational.from_triple(k * p * s, k * r * q,
                                                   k * q * s)):
            assert_canonical(other)
            assert other == a
            assert hash(other) == hash(a)

    @given(big_pairs, big_pairs)
    @settings(max_examples=200, deadline=None)
    def test_equal_values_hash_equal(self, x, y):
        a, b = GaussianRational(*x), GaussianRational(*y)
        for c in (a, b):
            assert hash(c + b + -b) == hash(c)
        if not b.is_zero():
            assert (a * b) * b.inverse() == a
            assert hash((a * b) * b.inverse()) == hash(a)

    def test_zero(self):
        zero = GaussianRational()
        assert (zero.num_re, zero.num_im, zero.den) == (0, 0, 1)
        assert GaussianRational.from_triple(0, 0, -7) == zero
        assert GaussianRational.of(3, 4) + -GaussianRational.of(3, 4) == zero
        with pytest.raises(ZeroDivisionError):
            zero.inverse()
        with pytest.raises(ZeroDivisionError):
            GaussianRational.from_triple(1, 2, 0)

    @pytest.mark.parametrize("make", [
        GaussianRational, GaussianRational.of, Scalar.of, AffineExponent.of],
        ids=["GaussianRational", "GaussianRational.of", "Scalar.of",
             "AffineExponent.of"])
    def test_constructors_take_ints_and_fractions_only(self, make):
        # a float would enter as its binary fraction:
        # 0.1 as 3602879701896397/2^55
        assert make(1, Fraction(1, 3)) == make(Fraction(1), Fraction(1, 3))
        for args in ((0.1,), (1, 0.1), ("1/2",)):
            with pytest.raises(TypeError):
                make(*args)

    def test_str_formats(self):
        assert str(GaussianRational.of(Fraction(3, 4))) == "3/4"
        assert str(GaussianRational.of(0, Fraction(-1, 2))) == "-1/2*i"
        assert (str(GaussianRational.of(Fraction(1, 2), Fraction(-3, 4)))
                == "(1/2-3/4*i)")

    def test_ring_operations_build_no_fraction(self, monkeypatch):
        a = GaussianRational.of(Fraction(3, 4), Fraction(-1, 2))
        b = GaussianRational.of(2, Fraction(5, 3))

        def refuse(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(Fraction, "__new__", staticmethod(refuse))
        results = [a + b, a * b, a.inverse(), a.conjugate(), -a]
        assert results[1] == b * a
        assert a != b and hash(a) == hash(a.conjugate().conjugate())
        assert str(a) == "(3/4-1/2*i)"


class TestRandomGaussian:
    @pytest.mark.parametrize("top, den", [(4, 4), (4, 3), (5, 5), (3, 3)])
    @pytest.mark.parametrize("seed", [0, 1, 7, 11, 21])
    def test_draw_matches_randint(self, top, den, seed):
        # tests pin values drawn by reference.random_gaussian, so a Python
        # whose randint draws differently must fail here rather than
        # silently change what those tests check
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(500):
            a, b = ref.randint(-top, top), ref.randint(1, den)
            c, d = ref.randint(-top, top), ref.randint(1, den)
            assert random_gaussian(rng, top, den) == GaussianRational.of(
                Fraction(a, b), Fraction(c, d))
        assert rng.getstate() == ref.getstate()


class TestScalar:
    def test_distributivity(self):
        x = Scalar.var("a1")
        y = Scalar.var("a2")
        z = LAM
        assert x * (y + z) == x * y + x * z
        assert (x + y) * (x - y) == x * x - y * y

    def test_conjugation_involution(self):
        x = Scalar.var("a1") * LAM + Scalar.of(0, 1) * U
        assert x.conjugate().conjugate() == x

    def test_unit_phase(self):
        # u * conj(u) = 1: the phase symbol is unimodular by construction
        assert U * U.conjugate() == Scalar.one()
        inv = U.inverse_unit()
        assert inv == U.conjugate()
        assert (U * U * U) * (inv * inv * inv) == Scalar.one()

    def test_lam_is_real(self):
        assert LAM.conjugate() == LAM

    def test_conjugate_pair_symbols(self):
        a = Scalar.var("a1")
        assert a.conjugate() != a
        assert str(a.conjugate()) != str(a)
        assert (a * a.conjugate()).conjugate() == a * a.conjugate()

    def test_substitute(self):
        x = LAM * LAM + Scalar.of(1)
        assert at_lam(x, 2) == Scalar.of(5)
        with pytest.raises(ValueError):
            at_lam(x + Scalar.var("a1"), 2)

    def test_constant_value(self):
        assert constant_value(Scalar.of(Fraction(7, 3))) \
            == GaussianRational.of(Fraction(7, 3))
        assert constant_value(Scalar.zero()) == GaussianRational.of(0)
        with pytest.raises(ValueError):
            constant_value(LAM)

    def test_lam_coeffs(self):
        p = LAM * LAM * Scalar.of(3) - LAM + Scalar.of(2)
        assert p.lam_coeffs() == [GaussianRational.of(2),
                                  GaussianRational.of(-1),
                                  GaussianRational.of(3)]
        assert Scalar.zero().lam_coeffs() == []
        with pytest.raises(ValueError):
            Scalar.var("a1").lam_coeffs()


# sparse Scalars over a few symbols, the zero Scalar among them
monomials = st.dictionaries(st.sampled_from(["lam", "u", "a1", "a1~"]),
                            st.integers(1, 3), max_size=3)
scalars = st.builds(
    lambda terms: Scalar({_mono_sorted(m.items()): c for m, c in terms}),
    st.lists(st.tuples(monomials, gaussians), max_size=4))
# a zero operand in every type that Scalar._coerce accepts
zeros = st.sampled_from([Scalar.zero(), Scalar({}), 0, Fraction(0),
                         GaussianRational()])


CONJ_NAME = {"lam": "lam", "u": "u", "v": "v", "a1": "a1~", "a1~": "a1",
             "a2": "a2~", "a2~": "a2"}


def ref_mono_conj(m):
    """The conjugate monomial, written out (no memo)."""
    return _mono_sorted((CONJ_NAME[name], -e if name in ("u", "v") else e)
                        for name, e in m)


def loop_add(x: Scalar, y: Scalar) -> dict:
    """The terms of x + y by the general merge loop, zeros pruned."""
    acc = dict(x.terms)
    for m, c in y.terms.items():
        acc[m] = acc[m] + c if m in acc else c
    return {m: c for m, c in acc.items() if not c.is_zero()}


class TestZeroShortCircuits:
    """A zero operand skips the general loops; the result must be the
    value they compute, in canonical form."""

    @staticmethod
    def assert_loop_value(got, want: dict):
        assert isinstance(got, Scalar)
        assert got.terms == want
        assert not any(c.is_zero() for c in got.terms.values())

    @given(scalars, zeros)
    @settings(max_examples=200)
    def test_zero_operands(self, x, zero):
        as_scalar = Scalar._coerce(zero)
        assert as_scalar.terms == {}
        self.assert_loop_value(x * zero, loop_mul(x, as_scalar))
        self.assert_loop_value(x + zero, loop_add(x, as_scalar))
        if not isinstance(zero, GaussianRational):
            # GaussianRational takes no Scalar operand, so only the Scalar
            # side coerces it
            self.assert_loop_value(zero * x, loop_mul(as_scalar, x))
            self.assert_loop_value(zero + x, loop_add(as_scalar, x))

    def test_conjugate_of_zero(self):
        self.assert_loop_value(Scalar.zero().conjugate(), {})
        self.assert_loop_value(Scalar({}).conjugate(), {})


# Laurent monomials: u and v may carry negative exponents
laurent = st.builds(
    lambda m, u, v: _mono_sorted(list(m.items()) + [("u", u), ("v", v)]),
    st.dictionaries(st.sampled_from(["lam", "a1", "a1~", "a2"]),
                    st.integers(1, 3), max_size=3),
    st.integers(-3, 3), st.integers(-3, 3))
nonzero_gaussians = gaussians.filter(lambda c: not c.is_zero())
one_term = st.builds(lambda m, c: Scalar({m: c}), laurent, nonzero_gaussians)
laurent_scalars = st.builds(
    lambda terms: Scalar(dict(terms)),
    st.lists(st.tuples(laurent, gaussians), max_size=4))


class TestFastPaths:
    """Memoised monomials and the one-term, cancelling and conjugating
    paths of Scalar equal the plain computation they replace."""

    @given(laurent, laurent)
    @settings(max_examples=200)
    def test_memoised_mono_mul(self, m1, m2):
        want = ref_mono_mul(m1, m2)
        assert _mono_mul(m1, m2) == want
        assert _mono_mul(m1, m2) == want  # now from the memo

    @given(one_term, one_term)
    @settings(max_examples=200)
    def test_one_term_products(self, x, y):
        product = x * y
        assert product.terms == loop_mul(x, y)
        assert len(product.terms) == 1

    @given(laurent_scalars, laurent_scalars)
    @settings(max_examples=200)
    def test_sums_prune_only_cancelled_terms(self, x, y):
        assert (x + y).terms == loop_add(x, y)
        assert not any(c.is_zero() for c in (x + y).terms.values())
        cancelled = x + (-x)
        assert cancelled == Scalar.zero() and cancelled.terms == {}

    @given(st.lists(laurent_scalars, max_size=5))
    @settings(max_examples=200)
    def test_sum_is_repeated_add(self, xs):
        want: dict = {}
        for x in xs:
            want = loop_add(Scalar(want), x)
        assert Scalar.sum(xs).terms == want
        assert Scalar.sum(xs + [-x for x in xs]).terms == {}

    @given(laurent_scalars)
    @settings(max_examples=200)
    def test_memoised_conjugate(self, x):
        want = {ref_mono_conj(m): c.conjugate() for m, c in x.terms.items()}
        assert x.conjugate().terms == want
        assert x.conjugate().terms == want  # now from the memo
        assert x.conjugate().conjugate() == x


# coefficients over equal, dividing and coprime denominators, so an output
# monomial sums triples over equal and over unequal denominators
mixed_fractions = st.builds(Fraction, st.integers(-30, 30),
                            st.sampled_from([1, 2, 3, 4, 8, 9, 35, 10**9 + 7]))
mixed_gaussians = st.builds(GaussianRational, mixed_fractions,
                            mixed_fractions)
mixed_scalars = st.builds(
    lambda terms: Scalar(dict(terms)),
    st.lists(st.tuples(laurent, mixed_gaussians), min_size=2, max_size=5))
lam_polys = st.builds(
    lambda cs: Scalar({(("lam", k),) if k else (): c
                       for k, c in enumerate(cs)}),
    st.lists(mixed_gaussians, min_size=2, max_size=7))

factors = st.one_of(mixed_scalars, lam_polys, one_term,
                    st.just(Scalar.zero()))


def assert_product(x: Scalar, y: Scalar) -> Scalar:
    """x * y equals the pairwise oracle, and each coefficient is in
    canonical form and nonzero."""
    got = x * y
    assert got.terms == loop_mul(x, y)
    for c in got.terms.values():
        assert not c.is_zero()
        assert_canonical(c)
    return got


class TestProduct:
    """The multi-term product reduces each output monomial's sum once;
    a unit operand is returned as is."""

    @given(factors, factors)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_pairwise_oracle(self, x, y):
        # one-term and zero factors give products of one term and of none
        assert_product(x, y)
        assert_product(y, x)

    @given(factors, factors)
    @settings(max_examples=100, deadline=None)
    def test_cancelling_cross_terms(self, a, b):
        # (a + b)(a - b): the products a*b and -b*a meet in one sum, which
        # may cancel to zero; a == b leaves the zero factor
        got = assert_product(a + b, a - b)
        assert got == a * a - b * b
        assert_product(a + b, b - a)

    def test_monomials_that_cancel(self):
        i = Scalar.of(0, 1)
        one = Scalar.one()
        assert_product(one + LAM, one - LAM)
        assert (one + LAM) * (one - LAM) == one - LAM * LAM
        assert (one + i * LAM) * (one - i * LAM) == one + LAM * LAM
        # (1/2 + lam/3)(-1 + 2lam/3): the lam sum is 2/6 - 1/3 over the
        # unreduced denominators 6 and 3, and cancels
        third = Scalar.of(Fraction(1, 3))
        p = assert_product(Scalar.of(Fraction(1, 2)) + third * LAM,
                           Scalar.of(-1) + third * Scalar.of(2) * LAM)
        assert p.terms == {(): GaussianRational.of(Fraction(-1, 2)),
                           (("lam", 2),): GaussianRational.of(Fraction(2, 9))}
        # a one-term factor leaves one term per term of the other
        assert_product(U * LAM, one + LAM)

    @given(factors)
    @settings(max_examples=100)
    def test_unit_operands_are_returned(self, x):
        one = Scalar.one()
        assert Scalar.of(1) is one
        assert x * one is x and one * x is x
        assert x * 1 is x and 1 * x is x
        assert one * one is one
        assert Scalar.of(-3) is Scalar.of(-3)
        assert Scalar.of(-3).terms == {(): GaussianRational.of(-3)}

    @pytest.mark.parametrize("d", [1, 2, 5, 12, 30])
    def test_one_reduction_per_product_monomial(self, monkeypatch, d):
        # a degree-d lam-polynomial times sigma: d + 2 output monomials,
        # one reduction each (the pairwise loop makes 3d + 2)
        sigma = AffineExponent(Fraction(1), Fraction(-1, 2))
        p, linear = falling_factorial(sigma - 3, d), sigma.as_scalar()
        assert len(p.lam_coeffs()) == d + 1 and len(linear.terms) == 2
        want = loop_mul(p, linear)
        canonical, calls = scalar_module._canonical, []

        def counted(*args):
            calls.append(args)
            return canonical(*args)

        monkeypatch.setattr(scalar_module, "_canonical", counted)
        got = p * linear
        monkeypatch.undo()
        assert got.terms == want
        assert len(calls) <= d + 2


class TestAffineExponent:
    def test_arithmetic(self):
        # 1 - lam/2, shifted down twice
        s = AffineExponent(Fraction(1), Fraction(-1, 2))
        assert (s - 1) - 1 == AffineExponent(Fraction(-1), Fraction(-1, 2))
        assert s.r + s.s * 2 == 0
        assert not s.is_integer()
        assert AffineExponent.of(3).is_integer()

    def test_as_scalar(self):
        s = AffineExponent(Fraction(2), Fraction(-1, 2))
        assert s.as_scalar() == Scalar.of(2) - LAM * Scalar.of(Fraction(1, 2))
        for e in (s, s - 5, AffineExponent(), AffineExponent.of(1),
                  AffineExponent.of(Fraction(-7, 3), 4), (s - 3) + 3):
            assert e.as_scalar() == Scalar.of(e.r) + Scalar.of(e.s) * LAM
        assert ((s - 3) + 3).as_scalar() is s.as_scalar()

    @pytest.mark.parametrize("bad", [
        0.1, 1.0, "1", None, GaussianRational.of(1), Scalar.one()])
    def test_operands_are_exponents_ints_or_fractions(self, bad):
        # 0.1 would enter as 3602879701896397/2^55
        s = AffineExponent.of(1)
        with pytest.raises(TypeError):
            s + bad
        with pytest.raises(TypeError):
            s - bad

    @pytest.mark.parametrize("make_a, make_b, text", [
        (lambda: AffineExponent(2, -1),
         lambda: AffineExponent(Fraction(2), Fraction(-1)), "2+-1*lam"),
        (lambda: AffineExponent.of(2, -1),
         lambda: AffineExponent(Fraction(2), Fraction(-1)), "2+-1*lam"),
        (lambda: AffineExponent.of(1) - Fraction(1, 2),
         lambda: AffineExponent(Fraction(1, 2)), "1/2"),
        (lambda: (AffineExponent(Fraction(1), Fraction(-1, 2)) - 3) + 3,
         lambda: AffineExponent(Fraction(1), Fraction(-1, 2)), "1+-1/2*lam"),
        (lambda: AffineExponent.of(3, Fraction(1, 2)) - AffineExponent.of(3),
         lambda: AffineExponent(0, Fraction(1, 2)), "1/2*lam"),
        (lambda: AffineExponent.of(0),
         lambda: AffineExponent.of(5) - 5, "0"),
    ], ids=["ints-fractions", "of-fractions", "minus-half", "shift-back",
            "lam-only", "zero"])
    def test_equal_exponents_are_one_key(self, make_a, make_b, text):
        a, b = make_a(), make_b()
        assert (a.num_r, a.num_s, a.den) == (b.num_r, b.num_s, b.den)
        assert a == b and hash(a) == hash(b)
        assert {a: "a"}[b] == "a" and len({a, b}) == 1
        assert str(a) == str(b) == text
        # a term key holding either one finds the other's entry
        assert {(0, ((2, a),)): 1}.get((0, ((2, b),))) == 1
        assert a != a + 1 and a != a + AffineExponent.of(0, 1)


# an exponent's part: an int or a Fraction, zero often
exponent_parts = st.one_of(st.just(0), st.integers(-30, 30),
                           st.builds(Fraction, st.integers(-40, 40),
                                     st.integers(1, 12)))
exponent_pairs = st.tuples(exponent_parts, exponent_parts)


def assert_same_exponent(e: AffineExponent, ref: FractionExponent) -> None:
    assert e.den > 0 and gcd(e.num_r, e.num_s, e.den) == 1
    assert type(e.r) is Fraction and type(e.s) is Fraction
    assert (e.r, e.s) == (ref.r, ref.s)
    assert str(e) == str(ref)
    assert e.is_zero() == ref.is_zero()
    assert e.is_integer() == ref.is_integer()
    assert e.as_scalar() == ref.as_scalar()


class TestExponentAgainstFractionReference:
    """The int triple against the two-Fraction representation."""

    @given(exponent_pairs, exponent_pairs, exponent_parts)
    @settings(max_examples=300, deadline=None)
    def test_operations(self, x, y, k):
        a, b = AffineExponent(*x), AffineExponent(*y)
        ra = FractionExponent(Fraction(x[0]), Fraction(x[1]))
        rb = FractionExponent(Fraction(y[0]), Fraction(y[1]))
        assert_same_exponent(a, ra)
        assert_same_exponent(AffineExponent.of(*x), ra)
        assert_same_exponent(a + b, ra + rb)
        assert_same_exponent(a - b, ra - rb)
        assert_same_exponent(a + k, ra + k)
        assert_same_exponent(a - k, ra - k)
        assert (a == b) == (ra == rb)
        if a == b:
            assert hash(a) == hash(b)

    @given(exponent_pairs, exponent_pairs, exponent_parts)
    @settings(max_examples=200, deadline=None)
    def test_every_path_to_a_value_is_one_key(self, x, y, k):
        a = AffineExponent(*x)
        b = AffineExponent(*y)
        for other in (AffineExponent.of(x[0]) + AffineExponent.of(0, x[1]),
                      (a + k) - k, (a - b) + b, (a + b) - b,
                      AffineExponent.of(0, x[1]) - (-x[0])):
            assert other == a and hash(other) == hash(a)
            assert (other.num_r, other.num_s, other.den) \
                == (a.num_r, a.num_s, a.den)
            assert {a: "a"}[other] == "a" and len({a, other}) == 1
            assert {(1, ((2, a),)): 1}.get((1, ((2, other),))) == 1


class TestBinomials:
    """The binomials of the reference jet expansion."""

    @pytest.mark.parametrize("n,k", [(5, 0), (5, 2), (7, 7), (6, 3)])
    def test_integer_case_matches_comb(self, n, k):
        from math import comb
        got = generalized_binomial(AffineExponent.of(n), k)
        assert got == Scalar.of(comb(n, k))

    def test_vanishing_above_integer_index(self):
        assert generalized_binomial(AffineExponent.of(3), 5) == Scalar.zero()

    def test_affine_case(self):
        # C(sigma, 1) = sigma
        s = AffineExponent(Fraction(1), Fraction(-1, 2))
        assert generalized_binomial(s, 1) == s.as_scalar()

    def test_falling_factorial(self):
        s = AffineExponent.of(4)
        assert falling_factorial(s, 2) == Scalar.of(12)
        assert falling_factorial(s, 0) == Scalar.one()


def _frac_rank(rows):
    """Oracle: plain Gaussian elimination over Fraction matrices."""
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestRank:
    def test_identity(self):
        one, zero = Scalar.one(), Scalar.zero()
        m = [[one if i == j else zero for j in range(4)] for i in range(4)]
        assert rank_over_function_field(m) == 4

    def test_dependent_rows(self):
        one = Scalar.one()
        m = [[one, LAM], [LAM, LAM * LAM]]
        assert rank_over_function_field(m) == 1

    def test_generic_vs_specialized(self):
        # [[1, lam], [lam, 1]] has generic rank 2 even though it drops
        # rank at lam = 1
        one = Scalar.one()
        assert rank_over_function_field([[one, LAM], [LAM, one]]) == 2

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
                    min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_constant_matrices_match_fraction_oracle(self, rows):
        m = [[Scalar.of(x) for x in r] for r in rows]
        assert rank_over_function_field(m) == _frac_rank(rows)

    def test_column_permutation_invariance(self):
        # regression: staircase matrices must have full rank in any
        # column order
        import itertools
        one, zero = Scalar.one(), Scalar.zero()
        base = [[one, zero, LAM, zero],
                [zero, zero, zero, one],
                [LAM, one, zero, zero]]
        for perm in itertools.permutations(range(4)):
            m = [[row[p] for p in perm] for row in base]
            assert rank_over_function_field(m) == 3

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=5, max_size=5),
                    min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_integer_rank_matches_fraction_oracle(self, rows):
        assert integer_rank(rows) == _frac_rank(rows)

    def test_integer_rank_of_dependent_rows(self):
        rows = [[2, -3, 5, 7], [1, 4, -2, 0]]
        rows.append([3 * a - 5 * b for a, b in zip(*rows)])
        assert integer_rank(rows) == 2
        assert integer_rank([[0, 0], [0, 0]]) == 0
        assert integer_rank([]) == 0

    @pytest.mark.parametrize("degree", [1, 2, 3, 6])
    def test_nonzero_only_at_the_last_point(self, degree):
        # prod_{k<D}(lam - k) has degree D and vanishes at lam = 0..D-1,
        # so only the (D+1)-th evaluation point shows rank 1
        entry = Scalar.one()
        for k in range(degree):
            entry = entry * (LAM - k)
        assert rank_over_function_field([[entry]]) == 1

    def test_determinant_vanishing_at_all_but_the_last_point(self):
        # row degrees 1 + 2 = D = 3; det = lam(lam-1)(lam-2)
        one = Scalar.one()
        m = [[LAM, one], [LAM * LAM, LAM * LAM - LAM * 2 + 2]]
        assert rank_over_function_field(m) == 2
        for t in range(3):
            special = [[at_lam(e, t) for e in row] for row in m]
            assert rank_over_function_field(special) == 1

    def test_gaussian_entries_use_the_realified_rank(self):
        # rows (1, i) and (i, -1) are dependent over Q(i), although their
        # real and imaginary parts are independent over Q
        one, i = Scalar.one(), Scalar.of(0, 1)
        assert rank_over_function_field([[one, i], [i, -one]]) == 1
        assert rank_over_function_field([[one, i], [i, one]]) == 2

    def test_rejects_foreign_symbols(self):
        with pytest.raises(ValueError):
            rank_over_function_field([[Scalar.var("a1")]])

"""Canonical distribution expressions: rewrite rules, Leibniz
differentiation, group action, and gradings."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invdist import distributions, weyl
from invdist.cli import RunConfig, run_suite
from invdist.clifford import h_element, h_generators, h_phase, \
    h_shift
from invdist.constructions import FamilySpec, _seed, build_family
from invdist.distributions import (DistExpr, Residuals,
                                   UnsupportedSubstitutionError,
                                   independence_rank)
from invdist.scalars import AffineExponent, GaussianRational, Scalar, \
    LAM, rank_over_function_field
from invdist.weyl import (Substitution, WeylOp, conjugate_op,
                          substitution_from_group, sym_z, sym_zbar)
from reference import act_group as act_group_reference
from reference import apply_weyl as apply_weyl_reference
from reference import canonical_key as canonical_key_reference
from reference import RawTerm, expr_parts, expr_str, expr_sum, from_gauss, \
    from_raw, generator_product, generator_substitutions, identity, \
    op_parts, sparse, toeplitz_mul, twisted_shift2, vector_of


def delta_functional(expr: DistExpr, r: int, s: int) -> Scalar:
    """Oracle pairing of a canonical n=1 delta expression against the
    test monomial z^r zbar^s: <c z^p zbar^q d^(a,b) delta, z^r zbar^s>
    = c (-1)^(a+b) a! b! [p+r=a][q+s=b]."""
    total = Scalar.zero()
    for (mono, powers, delta), coeff in expr.terms.items():
        assert not powers
        ((_, a, b),) = delta
        p, q = vector_of(mono, 2)
        if p + r == a and q + s == b:
            sign = -1 if (a + b) % 2 else 1
            total = total + coeff * Scalar.of(
                sign * factorial(a) * factorial(b))
    return total


def raw_functional(p, q, a, b, r, s) -> Scalar:
    """The same pairing computed on the unnormalized term directly."""
    if p + r == a and q + s == b:
        sign = -1 if (a + b) % 2 else 1
        return Scalar.of(sign * factorial(a) * factorial(b))
    return Scalar.zero()


class TestRewriteRules:
    def test_jet_pairing_oracle(self):
        # normalize agrees with the pairing oracle for all
        # z^p zbar^q d^a dbar^b delta with p,q,a,b <= 4
        bound = 4
        for p in range(bound + 1):
            for q in range(bound + 1):
                for a in range(bound + 1):
                    for b in range(bound + 1):
                        expr = DistExpr.single(
                            1, mono={0: p, 1: q}, delta={1: (a, b)})
                        for r in range(bound + 1):
                            for s in range(bound + 1):
                                assert delta_functional(expr, r, s) \
                                    == raw_functional(p, q, a, b, r, s)

    def test_annihilation_above_order(self):
        expr = DistExpr.single(1, mono={0: 3}, delta={1: (2, 0)})
        assert expr.is_zero()

    def test_absorption_coefficient(self):
        # z * d^2 delta = -2 d delta
        expr = DistExpr.single(1, mono={0: 1}, delta={1: (2, 0)})
        expected = DistExpr.single(1, coeff=Scalar.of(-2), delta={1: (1, 0)})
        assert expr_parts(expr) == expr_parts(expected)

    def test_monomials_fold_into_power_factor(self):
        sigma = AffineExponent(Fraction(1), Fraction(-1, 2))
        a = DistExpr.single(2, mono={sym_z(1): 1, sym_zbar(1): 1},
                            powers={1: sigma}, delta={2: (0, 0)})
        b = DistExpr.single(2, powers={1: sigma + 1}, delta={2: (0, 0)})
        assert expr_parts(a) == expr_parts(b)

    def test_integer_power_becomes_monomial(self):
        a = DistExpr.single(2, powers={1: AffineExponent.of(2)},
                            delta={2: (0, 0)})
        b = DistExpr.single(2, mono={sym_z(1): 2, sym_zbar(1): 2},
                            delta={2: (0, 0)})
        assert expr_parts(a) == expr_parts(b)

    def test_normalize_idempotent(self):
        sigma = AffineExponent(Fraction(2), Fraction(-1, 2))
        expr = DistExpr.single(3, mono={sym_zbar(1): 1, sym_z(2): 2},
                               powers={2: sigma}, delta={3: (1, 1)})
        (mono, powers, delta), coeff = next(iter(expr.terms.items()))
        again = DistExpr.single(3, coeff, dict(mono), dict(powers),
                                {k: (a, b) for k, a, b in delta})
        assert expr_parts(again) == expr_parts(expr)

    def test_power_on_delta_variable_rejected(self):
        with pytest.raises(UnsupportedSubstitutionError):
            DistExpr.single(2, powers={2: AffineExponent(Fraction(1, 2))},
                            delta={2: (0, 0)})


# a power factor's exponent: integers (negative and zero too) as at an
# integer lam, rationals as at a rational lam, and the formal r - lam/2
exponents = st.one_of(
    st.integers(-3, 3).map(AffineExponent.of),
    st.builds(AffineExponent.of,
              st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))),
    st.builds(AffineExponent.of, st.integers(-3, 3),
              st.sampled_from([Fraction(-1, 2), Fraction(1, 2), -1])))
coefficients = st.sampled_from([Scalar.one(), Scalar.of(-3), LAM,
                                Scalar.of(0, 1) + LAM, Scalar.zero()])


@st.composite
def raw_terms(draw, n=None):
    """A raw term on ``n`` variables, or on up to three: monomial exponents
    up to 4 (above a delta's orders and shared by z_j and zbar_j alike),
    derived deltas of orders up to 3, and now and then a power factor on a
    delta variable, which the normalizer refuses."""
    n = n or draw(st.integers(1, 3))
    variables = st.integers(1, n)
    mono = draw(st.lists(st.integers(0, 4), min_size=2 * n,
                         max_size=2 * n))
    delta = {k: (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
             for k in draw(st.lists(variables, unique=True))}
    on_delta = draw(st.integers(0, 9)) == 0
    powers = {j: draw(exponents)
              for j in draw(st.lists(variables, unique=True))
              if on_delta or j not in delta}
    return RawTerm(dict(sparse(mono)), powers, delta, draw(coefficients))


@st.composite
def expressions(draw):
    """A sum of raw terms on up to six variables, none of them refused."""
    n = draw(st.integers(1, 6))
    terms = st.lists(raw_terms(n).filter(
        lambda t: t.delta.keys().isdisjoint(t.powers)), max_size=8)
    return from_raw(n, draw(terms))


def single(t: RawTerm):
    """(key, coefficient) of ``DistExpr.single`` of the raw term t, or None
    when it has no term."""
    expr = DistExpr.single(3, t.coeff, t.mono, t.powers, t.delta)
    return next(iter(expr.terms.items()), None)


def normalized(normalize, t: RawTerm):
    """What ``normalize`` makes of t: (key, coefficient terms), None, or
    the refusal's message."""
    try:
        out = normalize(t)
    except UnsupportedSubstitutionError as exc:
        return str(exc)
    return None if out is None else (out[0], out[1].terms)


class TestNormalizerAgainstReference:
    """``DistExpr.single``, the multiply rule applied to the power factors
    and the delta block, against the step-by-step normalizer."""

    @given(raw_terms())
    @settings(max_examples=600, deadline=None)
    # z1 zbar1^2 on delta1[1,2]: the sign (-1)^3 and the factor 1! 2!
    @example(RawTerm(dict(sparse([1, 2])), {}, {1: (1, 2)}, Scalar.one()))
    # z2^3 on delta2[2,3]: above the order, zero
    @example(RawTerm(dict(sparse([0, 0, 3, 0])),
                     {1: AffineExponent.of(1, -1)}, {2: (2, 3)},
                     Scalar.one()))
    # z1^2 zbar1^3 folds 2 into -2 - lam/2, and z2^2 zbar2^2 folds into
    # (z2 zbar2)^-2, whose exponent becomes 0
    @example(RawTerm(dict(sparse([2, 3, 2, 2])),
                     {1: AffineExponent.of(-2, Fraction(-1, 2)),
                      2: AffineExponent.of(-2)},
                     {}, LAM))
    @example(RawTerm(dict(sparse([1, 1, 0, 0])), {1: AffineExponent.of(-3)},
                     {}, Scalar.one()))
    # the refusal comes before the zero of the exhausted delta1
    @example(RawTerm(dict(sparse([1, 0, 0, 0])), {2: AffineExponent.of(1)},
                     {1: (0, 0), 2: (0, 0)}, Scalar.one()))
    def test_same_key_coefficient_or_refusal(self, t):
        before = (dict(t.mono), dict(t.powers), dict(t.delta))
        assert normalized(single, t) \
            == normalized(canonical_key_reference, t)
        assert (t.mono, t.powers, t.delta) == before


@st.composite
def operators(draw, n):
    """A normal-ordered operator on n variables: up to three terms, each a
    monomial of exponents up to 2 times derivatives of total order up to
    2."""
    symbols = st.integers(0, 2 * n - 1)
    op = WeylOp(n)
    for _ in range(draw(st.integers(1, 3))):
        deriv = {}
        for s in draw(st.lists(symbols, max_size=2)):
            deriv[s] = deriv.get(s, 0) + 1
        op = op + WeylOp.term(
            n, draw(coefficients),
            draw(st.dictionaries(symbols, st.integers(1, 2), max_size=3)),
            deriv)
    return op


@st.composite
def expressions_and_operators(draw):
    expr = draw(expressions())
    return expr, draw(operators(expr.n))


def case(n, op_terms, **term):
    """(the single term of ``term``, the operator summing ``op_terms``,
    each (mono, deriv) with coefficient 1)."""
    op = WeylOp(n)
    for mono, deriv in op_terms:
        op = op + WeylOp.term(n, Scalar.one(), mono, deriv)
    return DistExpr.single(n, **term), op


SIGMA = AffineExponent.of(1, Fraction(-1, 2))


class TestLeibnizAgainstReference:
    """``DistExpr.apply_weyl``, the derive and multiply rules on canonical
    keys, against the raw-term Leibniz path, which normalizes only the
    sum."""

    @given(expressions_and_operators())
    @settings(max_examples=300, deadline=None)
    # d/dz1 on z1 (z1 zbar1)^sigma folds zbar1 back: (1 + sigma) once
    @example(case(2, [((), {0: 1})], mono={0: 1}, powers={1: SIGMA},
                  delta={2: (0, 0)}))
    # zbar1^2 d/dzbar1 on z1^2 (z1 zbar1)^sigma: a fold by 2
    @example(case(2, [({1: 2}, {1: 1})], mono={0: 2}, powers={1: SIGMA},
                  delta={2: (0, 0)}))
    # z2^2 on delta2[1,0] is killed, z2 d/dz2 is not, nor zbar2 d/dzbar2
    @example(case(2, [({2: 2}, {}), ({2: 1}, {2: 1}), ({3: 1}, {3: 1})],
                  delta={2: (1, 0)}))
    # on z1^2 (z1 zbar1)^-1, an integer exponent as at an integer lam:
    # zbar1 folds -1 + 1 = 0, which unfolds, and so does zbar1 d/dz1 after
    # the factor 2 - 1; d/dzbar1 lowers the exponent to -2
    @example(case(2, [({1: 1}, {}), ({1: 1}, {0: 1}), ((), {1: 1})],
                  mono={0: 2}, powers={1: AffineExponent.of(-1)},
                  delta={2: (0, 0)}))
    def test_same_terms(self, pair):
        expr, op = pair
        assert expr_parts(expr.apply_weyl(op)) \
            == expr_parts(apply_weyl_reference(expr, op))


class TestDifferentiation:
    def test_delta_derivative(self):
        # d/dz1 of delta(z1) raises the derivative order
        expr = DistExpr.single(1, delta={1: (0, 0)})
        d = WeylOp.term(1, Scalar.one(), deriv={0: 1})
        assert expr_parts(expr.apply_weyl(d)) \
            == expr_parts(DistExpr.single(1, delta={1: (1, 0)}))

    def test_power_factor_derivative(self):
        # d/dz1 (z1 zbar1)^sigma = sigma zbar1 (z1 zbar1)^(sigma-1)
        sigma = AffineExponent(Fraction(1), Fraction(-1, 2))
        expr = DistExpr.single(2, powers={1: sigma}, delta={2: (0, 0)})
        d = WeylOp.term(2, Scalar.one(), deriv={sym_z(1): 1})
        expected = DistExpr.single(
            2, coeff=sigma.as_scalar(), mono={sym_zbar(1): 1},
            powers={1: sigma - 1}, delta={2: (0, 0)})
        assert expr_parts(expr.apply_weyl(d)) == expr_parts(expected)

    def test_apply_weyl_respects_composition(self):
        rng = random.Random(4)
        n = 2
        sigma = AffineExponent(Fraction(1), Fraction(-1, 2))
        expr = DistExpr.single(n, powers={1: sigma}, delta={2: (1, 1)})
        for _ in range(10):
            a = WeylOp.term(n, Scalar.of(rng.randint(1, 3)),
                            {rng.randrange(4): 1}, {rng.randrange(4): 1})
            b = WeylOp.term(n, Scalar.of(rng.randint(1, 3)),
                            {rng.randrange(4): 1}, {rng.randrange(4): 1})
            assert expr_parts(expr.apply_weyl(b).apply_weyl(a)) \
                == expr_parts(expr.apply_weyl(a.compose(b)))


def shift_sub(n, j, re=Fraction(1, 2), im=Fraction(1, 3)):
    a = GaussianRational.of(re, im)
    return substitution_from_group(h_shift(n, j, from_gauss(a)))


# The action of ``DistExpr.act_group`` on members with underived deltas
# and the jet expansion of ``reference.act_group`` on derived ones: each
# convention test runs on both.
ACTIONS = [(DistExpr.act_group, (0, 0)), (act_group_reference, (1, 1))]


class TestGroupAction:
    def test_identity_action(self):
        sigma = AffineExponent(Fraction(1), Fraction(-1, 2))
        fixed = substitution_from_group(identity(3))
        for act, order in ACTIONS:
            expr = DistExpr.single(3, powers={2: sigma}, delta={3: order})
            assert expr_parts(act(expr, fixed)) == expr_parts(expr)

    def test_action_composes(self):
        # a left action: acting by g1, then by g3, is acting by g3 * g1;
        # a phase and a shift do not commute, so g1 * g3 differs
        n = 3
        sigma = AffineExponent(Fraction(1), Fraction(-1, 2))
        g3 = h_phase(n)
        g1 = h_shift(n, 1, from_gauss(
            GaussianRational.of(Fraction(1, 2), Fraction(1, 3))))
        for act, order in ACTIONS:
            expr = DistExpr.single(n, mono={sym_zbar(1): 1},
                                   powers={2: sigma}, delta={3: order})
            seq = act(act(expr, substitution_from_group(g1)),
                      substitution_from_group(g3))
            assert expr_parts(seq) == expr_parts(
                act(expr, substitution_from_group(toeplitz_mul(g3, g1))))
            assert expr_parts(seq) != expr_parts(
                act(expr, substitution_from_group(toeplitz_mul(g1, g3))))

    def test_phase_action_on_delta(self):
        # the full-phase rotation fixes the delta block and rotates
        # monomials by u
        n = 2
        sub = substitution_from_group(h_phase(n))
        expr = DistExpr.single(n, mono={sym_z(1): 1}, delta={2: (0, 0)})
        for act, _ in ACTIONS:
            acted = act(expr, sub)
            # z1 -> u z1 pulled back through the inverse gives u^{-1} z1
            (key, coeff), = acted.terms.items()
            assert key == next(iter(expr.terms))
            assert coeff == Scalar.var("u").inverse_unit()

    def test_linearity(self):
        n = 3
        sub = shift_sub(n, 1)
        sigma = AffineExponent(Fraction(1), Fraction(-1, 2))
        for act, order in ACTIONS:
            a = DistExpr.single(n, powers={2: sigma}, delta={3: order})
            b = DistExpr.single(n, mono={sym_zbar(1): 2}, powers={2: sigma},
                                delta={3: (0, 0)})
            assert expr_parts(act(expr_sum(a, b), sub)) \
                == expr_parts(expr_sum(act(a, sub), act(b, sub)))

    def test_inverse_action_roundtrips(self):
        n = 3
        sub = shift_sub(n, 1)
        inverse = Substitution(sub.n, sub.inv, sub.fwd)
        sigma = AffineExponent(Fraction(1), Fraction(-1, 2))
        for act, order in ACTIONS:
            expr = DistExpr.single(n, mono={sym_zbar(1): 1},
                                   powers={2: sigma}, delta={3: order})
            assert expr_parts(act(act(expr, sub), inverse)) \
                == expr_parts(expr)

    def test_order_zero_member_is_acted_on_with_no_product(self,
                                                          monkeypatch):
        # T^0 has no monomial, and substitute_poly maps the empty monomial
        # to itself: acting on T^0 makes no polynomial product
        n = 4
        member = build_family(FamilySpec(n, "T", 0))[0]
        calls = []
        poly_mul = weyl.poly_mul
        monkeypatch.setattr(weyl, "poly_mul",
                            lambda p, q: calls.append(1) or poly_mul(p, q))
        acted = [member.act_group(sub)
                 for _, sub in generator_substitutions(n)]
        monkeypatch.undo()
        assert calls == []
        assert [expr_parts(e) for e in acted] == [expr_parts(member)] * n


class TestActionShape:
    """``DistExpr.act_group`` refuses what its argument does not cover."""

    def test_non_unit_diagonal_is_refused(self):
        # on T^0, and on a delta alone and a power factor alone, which
        # each meet one of the two unit-modulus checks
        n = 3
        sigma = AffineExponent(Fraction(1), Fraction(-1, 2))
        g = h_element(n, Scalar.of(2), [Scalar.zero()] * (n - 1))
        for expr in (build_family(FamilySpec(n, "T", 0))[0],
                     DistExpr.single(n, delta={n: (0, 0)}),
                     DistExpr.single(n, powers={1: sigma})):
            with pytest.raises(UnsupportedSubstitutionError,
                               match="non-unit"):
                expr.act_group(substitution_from_group(g))

    def test_swap_of_the_last_two_variables_is_refused(self):
        # z_{n-1} <-> z_n: the delta variable z_n maps to z_{n-1}, off the
        # delta block
        n = 3
        swap = {sym_z(n - 1): sym_z(n), sym_z(n): sym_z(n - 1),
                sym_zbar(n - 1): sym_zbar(n), sym_zbar(n): sym_zbar(n - 1)}
        rows = tuple({swap.get(s, s): Scalar.one()} for s in range(2 * n))
        chain = build_family(FamilySpec(n, "T", 0))
        with pytest.raises(UnsupportedSubstitutionError,
                           match="maps outside"):
            chain[0].act_group(Substitution(n, rows, rows))

    def test_reference_refuses_a_non_unit_diagonal(self):
        # z -> 2z pulls delta(z_2) back to 4 delta(z_2), which the jet
        # expansion would miss: the reference raises instead
        g = h_element(2, Scalar.of(2), [Scalar.zero()])
        with pytest.raises(ValueError, match="non-unit"):
            act_group_reference(build_family(FamilySpec(2, "T2", 0))[0],
                                substitution_from_group(g))

    def test_derived_delta_is_refused(self):
        expr = DistExpr.single(3, delta={3: (1, 0)})
        fixed = substitution_from_group(identity(3))
        with pytest.raises(ValueError, match="underived"):
            expr.act_group(fixed)


def composite_substitutions(n):
    """The substitution of every generator of ``h_generators`` and of three
    products of them."""
    gens = dict(h_generators(n))
    everything = identity(n)
    for g in gens.values():
        everything = toeplitz_mul(everything, g)
    return [substitution_from_group(g) for g in (
        *gens.values(), toeplitz_mul(gens["phase"], gens["shift1"]),
        toeplitz_mul(gens[f"shift{n - 1}"], gens["phase"]), everything)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_order_zero_action_matches_jet_expansion(n):
    specs = [FamilySpec(2, "T2", 0, lam=lam) for lam in (None, 2)] \
        if n == 2 else [
        FamilySpec(n, family, 0, j=j, lam=lam)
        for lam in (None, 0, 2, 4, Fraction(1, 3))
        for family, j in [("T", None), ("Tbar", None)]
        + [("Tj", j) for j in range(2, n - 1)]]
    subs = composite_substitutions(n)
    for spec in specs:
        member = build_family(spec)[0]
        for sub in subs:
            assert expr_parts(member.act_group(sub)) \
                == expr_parts(act_group_reference(member, sub)), (spec, sub)


@pytest.mark.parametrize("spec", [
    FamilySpec(2, "T2", 4), FamilySpec(3, "T", 4), FamilySpec(3, "Tbar", 4),
    FamilySpec(4, "T", 4), FamilySpec(4, "Tbar", 4),
    FamilySpec(4, "Tj", 4, j=2)], ids=lambda s: f"{s.family}-n{s.n}")
def test_first_failure_is_where_the_conjugated_power_leaves_the_chain(
        spec):
    # the derivation by powers: g.T^l is g.T^0, by the jet expansion, with
    # (g.D)^l applied to it, (g.D)^l grown one compose at a time from the
    # identity operator.  The first order where it leaves the chain is the
    # first nonzero residual, whatever order the residuals are asked for
    # in: none in H; order 2 for the twisted shift2, which at n >= 3 lies
    # outside H, and there the residual is g.T^2 - T^2
    n = spec.n
    op, _ = _seed(spec)
    chain = build_family(spec)
    twist = substitution_from_group(twisted_shift2(n)) if n >= 3 else None
    subs = [sub for _, sub in generator_substitutions(n)] + [
        substitution_from_group(generator_product(n, random.Random(n)))]
    for sub in subs + ([twist] if twist else []):
        residuals = Residuals(op, chain, sub)
        acted_base = act_group_reference(chain[0], sub)
        conjugated = conjugate_op(op, sub)
        assert op_parts(residuals.difference) == op_parts(conjugated - op)
        power, first = WeylOp.term(n, Scalar.one()), None
        for l in range(spec.l + 1):
            derived = acted_base.apply_weyl(power) - chain[l]
            if not derived.is_zero():
                first = l
                break
            power = power.compose(conjugated)
        assert first == (2 if sub is twist else None), sub
        for l in (spec.l, 0, 3, 1, 2):
            failure = residuals.first_failure(l)
            if first is None or l < first:
                assert failure is None, (sub, l)
            else:
                assert failure[0] == first, (sub, l)
                assert expr_parts(failure[1]) == expr_parts(derived)


class TestGradings:
    def test_degree_of_power_delta_term(self):
        # (z2 zbar2)^(1 - lam/2) delta(z3): degree 2(1 - lam/2) - 2 = -lam
        sigma = AffineExponent(Fraction(1), Fraction(-1, 2))
        expr = DistExpr.single(3, powers={2: sigma}, delta={3: (0, 0)})
        assert expr.degree() == AffineExponent(Fraction(0), Fraction(-1))

    def test_mixed_degrees_give_none(self):
        a = DistExpr.single(2, mono={0: 1}, delta={2: (0, 0)})
        b = DistExpr.single(2, delta={2: (0, 0)})
        assert expr_sum(a, b).degree() is None

    def test_parity(self):
        even = DistExpr.single(2, mono={0: 1}, delta={2: (1, 0)})
        assert even.parity() == "even"
        odd = DistExpr.single(2, mono={0: 1}, delta={2: (0, 0)})
        assert odd.parity() == "odd"

    def test_u1_weight(self):
        # z1 delta^{(1,0)}(z2): weight(z1) = 1, weight of dz2-derivative -1
        expr = DistExpr.single(2, mono={0: 1}, delta={2: (1, 0)})
        assert expr.u1_weights() == {0}


class TestDisplay:
    def test_power_factors_print_in_value_order(self):
        # as int triples 1/2 = (1, 0, 2) sorts before 1/3 = (1, 0, 3), and
        # 1 + lam/2 = (2, 1, 2) before 1 + lam/3 = (3, 1, 3)
        expr = DistExpr(2, {})
        for r, s in ((Fraction(1, 2), 0), (Fraction(1, 3), 0),
                     (1, Fraction(1, 2)), (1, Fraction(1, 3))):
            expr = expr_sum(expr, DistExpr.single(
                2, powers={1: AffineExponent.of(r, s)}, delta={2: (0, 0)}))
        assert expr.canonical_str() == " + ".join(
            f"(1)*(z1*zbar1)^({sigma})*delta2[0,0]"
            for sigma in ("1/3", "1/2", "1+1/3*lam", "1+1/2*lam"))

    @given(expressions())
    @settings(max_examples=150, deadline=None)
    def test_prints_as_the_dense_printer(self, expr):
        assert expr.canonical_str() == expr_str(expr)

    @pytest.mark.parametrize("spec", [
        FamilySpec(3, "T", 5), FamilySpec(4, "Tbar", 4),
        FamilySpec(12, "Tj", 3, j=5), FamilySpec(5, "T", 4, lam=Fraction(2))])
    def test_chain_and_residual_print_as_the_dense_printer(self, spec):
        # the twisted shift2 leaves H: at formal lam its residual is nonzero
        chain = build_family(spec)
        op, _ = _seed(spec)
        sub = substitution_from_group(twisted_shift2(spec.n))
        residual = chain[-1].apply_weyl(conjugate_op(op, sub) - op)
        for expr in (*chain, residual):
            assert expr.canonical_str() == expr_str(expr)


class TestSupportAndRank:
    SIGMA = AffineExponent(Fraction(2), Fraction(-1, 2))

    def test_formal_support(self):
        expr = DistExpr.single(4, powers={2: self.SIGMA},
                               delta={3: (0, 0), 4: (1, 1)})
        assert expr.formal_support() == 2

    @pytest.mark.parametrize("delta", [
        {4: (0, 0)}, {3: (1, 0)}, {1: (0, 0), 3: (0, 0), 4: (0, 0)}],
        ids=["no-z3", "no-z4", "extra-z1"])
    def test_formal_support_off_the_strata(self, delta):
        # leading index 2 at n = 4, and a delta set other than {3, 4}
        expr = DistExpr.single(4, powers={2: self.SIGMA}, delta=delta)
        assert expr.formal_support() is None

    def test_formal_support_refuses_mixed_delta_sets(self):
        a = DistExpr.single(4, powers={2: self.SIGMA},
                            delta={3: (0, 0), 4: (0, 0)})
        b = DistExpr.single(4, powers={2: self.SIGMA}, delta={4: (0, 0)})
        with pytest.raises(ValueError, match="mixed"):
            (a - b).formal_support()

    def test_independence_rank_basics(self):
        n = 2
        a = DistExpr.single(n, delta={2: (0, 0)})
        b = DistExpr.single(n, delta={2: (1, 0)})
        assert independence_rank([a, b]) == 2
        scaled = DistExpr(n, {k: LAM * c for k, c in a.terms.items()})
        assert independence_rank([a, scaled]) == 1
        assert independence_rank([]) == 0


def count_eliminations(monkeypatch):
    """The list of the calls ``independence_rank`` makes of
    ``rank_over_function_field`` from now on, one entry (the matrix's row
    count) per call."""
    calls = []

    def counted(matrix):
        calls.append(len(matrix))
        return rank_over_function_field(matrix)

    monkeypatch.setattr(distributions, "rank_over_function_field", counted)
    return calls


def eliminated_rank(family):
    """The family's rank by elimination alone: its coefficient matrix over
    the union of its term keys, ranked by ``rank_over_function_field``."""
    keys = list({k for e in family for k in e.terms})
    if not keys:
        return 0
    return rank_over_function_field(
        [[e.terms.get(k, Scalar.zero()) for k in keys] for e in family])


RANK_LAMS = (None, -2, 0, 3, Fraction(1, 3))
RANK_SPECS = [FamilySpec(2, "T2", 4), FamilySpec(2, "T2", 4, lam=2)] + [
    FamilySpec(n, family, 4, lam=lam)
    for n in (3, 4, 5) for family in ("T", "Tbar") for lam in RANK_LAMS] + [
    FamilySpec(n, "Tj", 4, j=j, lam=lam)
    for n in (3, 4, 5) for j in range(2, n) for lam in RANK_LAMS]


class TestDisjointSupports:
    """``independence_rank`` certifies full rank by pairwise disjoint term
    keys, and only a family where that fails reaches elimination."""

    @pytest.mark.parametrize(
        "spec", RANK_SPECS,
        ids=lambda s: f"{s.family}-n{s.n}-j{s.j}-lam{s.lam}")
    def test_certificate_rank_equals_elimination(self, monkeypatch, spec):
        chain = build_family(spec)
        calls = count_eliminations(monkeypatch)
        for l in range(spec.l + 1):
            assert independence_rank(chain[:l + 1]) \
                == eliminated_rank(chain[:l + 1]) == l + 1
        assert calls == []

    @pytest.mark.parametrize("l", [1, 2, 4])
    def test_repeated_member_is_ranked_by_elimination(self, monkeypatch, l):
        chain = build_family(FamilySpec(3, "T", l))
        calls = count_eliminations(monkeypatch)
        assert independence_rank(chain[:l] + [chain[0]]) == l
        assert calls == [l + 1]

    def test_zero_member_is_never_counted(self, monkeypatch):
        a = DistExpr.single(2, delta={2: (0, 0)})
        zero = DistExpr(2)
        calls = count_eliminations(monkeypatch)
        assert independence_rank([zero]) == 0
        assert independence_rank([a, zero]) == 1
        assert independence_rank([zero, a]) == 1
        assert calls == [2, 2]  # a family with no term has no matrix

    def test_overlapping_independent_members_rank_two(self, monkeypatch):
        a = DistExpr.single(2, delta={2: (0, 0)})
        b = DistExpr.single(2, delta={2: (1, 0)})
        calls = count_eliminations(monkeypatch)
        assert independence_rank([a, expr_sum(a, b)]) == 2
        assert calls == [2]

    def test_empty_family_has_rank_zero(self, monkeypatch):
        calls = count_eliminations(monkeypatch)
        assert independence_rank([]) == 0
        assert calls == []

    def test_rank_workload_makes_no_elimination(self, monkeypatch):
        # the benchmark's rank workload: independence --n 3 --lmax 8 and
        # support --n 4 --lmax 6, both at formal lam
        calls = count_eliminations(monkeypatch)
        for config in (RunConfig(suite="independence", n=3, lmax=8),
                       RunConfig(suite="support", n=4, lmax=6)):
            assert run_suite(config).all_passed
        assert calls == []

"""Normal-ordered differential operators, linear substitutions, and
operator conjugation."""

import random
from fractions import Fraction
from math import comb, perm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invdist.clifford import h_element, h_generators, h_phase, \
    h_shift, h_shift_formal
from invdist.constructions import build_vector_field
from invdist.scalars import AffineExponent, GaussianRational, Scalar
from invdist.weyl import (Rows, Substitution, WeylOp, conjugate_op,
                          mono_sort_key, substitute_poly,
                          substitution_from_group, sym_conj, sym_name, sym_z,
                          sym_zbar)
from reference import columns, dense, falling_factorial, from_gauss, \
    identity, neumann_inverse, op_parts, op_str, rows_from_matrix, sparse, \
    toeplitz_mul, twisted_shift2, vector_of


def rand_poly(n, rng, nterms=3):
    """Random polynomial in the 2n coordinate symbols."""
    p = {}
    for _ in range(nterms):
        expo = sparse([rng.randint(0, 2) for _ in range(2 * n)])
        c = GaussianRational.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        p[expo] = p.get(expo, Scalar.zero()) + from_gauss(c)
    return {k: v for k, v in p.items() if not v.is_zero()}


def rand_op(n, rng, nterms=2, max_ord=2):
    op = WeylOp(n)
    for _ in range(nterms):
        mono = {s: rng.randint(0, max_ord) for s in range(2 * n)}
        deriv = {s: rng.randint(0, max_ord) for s in range(2 * n)}
        c = Scalar.of(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        op = op + WeylOp.term(n, c, mono, deriv)
    return op


def rand_lam_op(n, rng, nterms=3, max_ord=3):
    """Random operator with lam-polynomial Gaussian coefficients; sparse
    exponents up to max_ord, so contraction factors above 1 occur."""
    lam = Scalar.var("lam")
    op = WeylOp(n)
    for _ in range(nterms):
        mono = {s: rng.randint(0, max_ord) for s in range(2 * n)
                if rng.random() < 0.6}
        deriv = {s: rng.randint(0, max_ord) for s in range(2 * n)
                 if rng.random() < 0.6}
        c = Scalar.of(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                      rng.randint(-2, 2)) \
            + Scalar.of(rng.randint(-2, 2)) * lam \
            + Scalar.of(Fraction(1, rng.randint(1, 3))) * lam * lam
        op = op + WeylOp.term(n, c, mono, deriv)
    return op


def _compose_reference(a, b):
    """Normal-ordered a o b by recursion over the symbols, multiplying one
    Scalar factor C(b, k) * falling(m, k) per symbol (the former kernel),
    on exponent vectors of width 2n."""
    width = 2 * a.n
    acc = {}
    for (m1, d1), c1 in a.terms.items():
        m1, d1 = vector_of(m1, width), vector_of(d1, width)
        for (m2, d2), c2 in b.terms.items():
            m2, d2 = vector_of(m2, width), vector_of(d2, width)
            choices = [[(k, Scalar.of(comb(d1[s], k)) * falling_factorial(
                AffineExponent.of(m2[s]), k))
                for k in range(min(d1[s], m2[s]) + 1)]
                for s in range(width)]

            def rec(s, coeff, ks):
                if s == width:
                    key = (sparse(m1[i] + m2[i] - ks[i] for i in range(width)),
                           sparse(d1[i] - ks[i] + d2[i] for i in range(width)))
                    prev = acc.get(key)
                    acc[key] = coeff if prev is None else prev + coeff
                    return
                for k, factor in choices[s]:
                    rec(s + 1, coeff * factor, ks + [k])

            rec(0, c1 * c2, [])
    return WeylOp(a.n, acc)


def polys_equal(p, q):
    keys = set(p) | set(q)
    return all((p.get(k, Scalar.zero()) - q.get(k, Scalar.zero())).is_zero()
               for k in keys)


def apply_poly(op, p):
    """op applied to the polynomial p term by term, with
    d^b z^e = e!/(e-b)! z^(e-b) per symbol, on exponent vectors of width
    2n."""
    width = 2 * op.n
    out = {}
    for (m1, d1), c1 in op.terms.items():
        m1, d1 = vector_of(m1, width), vector_of(d1, width)
        for mono, c in p.items():
            mono = vector_of(mono, width)
            if any(e < b for e, b in zip(mono, d1)):
                continue
            f = prod(perm(e, b) for e, b in zip(mono, d1))
            key = sparse(e - b + m for e, b, m in zip(mono, d1, m1))
            out[key] = out.get(key, Scalar.zero()) + c1 * c * Scalar.of(f)
    return {m: c for m, c in out.items() if c}


# exponent vectors of one width 2n, n up to 6, mostly zeros
vectors = st.integers(1, 6).flatmap(lambda n: st.lists(st.lists(
    st.sampled_from([0, 0, 0, 1, 2, 3]), min_size=2 * n, max_size=2 * n),
    max_size=12))


@st.composite
def operators(draw):
    n = draw(st.integers(1, 6))
    exponents = st.dictionaries(st.integers(0, 2 * n - 1), st.integers(0, 3),
                                max_size=4)
    op = WeylOp(n)
    for _ in range(draw(st.integers(0, 6))):
        c = Scalar.of(draw(st.integers(-3, 3)), draw(st.integers(-1, 1)))
        op = op + WeylOp.term(n, c, draw(exponents), draw(exponents))
    return op


class TestMonomialKeys:
    """A monomial key is the sparse form of an exponent vector of width 2n,
    and orders and prints as that vector does."""

    @given(vectors)
    @settings(max_examples=200, deadline=None)
    def test_sort_key_orders_as_the_dense_vectors(self, vs):
        assert sorted(map(sparse, vs), key=mono_sort_key) \
            == [sparse(v) for v in sorted(vs)]

    @given(operators())
    @settings(max_examples=150, deadline=None)
    def test_prints_as_the_dense_printer(self, op):
        assert str(op) == op_str(op)

    @pytest.mark.parametrize("n", [3, 4, 6, 12])
    def test_conjugated_field_prints_as_the_dense_printer(self, n):
        op = build_vector_field(n, n - 1)
        for g in (h_shift_formal(n, 1), twisted_shift2(n)):
            got = conjugate_op(op, substitution_from_group(g))
            assert str(got) == op_str(got)
            assert str(got - op) == op_str(got - op)


class TestWeylOp:
    def test_symbol_indexing(self):
        assert sym_z(1) == 0 and sym_zbar(1) == 1
        assert sym_name(sym_z(2)) == "z2"
        assert sym_name(sym_zbar(3)) == "zbar3"

    def test_canonical_commutation(self):
        # d/dz1 o z1 = z1 d/dz1 + 1
        n = 2
        d = WeylOp.term(n, Scalar.one(), deriv={sym_z(1): 1})
        x = WeylOp.term(n, Scalar.one(), mono={sym_z(1): 1})
        expected = WeylOp.term(n, Scalar.one(), {sym_z(1): 1},
                               {sym_z(1): 1}) + WeylOp.term(n, Scalar.one())
        assert op_parts(d.compose(x)) == op_parts(expected)
        # and z-bar derivatives ignore z monomials
        dbar = WeylOp.term(n, Scalar.one(), deriv={sym_zbar(1): 1})
        assert op_parts(dbar.compose(x)) == op_parts(WeylOp.term(
            n, Scalar.one(), {sym_z(1): 1}, {sym_zbar(1): 1}))

    def test_second_order_composition(self):
        # d^2 o z = z d^2 + 2 d
        n = 1
        d2 = WeylOp.term(n, Scalar.one(), deriv={0: 2})
        x = WeylOp.term(n, Scalar.one(), mono={0: 1})
        expected = WeylOp.term(n, Scalar.one(), {0: 1}, {0: 2}) \
            + WeylOp.term(n, Scalar.of(2), {}, {0: 1})
        assert op_parts(d2.compose(x)) == op_parts(expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_compose_matches_apply_oracle(self, n):
        rng = random.Random(100 + n)
        for _ in range(10 if n < 3 else 4):
            a, b = rand_op(n, rng), rand_op(n, rng)
            p = rand_poly(n, rng)
            assert polys_equal(apply_poly(a.compose(b), p),
                               apply_poly(a, apply_poly(b, p)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_compose_matches_reference(self, n):
        rng = random.Random(200 + n)
        big_factor = False
        for _ in range(12):
            a, b = rand_lam_op(n, rng), rand_lam_op(n, rng)
            got, want = a.compose(b), _compose_reference(a, b)
            assert op_parts(got) == op_parts(want)
            # same term order too, so downstream iteration is unchanged
            assert list(got.terms) == list(want.terms)
            big_factor = big_factor or any(
                d * dict(m2).get(s, 0) > 1 for _, d1 in a.terms
                for m2, _ in b.terms for s, d in d1)
        assert big_factor

    def test_compose_associative(self):
        rng = random.Random(5)
        n = 2
        for _ in range(10):
            a, b, c = (rand_op(n, rng, nterms=2, max_ord=1)
                       for _ in range(3))
            assert op_parts(a.compose(b).compose(c)) \
                == op_parts(a.compose(b.compose(c)))


class TestSubstitution:
    def test_identity_fixes_polys(self):
        rng = random.Random(9)
        n = 3
        s = substitution_from_group(identity(n))
        p = rand_poly(n, rng)
        assert polys_equal(substitute_poly(p, s.fwd), p)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_group_substitution_invertible(self, n):
        rng = random.Random(n)
        for j in range(1, n):
            a = GaussianRational.of(Fraction(rng.randint(-3, 3),
                                             rng.randint(1, 2)),
                                    Fraction(rng.randint(-3, 3),
                                             rng.randint(1, 2)))
            s = substitution_from_group(h_shift(n, j, from_gauss(a)))
            p = rand_poly(n, rng)
            fwd_then_inv = substitute_poly(
                substitute_poly(p, s.fwd), s.inv)
            assert polys_equal(fwd_then_inv, p)

    def test_reality(self):
        # each zbar row is the conjugate mirror of its z row, both ways
        n = 3
        for g in (h_phase(n), h_shift_formal(n, 1), h_shift_formal(n, 2)):
            s = substitution_from_group(g)
            for rows in (s.fwd, s.inv):
                for j in range(1, n + 1):
                    assert rows[sym_zbar(j)] == {
                        sym_conj(t): c.conjugate()
                        for t, c in rows[sym_z(j)].items()}

    def test_rows_read_off_the_dense_matrix(self):
        # (g z)_i = sum_j g_ij . z_j over every entry of the dense matrix,
        # and the inverse rows off its Neumann-series inverse: every row and
        # column built where read equals the oracle's, whichever is read
        # first.  The rows of the last two variables and the columns of the
        # first two read the profile entries k <= 1 only, so they are read
        # first, and the inverse has formed no entry past X_1 by then
        rng = random.Random(70)
        for n in range(2, 9):
            width = 2 * n
            gens = dict(h_generators(n))
            everything = identity(n)
            for g in gens.values():
                everything = toeplitz_mul(everything, g)
            for g in (*gens.values(),
                      toeplitz_mul(gens["phase"], gens["shift1"]),
                      toeplitz_mul(gens[f"shift{n - 1}"], gens["phase"]),
                      everything):
                s = substitution_from_group(g)
                for rows, m in ((s.fwd, dense(g)),
                                (s.inv, neumann_inverse(dense(g)))):
                    expected = rows_from_matrix(m)
                    expected_cols = columns(expected, width)
                    low = [("row", t) for t in range(width - 4, width)] \
                        + [("column", t) for t in range(4)]
                    rest = [(kind, t) for kind in ("row", "column")
                            for t in range(width) if (kind, t) not in low]
                    rng.shuffle(low)
                    rng.shuffle(rest)
                    for i, (kind, t) in enumerate(low + rest):
                        if i == len(low) and rows is s.inv:
                            assert rows.reach == 1, n
                        if kind == "row":
                            assert rows[t] == expected[t], (n, kind, t)
                        else:
                            assert rows.column(t) == expected_cols[t], \
                                (n, kind, t)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_rows_conjugate_each_entry_once(self, monkeypatch, n):
        # profile entry k sits on n - k rows and columns, and its one
        # nonzero part is conjugated at most once, not once per read
        g = h_element(n, Scalar.var("u"),
                      [Scalar.var(f"a{k}") for k in range(1, n)])
        calls = []
        conjugate = Scalar.conjugate
        monkeypatch.setattr(Scalar, "conjugate",
                            lambda x: calls.append(str(x)) or conjugate(x))
        rows = Rows(n, g.entries.items())
        for t in range(2 * n):
            rows[t], rows.column(t)
        monkeypatch.undo()
        assert len(calls) == len(set(calls)) <= n


class TestConjugateOp:
    def test_identity_substitution_fixes_ops(self):
        rng = random.Random(21)
        n = 2
        fixed = substitution_from_group(identity(n))
        for _ in range(10):
            op = rand_op(n, rng)
            assert op_parts(conjugate_op(op, fixed)) == op_parts(op)

    @pytest.mark.parametrize("n", [2, 3])
    def test_respects_composition(self, n):
        rng = random.Random(30 + n)
        s = substitution_from_group(h_shift_formal(n, 1))
        for _ in range(8):
            a = rand_op(n, rng, nterms=2, max_ord=1)
            b = rand_op(n, rng, nterms=2, max_ord=1)
            assert op_parts(conjugate_op(a.compose(b), s)) \
                == op_parts(conjugate_op(a, s).compose(conjugate_op(b, s)))

    def test_conjugation_by_inverse_roundtrips(self):
        n = 3
        g = h_shift_formal(n, 1)
        s = substitution_from_group(g)
        rng = random.Random(33)
        op = rand_op(n, rng, nterms=2, max_ord=1)
        inverse = Substitution(s.n, s.inv, s.fwd)
        back = conjugate_op(conjugate_op(op, s), inverse)
        assert op_parts(back) == op_parts(op)

    def test_oracle_on_polynomials(self):
        # (g.D)(p) = g.(D(g^-1.p)) with g.f = f o g^-1, that is, substitute
        # the forward rows, apply D, then substitute the inverse rows
        n = 3
        s = substitution_from_group(h_shift_formal(n, 1))
        rng = random.Random(41)
        reversed_differs = False
        for _ in range(10):
            op = rand_op(n, rng, nterms=2, max_ord=1)
            p = rand_poly(n, rng)
            lhs = apply_poly(conjugate_op(op, s), p)
            rhs = substitute_poly(
                apply_poly(op, substitute_poly(p, s.fwd)), s.inv)
            assert polys_equal(lhs, rhs)
            reversed_order = substitute_poly(
                apply_poly(op, substitute_poly(p, s.inv)), s.fwd)
            reversed_differs |= not polys_equal(lhs, reversed_order)
        # the samples tell the two orders apart
        assert reversed_differs

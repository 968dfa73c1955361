"""The twisted algebra, its matrix group, the real embedding and its
determinant, and the complexified pair algebra of the reference module."""

import random
from fractions import Fraction

import pytest

from invdist import cli, clifford, scalars
from invdist.clifford import (REpsElement, Toeplitz, _block_det,
                              eps_times_coeff, group_inverse,
                              h_closure_check, h_det_check, h_element,
                              h_generators, h_phase, h_shift, h_shift_formal)
from invdist.records import FAIL, PASS
from invdist.scalars import GaussianRational, Scalar
from reference import (CplxPairElement, act, add, cplx_pair_times_eps_power,
                       dense, dense_mul, factor_into_generators, from_gauss,
                       identity, inverse, iota, mat_mul_scalar,
                       neumann_inverse,
                       profile, random_gaussian, random_h_element,
                       random_toeplitz, toeplitz, toeplitz_mul,
                       twisted_shift2, value)


def scal(re, im=0):
    return from_gauss(GaussianRational.of(Fraction(re), Fraction(im)))


EPS = REpsElement(Scalar.zero(), Scalar.one())


# the formal unit diagonal 3/5 u^2
UNIT = REpsElement(Scalar.var(
    "u", 2, GaussianRational.of(Fraction(3, 5), Fraction(4, 5))))


def rand_elem(rng):
    def g():
        return GaussianRational.of(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return REpsElement(from_gauss(g()), from_gauss(g()))


def det_scalar_matrix(m):
    """Exact determinant by sparsity-guided Laplace expansion; its cost is
    exponential in the size, so it is an oracle for small n only."""
    size = len(m)
    if size == 0:
        return Scalar.one()
    if size == 1:
        return m[0][0]
    # expand along the row with the fewest nonzero entries
    best = min(range(size), key=lambda i: sum(bool(e) for e in m[i]))
    row = m[best]
    rest = [r for k, r in enumerate(m) if k != best]
    acc = Scalar.zero()
    for j, e in enumerate(row):
        if not e:
            continue
        minor = [[r[c] for c in range(size) if c != j] for r in rest]
        term = e * det_scalar_matrix(minor)
        acc = acc + (-term if (best + j) % 2 else term)
    return acc


def laplace_det(g):
    """det of the full real 2n x 2n matrix of g, with no reduction step:
    the formal phase u has conj(u) = u^-1 built in."""
    return det_scalar_matrix(iota(dense(g)))


ROT = Scalar.var("u")


def generators(n):
    """The matrices h_det_check takes the determinant of."""
    return ([g for _, g in h_generators(n)]
            + [h_element(n, ROT, [Scalar.var("a1")]
                         + [Scalar.zero()] * (n - 2))])


def full_mul(x, y, c_part, eps_part):
    """(a + b*eps)(c + d*eps) by the full formula, its two parts given as
    functions of (a, b, c, d)."""
    parts = (x.a, x.b, y.a, y.b)
    return REpsElement(c_part(*parts), eps_part(*parts))


def mul_eps_gets_b_conj_d(x, y):
    # b*conj(d) added to the eps part instead of the C part
    return full_mul(x, y, lambda a, b, c, d: a * c,
                    lambda a, b, c, d: b * c.conjugate() + a * d
                    + b * d.conjugate())


def mul_conjugates_c(x, y):
    # the C part a*conj(c) + b*conj(d): a diagonal product u*conj(v)
    return full_mul(x, y, lambda a, b, c, d: a * c.conjugate()
                    + b * d.conjugate(),
                    lambda a, b, c, d: b * c.conjugate() + a * d)


def eps_diagonal(a, k):
    """``eps_times_coeff`` with a diagonal a*eps in place of a."""
    return (REpsElement(Scalar.zero(), a) if k == 0
            else eps_times_coeff(a, k))


def formal_product_verdict(n):
    """The closure verdict by the n(n+1)/2 formal product of two fully
    formal elements of H (``reference.toeplitz_mul``): its diagonal must be
    exactly u*v and its k-th entry in C*eps^k."""
    u, v = Scalar.var("u"), Scalar.var("v")
    g = clifford.h_element(n, u, [Scalar.var(f"a{k}") for k in range(1, n)])
    gp = clifford.h_element(n, v, [Scalar.var(f"b{k}")
                                   for k in range(1, n)])
    entries = toeplitz_mul(g, gp).entries
    diag = entries.get(0, REpsElement())
    ok = diag.b.is_zero() and diag.a == u * v and all(
        (e.a if k % 2 else e.b).is_zero() for k, e in entries.items())
    return PASS if ok else FAIL


class TestAlgebraRelations:
    ONE = REpsElement(Scalar.one(), Scalar.zero())
    I = REpsElement(Scalar.of(0, 1), Scalar.zero())
    EPS = EPS

    def test_eps_squared_is_one(self):
        assert value(self.EPS * self.EPS) == value(self.ONE)

    def test_i_squared_is_minus_one(self):
        minus_one = REpsElement(-Scalar.one(), Scalar.zero())
        assert value(self.I * self.I) == value(minus_one)

    def test_i_eps_anticommute(self):
        lhs = self.I * self.EPS
        rhs = self.EPS * self.I
        assert value(lhs) == value(REpsElement(-rhs.a, -rhs.b))
        assert value(lhs) != value(rhs)

    def test_associativity_random(self):
        rng = random.Random(1)
        for _ in range(30):
            x, y, z = rand_elem(rng), rand_elem(rng), rand_elem(rng)
            assert value((x * y) * z) == value(x * (y * z))

    def test_action_is_module_structure(self):
        # x.(y.z) = (x*y).z for the R-linear action on C
        rng = random.Random(2)
        for _ in range(20):
            x, y = rand_elem(rng), rand_elem(rng)
            zval = rand_elem(rng).a
            inner, inner_bar = act(y, zval, zval.conjugate())
            assert inner_bar == inner.conjugate()
            lhs, _ = act(x, inner, inner_bar)
            rhs, _ = act(x * y, zval, zval.conjugate())
            assert lhs == rhs


class TestIota:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_multiplicative_on_random_samples(self, n):
        rng = random.Random(3)
        for k in range(25):
            formal = k % 2 == 1
            a = dense(random_toeplitz(n, rng, formal))
            b = dense(random_toeplitz(n, rng, formal))
            assert iota(dense_mul(a, b)) == mat_mul_scalar(iota(a), iota(b))

    def test_identity_embeds_to_identity(self):
        m = iota(dense(identity(3)))
        for i in range(6):
            for j in range(6):
                expected = Scalar.one() if i == j else Scalar.zero()
                assert m[i][j] == expected

    def test_known_block(self):
        # a + b*eps with a = p + iq, b = r + is maps to
        # [[p+r, -q+s], [q+s, p-r]]
        e = REpsElement(scal(1, 2), scal(3, 4))
        blocks = iota(((e,),))
        assert blocks[0][0] == scal(4)
        assert blocks[0][1] == scal(2)
        assert blocks[1][0] == scal(6)
        assert blocks[1][1] == scal(-2)


class TestGroup:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_det_check_passes(self, n):
        assert h_det_check(n).status == PASS

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
    def test_closure_check_passes(self, n):
        record = h_closure_check(n)
        assert record.status == PASS
        assert record.details == {"certificate": "four-parity lemma"}

    def test_closure_fails_off_the_eps_parity(self, monkeypatch):
        # odd shifts in the C-part: x times y eps^1 would lie in C, not in
        # C*eps
        monkeypatch.setattr(clifford, "eps_times_coeff",
                            lambda a, k: REpsElement(a))
        record = h_closure_check(4)
        assert record.status == FAIL
        assert record.details == {"certificate": "four-parity lemma",
                                  "counterexample": {"parities": [0, 1]}}

    def test_closure_fails_on_a_diagonal_in_c_eps(self, monkeypatch):
        # a diagonal u*eps is no unit phase: (u eps)(v eps) = u conj(v),
        # which is u v^-1 and not u*v
        monkeypatch.setattr(clifford, "eps_times_coeff", eps_diagonal)
        record = h_closure_check(3)
        assert record.status == FAIL
        diagonal = REpsElement(Scalar.var("u") * Scalar.var("v", -1))
        assert record.details["counterexample"] == {
            "diagonal": str(diagonal)}

    @pytest.mark.parametrize("mul, counterexample", [
        (mul_eps_gets_b_conj_d, {"parities": [1, 1]}),
        (mul_conjugates_c, {"diagonal": str(REpsElement(
            Scalar.var("u") * Scalar.var("v", -1)))})])
    def test_closure_fails_under_a_wrong_product(self, mul, counterexample,
                                                 monkeypatch):
        monkeypatch.setattr(REpsElement, "__mul__", mul)
        record = h_closure_check(6)
        assert record.status == FAIL
        assert record.details["counterexample"] == counterexample

    @pytest.mark.parametrize("m, rest", [(0, 0), (0, 1), (1, 0), (1, 1),
                                         (2, 3), (3, 3), (4, 2), (5, 2)])
    def test_each_convolution_term_lies_in_c_eps_k(self, m, rest):
        # the closure lemma at every n, derived apart from the product:
        # x eps^m times y eps^(k-m) lies in C eps^k for formal x and y, in
        # each of the four parities of (m, k - m)
        x, y = Scalar.var("x"), Scalar.var("y")
        p = eps_times_coeff(x, m) * eps_times_coeff(y, rest)
        k = m + rest
        assert not p.is_zero()
        assert (p.a if k % 2 else p.b).is_zero()

    def test_group_inverse(self):
        rng = random.Random(7)
        n = 4
        for _ in range(10):
            g = identity(n)
            for j in range(1, n):
                a = GaussianRational.of(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                g = toeplitz_mul(g, h_shift(n, j, from_gauss(a)))
            inv = inverse(g)
            assert value(toeplitz_mul(g, inv)) == value(identity(n))
            assert value(toeplitz_mul(inv, g)) == value(identity(n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_group_inverse_matches_neumann_series(self, n):
        # any profile of the four entry kinds over the unit diagonal
        rng = random.Random(50 + n)
        unit = value(identity(n))
        for formal in (False, True, True):
            g = random_toeplitz(n, rng, formal, diag=UNIT)
            inv = inverse(g)
            assert value(dense(inv)) == value(neumann_inverse(dense(g)))
            assert value(toeplitz_mul(g, inv)) == unit
            assert value(toeplitz_mul(inv, g)) == unit

    def test_group_inverse_rejects_non_group_input(self):
        one, x = REpsElement(Scalar.one()), REpsElement(Scalar.var("x"))
        not_unit = Toeplitz(2, {0: add(x, one)})
        eps_diag = Toeplitz(2, {0: EPS})
        for g in (not_unit, eps_diag):
            with pytest.raises(ValueError):
                group_inverse(g)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_group_inverse_makes_one_product_per_recurrence_term(
            self, n, monkeypatch):
        # every shift and every entry of the inverse is nonzero, so X_k
        # makes k products for its sum and one by d^-1
        rng = random.Random(n)
        g = h_element(n, Scalar.var("u"),
                      [from_gauss(random_gaussian(rng, 5, 5))
                       for _ in range(n - 1)])
        calls = []
        mul = REpsElement.__mul__

        def counted(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(REpsElement, "__mul__", counted)
        inv = inverse(g)
        assert len(calls) == (n - 1) * (n + 2) // 2
        monkeypatch.undo()
        assert not any(e.is_zero() for e in profile(g) + profile(inv))
        assert value(toeplitz_mul(g, inv)) == value(identity(n))

    @pytest.mark.parametrize("n", [4, 16])
    def test_group_inverse_forms_each_entry_when_pulled(self, n,
                                                        monkeypatch):
        # X_k makes k products for its sum and one by d^-1 when it is
        # pulled, and none before: the first three entries make 0 + 2 + 3
        # products at every n, and equal the entries of the whole inverse
        rng = random.Random(n)
        g = h_element(n, Scalar.var("u"),
                      [from_gauss(random_gaussian(rng, 5, 5))
                       for _ in range(n - 1)])
        whole = profile(inverse(g))
        calls = []
        mul = REpsElement.__mul__
        monkeypatch.setattr(REpsElement, "__mul__",
                            lambda x, y: calls.append(1) or mul(x, y))
        entries = group_inverse(g)
        assert calls == []
        for k in range(3):
            pulled, e = next(entries)
            assert pulled == k and value(e) == value(whole[k])
            assert len(calls) == k * (k + 3) // 2

    def test_formal_phase_inverse(self):
        g = h_phase(3)
        assert value(toeplitz_mul(g, inverse(g))) == value(identity(3))

    def test_formal_shift_inverse(self):
        g = h_shift_formal(4, 1)
        assert value(toeplitz_mul(g, inverse(g))) == value(identity(4))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_generators_are_labelled_in_order(self, n):
        gens = h_generators(n)
        assert [name for name, _ in gens] \
            == ["phase"] + [f"shift{j}" for j in range(1, n)]
        assert value(gens[0][1]) == value(h_phase(n))
        for j, (_, g) in enumerate(gens[1:], start=1):
            assert value(g) == value(h_shift_formal(n, j))


class TestGeneration:
    """``h_generators`` generates H: every element of H is the phase times
    one shift per superdiagonal, with values in place of the generators'
    symbols.  So invariance under the generators is invariance under H."""

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("formal", [False, True])
    def test_every_element_factors_into_generators(self, n, formal):
        rng = random.Random(40 + n)
        gens = [g for _, g in h_generators(n)]
        for _ in range(5):
            g = random_h_element(n, rng, formal)
            factors = factor_into_generators(g)
            product = identity(n)
            for f in factors:
                product = toeplitz_mul(product, f)
            assert value(product) == value(g)
            assert value(profile(factors[0])[0]) == value(profile(g)[0])
            # each factor is nonzero only where its generator is
            assert len(factors) == len(gens)
            for f, gen in zip(factors, gens):
                for e, e_gen in zip(profile(f), profile(gen)):
                    assert e.a.is_zero() or not e_gen.a.is_zero()
                    assert e.b.is_zero() or not e_gen.b.is_zero()

    @pytest.mark.parametrize("n", range(3, 7))
    def test_twisted_shift2_is_refused(self, n):
        # its k = 2 entry a2*eps lies in C*eps, not in C*eps^2 = C
        with pytest.raises(ValueError, match="entry 2"):
            factor_into_generators(twisted_shift2(n))
        g = toeplitz_mul(random_h_element(n, random.Random(n), True),
                         twisted_shift2(n))
        with pytest.raises(ValueError, match="entry 2"):
            factor_into_generators(g)

    def test_non_unit_diagonal_is_refused(self):
        with pytest.raises(ValueError, match="unit phase"):
            factor_into_generators(h_element(3, scal(2), [scal(1)] * 2))


class TestSparseProduct:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("formal", [False, True])
    def test_matches_dense_oracle(self, n, formal):
        rng = random.Random(100 * n + formal)
        for _ in range(9):
            x = random_toeplitz(n, rng, formal)
            y = random_toeplitz(n, rng, formal)
            assert value(dense(toeplitz_mul(x, y))) \
                == value(dense_mul(dense(x), dense(y)))

    def test_mismatched_sizes_raise(self):
        small, big = identity(3), h_shift(4, 1, Scalar.of(2))
        with pytest.raises(ValueError):
            toeplitz_mul(small, big)
        with pytest.raises(ValueError):
            toeplitz_mul(big, small)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("formal", [False, True])
    def test_h_product_matches_dense_oracle(self, n, formal):
        # the full dense product of two H elements is the Toeplitz matrix
        # of the product's profile
        rng = random.Random(200 * n)
        if formal:
            draws = [([Scalar.var(f"a{k}") for k in range(1, n)],
                      [Scalar.var(f"b{k}") for k in range(1, n)])]
        else:
            draws = [[[from_gauss(random_gaussian(rng, 5, 5))
                       for _ in range(n - 1)] for _ in range(2)]
                     for _ in range(3)]
        for ca, cb in draws:
            g = h_element(n, Scalar.var("u"), ca)
            gp = h_element(n, Scalar.var("v"), cb)
            assert value(dense(toeplitz_mul(g, gp))) \
                == value(dense_mul(dense(g), dense(gp)))

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_formal_product_makes_one_product_per_profile_pair(
            self, n, monkeypatch):
        # both formal profiles are full, so the product meets each pair
        # m + k < n once
        calls = count_calls(monkeypatch, REpsElement, "__mul__")
        assert formal_product_verdict(n) == PASS
        assert len(calls) == n * (n + 1) // 2


def count_calls(monkeypatch, owner, name):
    """The list that gets one entry per call of ``owner.name`` until
    ``monkeypatch`` is undone."""
    calls = []
    method = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return method(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestFourParityLemma:
    """The closure certificate is the same at every n, and the formal
    product at the run's n, its second derivation, agrees with it."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_formal_product_agrees(self, n):
        assert formal_product_verdict(n) == h_closure_check(n).status == PASS

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("owner, name, mutation", [
        (clifford, "eps_times_coeff", lambda a, k: REpsElement(a)),
        (clifford, "eps_times_coeff", eps_diagonal),
        (REpsElement, "__mul__", mul_eps_gets_b_conj_d),
        (REpsElement, "__mul__", mul_conjugates_c)])
    def test_formal_product_agrees_under_a_mutation(self, n, owner, name,
                                                    mutation, monkeypatch):
        # from n = 3 on the product has a term (a1 eps)(b1 eps), so every
        # parity pair meets the formal product too
        monkeypatch.setattr(owner, name, mutation)
        assert formal_product_verdict(n) == h_closure_check(n).status == FAIL

    def test_a_product_of_odd_entries_misses_the_lemma_only_at_n2(
            self, monkeypatch):
        # at n = 2 no term (a_m eps^m)(b_(k-m) eps^(k-m)) has both m and
        # k - m odd, so the formal product at that n cannot see a wrong
        # product of two eps parts; the lemma sees it at every n
        monkeypatch.setattr(REpsElement, "__mul__", mul_eps_gets_b_conj_d)
        assert formal_product_verdict(2) == PASS
        assert h_closure_check(2).status == FAIL

    def test_five_element_products_at_every_n(self, monkeypatch):
        calls = count_calls(monkeypatch, REpsElement, "__mul__")
        for n in (1, 8, 512):
            assert h_closure_check(n).status == PASS
        assert len(calls) == 3 * 5

    def test_scalar_products_do_not_grow_with_n(self, monkeypatch):
        counts = []
        for n in (8, 512):
            calls = count_calls(monkeypatch, Scalar, "__mul__")
            assert h_closure_check(n).status == PASS
            counts.append(len(calls))
            monkeypatch.undo()
        assert counts[0] == counts[1] > 0


class TestBlockDeterminant:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_generators_match_laplace_oracle(self, n):
        for g in generators(n):
            assert _block_det(g) == laplace_det(g) == Scalar.one()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_profile_matches_laplace_oracle(self, n):
        rng = random.Random(60 + n)
        for formal in (False, True, True):
            g = random_toeplitz(n, rng, formal, diag=REpsElement(ROT))
            assert _block_det(g) == laplace_det(g) == Scalar.one()
        # a non-unit phase u + x on the diagonal, then also an eps part
        # y*eps there: not 1, still equal
        for x in (REpsElement(Scalar.var("x")),
                  REpsElement(Scalar.var("x"), Scalar.var("y"))):
            h = toeplitz(n, (add(profile(g)[0], x),) + profile(g)[1:])
            det = _block_det(h)
            assert det == laplace_det(h) and det != Scalar.one()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_diagonal_two_is_not_unimodular(self, n):
        g = h_element(n, Scalar.of(2), [Scalar.var("a1")]
                      + [Scalar.zero()] * (n - 2))
        assert _block_det(g) == laplace_det(g) == Scalar.of(4 ** n)

    def test_pass_details_name_every_generator(self):
        record = h_det_check(4)
        assert record.details == {
            "phase_det": "1", "shift1_det": "1", "shift2_det": "1",
            "shift3_det": "1", "mixed_det": "1"}

    def test_det_check_at_n32(self):
        assert h_det_check(32).status == PASS

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_a_shift_with_diagonal_two_fails_with_its_determinant(
            self, n, monkeypatch):
        # the block of 2 has determinant 4, repeated n times down the
        # diagonal: the record prints 4^n, not the block
        shift = clifford.h_shift

        def diagonal_two(n, j, a):
            return Toeplitz(n, {**shift(n, j, a).entries,
                                0: REpsElement(Scalar.of(2))})

        monkeypatch.setattr(clifford, "h_shift", diagonal_two)
        record = h_det_check(n)
        assert record.status == FAIL
        assert record.details == {
            "phase_det": "1", "mixed_det": "1",
            **{f"shift{j}_det": str(4 ** n) for j in range(1, n)}}

    def test_unit_blocks_make_no_n_fold_product(self, monkeypatch):
        # every block is 1, so no power is formed and the Scalar products
        # are those of the two distinct diagonals' blocks, at any n
        counts = []
        for n in (8, 512):
            calls = count_calls(monkeypatch, Scalar, "__mul__")
            assert h_det_check(n).status == PASS
            counts.append(len(calls))
            monkeypatch.undo()
        assert counts[0] == counts[1] < 8

    def test_algebra_suite_memoises_o1_monomial_products(self, tmp_path,
                                                         monkeypatch):
        # the closure and det certificates meet the same monomial pairs at
        # every n, so a cold product memo grows by the same few entries
        sizes = []
        for n in (8, 512):
            monkeypatch.setattr(scalars, "_MONO_PRODUCTS", {})
            assert cli.main(["verify", "algebra", "--n", str(n),
                             "--format", "json",
                             "--out", str(tmp_path / f"n{n}.json")]) == 0
            sizes.append(len(scalars._MONO_PRODUCTS))
        assert sizes[0] == sizes[1] < 16


class TestComplexified:
    def test_eps_squared(self):
        eps = CplxPairElement.eps()
        assert eps * eps == CplxPairElement.one()

    def test_embedding_is_homomorphism(self):
        # the real algebra sits diagonally: a + b*eps -> (a, a) + (b, b)*eps
        rng = random.Random(11)

        def embed(x: REpsElement) -> CplxPairElement:
            return CplxPairElement(x.a, x.a, x.b, x.b)

        for _ in range(25):
            x, y = rand_elem(rng), rand_elem(rng)
            assert embed(x * y) == embed(x) * embed(y)

    def test_eps_power_products(self):
        a, b = Scalar.var("a1"), Scalar.var("a2")
        e1 = cplx_pair_times_eps_power(a, b, 1)
        e2 = cplx_pair_times_eps_power(a, b, 2)
        assert e1 * CplxPairElement.eps() == e2

    def test_action_on_pairs(self):
        # diagonal (t, s) acts as (t z, s w); eps swaps with conjugation
        t, s = Scalar.var("t"), Scalar.var("tdual")
        z, w = Scalar.var("Z"), Scalar.var("W")
        dz, dw = CplxPairElement.diagonal(t, s).act(z, w)
        assert dz == t * z and dw == s * w
        ez, ew = CplxPairElement.eps().act(z, w)
        assert ez == w.conjugate() and ew == z.conjugate()

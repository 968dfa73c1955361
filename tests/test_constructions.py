"""Named operators, distribution families, and the bundled verification
procedures."""

from fractions import Fraction

import pytest

from invdist import clifford, constructions, distributions, weyl
from invdist.cli import RunConfig, emit_report, run_suite
from invdist.constructions import (FamilySpec, FamilyWork, _seed,
                                   build_family, build_vector_field,
                                   verify_independence, verify_invariance,
                                   verify_lemma_d, verify_support_filtration)
from invdist.distributions import DistExpr, Residuals
from invdist.records import FAIL, PASS, SKIPPED
from invdist.scalars import AffineExponent, GaussianRational, Scalar
from invdist.weyl import WeylOp, conjugate_op, substitution_from_group, \
    sym_conj, sym_z, sym_zbar
from reference import act_group, expr_parts, expr_sum, generator_product, \
    generator_substitutions, identity, inverse, op_parts, sparse, \
    toeplitz_mul, twisted_shift2, value

import random


class TestVectorFields:
    def test_d_shape(self):
        n = 3
        d = build_vector_field(n, n - 1)
        expected = WeylOp.term(n, Scalar.one(), {sym_zbar(1): 1},
                               {sym_zbar(2): 1}) \
            + WeylOp.term(n, Scalar.one(), {sym_z(2): 1}, {sym_z(3): 1})
        assert op_parts(d) == op_parts(expected)

    def test_dbar_is_conjugate_shape(self):
        n = 3
        dbar = build_vector_field(n, n - 1, conjugate=True)
        expected = WeylOp.term(n, Scalar.one(), {sym_z(1): 1},
                               {sym_z(2): 1}) \
            + WeylOp.term(n, Scalar.one(), {sym_zbar(2): 1}, {sym_zbar(3): 1})
        assert op_parts(dbar) == op_parts(expected)

    def test_dj_interpolates(self):
        # D_{n-1} = D and D_2 at n = 4, and D_1 = D' (no first term) at n = 2
        n = 4
        assert op_parts(build_vector_field(n, n - 1)) \
            == op_parts(WeylOp.term(n, Scalar.one(), {sym_zbar(2): 1},
                                    {sym_zbar(3): 1})
                        + WeylOp.term(n, Scalar.one(), {sym_z(3): 1},
                                      {sym_z(4): 1}))
        assert op_parts(build_vector_field(n, 2)) \
            == op_parts(WeylOp.term(n, Scalar.one(), {sym_zbar(1): 1},
                                    {sym_zbar(2): 1})
                        + WeylOp.term(n, Scalar.one(), {sym_z(2): 1},
                                      {sym_z(3): 1}))
        assert op_parts(build_vector_field(2, 1)) \
            == op_parts(WeylOp.term(2, Scalar.one(), {sym_z(1): 1},
                                    {sym_z(2): 1}))

    def test_validation(self):
        # j = 0 and j = n are out of range at every n, for D_j and its
        # conjugate alike
        for n in (2, 3, 4):
            for j in (0, n, n + 1):
                for conjugate in (False, True):
                    with pytest.raises(ValueError):
                        build_vector_field(n, j, conjugate)


class TestFamilies:
    def test_base_member(self):
        spec = FamilySpec(3, "T", 0)
        [expr] = build_family(spec)
        sigma = AffineExponent(Fraction(1), Fraction(-1, 2))
        assert expr_parts(expr) == expr_parts(
            DistExpr.single(3, powers={2: sigma}, delta={3: (0, 0)}))

    def test_first_member_by_hand(self):
        # D T^0 = (1 - lam/2) zbar1 z2 |z2|^(-lam) delta
        #         + |z2|^(2 - lam) dz3-delta
        n = 3
        expr = build_family(FamilySpec(n, "T", 1))[-1]
        sigma = AffineExponent(Fraction(1), Fraction(-1, 2))
        by_hand = expr_sum(
            DistExpr.single(n, coeff=sigma.as_scalar(),
                            mono={sym_zbar(1): 1, sym_z(2): 1},
                            powers={2: sigma - 1}, delta={3: (0, 0)}),
            DistExpr.single(n, mono={sym_z(2): 1}, powers={2: sigma},
                            delta={3: (1, 0)}))
        assert expr_parts(expr) == expr_parts(by_hand)

    def test_family_is_one_chain(self):
        # T^l = D T^(l-1), and each member is the last of its own family
        op = build_vector_field(3, 2)
        family = build_family(FamilySpec(3, "T", 3))
        assert len(family) == 4
        for l in range(1, 4):
            assert expr_parts(family[l]) \
                == expr_parts(family[l - 1].apply_weyl(op))
            assert expr_parts(family[l]) \
                == expr_parts(build_family(FamilySpec(3, "T", l))[-1])

    @pytest.mark.parametrize("spec,j,conjugate", [
        (FamilySpec(3, "T", 1), 2, False),
        (FamilySpec(3, "T", 1, lam=Fraction(3)), 2, False),
        (FamilySpec(3, "Tbar", 1), 2, True),
        (FamilySpec(3, "Tbar", 1, lam=Fraction(3)), 2, True),
        (FamilySpec(4, "Tj", 1, j=2), 2, False),
        (FamilySpec(4, "Tj", 1, j=2, lam=Fraction(3)), 2, False),
        (FamilySpec(2, "T2", 1), 1, False),
    ], ids=["T", "T-lam3", "Tbar", "Tbar-lam3", "Tj", "Tj-lam3", "T2"])
    def test_family_steps_by_its_d_j(self, spec, j, conjugate):
        # the paper's operator of each family: D_{n-1} for T, its
        # conjugate for Tbar, D_j for Tj and D_1 = D' for T2
        family = build_family(spec)
        assert expr_parts(family[1]) == expr_parts(family[0].apply_weyl(
            build_vector_field(spec.n, j, conjugate)))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("lam", [None, Fraction(3)])
    def test_t_is_tj_at_last_index(self, n, lam):
        # T is the j = n-1 member of the Tj families, member by member
        assert list(map(expr_parts,
                        build_family(FamilySpec(n, "T", 6, lam=lam)))) \
            == list(map(expr_parts, build_family(
                FamilySpec(n, "Tj", 6, j=n - 1, lam=lam))))

    @pytest.mark.parametrize("spec", [
        FamilySpec(3, "T", 24), FamilySpec(5, "T", 12),
        FamilySpec(4, "Tbar", 12), FamilySpec(6, "Tj", 12, j=3)],
        ids=["T-n3", "T-n5", "Tbar-n4", "Tj-n6-j3"])
    def test_chain_equals_the_closed_form(self, spec):
        # every member of order up to 24 at n = 3, and 12 elsewhere, term
        # by term, with coefficients that no Scalar product computed
        assert [member.terms for member in build_family(spec)] \
            == closed_form_chain(spec)

    def test_t2_family(self):
        expr = build_family(FamilySpec(2, "T2", 2))[-1]
        # (z1 d/dz2)^2 delta(z2) = z1^2 d^2 delta
        expected = DistExpr.single(2, mono={sym_z(1): 2}, delta={2: (2, 0)})
        assert expr_parts(expr) == expr_parts(expected)

    @pytest.mark.parametrize("lam", [0.5, 3.0, "3", True, False])
    def test_lambda_must_be_exact(self, lam):
        # a bool is an int to Python, but prints as True or False
        spec = FamilySpec(3, "T", 1, lam=lam)
        for call in (spec.validate, lambda: build_family(spec)):
            with pytest.raises(ValueError, match="lam must be formal"):
                call()

    def test_specialized_lambda(self):
        [expr] = build_family(FamilySpec(3, "T", 0, lam=Fraction(4)))
        # sigma = 1 - 4/2 = -1 stays a power factor
        assert expr_parts(expr) == expr_parts(DistExpr.single(
            3, powers={2: AffineExponent.of(-1)}, delta={3: (0, 0)}))

    def test_validation(self):
        with pytest.raises(ValueError):
            FamilySpec(2, "T", 0).validate()
        with pytest.raises(ValueError):
            FamilySpec(3, "Tj", 0).validate()
        with pytest.raises(ValueError):
            FamilySpec(3, "E", 0).validate()
        with pytest.raises(ValueError):
            FamilySpec(3, "Tj", 0, j=3).validate()
        with pytest.raises(ValueError):
            FamilySpec(2, "T2", 0, lam=Fraction(3)).validate()

    def test_leibniz_steps_make_no_fraction(self, monkeypatch):
        # the rank workload's chains, and one at an integer lam, where
        # exponents turn into monomials: once their memos are warm, no step
        # T^l = D T^(l-1) constructs or compares a Fraction
        specs = [FamilySpec(3, "T", 8), FamilySpec(4, "Tj", 6, j=2),
                 FamilySpec(4, "Tj", 6, j=3), FamilySpec(3, "T", 8, lam=4)]
        for spec in specs:
            build_family(spec)
        counts = {"constructed": 0, "compared": 0}
        inside = [False]
        new, eq, apply_weyl = Fraction.__new__, Fraction.__eq__, \
            DistExpr.apply_weyl

        def counted_new(cls, *args, **kwargs):
            counts["constructed"] += inside[0]
            return new(cls, *args, **kwargs)

        def counted_eq(self, other):
            counts["compared"] += inside[0]
            return eq(self, other)

        def step(self, op):
            inside[0] = True
            try:
                return apply_weyl(self, op)
            finally:
                inside[0] = False

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
        monkeypatch.setattr(Fraction, "__eq__", counted_eq)
        monkeypatch.setattr(DistExpr, "apply_weyl", step)
        families = [build_family(spec) for spec in specs]
        monkeypatch.undo()
        assert counts == {"constructed": 0, "compared": 0}
        assert [len(f) for f in families] == [9, 7, 7, 9]


def closed_form_chain(spec):
    """The terms of the members of order 0..l of a family at formal lam by
    the closed form

        T^l = sum_k C(l,k) (sigma)_k x^k y^l (y ybar)^(sigma-k) delta^(l-k)

    with x = zbar_{j-1}, y = z_j, sigma = (n - j) - lam/2 and the l - k
    derivatives on the delta at z_{j+1} (z and zbar swapped for a conjugate
    family).  Each coefficient is a sympy polynomial in lam, read into a
    Scalar term by term."""
    sympy = pytest.importorskip("sympy")
    n, (j, conjugate, _) = spec.n, spec.row()
    lam = sympy.Symbol("lam")
    z, zbar = (sym_zbar, sym_z) if conjugate else (sym_z, sym_zbar)
    sigma = AffineExponent(Fraction(n - j), Fraction(-1, 2))
    falling = [sympy.Poly(1, lam, domain="QQ")]
    for k in range(spec.l):
        falling.append(falling[-1] * sympy.Poly((n - j) - lam / 2 - k, lam,
                                                domain="QQ"))
    chain = []
    for l in range(spec.l + 1):
        terms = {}
        for k in range(l + 1):
            mono = [0] * (2 * n)
            mono[zbar(j - 1)], mono[z(j)] = k, l
            first = (j + 1, 0, l - k) if conjugate else (j + 1, l - k, 0)
            delta = (first,) + tuple((i, 0, 0) for i in range(j + 2, n + 1))
            coeff = falling[k] * sympy.binomial(l, k)
            terms[sparse(mono), ((j, sigma - k),), delta] = Scalar({
                (("lam", d),) if d else (): GaussianRational(
                    Fraction(int(c.p), int(c.q)))
                for (d,), c in coeff.terms()})
        chain.append(terms)
    return chain


def twist_shift2(monkeypatch):
    """Put ``reference.twisted_shift2`` in place of the second shift
    generator, which takes it out of H."""
    h_shift_formal = clifford.h_shift_formal
    monkeypatch.setattr(
        clifford, "h_shift_formal",
        lambda n, j: twisted_shift2(n) if j == 2 else h_shift_formal(n, j))


def repeat_first_member(monkeypatch):
    """Make ``build_family`` put the order-0 member in place of the last, so
    the chain of orders 0..l has rank l: one that only elimination ranks."""
    build = constructions.build_family

    def repeated(spec):
        chain = build(spec)
        return chain[:-1] + [chain[0]]

    monkeypatch.setattr(constructions, "build_family", repeated)


def count_calls(monkeypatch, owner, name, counts):
    """Count the calls of ``owner.name`` under ``name`` in ``counts``."""
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestVerifiers:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_lemma_d(self, n):
        record = verify_lemma_d(n)
        assert record.status == PASS
        assert record.check_id == f"lemma-d.D.n{n}"
        assert record.paper_ref == "Lemma 4.4"

    def test_lemma_dprime(self):
        record = verify_lemma_d(2)
        assert record.status == PASS
        assert record.check_id == "lemma-d.Dprime.n2"
        assert record.paper_ref == "n=2 proof display"

    def test_generators_cover_phase_and_shifts(self):
        n = 4
        subs = generator_substitutions(n)
        # one phase + n-1 shifts, with the labels the reports use
        assert [name for name, _ in subs] \
            == ["phase", "shift1", "shift2", "shift3"]
        for _, s in subs:
            for rows in (s.fwd, s.inv):
                for j in range(1, n + 1):
                    assert rows[sym_zbar(j)] == {
                        sym_conj(t): c.conjugate()
                        for t, c in rows[sym_z(j)].items()}

    def test_products_of_generators_invertible(self):
        rng = random.Random(13)
        for n in (2, 3, 4):
            g = generator_product(n, rng)
            assert value(toeplitz_mul(g, inverse(g))) \
                == value(identity(n))
            substitution_from_group(g)  # reality holds

    @pytest.mark.parametrize("spec", [
        FamilySpec(3, "T", 2),
        FamilySpec(3, "Tbar", 2),
        FamilySpec(4, "Tj", 1, j=2),
        FamilySpec(2, "T2", 2, lam=Fraction(2)),
        FamilySpec(2, "T2", 2),
    ])
    def test_invariance(self, spec):
        rec = verify_invariance(spec)
        assert rec.status == PASS, rec.details
        # the generators generate H, so products of them fix the family
        # too: each of their residuals up to the order is zero
        op, _ = _seed(spec)
        chain = build_family(spec)
        rng = random.Random(3)
        for _ in range(2):
            sub = substitution_from_group(generator_product(spec.n, rng))
            assert Residuals(op, chain, sub).first_failure(spec.l) is None

    @pytest.mark.parametrize("spec", [
        FamilySpec(3, "T", 3),
        FamilySpec(3, "Tbar", 3),
        FamilySpec(4, "Tj", 2, j=2),
        FamilySpec(2, "T2", 3),
    ])
    def test_invariance_by_jet_expansion(self, spec):
        # a second derivation: act on each expanded member directly by the
        # jet expansion of the reference module, with no conjugated
        # operator, no operator power and no code of DistExpr.act_group
        for member in build_family(spec):
            for _, sub in generator_substitutions(spec.n):
                assert expr_parts(act_group(member, sub)) \
                    == expr_parts(member)

    def test_invariance_failure_names_the_generator(self, monkeypatch):
        # a2*eps in place of a2*eps^2 = a2 leaves H, and T of order 2 is
        # not fixed by it; the failure carries that generator's label
        twist_shift2(monkeypatch)
        rec = verify_invariance(FamilySpec(3, "T", 2))
        assert rec.status == FAIL
        assert [f["generator"] for f in rec.details["failures"]] == ["shift2"]

    def test_invariance_failure_below_the_order_names_it(self, monkeypatch):
        # the twisted shift2 first moves the member of order 2: a check at
        # order 4 reports that order, with the difference of the order-2
        # check, and only this failure
        twist_shift2(monkeypatch)
        at2 = verify_invariance(FamilySpec(3, "T", 2))
        counts = {}
        count_calls(monkeypatch, DistExpr, "apply_weyl", counts)
        at4 = verify_invariance(FamilySpec(3, "T", 4))
        # 4 steps of the chain and 4 residuals of each of the phase and
        # shift1; none of shift2's past its first nonzero one, of order 2
        assert counts["apply_weyl"] == 4 + 2 * 4 + 2
        assert at4.status == FAIL
        assert at4.details["failures"] == [
            dict(at2.details["failures"][0], order=2)]
        assert "order" not in at2.details["failures"][0]

    def test_invariance_degree_detail(self):
        rec = verify_invariance(FamilySpec(3, "T", 1))
        assert rec.details["degree"] == str(AffineExponent.of(0, -1))
        assert rec.details["parity"] == "even"
        assert rec.details["u1_weights"] == [0]

    def test_independence(self):
        rec = verify_independence(FamilySpec(3, "T", 5))
        assert rec.status == PASS
        assert rec.details["rank"] == 6

    def test_independence_t2(self):
        rec = verify_independence(FamilySpec(2, "T2", 5, lam=Fraction(2)))
        assert rec.status == PASS
        assert rec.details["rank"] == 6

    @pytest.mark.parametrize("n,j", [(3, 2), (4, 2), (4, 3)])
    def test_support_filtration(self, n, j):
        rec = verify_support_filtration(n, j, lmax=3)
        assert rec.status == PASS, rec.details
        assert rec.details["supports"] == [f"X{j}"] * 4

    def test_support_filtration_fails_on_an_irregular_member(self,
                                                             monkeypatch):
        # the order-1 member swapped for a term supported off the strata;
        # the rank still holds, so the support alone fails the record
        build = constructions.build_family

        def irregular_order_1(spec):
            chain = build(spec)
            chain[1] = DistExpr.single(spec.n, delta={spec.n: (0, 0)})
            return chain

        monkeypatch.setattr(constructions, "build_family", irregular_order_1)
        rec = verify_support_filtration(4, 2, lmax=3)
        assert rec.details["supports"] == ["X2", "irregular", "X2", "X2"]
        assert rec.details["rank"] == rec.details["expected_rank"]
        assert rec.status == FAIL

    @pytest.mark.parametrize("n,j", [(2, 1), (3, 1), (3, 3), (4, 4)])
    def test_support_filtration_range(self, n, j):
        with pytest.raises(ValueError):
            verify_support_filtration(n, j, lmax=1)


class TestSharedInvarianceWork:
    """One invariance run does each element's order-independent work once
    and applies each element's difference operator g.D - D once per order,
    to the chain's member of the order before."""

    def run_counted(self, monkeypatch, **config):
        counts = {}
        count_calls(monkeypatch, constructions, "substitution_from_group",
                    counts)
        count_calls(monkeypatch, DistExpr, "apply_weyl", counts)
        report = run_suite(RunConfig(suite="invariance", **config))
        monkeypatch.undo()
        return report, counts

    def test_work_counts_repeat_and_do_not_grow_per_order(self, monkeypatch):
        n, lmax = 4, 4
        first, counts = self.run_counted(monkeypatch, n=n, lmax=lmax)
        assert first.all_passed
        # the generators of h_generators that the window lemma leaves, and
        # no other element: at width 3 it decides shift3
        left = FamilyWork(FamilySpec(n, "T", lmax)).residuals[0]
        assert [name for name, _ in left] == ["phase", "shift1", "shift2"]
        assert counts["substitution_from_group"] == len(left)
        # lmax steps of the chain, and lmax steps of each element's action
        assert counts["apply_weyl"] == lmax + lmax * len(left)
        # the shared work lives inside one run_suite call
        again, counts_again = self.run_counted(monkeypatch, n=n, lmax=lmax)
        assert counts_again == counts
        assert emit_report(again, "json") == emit_report(first, "json")

    def test_a_passing_run_applies_d_and_each_difference(self, monkeypatch):
        # the chain steps by D; each element's action steps by its
        # E_g = g.D - D alone, since every acted member equals the chain's;
        # the window lemma decides shift3, the last, whose E_g is not applied
        n, lmax = 4, 4
        ops = []
        apply_weyl = DistExpr.apply_weyl

        def recorded(expr, op):
            ops.append(op)
            return apply_weyl(expr, op)

        monkeypatch.setattr(DistExpr, "apply_weyl", recorded)
        report = run_suite(RunConfig(suite="invariance", n=n, lmax=lmax))
        monkeypatch.undo()
        assert report.all_passed
        d = build_vector_field(n, n - 1)
        subs = [sub for _, sub in generator_substitutions(n)]
        conjugated = [conjugate_op(d, sub) for sub in subs]
        differences = [c - d for c in conjugated]
        assert differences[0].is_zero()  # the phase: g.D = D
        assert all(not e.is_zero() for e in differences[1:])
        assert len(ops) == lmax + lmax * (len(subs) - 1)
        seen = [op_parts(op) for op in ops]
        assert seen.count(op_parts(d)) == lmax
        for e in differences[:-1]:
            assert seen.count(op_parts(e)) == lmax
        assert op_parts(differences[-1]) not in seen
        for c in conjugated[1:]:
            assert op_parts(c) not in seen

    def test_failure_matches_standalone_and_skips_later_orders(
            self, monkeypatch):
        twist_shift2(monkeypatch)
        spec = FamilySpec(3, "T", 2)
        standalone = verify_invariance(spec, work=FamilyWork(spec))
        assert standalone.status == FAIL
        report, counts = self.run_counted(monkeypatch, n=3, lmax=4)
        status = {c.check_id: c.status for c in report.checks}
        assert status == {"invariance.T.n3.l0": PASS,
                          "invariance.T.n3.l1": PASS,
                          "invariance.T.n3.l2": FAIL,
                          "invariance.T.n3.l3": SKIPPED,
                          "invariance.T.n3.l4": SKIPPED}
        failed = next(c for c in report.checks if c.status == FAIL)
        assert failed.details == standalone.details
        # the chain is built to lmax = 4 at once; the actions of the 3
        # generators each step to orders 1 and 2 only, and the skipped
        # orders 3 and 4 apply nothing
        assert counts["apply_weyl"] == 4 + 2 * 3

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    def test_residuals_of_a_far_shift_do_not_grow_with_n(self, monkeypatch,
                                                         k):
        # E_g of shift_k reads the inverse rows of D's monomial symbols and
        # the forward columns of its derivative symbols, all in the chain's
        # window {z_(n-2), z_(n-1), z_n} (Lemma 4.4), and T^0's action reads
        # the rows of z_(n-1) and z_n.  Those inverse rows read the inverse
        # entries X_0..X_2 only, each formed when first read.  So from the
        # substitution on, with k <= n - 2 at n = 8, the residuals to order
        # 4 build as many rows and columns, and make as many products, at
        # n = 64 and 512 as at n = 8: shift1 forms X_1 and X_2 at two
        # products each, shift2 forms X_2, and a shift past 2 forms none;
        # and every monomial key of E_g, of the chain and of the acted T^0
        # is as long, since a key holds only its nonzero (symbol, exponent)
        # pairs
        def work(n):
            spec = FamilySpec(n, "T", 4)
            op, _ = _seed(spec)
            chain = build_family(spec)
            g = clifford.h_shift_formal(n, k)
            counts = {"REpsElement": 0, "Scalar": 0}
            for owner in (clifford.REpsElement, Scalar):
                def counted(x, y, mul=owner.__mul__, name=owner.__name__):
                    counts[name] += 1
                    return mul(x, y)

                monkeypatch.setattr(owner, "__mul__", counted)
            sub = substitution_from_group(g)
            residuals = Residuals(op, chain, sub)
            assert residuals.first_failure(spec.l) is None
            monkeypatch.undo()
            keys = [sorted((len(m), len(d))
                           for m, d in residuals.difference.terms)]
            for expr in (*chain, chain[0].act_group(sub)):
                keys.append(sorted(len(key[0]) for key in expr.terms))
            return (counts, [len(rows.rows) for rows in (sub.fwd, sub.inv)],
                    [len(rows.cols) for rows in (sub.fwd, sub.inv)], keys)

        at_8 = work(8)
        assert at_8 == work(64) == work(512)
        assert at_8[0]["REpsElement"] == {1: 4, 2: 2}.get(k, 0)

    def test_the_chain_step_does_not_grow_with_the_delta_block(
            self, monkeypatch):
        # Tj at j = 2 carries the delta block {z_3..z_n}; D_2 reads only
        # z_1, z_2 and z_3, and each step's rules touch only the variable
        # they change, so the chain makes as many symbol lookups and rule
        # calls at n = 256 as at n = 16
        def work(n):
            counts = {}
            for module in (weyl, distributions, constructions):
                count_calls(monkeypatch, module, "sym_z", counts)
            for rule in ("_derive", "_times"):
                count_calls(monkeypatch, distributions, rule, counts)
            chain = build_family(FamilySpec(n, "Tj", 4, j=2))
            monkeypatch.undo()
            return counts, [len(member.terms) for member in chain]

        at_16 = work(16)
        assert at_16 == work(256)
        assert at_16[0]["_derive"] and at_16[0]["_times"]

    def test_work_must_match_the_check(self):
        spec = FamilySpec(3, "T", 2)
        work = FamilyWork(spec)
        # orders come in any order, each with the record a fresh work gives
        for l in (2, 0, 1):
            record = verify_invariance(FamilySpec(3, "T", l), work=work)
            fresh = verify_invariance(FamilySpec(3, "T", l),
                                      work=FamilyWork(spec))
            assert record.status == PASS
            assert record.to_dict() == fresh.to_dict()
        for other in (FamilySpec(3, "T", 3),
                      FamilySpec(3, "T", 2, lam=Fraction(3)),
                      FamilySpec(4, "T", 2), FamilySpec(3, "Tbar", 2)):
            with pytest.raises(ValueError):
                verify_invariance(other, work=work)
        # a rank check needs the same chain: Tj(j=n-1) is T's chain, at the
        # same lam and length
        work = FamilyWork(FamilySpec(4, "T", 2))
        assert verify_support_filtration(4, 3, 2, work=work).status == PASS
        record = verify_independence(FamilySpec(4, "T", 2), work=work)
        assert record.status == PASS
        for spec in (FamilySpec(4, "T", 2, lam=Fraction(3)),  # another lam
                     FamilySpec(4, "Tj", 2, j=2),             # another j
                     FamilySpec(4, "T", 1), FamilySpec(4, "T", 3)):
            with pytest.raises(ValueError):
                verify_independence(spec, work=work)
        for j, lmax in ((2, 2), (3, 1), (3, 3)):
            with pytest.raises(ValueError):
                verify_support_filtration(4, j, lmax, work=work)
        lam_work = FamilyWork(FamilySpec(4, "T", 2, lam=Fraction(3)))
        with pytest.raises(ValueError):
            verify_support_filtration(4, 3, 2, work=lam_work)


class TestWindowLemma:
    """``FamilyWork.residuals`` leaves out each generator whose profile the
    window lemma decides, and forms its residuals for every other one."""

    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_an_invariance_run_forms_three_substitutions(self, monkeypatch,
                                                         n):
        # the phase, shift1 and shift2; the lemma decides shift3..shift(n-1)
        counts = {}
        count_calls(monkeypatch, constructions, "substitution_from_group",
                    counts)
        count_calls(monkeypatch, distributions, "conjugate_op", counts)
        report = run_suite(RunConfig(suite="invariance", n=n, lmax=3))
        monkeypatch.undo()
        assert report.all_passed
        assert counts == {"substitution_from_group": 3, "conjugate_op": 3}
        for record in report.checks:
            assert record.details["window_lemma"] \
                == {"width": 3, "decided": n - 3}

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 64])
    def test_decided_generators_agree_with_their_residuals(self, n):
        # the all-generators loop: every generator's residuals to order 6
        # on the old path, a decided one's among them, give each order's
        # verdict, which the records of the shared work must repeat; a left
        # generator's residuals are the work's own, on that same path
        lmax = 6
        for spec in [FamilySpec(n, "T", lmax), FamilySpec(n, "Tbar", lmax)] \
                + [FamilySpec(n, "Tj", lmax, j=j) for j in range(2, n)]:
            work = FamilyWork(spec)
            kept, window = work.residuals
            left = dict(kept)
            op, _ = _seed(spec)
            first = {}
            for name, g in clifford.h_generators(n):
                residuals = left.get(name) or Residuals(
                    op, work.chain, substitution_from_group(g))
                failure = residuals.first_failure(lmax)
                first[name] = None if failure is None else failure[0]
                assert name in left or failure is None, (spec.row(), name)
            assert window["decided"] == n - len(left)
            for l in range(lmax + 1):
                record = verify_invariance(
                    FamilySpec(n, spec.family, l, j=spec.j), work=work)
                failed = [name for name, k in first.items()
                          if k is not None and k <= l]
                assert [f["generator"] for f in
                        record.details.get("failures", [])] == failed
                assert record.status == (FAIL if failed else PASS)

    def test_an_entry_outside_h_in_the_window_is_declined(self,
                                                          monkeypatch):
        # shift4 at n = 8 with an extra b on the first superdiagonal, in the
        # C-part where H has b*eps: outside H, and at a distance below the
        # width 3, so the lemma declines it whatever its label
        h_shift_formal = clifford.h_shift_formal

        def shift(n, j):
            g = h_shift_formal(n, j)
            if j != 4:
                return g
            return clifford.Toeplitz(n, dict(sorted(
                {**g.entries, 1: clifford.REpsElement(Scalar.var("b"))}
                .items())))

        monkeypatch.setattr(clifford, "h_shift_formal", shift)
        spec = FamilySpec(8, "T", 3)
        work = FamilyWork(spec)
        assert [name for name, _ in work.residuals[0]] \
            == ["phase", "shift1", "shift2", "shift4"]
        record = verify_invariance(spec, work=work)
        assert record.status == FAIL
        assert [f["generator"] for f in record.details["failures"]] \
            == ["shift4"]
        assert record.details["window_lemma"] == {"width": 3, "decided": 4}

    def test_a_term_of_d_below_the_window_widens_it(self, monkeypatch):
        # z_(n-3) d/dz_(n-3) added to D reads z_(n-3) and leaves the chain
        # as it is (no member holds z_(n-3)); the width becomes 4, so shift3
        # goes through its residuals
        n = 8
        build = constructions.build_vector_field
        chain = build_family(FamilySpec(n, "T", 3))

        def widened(n, j, conjugate=False):
            return build(n, j, conjugate) + WeylOp.term(
                n, Scalar.one(), {sym_z(n - 3): 1}, {sym_z(n - 3): 1})

        monkeypatch.setattr(constructions, "build_vector_field", widened)
        spec = FamilySpec(n, "T", 3)
        work = FamilyWork(spec)
        assert [expr_parts(e) for e in work.chain] \
            == [expr_parts(e) for e in chain]
        left, window = work.residuals
        assert [name for name, _ in left] \
            == ["phase", "shift1", "shift2", "shift3"]
        assert window == {"width": 4, "decided": n - 4}
        assert verify_invariance(spec, work=work).status == PASS

    @pytest.mark.parametrize("extra", [
        dict(mono={sym_z(5): 1}),
        dict(delta={k: (0, 0) for k in range(5, 9)})])
    def test_a_chain_term_below_the_window_widens_it(self, monkeypatch,
                                                     extra):
        # every member minus a term that reads z_(n-3) = z_5, by its
        # monomial or by its delta block z_5..z_8: D is as it was, but the
        # chain reads z_5, so the width is 4 again
        n = 8
        build = constructions.build_family

        def widened(spec):
            return [member - DistExpr.single(n, **extra)
                    for member in build(spec)]

        monkeypatch.setattr(constructions, "build_family", widened)
        left, window = FamilyWork(FamilySpec(n, "T", 3)).residuals
        assert [name for name, _ in left] \
            == ["phase", "shift1", "shift2", "shift3"]
        assert window == {"width": 4, "decided": n - 4}


class TestOneWorkPerChain:
    """``verify all`` builds and ranks each distinct chain once: T and the
    support chain Tj(j=n-1) share one work at formal lam only."""

    @pytest.mark.parametrize("n,lam,chains", [
        (3, None, 1),          # T = Tj(j=2)
        (4, None, 2),          # T = Tj(j=3), Tj(j=2)
        (4, Fraction(3), 3),   # T at lam = 3; Tj(j=2), Tj(j=3) formal
        (5, None, 3),          # T = Tj(j=4), Tj(j=2), Tj(j=3)
    ])
    def test_one_chain_and_one_rank_per_chain(self, monkeypatch, n, lam,
                                              chains):
        counts = {}
        count_calls(monkeypatch, constructions, "build_family", counts)
        count_calls(monkeypatch, constructions, "independence_rank", counts)
        report = run_suite(RunConfig(suite="all", n=n, lmax=3, lam=lam))
        assert report.all_passed
        assert (counts["build_family"], counts["independence_rank"]) \
            == (chains, chains)

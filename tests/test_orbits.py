"""Orbit stratification of projective space and the complexified orbit
continuum."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from invdist import orbits
from invdist.clifford import h_element
from invdist.orbits import (ProjPoint, _move_tail, _symbolic_zeta_check,
                            complex_orbit_check, enumerate_strata,
                            orbit_dimension, stratum_dimension, stratum_of,
                            transitivity_witness)
from invdist.records import FAIL, PASS
from invdist.scalars import GaussianRational, Scalar, integer_rank
from reference import (CplxPairElement, act, apply_toeplitz, constant_value,
                       cplx_pair_times_eps_power, from_gauss,
                       integer_coords, lie_directions, pair_solve, parts,
                       random_gaussian, ratio_label, triangular_rank)


def G(re, im=0):
    return GaussianRational.of(Fraction(re), Fraction(im))


def point(*values):
    """A point from ints and (re, im) pairs."""
    return ProjPoint(tuple(G(*v) if isinstance(v, tuple) else G(v)
                           for v in values))


class TestStrata:
    def test_stratum_of(self):
        assert stratum_of(point(1, 0, 0)) == 1
        assert stratum_of(point(0, (1, 2), 0)) == 2
        assert stratum_of(point(3, 0, (0, -1))) == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            point(0, 0, 0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_basis_point_dimensions(self, n):
        for j in range(1, n + 1):
            coords = [G(0)] * n
            coords[j - 1] = G(1)
            p = ProjPoint(tuple(coords))
            assert orbit_dimension(p) == stratum_dimension(j) == 2 * j - 1

    def test_random_point_dimensions(self):
        rng = random.Random(3)
        n = 4
        for _ in range(20):
            j = rng.randint(1, n)
            coords = [G(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                        Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                      for _ in range(j - 1)]
            coords.append(G(1, rng.randint(-2, 2)))
            coords.extend([G(0)] * (n - j))
            p = ProjPoint(tuple(coords))
            assert stratum_of(p) == j
            assert orbit_dimension(p) == 2 * j - 1

    def test_lie_directions_are_group_derivatives(self):
        # The Toeplitz action is linear in the diagonal and the shifts
        # together, so each tangent direction is the image of the point
        # under one Lie algebra basis element, here recomputed through the
        # pair solve's action on the point scaled to integers (the lcm
        # of its denominators is 12).
        p = point((1, 2), (Fraction(-3, 4), 5), (2, Fraction(1, 3)), (0, -1))
        z = [tuple(int(x * 12) for x in parts(c)) for c in p.coords]
        assert integer_coords(p) == z

        def real(v):
            return [x for c in v for x in c]

        zero = (0, 0)
        expected = [real(z), real(apply_toeplitz((0, 1), [], z))]
        for k in range(1, p.n):
            for coeff in ((1, 0), (0, 1)):
                shifts = [zero] * (p.n - 1)
                shifts[k - 1] = coeff
                expected.append(real(apply_toeplitz(zero, shifts, z)))
        assert lie_directions(p) == expected


big_gaussians = st.builds(GaussianRational.from_triple,
                          st.integers(-10**30, 10**30),
                          st.integers(-10**30, 10**30),
                          st.integers(1, 10**12))


@st.composite
def stratum_points(draw, n=None, j=None):
    """(point, j): a unit point e_j or a random point of stratum j, at a
    drawn n and j unless they are given."""
    n = draw(st.integers(2, 10)) if n is None else n
    j = draw(st.integers(1, n)) if j is None else j
    zero = GaussianRational()
    if draw(st.booleans()):
        coords = [zero] * n
        coords[j - 1] = GaussianRational.of(1)
    else:
        coords = [draw(big_gaussians) for _ in range(j - 1)]
        coords.append(draw(big_gaussians.filter(lambda c: not c.is_zero())))
        coords.extend([zero] * (n - j))
    return ProjPoint(tuple(coords)), j


@st.composite
def point_pairs(draw):
    """(p, q, same stratum): q is drawn in p's stratum half of the time."""
    p, j = draw(stratum_points(n=draw(st.integers(2, 8))))
    same = draw(st.booleans())
    q, i = draw(stratum_points(n=p.n, j=j if same else None))
    return p, q, i == j


class ZeroPattern:
    """A coordinate that tells only whether it is zero: any arithmetic on
    it raises."""

    def __init__(self, zero):
        self.zero = zero

    def is_zero(self):
        return self.zero


# Each mutation breaks one part of the certificate for a stratum-j point
# and changes the rank of the directions; None where it does not apply.
def _nonzero_past_2j(vectors, j):
    # pair j, zero on a true point, becomes e_{2j} twice: rank 2j + 1
    if 2 * j >= len(vectors[0]):
        return None
    unit = [0] * len(vectors[0])
    unit[2 * j] = 1
    return vectors[:2 * j] + [unit, unit] + vectors[2 * j + 2:]


def _singular_block(vectors, j):
    # the rotation direction replaced by the radial one: rank 2j - 1
    return [vectors[0]] + vectors[:1] + vectors[2:]


def _nonzero_below_block(vectors, j):
    # the second vector of pair 1 replaced by rotation + first of pair 1:
    # nonzero at pair 0's block columns, rank 2j - 1
    if j < 2:
        return None
    mixed = [a + b for a, b in zip(vectors[1], vectors[2])]
    return vectors[:3] + [mixed] + vectors[4:]


MUTATIONS = [_nonzero_past_2j, _singular_block, _nonzero_below_block]


class TestTriangularCertificate:
    """``orbit_dimension`` reads the rank off the coordinates; the
    reference builds the directions and ranks them, by their zero pattern
    and by Bareiss elimination."""

    @given(stratum_points())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_bareiss(self, case):
        p, j = case
        vectors = lie_directions(p)
        assert triangular_rank(vectors, j) == integer_rank(vectors) == 2 * j
        assert orbit_dimension(p) == 2 * j - 1

    def test_dimension_reads_only_the_zero_pattern(self):
        # no direction is built: the coordinates admit no arithmetic
        p = ProjPoint(tuple(ZeroPattern(z) for z in (False, True, False,
                                                     True)))
        assert orbit_dimension(p) == 5

    @pytest.mark.parametrize("mutate", MUTATIONS)
    def test_reference_declines_mutated_directions(self, mutate):
        # the zero-pattern certificate must not accept directions of
        # another rank, or the agreement above would be vacuous; z_2 = z_3
        # = 1 keeps pair 1's own block nonzero after the mixing of
        # _nonzero_below_block, so only the zero below it breaks
        p, j = point((2, -1), 1, 1, 0, 0), 3
        vectors = mutate(lie_directions(p), j)
        assert triangular_rank(vectors, j) is None
        assert integer_rank(vectors) != 2 * j

    def test_declined_certificate_can_still_have_full_rank(self):
        # pair 1 plus the radial direction is nonzero below pair 0's block
        # but spans the same space: the zero pattern is sufficient for
        # rank 2j, not necessary
        p = point(1, (0, 1), 3)
        vectors = lie_directions(p)
        vectors[2] = [a + b for a, b in zip(vectors[2], vectors[0])]
        assert triangular_rank(vectors, 3) is None
        assert integer_rank(vectors) == 6

    @pytest.mark.parametrize("mutate", MUTATIONS)
    def test_census_records_a_declined_dependent_set(self, mutate,
                                                     monkeypatch):
        # the census ranks mutated directions at e_j by elimination: every
        # stratum the mutation applies to is one dimension failure
        n = 4

        def mutated_rank(p):
            vectors = lie_directions(p)
            vectors = mutate(vectors, stratum_of(p)) or vectors
            return integer_rank(vectors) - 1

        monkeypatch.setattr(orbits, "orbit_dimension", mutated_rank)
        rec = enumerate_strata(n)
        assert rec.status == FAIL
        # the strata the mutation applies to, read off a dummy matrix
        broken = {j for j in range(1, n + 1)
                  if mutate([[0] * 2 * n] * 2 * n, j) is not None}
        failures = rec.details["dim_failures"]
        assert sorted(f["stratum"] for f in failures) == sorted(broken)
        assert all(f["expected"] == stratum_dimension(f["stratum"])
                   != f["rank_dim"] for f in failures)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_census_reads_one_dimension_per_stratum(self, n, monkeypatch):
        calls = []
        dimension = orbits.orbit_dimension

        def counted(p):
            calls.append(p)
            return dimension(p)

        monkeypatch.setattr(orbits, "orbit_dimension", counted)
        assert enumerate_strata(n).status == PASS
        assert [stratum_of(p) for p in calls] == list(range(1, n + 1))


def read_off_image(p, j):
    """G_z e_j, z the point p scaled to integers and G_z the Toeplitz
    element of diagonal z_j and k-th shift z_{j-k}, built with h_element,
    written out by ``reference.dense`` and acting entry by entry through
    ``act``: a derivation that shares no
    code with ``orbits``' read-off and its sparse action.  Returns z and
    G_z e_j, each as n Scalars."""
    n = p.n
    z = [from_gauss(GaussianRational.from_triple(re, im, 1))
         for re, im in integer_coords(p)]
    shifts = [z[j - 1 - k] for k in range(1, j)]
    g = h_element(n, z[j - 1], shifts + [Scalar.zero()] * (n - j))
    unit = [Scalar.one() if m == j - 1 else Scalar.zero() for m in range(n)]
    image = []
    for row in reference.dense(g):
        acc = Scalar.zero()
        for entry, x in zip(row, unit):
            acc = acc + act(entry, x, x.conjugate())[0]
        image.append(acc)
    return z, image


# Each read-off mutation names a coordinate other than z_{j-k} for the k-th
# profile entry of G_z, so G_z e_j = z fails in both parities of k.
def _shift_reads_past_j(j, k):
    # the k-th entry reads z_{j+k}
    return j + k


def _read_from_the_row_above(j, k):
    # every entry read one row up, the diagonal z_{j-1}
    return j - k - 1


READ_OFF_MUTATIONS = [_shift_reads_past_j, _read_from_the_row_above]


class TestWitness:
    def test_exact_witness_same_stratum(self):
        p = point(1, (1, 1), 0)
        q = point((2, 1), (-1, 7), 0)
        w = transitivity_witness(p, q)
        assert w is not None
        assert w.exact
        assert (w.stratum, w.residual) == (2, 0)

    def test_irrational_modulus_pair(self):
        # |q2 / p2| = sqrt(2) is irrational, and both certificates are
        # exact; the pair solve finds G = [[1+i, -(1+i)*eps], [0, 1+i]],
        # which maps (1, 1) to (0, 1+i)
        p = point(1, 1, 0)
        q = point(0, (1, 1), 0)
        w = transitivity_witness(p, q)
        assert w is not None and w.exact and w.residual == 0
        solved = pair_solve(p, q)
        assert solved.residual == 0
        assert (solved.diagonal, solved.shifts, solved.scale) \
            == ((1, 1), [(-1, -1)], 1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_read_off_matches_matrix_action(self, n):
        rng = random.Random(50 + n)
        for j in range(1, n + 1):
            for _ in range(3):
                coords = [G(Fraction(rng.randint(-5, 5), rng.randint(1, 6)),
                            Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
                          for _ in range(j)]
                if coords[-1].is_zero():
                    coords[-1] = G(Fraction(1, rng.randint(1, 6)), 1)
                p = ProjPoint(tuple(coords + [G(0)] * (n - j)))
                z, image = read_off_image(p, j)
                assert image == z

    @given(st.integers(2, 8).flatmap(lambda n: stratum_points(n=n)))
    @settings(max_examples=100, deadline=None)
    def test_read_off_matches_matrix_action_on_big_points(self, case):
        p, j = case
        z, image = read_off_image(p, j)
        assert image == z

    @given(point_pairs())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_the_pair_solve(self, case):
        p, q, same = case
        w, solved = transitivity_witness(p, q), pair_solve(p, q)
        if same:
            assert w.exact and (w.stratum, w.residual) == (stratum_of(p), 0)
            assert solved.residual == 0
        else:
            assert w is None and solved is None

    def test_witness_reads_only_the_zero_pattern(self):
        p = ProjPoint(tuple(ZeroPattern(z) for z in (False, False, True)))
        q = ProjPoint(tuple(ZeroPattern(z) for z in (True, False, True)))
        assert transitivity_witness(p, q).residual == 0
        r = ProjPoint(tuple(ZeroPattern(z) for z in (False, True, True)))
        assert transitivity_witness(p, r) is None

    @pytest.mark.parametrize("mutate", READ_OFF_MUTATIONS)
    def test_census_fails_under_a_wrong_read_off(self, monkeypatch, mutate):
        monkeypatch.setattr(orbits, "_read_off", mutate)
        rec = enumerate_strata(8)
        assert rec.status == FAIL
        assert rec.details["witness_failures"] == 8
        assert rec.details["max_residual"] == 2

    def test_read_off_identity_is_computed_once_per_process(self,
                                                            monkeypatch):
        # it depends on neither n nor j: two censuses of different n read
        # one computation
        calls = []
        read_off = orbits._read_off

        def counted(j, k):
            calls.append((j, k))
            return read_off(j, k)

        def refuse(p, q):
            raise AssertionError("the census called the pair solve")

        monkeypatch.setattr(orbits, "_read_off", counted)
        monkeypatch.setattr(reference, "pair_solve", refuse)
        assert enumerate_strata(8).status == PASS
        assert enumerate_strata(64).status == PASS
        assert len(calls) == 1
        assert orbits._READ_OFF_MISSES == 0

    def test_census_names_its_certificate(self):
        rec = enumerate_strata(3)
        assert rec.details["certificate"] == "read-off identity"

    def test_cross_stratum_is_none(self):
        assert transitivity_witness(point(1, 0, 0), point(1, 1, 0)) is None
        assert transitivity_witness(point(0, 1, 0), point(0, 0, 1)) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            transitivity_witness(point(1, 0), point(1, 0, 0))


def census_point(n, rng):
    """A point of a uniformly drawn stratum j: j random coordinates, the
    last redrawn while it is zero, then n - j zeros.  The census drew its
    sample points this way before it read each stratum at e_j alone."""
    j = rng.randint(1, n)
    coords = [random_gaussian(rng, 4, 4) for _ in range(j)]
    while coords[-1].is_zero():
        coords[-1] = random_gaussian(rng, 4, 4)
    return ProjPoint(tuple(coords) + (GaussianRational(),) * (n - j))


class TestCensus:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_census_passes(self, n):
        rec = enumerate_strata(n)
        assert rec.status == PASS, rec.details
        assert rec.details["dimensions"] == {
            str(j): 2 * j - 1 for j in range(1, n + 1)}

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_census_makes_2n_minus_1_witness_calls(self, n, monkeypatch):
        # per stratum the fixed pair e_j -> i*e_j, and the cross pair
        # (e_j, e_{j+1}) below the top stratum
        calls = []
        witness = orbits.transitivity_witness

        def counted(p, q):
            calls.append((stratum_of(p), stratum_of(q)))
            return witness(p, q)

        monkeypatch.setattr(orbits, "transitivity_witness", counted)
        assert enumerate_strata(n).status == PASS
        assert sorted(calls) == sorted(
            [(j, j) for j in range(1, n + 1)]
            + [(j, j + 1) for j in range(1, n)])

    def test_census_fails_when_a_cross_pair_is_reachable(self, monkeypatch):
        monkeypatch.setattr(orbits, "transitivity_witness",
                            lambda p, q: orbits.Witness(stratum_of(p), 0))
        rec = enumerate_strata(4)
        assert rec.status == FAIL
        assert rec.details["cross_failures"] == 3


class TestCensusDraws:
    """The second derivation of the census, from random points: every
    point lies in the stratum of its last nonzero coordinate, one of
    1..n, and a pair in one stratum is reachable by the pair solve."""

    @pytest.mark.parametrize("n, seed", [(2, 0), (4, 1), (8, 3), (8, 7)])
    def test_random_points_land_in_the_last_nonzero_stratum(self, n, seed):
        rng = random.Random(seed)
        seen = set()
        for _ in range(200):
            p = census_point(n, rng)
            last = max(m for m, c in enumerate(p.coords, 1)
                       if parts(c) != (0, 0))
            assert stratum_of(p) == last
            seen.add(last)
        assert seen == set(range(1, n + 1))

    @pytest.mark.parametrize("n, seed", [(2, 0), (4, 1), (8, 3), (8, 7)])
    def test_same_stratum_pairs_agree_with_the_pair_solve(self, n, seed):
        rng = random.Random(seed)
        buckets = {}
        for _ in range(60):
            p = census_point(n, rng)
            buckets.setdefault(stratum_of(p), []).append(p)
        for j, bucket in sorted(buckets.items()):
            for p, q in (rng.sample(bucket, 2) for _ in range(
                    5 if len(bucket) >= 2 else 0)):
                w, solved = transitivity_witness(p, q), pair_solve(p, q)
                assert (w.stratum, w.residual) == (j, 0)
                assert solved.residual == 0
            if j + 1 in buckets:
                p, q = bucket[0], buckets[j + 1][0]
                assert transitivity_witness(p, q) is None
                assert pair_solve(p, q) is None


def _cplx_apply_by_rows(diag, super_pairs, pairs):
    """The complexified action through the full matrix of algebra elements
    (a_k, b_k)*eps^k and CplxPairElement.act, entry by entry."""
    n = len(pairs)
    out = []
    for i in range(n):
        z_acc = w_acc = Scalar.zero()
        for j in range(i, n):
            e = CplxPairElement.diagonal(*diag) if j == i else \
                cplx_pair_times_eps_power(*super_pairs[j - i - 1], j - i)
            z, w = e.act(*pairs[j])
            z_acc, w_acc = z_acc + z, w_acc + w
        out.append((z_acc, w_acc))
    return out


def random_action(n, rng):
    """A diagonal pair, n - 1 shift pairs and n point pairs over plain
    Q(i)."""
    def gauss():
        return G(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                 Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

    return ((gauss(), gauss()), [(gauss(), gauss()) for _ in range(n - 1)],
            [(gauss(), gauss()) for _ in range(n)])


class TestComplexOrbits:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_last_two_rows_read_only_the_last_two_pairs(self, n):
        # _symbolic_zeta_check moves the tail alone: from the last two pairs and the first shift pair, it must
        # give the last two rows of the full element's image, formed
        # entry by entry through the matrix of algebra elements
        diag = (Scalar.var("t"), Scalar.var("tdual"))
        super_pairs = [(Scalar.var(f"A{k}"), Scalar.var(f"B{k}"))
                       for k in range(1, n)]
        pairs = [(Scalar.var(f"Z{j}"), Scalar.var(f"W{j}"))
                 for j in range(1, n + 1)]
        assert _move_tail(diag, super_pairs[0], pairs[-2:]) \
            == _cplx_apply_by_rows(diag, super_pairs, pairs)[-2:]
        # the tests move plain Q(i) tails too
        diag, super_pairs, pairs = random_action(n, random.Random(100 + n))
        lift = lambda pair: tuple(from_gauss(x) for x in pair)
        want = _cplx_apply_by_rows(lift(diag), [lift(p) for p in super_pairs],
                                   [lift(p) for p in pairs])
        assert _move_tail(diag, super_pairs[0], pairs[-2:]) == [
            (constant_value(z), constant_value(w)) for z, w in want[-2:]]

    def test_label_oracle_on_locus(self):
        assert ratio_label(((G(3), G(1)), (G(6), G(0)))) \
            == (Fraction(1, 2), 0)
        assert ratio_label(((G(1, 1), G(0)), (G(0, 2), G(0)))) \
            == (Fraction(1, 2), Fraction(-1, 2))

    def test_label_oracle_off_locus(self):
        assert ratio_label(((G(3), G(1)), (G(6), G(1)))) is None
        assert ratio_label(((G(3), G(1)), (G(0), G(0)))) is None

    @pytest.mark.parametrize("last", [(G(3, -1), G(0)), (G(3, -1), G(2, 1)),
                                      (G(0), G(2, 1)), (G(0), G(0))],
                             ids=["locus", "w_last", "z_last", "zero_pair"])
    def test_moved_tail_keeps_its_label_or_stays_off_the_locus(self, last):
        # the diagonal scales the last pair by invertible t and conj(t)^-1
        # and no shift reaches it, so a tail on the ratio locus keeps its
        # label and a tail off it stays off
        rng = random.Random(7)

        def unit():
            while True:
                t = random_gaussian(rng, 4, 3)
                if not t.is_zero():
                    return t

        tail = ((G(1, 2), G(-1, 1)), last)
        for _ in range(10):
            t = unit()
            moved = _move_tail((t, t.conjugate().inverse()), (unit(), unit()),
                               tail)
            assert ratio_label(moved) == ratio_label(tail)
        assert (ratio_label(tail) is None) == (last[0].is_zero()
                                               or not last[1].is_zero())

    def test_symbolic_invariance(self):
        assert _symbolic_zeta_check()

    def test_complex_orbit_check(self):
        labels = [G(k) for k in range(12)]
        rec = complex_orbit_check(3, labels)
        assert rec.status == PASS, rec.details
        assert rec.details == {"symbolic_invariance": True,
                               "distinct_labels": 12}

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_wrong_action_on_the_last_pair_fails(self, monkeypatch, n):
        # adds b_1 conj(z_{n-1}) to w_n: the tail-only checks must see it
        move = orbits._move_tail

        def broken(diag, shift, tail):
            out = move(diag, shift, tail)
            z, w = out[-1]
            out[-1] = (z, w + shift[1] * tail[-2][0].conjugate())
            return out

        monkeypatch.setattr(orbits, "_move_tail", broken)
        labels = [G(k, 1) for k in range(1, 5)]
        rec = complex_orbit_check(n, labels)
        assert rec.status == FAIL
        assert rec.details["symbolic_invariance"] is False

    def test_label_collision_fails(self):
        labels = [G(1), G(1)]
        rec = complex_orbit_check(2, labels)
        assert rec.status == FAIL
        assert rec.details["distinct_labels"] == "collision"

"""The integer rank kernel against sympy's exact ranks: generic ranks of
lam-polynomial matrices over Q(i)(lam), and orbit tangent ranks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invdist.orbits import ProjPoint, orbit_dimension
from invdist.scalars import GaussianRational, Scalar, \
    rank_over_function_field
from reference import lie_directions, parts

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

SYM_LAM = sympy.Symbol("lam")

gaussians = st.builds(
    lambda a, b, d: GaussianRational.of(Fraction(a, d), Fraction(b, d)),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4))
polys = st.builds(
    lambda cs: sum((Scalar.var("lam", k, c) for k, c in enumerate(cs)),
                   Scalar.zero()),
    st.lists(gaussians, max_size=3))


@st.composite
def lam_matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    m = [[draw(polys) for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and draw(st.booleans()):
        # a row in the Q(i)[lam]-span of the first two
        f, g = draw(polys), draw(polys)
        m[-1] = [f * a + g * b for a, b in zip(m[0], m[1])]
    return m


def _to_sympy(entry: Scalar):
    acc = sympy.Integer(0)
    for mono, c in entry.terms.items():
        power = dict(mono).get("lam", 0)
        re, im = parts(c)
        acc += (sympy.Rational(re.numerator, re.denominator)
                + sympy.I * sympy.Rational(im.numerator, im.denominator)
                ) * SYM_LAM ** power
    return acc


def _sympy_rank(matrix) -> int:
    m = sympy.Matrix([[_to_sympy(e) for e in row] for row in matrix])
    return DomainMatrix.from_Matrix(m).to_field().rank()


@given(lam_matrices())
@settings(max_examples=80, deadline=None)
def test_lam_rank_matches_sympy(matrix):
    assert rank_over_function_field(matrix) == _sympy_rank(matrix)


def _random_point(rng: random.Random, n: int, j: int) -> ProjPoint:
    big = lambda: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**9))
    coords = [GaussianRational(big(), big()) for _ in range(j)]
    while coords[-1].is_zero():
        coords[-1] = GaussianRational(big(), big())
    coords.extend([GaussianRational()] * (n - j))
    return ProjPoint(tuple(coords))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_orbit_dimension_matches_sympy_rank(n):
    rng = random.Random(n)
    for _ in range(6):
        j = rng.randint(1, n)
        p = _random_point(rng, n, j)
        directions = lie_directions(p)
        assert all(isinstance(x, int) for v in directions for x in v)
        rank = sympy.Matrix(directions).rank()
        assert orbit_dimension(p) == rank - 1 == 2 * j - 1

"""Exact rank: one fraction-free integer kernel.

``integer_rank`` is Bareiss elimination over Python ints, and
``rank_over_function_field`` certifies the generic rank over Q(i)(lam) of a
matrix of ``Scalar`` lam-polynomials by evaluation with it.  Both are
re-exported by ``scalars``.

The kernel reads a ``Scalar`` only through ``lam_coeffs``, so it needs
nothing from ``scalars`` and is a module of its own: CPython 3.11's parser
doubles its token array past 4096 tokens, so compiling a module that size
without a bytecode cache raises the peak memory by about 230 KB, and
``scalars`` stays below it.
"""

from __future__ import annotations

from math import lcm
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .scalars import Scalar

__all__ = ["integer_rank", "rank_over_function_field"]


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix, by Bareiss (1968) fraction-free
    elimination.

    Each step replaces the rows below the pivot by 2x2 cross products
    divided by the previous pivot; by Sylvester's identity every entry is
    then a minor of the input, so the division is exact and the numbers
    stay bounded by Hadamard's bound.  Rows that become zero are dropped.
    """
    active = [list(r) for r in rows if any(r)]
    rank, prev = 0, 1
    while active and active[0]:
        k = next((i for i, r in enumerate(active) if r[0]), None)
        if k is None:
            active = [r[1:] for r in active]
            continue
        pivot_row = active.pop(k)
        pivot, tail = pivot_row[0], pivot_row[1:]
        rank += 1
        active = [new for new in (
            [(pivot * x - r[0] * y) // prev for x, y in zip(r[1:], tail)]
            for r in active) if any(new)]
        prev = pivot
    return rank


def _horner(coeffs: Sequence[int], t: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def rank_over_function_field(matrix: Sequence[Sequence[Scalar]]) -> int:
    """Exact generic rank of a matrix of lam-polynomials over Q(i)(lam).

    Every minor is a polynomial in lam of degree at most D, the sum over
    rows of each row's largest lam-degree.  A nonzero minor vanishes at no
    more than D of the points lam = 0, 1, ..., D, and specialising lam never
    raises the rank, so the generic rank is the largest specialised rank
    over these D + 1 points.  Each specialised rank over Q(i) is half the
    integer rank of the realified matrix [[A, -B], [B, A]], with each row's
    denominators cleared.  Entries containing symbols other than lam are
    rejected.
    """
    rows = []
    degree = 0
    for row in matrix:
        coeffs = [entry.lam_coeffs() for entry in row]
        scale = lcm(*[c.den for cs in coeffs for c in cs])
        rows.append([([c.num_re * (scale // c.den) for c in cs],
                      [c.num_im * (scale // c.den) for c in cs])
                     for cs in coeffs])
        degree += max([0] + [len(cs) - 1 for cs in coeffs])
    if not rows:
        return 0
    full = min(len(rows), len(rows[0]))
    best = 0
    for t in range(degree + 1):
        if best == full:
            break
        realified = []
        for row in rows:
            re = [_horner(a, t) for a, _ in row]
            im = [_horner(b, t) for _, b in row]
            realified.append(re + [-x for x in im])
            realified.append(im + re)
        best = max(best, integer_rank(realified) // 2)
    return best

"""Exact rank of integer matrices."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from zgcentral.catalog import get_group
from zgcentral.linalg import integer_rank
from zgcentral.rank import verify_center_degree
from zgcentral.shoda import complete_irredundant_set


def fraction_rank(rows):
    """Reference rank: Gauss-Jordan elimination over Fractions."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda ncols: st.lists(
            st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
            max_size=6,
        )
    )
)
def test_integer_rank_matches_fraction_elimination(rows):
    assert integer_rank(rows) == fraction_rank(rows)


def test_integer_rank_scales_rows_with_zero_in_the_pivot_column():
    # after the pivot 2 the row [0, 0, 1] must become [0, 0, 2]; left
    # unscaled, the next step divides it by 2 down to 0
    assert integer_rank([[0, 1, 0], [0, 0, 1], [2, 0, 0]]) == 3


def test_center_degree_c50_full_pair():
    G = get_group("C50")
    pairs, complete = complete_irredundant_set(G)
    assert complete
    p = next(p for p in pairs if p.H.order == 50 and p.K.order == 1)
    assert verify_center_degree(G, p)

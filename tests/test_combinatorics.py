from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctx.combinatorics import MAX_ORDER, compositions, s_value, taylor_weights


class TestCompositions:
    def test_enumeration(self):
        assert compositions(3, 2) == ((1, 2), (2, 1))

    def test_empty_when_too_many_parts(self):
        assert compositions(2, 5) == ()
        assert compositions(0, 1) == ()
        assert compositions(3, 0) == ()

    def test_counts_match_stars_and_bars(self):
        for m in range(1, MAX_ORDER + 1):
            for i in range(1, m + 1):
                assert len(compositions(m, i)) == comb(m - 1, i - 1)

    def test_rejects_large_m(self):
        with pytest.raises(ValueError):
            compositions(MAX_ORDER + 1, 2)

    @given(st.integers(1, MAX_ORDER), st.integers(1, MAX_ORDER))
    def test_parts_positive_and_sum(self, m, i):
        for comp in compositions(m, i):
            assert len(comp) == i
            assert all(p >= 1 for p in comp)
            assert sum(comp) == m

    def test_lexicographic_and_distinct(self):
        for m in range(1, 9):
            for i in range(1, m + 1):
                comps = compositions(m, i)
                assert sorted(set(comps)) == list(comps)


class TestSValue:
    def test_single_part(self):
        assert s_value(1, 1, [3.0]) == 3.0

    def test_square(self):
        assert s_value(2, 2, [3.0, 7.0]) == 9.0

    def test_cross_term(self):
        # S_{3,2} = 2 X1 X2
        assert s_value(3, 2, [2.0, 5.0, 0.0]) == 20.0

    def test_entries_past_m_are_not_read(self):
        # S_{2,2} = X1^2 whatever follows X2 in the list
        assert s_value(2, 2, [2.0, 5.0, 7.0]) == 4.0

    def test_degenerate(self):
        assert s_value(2, 5, [1.0, 1.0]) == 0.0


def _s(m, i, vals):
    """S_{m,i} with the empty-sum/unit conventions used in the recursions."""
    if m == 0 and i == 0:
        return 1.0
    if m <= 0 or i <= 0 or i > m:
        return 0.0
    return s_value(m, i, vals)


class TestSplittingIdentities:
    # S_{m,i+2} = sum_l S_{l,3} S_{m-l,i-1}; S_{m,i+1} = sum_l S_{l,2} S_{m-l,i-1}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 8), st.integers(2, 8),
           st.lists(st.floats(-2, 2, allow_nan=False), min_size=8, max_size=8))
    def test_both_splittings(self, m, i, xs):
        vals = xs[:m]
        lhs3 = _s(m, i + 2, vals)
        rhs3 = sum(_s(l, 3, vals) * _s(m - l, i - 1, vals) for l in range(2, m))
        assert lhs3 == pytest.approx(rhs3, rel=1e-12, abs=1e-12)
        lhs2 = _s(m, i + 1, vals)
        rhs2 = sum(_s(l, 2, vals) * _s(m - l, i - 1, vals) for l in range(2, m))
        assert lhs2 == pytest.approx(rhs2, rel=1e-12, abs=1e-12)


class TestTaylorWeights:
    def test_first_order(self):
        assert taylor_weights(2, 1) == [((2,), Fraction(1, 1))]

    def test_second_order(self):
        assert taylor_weights(2, 2) == [((1, 1), Fraction(1, 2))]

    def test_order_four(self):
        terms = taylor_weights(4, 2)
        assert [c for c, _ in terms] == [(1, 3), (2, 2), (3, 1)]
        assert all(w == Fraction(1, 2) for _, w in terms)

    def test_degenerate_is_empty(self):
        assert taylor_weights(2, 5) == []

    def test_weights_are_inverse_factorials(self):
        for m in range(1, 7):
            for i in range(1, m + 1):
                for _, w in taylor_weights(m, i):
                    assert w == Fraction(1, factorial(i))

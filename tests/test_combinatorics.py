import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import scratch_log_table, weight_table_reference

from quditcv import combinatorics
from quditcv.combinatorics import (
    _count_table,
    _log_weight_table,
    enumerate_compositions,
    restricted_weight,
    restricted_weight_log,
)


def stream_weight(n_modes: int, total: int, cutoff: int) -> Fraction:
    # Independent oracle: brute-force the defining sum over compositions.
    acc = Fraction(0)
    for parts in enumerate_compositions(n_modes, total, cutoff):
        acc += Fraction(1, math.prod(math.factorial(r) for r in parts))
    return acc


def count_fractions(n_modes: int, cutoff: int) -> list[Fraction]:
    # W(N, k, d) = C_N(k) / k! from the integer word counts
    return [Fraction(c, math.factorial(k)) for k, c in enumerate(_count_table(n_modes, cutoff))]


@pytest.mark.parametrize("n, k, d", [(1, 0, 1), (4, 3, 2), (7, 10, 3), (3, 7, 2)])
def test_weight_is_the_table_fraction(n, k, d):
    value = restricted_weight(n, k, d)
    assert type(value) is Fraction
    assert value == (count_fractions(n, d)[k] if k <= n * d else 0)


@pytest.mark.parametrize("n", [1, 2, 7, 20])
def test_counts_are_ints_and_unit_cutoff_counts_are_permutations(n):
    for d in (1, 3):
        assert all(type(c) is int for c in _count_table(n, d))
    assert list(_count_table(n, 1)) == [math.perm(n, k) for k in range(n + 1)]


@pytest.mark.parametrize("n, d", [(7, 3), (12, 5), (20, 3), (60, 1), (6, 10)])
def test_weights_equal_the_fraction_dp(n, d):
    # the Fraction dynamic program the counts replaced: same values, same log bits
    for k, expected in enumerate(weight_table_reference(n, d)):
        assert restricted_weight(n, k, d) == expected
        log_expected = math.log(expected.numerator) - math.log(expected.denominator)
        assert restricted_weight_log(n, k, d).hex() == log_expected.hex()


def test_no_photons_has_unit_weight():
    assert restricted_weight(5, 0, 3) == 1


def test_unit_cutoff_recovers_binomials():
    for n in range(1, 21):
        for k in range(0, n + 1):
            assert restricted_weight(n, k, 1) == math.comb(n, k)


def test_two_photons_two_modes():
    # (2,0) and (0,2) contribute 1/2 each, (1,1) contributes 1.
    assert restricted_weight(2, 2, 2) == 2


def test_below_cutoff_matches_multinomial():
    for n in range(1, 9):
        for d in range(1, 7):
            for k in range(0, d + 1):
                expected = Fraction(n**k, math.factorial(k))
                assert restricted_weight(n, k, d) == expected


def test_float_view():
    assert float(restricted_weight(7, 3, 1)) == 35.0


@given(
    n=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=0, max_value=40),
    d=st.integers(min_value=1, max_value=5),
)
def test_zero_exactly_above_capacity(n, k, d):
    value = restricted_weight(n, k, d)
    assert (value == 0) == (k > n * d)
    assert value >= 0


@given(
    n=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=0, max_value=20),
    d=st.integers(min_value=1, max_value=6),
)
def test_monotone_in_cutoff(n, k, d):
    assert restricted_weight(n, k, d + 1) >= restricted_weight(n, k, d)


@given(
    n=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=0, max_value=18),
    d=st.integers(min_value=1, max_value=5),
)
def test_denominator_divides_factorial_power(n, k, d):
    den = restricted_weight(n, k, d).denominator
    assert math.factorial(d) ** n % den == 0


@settings(max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=5),
    k=st.integers(min_value=0, max_value=12),
    d=st.integers(min_value=1, max_value=4),
)
def test_enumeration_stream_matches_dp(n, k, d):
    assert stream_weight(n, k, d) == restricted_weight(n, k, d)


def test_enumeration_order_and_content():
    assert list(enumerate_compositions(2, 2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(enumerate_compositions(3, 0, 1)) == [(0, 0, 0)]
    assert list(enumerate_compositions(2, 3, 1)) == []


@given(
    n=st.integers(min_value=1, max_value=5),
    k=st.integers(min_value=0, max_value=10),
    d=st.integers(min_value=1, max_value=4),
)
def test_compositions_are_valid_and_distinct(n, k, d):
    seen = list(enumerate_compositions(n, k, d))
    assert len(seen) == len(set(seen))
    for parts in seen:
        assert len(parts) == n
        assert sum(parts) == k
        assert all(0 <= r <= d for r in parts)


@pytest.mark.parametrize("bad", [(0, 1, 1), (3, 1, 0), (-2, 0, 2)])
def test_domain_rejection(bad):
    n, k, d = bad
    with pytest.raises(ValueError):
        restricted_weight(n, k, d)


def test_negative_photons_rejected():
    with pytest.raises(ValueError):
        restricted_weight(3, -1, 2)


def test_log_matches_exact_values():
    assert restricted_weight_log(7, 3, 1) == pytest.approx(math.log(35), rel=1e-12)
    assert restricted_weight_log(1, 4, 5) == pytest.approx(-math.log(24), rel=1e-12)
    assert restricted_weight_log(2, 2, 2) == pytest.approx(math.log(2), rel=1e-12)


def test_log_zero_weight_raises():
    with pytest.raises(ValueError, match="weight is zero"):
        restricted_weight_log(2, 3, 1)


@pytest.mark.parametrize("n,d", [(13, 5), (30, 3), (8, 9)])
def test_log_dp_agrees_with_exact_beyond_limit(n, d):
    # These sit past the exact-log threshold, so the float DP is exercised
    # and cross-checked against the (slower) exact rational table.
    assert n * d > 60
    for k in range(0, n * d + 1, 7):
        value = restricted_weight(n, k, d)
        expected = math.log(value.numerator) - math.log(value.denominator)
        assert restricted_weight_log(n, k, d) == pytest.approx(expected, rel=1e-9)


@pytest.fixture
def empty_table_caches(monkeypatch):
    monkeypatch.setattr(combinatorics, "_TABLES", {})


@pytest.mark.parametrize("order", [(7, 3, 12), (12, 7, 3), (3, 7, 12), (5, 5, 1)])
@pytest.mark.parametrize("d", [1, 4])
def test_grown_tables_equal_tables_built_from_scratch(empty_table_caches, order, d):
    for n in order:
        assert count_fractions(n, d) == weight_table_reference(n, d)
        grown = _log_weight_table(n, d)
        assert grown.tobytes() == scratch_log_table(n, d).tobytes()
    # one table of each kind is kept, the last one requested, and a repeat returns it
    last, tables = order[-1], combinatorics._TABLES
    assert set(tables) == {combinatorics._add_mode_count, combinatorics._add_mode_log}
    for add_mode, build in ((combinatorics._add_mode_count, _count_table),
                            (combinatorics._add_mode_log, _log_weight_table)):
        assert tables[add_mode][:2] == (d, last)
        assert build(last, d) is tables[add_mode][2]


def test_a_new_d_replaces_the_kept_tables(empty_table_caches):
    # one table of each kind is kept: a request at another d starts from N = 0, same bytes
    for n, d in ((7, 4), (12, 1), (5, 4), (30, 4), (3, 2)):
        assert count_fractions(n, d) == weight_table_reference(n, d)
        assert _log_weight_table(n, d).tobytes() == scratch_log_table(n, d).tobytes()
        assert [value[:2] for value in combinatorics._TABLES.values()] == [(d, n)] * 2


@pytest.mark.parametrize("n, d", [(60, 1), (20, 3), (6, 10), (1, 40), (2, 30)])
@pytest.mark.parametrize("steps", [lambda n: (n,), lambda n: range(1, n + 1),
                                   lambda n: (n, max(1, n // 3), n)],
                         ids=["at-once", "mode-by-mode", "down-and-up"])
def test_count_tables_grown_in_any_order_equal_the_scratch_dp(empty_table_caches, n, d, steps):
    for m in steps(n):
        assert all(type(c) is int for c in _count_table(m, d))
    assert count_fractions(n, d) == weight_table_reference(n, d)


def test_thousand_mode_log_table_builds_by_iteration(empty_table_caches):
    table = _log_weight_table(1000, 1)
    assert len(table) == 1001
    for k in (0, 1, 250, 500, 1000):
        assert table[k] == pytest.approx(math.log(math.comb(1000, k)), rel=1e-12, abs=1e-12)


def test_log_tables_are_read_only_arrays():
    table = _log_weight_table(9, 7)
    assert isinstance(table, np.ndarray) and table.dtype == np.float64
    with pytest.raises(ValueError):
        table[0] = 1.0


@pytest.mark.parametrize("order", [(61, 100, 7), (100, 61), (7, 13, 30)])
@pytest.mark.parametrize("d", [1, 2, 10, 17])
def test_log_tables_past_the_exact_limit_equal_the_scratch_dp(empty_table_caches, order, d):
    # the r = 0 pass is a copy and the others run in place: same bytes as the plain DP
    for n in order:
        if n * d > 60:
            assert _log_weight_table(n, d).tobytes() == scratch_log_table(n, d).tobytes()


def _no_table(*args):
    raise AssertionError("a table was built for a request past the budget")


@pytest.mark.parametrize("n, d", [(1001, 1), (501, 2), (1, 1001), (10**4 + 1, 1)])
def test_exact_weight_refuses_past_its_budget_before_any_table(n, d, monkeypatch):
    monkeypatch.setattr(combinatorics, "_count_table", _no_table)
    with pytest.raises(ValueError, match=r"^budget exceeded: N\*d = \d+ passes the 1000 "):
        restricted_weight(n, 1, d)


def test_exact_weight_serves_its_budget(monkeypatch):
    monkeypatch.setattr(combinatorics, "_count_table", lambda n, d: (1,) * (n * d + 1))
    assert combinatorics.EXACT_BUDGET == 1000
    assert restricted_weight(1000, 3, 1) == restricted_weight(10, 3, 100) == Fraction(1, 6)


@pytest.mark.parametrize("n, d", [(20000, 1), (10**4 + 1, 1), (101, 100), (1, 10**4 + 1)])
def test_log_weight_refuses_past_its_budget_before_any_table(n, d, monkeypatch):
    monkeypatch.setattr(combinatorics, "_log_weight_table", _no_table)
    with pytest.raises(ValueError, match=r"^budget exceeded: N\*d = \d+ passes the 10000 "):
        restricted_weight_log(n, 3, d)


def test_log_weight_serves_its_budget(monkeypatch):
    monkeypatch.setattr(combinatorics, "_log_weight_table", lambda n, d: np.zeros(n * d + 1))
    assert combinatorics.PHOTON_BUDGET == 10**4
    assert restricted_weight_log(10**4, 3, 1) == restricted_weight_log(100, 3, 100) == 0.0

import math
from fractions import Fraction

import pytest

from dexpseries import series
from dexpseries.series import (
    closed_form_series,
    coefficient,
    degree,
    denominator,
    recurrence_series,
    series_table,
    table_to_csv,
    table_to_json,
    word_factorial,
    words_of_degree,
    words_up_to_degree,
)

# The thirteen terms of degree <= 6 with their exact coefficients.
CORNERSTONE_TABLE = {
    (): Fraction(1),
    (0,): Fraction(1, 6),
    (1,): Fraction(1, 12),
    (2,): Fraction(1, 40),
    (0, 0): Fraction(1, 120),
    (3,): Fraction(1, 180),
    (1, 0): Fraction(1, 180),
    (0, 1): Fraction(1, 360),
    (4,): Fraction(1, 1008),
    (2, 0): Fraction(1, 504),
    (1, 1): Fraction(1, 504),
    (0, 2): Fraction(1, 1680),
    (0, 0, 0): Fraction(1, 5040),
}


def test_degree():
    assert degree(()) == 0
    assert degree((2, 0, 1)) == 9
    assert degree((0, 0, 0)) == 6


def test_word_factorial():
    assert word_factorial(()) == 1
    assert word_factorial((2, 0, 1)) == 2
    assert word_factorial((4,)) == 24


def test_denominator_spot_values():
    assert denominator(()) == 1
    assert denominator((2, 0, 1)) == 32400
    assert denominator((0, 0, 0)) == 5040


def test_denominator_recurrence_recomputed():
    # c(nu) == degree*(degree+1)*c(tail) for every word of degree <= 9
    for nu in words_up_to_degree(9):
        if not nu:
            continue
        m = degree(nu)
        assert denominator(nu) == m * (m + 1) * denominator(nu[1:])


def test_denominator_all_zero_words():
    for k in range(7):
        nu = (0,) * k
        assert denominator(nu) == math.factorial(2 * k + 1)
        assert coefficient(nu) == Fraction(1, math.factorial(2 * k + 1))


def test_coefficient_spot_values():
    assert coefficient((0,)) == Fraction(1, 6)
    assert coefficient((0, 2)) == Fraction(1, 1680)
    assert coefficient(()) == Fraction(1)


def test_coefficients_positive_and_bounded():
    for nu in words_up_to_degree(10):
        c = coefficient(nu)
        assert 0 < c <= 1


def test_words_of_degree():
    assert words_of_degree(0) == [()]
    assert words_of_degree(1) == []
    assert set(words_of_degree(4)) == {(2,), (0, 0)}
    sizes = [len(words_of_degree(n)) for n in range(7)]
    assert sizes == [1, 0, 1, 1, 2, 3, 5]
    assert sum(sizes) == 13


def test_words_enumeration_order():
    # length ascending, then lexicographic by entries
    assert words_of_degree(6) == [(4,), (0, 2), (1, 1), (2, 0), (0, 0, 0)]


def test_rejects_negative_entries():
    with pytest.raises(ValueError):
        degree((1, -2))


def test_closed_form_series_small():
    assert closed_form_series(0) == {(): Fraction(1)}
    assert closed_form_series(3) == {
        (): Fraction(1),
        (0,): Fraction(1, 6),
        (1,): Fraction(1, 12),
    }


def test_closed_form_series_degree_six_matches_reference_table():
    assert closed_form_series(6) == CORNERSTONE_TABLE


def test_recurrence_series_small():
    assert recurrence_series(1) == {(): Fraction(1)}
    assert recurrence_series(2) == {(): Fraction(1), (0,): Fraction(1, 6)}


def test_recurrence_matches_closed_form_up_to_twelve():
    for n in range(13):
        assert recurrence_series(n) == closed_form_series(n)


def test_series_homogeneous_components():
    s = closed_form_series(6)
    assert {nu: c for nu, c in s.items() if degree(nu) == 1} == {}
    assert {nu: c for nu, c in s.items() if degree(nu) == 4} == {
        (2,): Fraction(1, 40), (0, 0): Fraction(1, 120)}


def test_series_table_rows():
    rows = series_table(closed_form_series(2))
    assert rows == [((), 0, Fraction(1)), ((0,), 2, Fraction(1, 6))]
    assert len(series_table(closed_form_series(6))) == 13
    assert len(series_table(closed_form_series(0))) == 1


def test_table_csv_and_json():
    rows = series_table(closed_form_series(4))
    text = table_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "word,degree,numerator,denominator"
    assert lines[1] == "[],0,1,1"
    assert "[0],2,1,6" in lines
    blob = table_to_json(rows)
    assert blob["rows"][0] == {"word": [], "degree": 0, "numerator": 1, "denominator": 1}
    by_word = {tuple(r["word"]): r for r in blob["rows"]}
    assert by_word[(0, 0)]["denominator"] == 120


def test_word_count_growth():
    # word counts per degree follow a Fibonacci-type law: a_n = a_0 + ... + a_{n-2}
    counts = [len(words_of_degree(n)) for n in range(13)]
    for n in range(2, 13):
        assert counts[n] == sum(counts[: n - 1])
    assert sum(counts) == 233


def test_module_alias():
    assert series.degree((0,)) == 2

"""Exact combinatorics of the operator Taylor series.

The transported differential of the exponential map expands into a series of
non-commuting curvature operators.  Each term is indexed by a *word*: a finite
tuple of nonnegative integers (n_1, ..., n_k), standing for the composition of
the degree-(n_j + 2) curvature operators, left to right.  The empty word ()
stands for the identity.

A word nu = (n_1, ..., n_k) carries three integer invariants:

* degree(nu)        = 2k + sum(n_j)   -- the homogeneity degree in the velocity
* word_factorial(nu) = prod(n_j!)
* denominator(nu)   = degree(nu) * (degree(nu) + 1) * denominator(nu[1:]),
                      with denominator(()) = 1

and contributes the exact coefficient 1 / (word_factorial * denominator).

Everything in this module is exact integer/Fraction arithmetic; floating point
only enters once the words are evaluated on a concrete manifold.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

from .polyjet import monomial_count, monomial_exponents

Word = tuple[int, ...]


def _check_word(nu) -> Word:
    nu = tuple(int(n) for n in nu)
    if any(n < 0 for n in nu):
        raise ValueError(f"word entries must be nonnegative, got {nu}")
    return nu


def degree(nu: Word) -> int:
    """Homogeneity degree 2k + sum(n_j) of a k-entry word; 0 for the empty word."""
    nu = _check_word(nu)
    return 2 * len(nu) + sum(nu)


def word_factorial(nu: Word) -> int:
    """Product of the entry factorials; 1 for the empty word."""
    nu = _check_word(nu)
    out = 1
    for n in nu:
        out *= math.factorial(n)
    return out


def denominator(nu: Word) -> int:
    """Value of the suffix recurrence c = degree*(degree+1)*c(tail), c(()) = 1.

    Computed iteratively over suffixes, shortest first.
    """
    nu = _check_word(nu)
    c = 1
    for i in range(len(nu) - 1, -1, -1):
        m = degree(nu[i:])
        c *= m * (m + 1)
    return c


def coefficient(nu: Word) -> Fraction:
    """Exact series coefficient 1 / (word_factorial(nu) * denominator(nu))."""
    nu = _check_word(nu)
    return Fraction(1, word_factorial(nu) * denominator(nu))


def words_of_degree(n: int) -> list[Word]:
    """All words of the given degree, ordered by length then lexicographically:
    the k-entry words are the degree-(n - 2k) exponent tuples in k variables."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return [()]
    out: list[Word] = []
    for k in range(1, n // 2 + 1):
        t = n - 2 * k
        out.extend(map(tuple, monomial_exponents(k, t)[monomial_count(k, t - 1):].tolist()))
    return out


def words_up_to_degree(n: int) -> list[Word]:
    """Words of degree <= n, ordered by degree, then length, then lexicographically."""
    out: list[Word] = []
    for m in range(n + 1):
        out.extend(words_of_degree(m))
    return out


def closed_form_series(max_degree: int) -> dict[Word, Fraction]:
    """The series from the closed-form coefficient rule, truncated at max_degree,
    as a word -> coefficient dict (every coefficient is nonzero)."""
    return {nu: coefficient(nu) for nu in words_up_to_degree(max_degree)}


def recurrence_series(max_degree: int) -> dict[Word, Fraction]:
    """The same series built from the homogeneous-component recurrence.

    Degree components start from E_0 = identity, E_1 = 0; for n >= 2 the degree-n
    component is 1/(n(n+1)) * sum over m of (1/m!) times the degree-(n-m-2)
    component with the symbol m prepended to each of its words.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    components: list[dict[Word, Fraction]] = [{(): Fraction(1)}, {}]
    for n in range(2, max_degree + 1):
        comp: dict[Word, Fraction] = {}
        scale = Fraction(1, n * (n + 1))
        for m in range(0, n - 1):
            fm = Fraction(1, math.factorial(m))
            for mu, c in components[n - m - 2].items():
                nu = (m,) + mu
                comp[nu] = comp.get(nu, Fraction(0)) + scale * fm * c
        components.append(comp)
    terms: dict[Word, Fraction] = {}
    for comp in components[: max_degree + 1]:
        terms.update(comp)
    return terms


def series_table(terms: dict[Word, Fraction]) -> list[tuple[Word, int, Fraction]]:
    """Rows (word, degree, coefficient) sorted by degree, then length, then entries."""
    rows = [(nu, degree(nu), c) for nu, c in terms.items()]
    rows.sort(key=lambda row: (row[1], len(row[0]), row[0]))
    return rows


def _format_word(nu: Word) -> str:
    return "[" + ",".join(str(n) for n in nu) + "]"


def table_to_csv(rows: list[tuple[Word, int, Fraction]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["word", "degree", "numerator", "denominator"])
    for nu, deg, c in rows:
        writer.writerow([_format_word(nu), deg, c.numerator, c.denominator])
    return buf.getvalue()


def table_to_json(rows: list[tuple[Word, int, Fraction]]) -> dict:
    return {
        "rows": [
            {
                "word": list(nu),
                "degree": deg,
                "numerator": c.numerator,
                "denominator": c.denominator,
            }
            for nu, deg, c in rows
        ]
    }

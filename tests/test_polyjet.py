import string

import numpy as np
import pytest

import dexpseries.polyjet
from dexpseries.polyjet import (
    PolyTensor,
    _diff_table,
    contract,
    monomial_count,
    monomial_exponents,
    product_table,
    quotient_table,
)


def poly_eval(p, xi):
    """The truncated polynomial p at chart offset xi from its base point."""
    weights = np.prod(np.asarray(xi, dtype=float) ** monomial_exponents(p.dim, p.degree), axis=1)
    return np.tensordot(weights, p.data, axes=(0, 0))


def poly_from_dict(dim, degree, coeffs):
    """Build a scalar PolyTensor from {exponent_tuple: value}."""
    exps = monomial_exponents(dim, degree)
    lookup = {tuple(e): i for i, e in enumerate(exps)}
    out = PolyTensor.zeros(dim, degree, ())
    for e, c in coeffs.items():
        out.data[lookup[e]] = c
    return out


def brute_eval(coeffs, xi):
    return sum(c * np.prod(np.asarray(xi, float) ** np.array(e)) for e, c in coeffs.items())


def test_monomial_counts_and_prefix_property():
    assert monomial_count(3, 0) == 1
    assert monomial_count(3, 2) == 10
    assert monomial_count(2, 3) == 10
    full = monomial_exponents(3, 5)
    for k in range(6):
        prefix = monomial_exponents(3, k)
        assert np.array_equal(full[: monomial_count(3, k)], prefix)


def test_exponent_degrees_sorted():
    exps = monomial_exponents(4, 6)
    totals = exps.sum(axis=1)
    assert np.all(np.diff(totals) >= 0)
    assert totals.max() == 6


def test_eval_matches_brute_force():
    rng = np.random.default_rng(0)
    coeffs = {tuple(e): rng.normal() for e in monomial_exponents(3, 4)}
    p = poly_from_dict(3, 4, coeffs)
    for _ in range(5):
        xi = rng.normal(size=3) * 0.3
        assert poly_eval(p, xi) == pytest.approx(brute_eval(coeffs, xi), rel=1e-12)


def test_diff_matches_brute_force():
    rng = np.random.default_rng(1)
    coeffs = {tuple(e): rng.normal() for e in monomial_exponents(2, 5)}
    p = poly_from_dict(2, 5, coeffs)
    dp = p.diff(0)
    assert dp.degree == 4
    # compare against a central difference of eval at a generic offset
    xi = np.array([0.12, -0.3])
    h = 1e-6
    fd = (poly_eval(p, xi + [h, 0]) - poly_eval(p, xi - [h, 0])) / (2 * h)
    # drop the degree-5 part of p before comparing: its derivative lives in dp
    # exactly, so evaluate dp directly instead
    assert poly_eval(dp, xi) == pytest.approx(fd, rel=1e-6)


def test_diff_of_constant_is_zero():
    p = PolyTensor.zeros(3, 0, (3,))
    p.data[0] = [1.0, 2.0, 3.0]
    dp = p.diff(1)
    assert dp.degree == 0
    assert np.array_equal(dp.data, np.zeros_like(dp.data))


def test_contract_scalar_product_matches_polynomial_multiplication():
    rng = np.random.default_rng(2)
    ca = {tuple(e): rng.normal() for e in monomial_exponents(2, 3)}
    cb = {tuple(e): rng.normal() for e in monomial_exponents(2, 3)}
    a = poly_from_dict(2, 3, ca)
    b = poly_from_dict(2, 3, cb)
    prod = contract(",->", a, b, degree=3)
    # brute-force convolution truncated at degree 3
    expected = {}
    for ea, va in ca.items():
        for eb, vb in cb.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            if sum(e) <= 3:
                expected[e] = expected.get(e, 0.0) + va * vb
    want = poly_from_dict(2, 3, expected)
    assert np.allclose(prod.data, want.data, atol=1e-13)


def test_contract_tensor_slots():
    rng = np.random.default_rng(3)
    A = PolyTensor(2, 1, rng.normal(size=(3, 2, 2)))
    B = PolyTensor(2, 1, rng.normal(size=(3, 2, 2)))
    C = contract("ij,jk->ik", A, B, degree=1)
    xi = np.array([0.05, -0.02])
    # evaluation differs from the product of evaluations only by the dropped
    # degree-2 cross terms, which are O(|xi|^2)
    direct = poly_eval(A, xi) @ poly_eval(B, xi)
    remainder = np.linalg.norm(A.data[1:]) * np.linalg.norm(B.data[1:]) * np.sum(np.abs(xi)) ** 2
    assert np.linalg.norm(poly_eval(C, xi) - direct) <= remainder
    # exact at the base point
    assert np.allclose(C.value, A.value @ B.value, atol=1e-14)
    # exact first derivatives (product rule)
    for var in range(2):
        want = A.diff(var).value @ B.value + A.value @ B.diff(var).value
        assert np.allclose(C.diff(var).value, want, atol=1e-13)


def reference_contract(subscripts, a, b, degree):
    """The per-row loop: each row of a scatters its products with b through the product table."""
    a, b = a.truncate(degree), b.truncate(degree)
    lhs, out_sub = subscripts.split("->")
    a_sub, b_sub = lhs.split(",")
    mono = next(c for c in string.ascii_letters if c not in subscripts)
    stage_sub = f"{a_sub},{mono}{b_sub}->{mono}{out_sub}"
    out = PolyTensor.zeros(a.dim, degree, np.einsum(stage_sub, a.data[0], b.data[:0]).shape[1:])
    table = product_table(a.dim, a.degree, b.degree, degree)
    for i in range(a.data.shape[0]):
        idx = table[i]
        valid = idx >= 0
        out.data[idx[valid]] += np.einsum(stage_sub, a.data[i], b.data[valid])
    return out


# scalar slots, a matrix product, and the three forms of geometry's tower
CONTRACT_FORMS = [",->", "ij,jk->ik", "lxm,myz->lxyz", "uam,mbcd->uabcd", "mac,ubmd->uabcd"]


def random_factors(subscripts, dim, deg_a, deg_b, rng):
    """Random PolyTensors for the two factors, every tensor axis of size dim."""
    a_sub, b_sub = subscripts.split("->")[0].split(",")
    a = PolyTensor(dim, deg_a, rng.normal(size=(monomial_count(dim, deg_a),) + (dim,) * len(a_sub)))
    b = PolyTensor(dim, deg_b, rng.normal(size=(monomial_count(dim, deg_b),) + (dim,) * len(b_sub)))
    return a, b


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("subscripts", CONTRACT_FORMS)
def test_contract_matches_the_per_row_loop(subscripts, dim):
    rng = np.random.default_rng([dim, len(subscripts)])
    # equal degrees, a.degree != b.degree either way, and degree below the safe one
    for deg_a, deg_b, degree in [(3, 3, 3), (4, 2, 2), (2, 3, 2), (3, 3, 1), (2, 4, 0)]:
        a, b = random_factors(subscripts, dim, deg_a, deg_b, rng)
        got = contract(subscripts, a, b, degree)
        want = reference_contract(subscripts, a, b, degree)
        assert got.degree == degree and got.data.shape == want.data.shape
        assert np.max(np.abs(got.data - want.data)) <= 1e-15 * np.max(np.abs(want.data))


@pytest.mark.parametrize("subscripts", CONTRACT_FORMS[2:])
def test_contract_blocks_agree_with_one_block(monkeypatch, subscripts):
    a, b = random_factors(subscripts, 3, 4, 4, np.random.default_rng(5))
    whole = contract(subscripts, a, b)
    blocks = []
    einsum = np.einsum
    monkeypatch.setattr(dexpseries.polyjet, "CHUNK_BYTES", 300)
    monkeypatch.setattr(np, "einsum", lambda *args, **kw: blocks.append(kw) or einsum(*args, **kw))
    split = contract(subscripts, a, b)
    monkeypatch.undo()
    assert len([kw for kw in blocks if kw.get("optimize")]) == 35  # one output row per block
    assert np.max(np.abs(split.data - whole.data)) <= 1e-15 * np.max(np.abs(whole.data))


@pytest.mark.parametrize("subscripts", CONTRACT_FORMS)
def test_contract_adds_into_a_given_out(subscripts):
    a, b = random_factors(subscripts, 3, 3, 3, np.random.default_rng(9))
    product = contract(subscripts, a, b, 2).data
    start = np.random.default_rng(10).normal(size=product.shape)
    out = start.copy()
    assert contract(subscripts, a, b, 2, out=out).data is out
    assert np.array_equal(out, start + product)


def test_contract_rejects_uncovered_degree():
    a = PolyTensor.zeros(2, 2, ())
    b = PolyTensor.zeros(2, 1, ())
    with pytest.raises(ValueError):
        contract(",->", a, b, degree=2)


def test_truncate():
    rng = np.random.default_rng(4)
    p = PolyTensor(2, 3, rng.normal(size=(10, 2)))
    q = p.truncate(1)
    assert q.degree == 1 and q.data.shape == (3, 2)
    assert np.array_equal(q.data, p.data[:3])
    with pytest.raises(ValueError):
        p.truncate(5)


def test_product_table_symmetry():
    t = product_table(2, 2, 2, 4)
    exps = monomial_exponents(2, 2)
    lookup = {tuple(e): i for i, e in enumerate(monomial_exponents(2, 4))}
    for i, a in enumerate(exps):
        for j, b in enumerate(exps):
            assert t[i, j] == lookup[tuple(a + b)]


def reference_product_table(dim, deg_a, deg_b, deg_out):
    """The plain double loop over exponent pairs."""
    lookup = {tuple(e): i for i, e in enumerate(monomial_exponents(dim, deg_out))}
    ea, eb = monomial_exponents(dim, deg_a), monomial_exponents(dim, deg_b)
    table = np.full((len(ea), len(eb)), -1, dtype=np.int64)
    for i, a in enumerate(ea):
        for j, b in enumerate(eb):
            table[i, j] = lookup.get(tuple(a + b), -1)
    return table


@pytest.mark.parametrize("args", [(1, 3, 2, 5), (2, 3, 3, 6), (3, 2, 2, 4), (3, 4, 2, 3),
                                  (4, 3, 3, 2), (3, 2, 1, 7), (2, 0, 0, 0), (5, 3, 3, 6),
                                  (40, 1, 1, 2)],
                         ids=lambda a: "-".join(map(str, a)))
def test_product_table_matches_reference_loop(args):
    # includes deg_out below and above deg_a + deg_b, and a case whose
    # mixed-radix keys exceed int64 (3**40)
    table = product_table(*args)
    assert table.dtype == np.int64
    assert np.array_equal(table, reference_product_table(*args))


def reference_quotient_table(dim, deg_a, deg_b, deg_out):
    """The plain double loop over output and divisor exponents."""
    lookup = {tuple(e): i for i, e in enumerate(monomial_exponents(dim, deg_a))}
    eo, eb = monomial_exponents(dim, deg_out), monomial_exponents(dim, deg_b)
    table = np.full((len(eo), len(eb)), -1, dtype=np.int64)
    for k, e in enumerate(eo):
        for j, f in enumerate(eb):
            table[k, j] = lookup.get(tuple(e - f), -1)
    return table


@pytest.mark.parametrize("args", [(1, 3, 2, 5), (2, 3, 3, 6), (2, 2, 1, 2), (3, 4, 2, 3),
                                  (4, 3, 3, 2), (3, 2, 1, 7), (2, 0, 0, 0), (5, 3, 3, 6),
                                  (40, 1, 1, 2)],
                         ids=lambda a: "-".join(map(str, a)))
def test_quotient_table_matches_reference_loop(args):
    # (2, 2, 1, 2) and (3, 4, 2, 3): differences of radix keys at base deg_out + 1
    # borrow into valid keys, e.g. (0, 1) - (1, 0) at base 3 is the key of (2, 0)
    table = quotient_table(*args)
    assert table.dtype == np.int64
    assert np.array_equal(table, reference_quotient_table(*args))
    with pytest.raises(ValueError):
        table[0, 0] = 5


def reference_lowering_table(dim, degree):
    """The plain loop over monomials and variables."""
    exps = monomial_exponents(dim, degree)
    lookup = {tuple(e): i for i, e in enumerate(exps)}
    table = np.full((dim, len(exps)), -1, dtype=np.int64)
    for m, e in enumerate(exps):
        for a in range(dim):
            if e[a] > 0:
                lowered = list(e)
                lowered[a] -= 1
                table[a, m] = lookup[tuple(lowered)]
    return table


@pytest.mark.parametrize("args", [(1, 0), (3, 0), (1, 5), (2, 6), (3, 4), (4, 3), (6, 2),
                                  (40, 2)],
                         ids=lambda a: "-".join(map(str, a)))
def test_lowering_table_matches_reference_loop(args):
    # the row of e - 1_a is quotient column dim - a; (40, 2) has mixed-radix keys past
    # int64 (4**40)
    dim, degree = args
    table = quotient_table(dim, degree, 1, degree)
    assert table.dtype == np.int64
    assert np.array_equal(table[:, :0:-1].T, reference_lowering_table(*args))
    with pytest.raises(ValueError):
        table[0, 0] = 5


@pytest.mark.parametrize("dim, degree", [(1, 4), (2, 5), (3, 3), (4, 2)])
def test_diff_table_is_the_lowering_table_with_exponent_factors(dim, degree):
    exps = monomial_exponents(dim, degree)
    lower = {tuple(e): i for i, e in enumerate(monomial_exponents(dim, degree - 1))}
    for var in range(dim):
        src, dst, fac = _diff_table(dim, degree, var)
        want = [(i, lower[tuple(e - np.eye(dim, dtype=int)[var])], float(e[var]))
                for i, e in enumerate(exps) if e[var] > 0]
        assert list(zip(src.tolist(), dst.tolist(), fac.tolist())) == want

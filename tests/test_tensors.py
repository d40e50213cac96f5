import json

import numpy as np
import pytest

from dexpseries.tensors import DenseTensor, LinearOperator, contract_leading


def brute_force_contract(components, v, p, n):
    """Index-loop oracle: contract v into the first n covariant slots."""
    out_rank = components.ndim - n
    d = components.shape[0]
    out = np.zeros((d,) * out_rank)
    for idx in np.ndindex(*components.shape):
        weight = 1.0
        for s in range(n):
            weight *= v[idx[p + s]]
        out_idx = idx[:p] + idx[p + n:]
        out[out_idx] += weight * components[idx]
    return out


def reference_contract(tensor, v, n):
    """The np.tensordot loop that contract_leading used before its batched matmul."""
    comps = tensor.components
    for _ in range(n):
        comps = np.tensordot(comps, v, axes=([tensor.contravariant], [0]))
    return comps


@pytest.mark.parametrize("d,covariant", [(2, 6), (3, 5), (4, 4)])
@pytest.mark.parametrize("contravariant", [0, 1])
def test_contract_leading_matches_tensordot_loop(d, covariant, contravariant):
    # the matmul sums each slot in another order, so allow rounding: 1e-15 of
    # the largest entry of the reference result
    rng = np.random.default_rng(100 * d + contravariant)
    T = DenseTensor(contravariant, covariant, rng.normal(size=(d,) * (contravariant + covariant)))
    v = rng.normal(size=d)
    for n in range(covariant + 1):
        got = contract_leading(T, v, n)
        want = reference_contract(T, v, n)
        assert (got.contravariant, got.covariant) == (contravariant, covariant - n)
        assert got.components.shape == want.shape
        assert np.max(np.abs(got.components - want)) <= 1e-15 * np.max(np.abs(want))


def test_contract_leading_empty():
    rng = np.random.default_rng(0)
    T = DenseTensor(1, 3, rng.normal(size=(2, 2, 2, 2)))
    out = contract_leading(T, np.array([1.0, 2.0]), 0)
    assert out.covariant == 3
    assert np.array_equal(out.components, T.components)


def test_contract_leading_identity_gives_vector():
    T = DenseTensor(1, 1, np.eye(3))
    v = np.array([1.0, -2.0, 0.5])
    out = contract_leading(T, v, 1)
    assert out.contravariant == 1 and out.covariant == 0
    assert np.allclose(out.components, v)


@pytest.mark.parametrize("p,q,n", [(1, 3, 2), (1, 3, 3), (0, 4, 2), (2, 3, 3)])
def test_contract_leading_against_loop_oracle(p, q, n):
    rng = np.random.default_rng(42)
    d = 2
    T = DenseTensor(p, q, rng.normal(size=(d,) * (p + q)))
    v = np.array([1.0, 2.0])
    out = contract_leading(T, v, n)
    expected = brute_force_contract(T.components, v, p, n)
    assert np.allclose(out.components, expected, atol=1e-13)


def test_contract_leading_oracle_d3():
    rng = np.random.default_rng(7)
    d = 3
    T = DenseTensor(1, 4, rng.normal(size=(d,) * 5))
    v = rng.normal(size=d)
    for n in range(5):
        got = contract_leading(T, v, n).components
        want = brute_force_contract(T.components, v, 1, n)
        assert np.allclose(got, want, atol=1e-12)


def test_contract_leading_multilinearity():
    rng = np.random.default_rng(3)
    T = DenseTensor(1, 3, rng.normal(size=(3, 3, 3, 3)))
    v = rng.normal(size=3)
    a = 2.0
    for n in range(4):
        scaled = contract_leading(T, a * v, n).components
        base = contract_leading(T, v, n).components
        assert np.allclose(scaled, a**n * base, rtol=1e-13, atol=1e-13)


def test_contract_leading_rejects_bad_input():
    T = DenseTensor(1, 1, np.eye(2))
    with pytest.raises(ValueError, match="nonnegative"):
        contract_leading(T, np.array([1.0, 2.0]), -1)
    with pytest.raises(ValueError, match="cannot contract 2"):
        contract_leading(T, np.array([1.0, 2.0]), 2)
    with pytest.raises(ValueError, match="does not match dimension"):
        contract_leading(T, np.array([1.0, 2.0, 3.0]), 1)
    with pytest.raises(ValueError, match="does not match dimension"):
        contract_leading(T, np.ones((2, 1)), 1)
    huge = DenseTensor(1, 3, np.full((2, 2, 2, 2), 1e300))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
        contract_leading(huge, np.array([1e300, 1e300]), 2)


def test_dense_tensor_validation():
    with pytest.raises(ValueError):
        DenseTensor(1, 1, np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        DenseTensor(1, 1, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        DenseTensor(1, 2, np.zeros((2, 2)))


def test_apply():
    w = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(LinearOperator(np.eye(3)).apply(w), w)
    assert np.array_equal(LinearOperator.zero(3).apply(w), np.zeros(3))
    rng = np.random.default_rng(9)
    A = LinearOperator(rng.normal(size=(3, 3)))
    expected = np.array([sum(A.matrix[i, j] * w[j] for j in range(3)) for i in range(3)])
    assert np.allclose(A.apply(w), expected)
    with pytest.raises(ValueError):
        A.apply(np.ones(4))


def test_operator_arithmetic():
    A = LinearOperator(np.array([[1.0, 0.0], [0.0, 2.0]]))
    B = LinearOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose((2.0 * A).matrix, [[2.0, 0.0], [0.0, 4.0]])
    assert np.allclose((B * 3.0).matrix, [[0.0, 3.0], [3.0, 0.0]])


def test_json_roundtrip():
    # the operator blob of the CLI artifacts survives JSON text exactly
    A = LinearOperator(np.random.default_rng(1).normal(size=(3, 3)))
    blob = json.loads(json.dumps(A.to_json()))
    assert blob["dimension"] == 3
    assert np.array_equal(np.array(blob["matrix"]), A.matrix)

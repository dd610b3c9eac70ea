import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamid import (
    matrix_from_json,
    matrix_to_json,
    spec_norm,
    split_log,
    unitary_exp,
    unitary_log,
)
from hamid.linalg import TargetDecomposition, decompose_target, require_unitary

from helpers import SIGMA_X, haar_unitary


def test_spec_norm_diagonal():
    assert spec_norm(np.diag([1.0, -3.0])) == pytest.approx(3.0)


def test_spec_norm_zero():
    assert spec_norm(np.zeros((3, 3))) == 0.0


def test_spec_norm_hadamard():
    # eigenvalues of the 2x2 Hadamard matrix are +-1
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert spec_norm(h) == pytest.approx(1.0, abs=1e-14)


def test_spec_norm_rejects_nonsquare():
    with pytest.raises(ValueError):
        spec_norm(np.ones((2, 3)))


def test_spec_norm_is_a_norm_on_hermitian(rng):
    for _ in range(20):
        d = int(rng.integers(2, 7))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = a + a.conj().T
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = b + b.conj().T
        c = rng.normal()
        assert spec_norm(a + b) <= spec_norm(a) + spec_norm(b) + 1e-12
        assert spec_norm(c * a) == pytest.approx(abs(c) * spec_norm(a), rel=1e-12)


def test_unitary_log_identity():
    m = unitary_log(np.eye(3, dtype=complex))
    assert spec_norm(m) < 1e-12


def test_unitary_log_diagonal_phases():
    theta = 0.3
    u = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    m = unitary_log(u)
    np.testing.assert_allclose(m, np.diag([1j * theta, -1j * theta]), atol=1e-14)


def test_unitary_log_sigma_x_branch():
    # the pi eigenphase must come out positive
    m = unitary_log(SIGMA_X)
    expected = 0.5j * np.pi * np.array([[1.0, -1.0], [-1.0, 1.0]])
    np.testing.assert_allclose(m, expected, atol=1e-12)
    np.testing.assert_allclose(unitary_exp(m), SIGMA_X, atol=1e-12)


def test_unitary_log_rejects_nonunitary():
    with pytest.raises(ValueError):
        unitary_log(np.diag([2.0, 1.0]).astype(complex))


def test_non_finite_matrices_rejected():
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        require_unitary(nan)
    with pytest.raises(ValueError, match="non-finite"):
        TargetDecomposition(s=nan, a=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        TargetDecomposition(s=np.eye(2), a=np.array([[0.0, np.inf], [-np.inf, 0.0]]))


def test_roundtrip_haar(rng):
    for d in range(2, 13):
        u = haar_unitary(d, rng)
        m = unitary_log(u)
        np.testing.assert_allclose(m, -m.conj().T, atol=1e-13)
        assert spec_norm(unitary_exp(m) - u) < 1e-10


def test_roundtrip_degenerate_spectrum():
    # repeated eigenvalues need a unitary diagonalization path
    rng = np.random.default_rng(7)
    q = haar_unitary(4, rng)
    u = q @ np.diag(np.exp(1j * np.array([0.4, 0.4, 0.4, -1.1]))) @ q.conj().T
    m = unitary_log(u)
    assert np.max(np.abs(m + m.conj().T)) < 1e-12
    assert spec_norm(unitary_exp(m) - u) < 1e-10


def test_log_phases_in_principal_branch(rng):
    for _ in range(10):
        u = haar_unitary(6, rng)
        m = unitary_log(u)
        k = np.linalg.eigvalsh(-1j * m)  # eigenphases of the log
        assert np.all(k > -np.pi) and np.all(k <= np.pi + 1e-12)


_NEAR_CUT = st.one_of(
    st.just(np.pi),
    st.floats(min_value=np.pi - 1e-12, max_value=np.pi),
    st.floats(min_value=-np.pi, max_value=-np.pi + 1e-12),
)


@settings(max_examples=60, deadline=None)
@given(
    cut=_NEAR_CUT,
    others=st.lists(st.one_of(_NEAR_CUT, st.floats(min_value=-3.0, max_value=3.0)), max_size=3),
    rotate=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_log_exp_round_trip_at_branch_cut_property(cut, others, rotate, seed):
    # eigenphases within 1e-12 of +-pi, or exactly pi: the log's phases lie
    # in (-pi, pi], a phase near -pi being snapped to exactly pi, and exp(log U)
    # returns U to 1e-10.  A diagonal U has a diagonal log whose phases are
    # read exactly; a rotated one's are read back by an eigensolver, which
    # adds its own round-off (1e-13 allows for it)
    phases = np.array([cut, *others])
    d = phases.size
    q = haar_unitary(d, np.random.default_rng(seed)) if rotate else np.eye(d)
    u = (q * np.exp(1j * phases)) @ q.conj().T
    m = unitary_log(u)
    k = np.linalg.eigvalsh(-1j * m)
    assert np.all(k > -np.pi) and np.all(k <= np.pi + (1e-13 if rotate else 0.0))
    assert spec_norm(unitary_exp(m) - u) <= 1e-10


def test_split_log_zero():
    dec = split_log(np.zeros((2, 2), dtype=complex))
    assert np.all(dec.s == 0) and np.all(dec.a == 0)


def test_split_log_sigma_x_target():
    dec = split_log(unitary_log(SIGMA_X))
    np.testing.assert_allclose(dec.s, 0.5 * np.pi * np.array([[1, -1], [-1, 1]]), atol=1e-12)
    np.testing.assert_allclose(dec.a, 0.0, atol=1e-13)


def test_split_log_pure_antisymmetric():
    m = np.array([[0.0, 0.2], [-0.2, 0.0]], dtype=complex)
    dec = split_log(m)
    np.testing.assert_allclose(dec.s, 0.0, atol=1e-14)
    np.testing.assert_allclose(dec.a, np.array([[0.0, 0.2], [-0.2, 0.0]]), atol=1e-14)


def test_split_log_recombination(rng):
    for _ in range(10):
        u = haar_unitary(5, rng)
        m = unitary_log(u)
        dec = split_log(m)
        np.testing.assert_allclose(1j * dec.s + dec.a, m, atol=1e-12)


def test_split_log_rejects_hermitian():
    with pytest.raises(ValueError):
        split_log(np.eye(2, dtype=complex))


def test_unitary_exp_examples():
    np.testing.assert_allclose(unitary_exp(np.zeros((2, 2))), np.eye(2), atol=1e-15)
    m = 0.5j * np.pi * np.array([[1.0, -1.0], [-1.0, 1.0]])
    np.testing.assert_allclose(unitary_exp(m), SIGMA_X, atol=1e-12)
    d = np.diag([0.25j * np.pi, -0.25j * np.pi])
    np.testing.assert_allclose(
        unitary_exp(d), np.diag(np.exp([0.25j * np.pi, -0.25j * np.pi])), atol=1e-14
    )


def test_unitary_exp_output_unitary(rng):
    for _ in range(5):
        s = rng.normal(size=(4, 4))
        s = s + s.T
        a = rng.normal(size=(4, 4))
        a = a - a.T
        u = unitary_exp(1j * s + a)
        require_unitary(u, tol=1e-12)


def test_decompose_target_roundtrip(rng):
    u = haar_unitary(4, rng)
    dec = decompose_target(u)
    assert spec_norm(unitary_exp(1j * dec.s + dec.a) - u) < 1e-10


def test_matrix_json_roundtrip(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    payload = matrix_to_json(m)
    assert payload["dim"] == 3 and "im" in payload
    np.testing.assert_allclose(matrix_from_json(payload), m)
    r = rng.normal(size=(2, 2))
    payload = matrix_to_json(r)
    assert "im" not in payload
    np.testing.assert_allclose(matrix_from_json(payload), r)

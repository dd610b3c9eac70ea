import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamid import (
    matrix_to_json,
    spec_norm,
    unitary_exp,
    unitary_log,
)
import hamid.linalg
from hamid.linalg import TargetDecomposition, decompose_target, require_unitary, spec_norms

from helpers import ROOT, SIGMA_X, haar_unitary, run_python, unitary_log_schur


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


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=12),
    is_complex=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_spec_norm_matches_numpy_norm_property(d, is_complex, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-8, 8)
    if is_complex:
        m = m + 1j * rng.normal(size=(d, d))
    assert spec_norm(m) == float(np.linalg.norm(m, 2))


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


@settings(max_examples=60, deadline=None)
@given(
    cases=st.lists(
        st.tuples(st.integers(min_value=1, max_value=5), st.booleans(), st.booleans()),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_spec_norms_match_spec_norm_property(cases, seed):
    # one batched SVD per dtype and shape makes the LAPACK call a single
    # matrix's SVD makes: the same bits, in any mix of sizes 1..5, real and
    # complex matrices and zero ones
    rng = np.random.default_rng(seed)
    ms = []
    for d, is_complex, is_zero in cases:
        m = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-8, 8)
        if is_complex:
            m = m + 1j * rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-8, 8)
        ms.append(np.zeros_like(m) if is_zero else m)
    norms = spec_norms(*ms)
    assert all(type(x) is float for x in norms)
    singles = [abs(m[0, 0]) if m.size == 1 else np.linalg.svd(m, compute_uv=False)[0] for m in ms]
    assert [x.hex() for x in norms] == [float(x).hex() for x in singles]


def test_spec_norms_refuses_nonsquare():
    with pytest.raises(ValueError, match="must be square"):
        spec_norms(np.eye(2), np.ones((2, 3)))


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


def test_require_unitary_refuses_empty_operator():
    # an empty operator is vacuously finite; its unitarity defect ended in
    # an IndexError from the spectral norm, which did not name it
    with pytest.raises(ValueError, match=r"^target operator must be at least 1 x 1, got shape \(0, 0\)"):
        require_unitary(np.zeros((0, 0)), "target operator")
    # the spectral norms of an empty matrix raised that IndexError too
    with pytest.raises(ValueError, match=r"^spec_norms input 0 must be at least 1 x 1, got shape \(0, 0\)"):
        spec_norm(np.zeros((0, 0)))
    with pytest.raises(ValueError, match=r"^spec_norms input 1 must be at least 1 x 1, got shape \(0, 0\)"):
        spec_norms(np.eye(2), np.zeros((0, 0)))


def test_non_finite_matrices_rejected():
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        require_unitary(nan)
    with pytest.raises(ValueError, match="non-finite"):
        TargetDecomposition(s=nan, a=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        TargetDecomposition(s=np.eye(2), a=np.array([[0.0, np.inf], [-np.inf, 0.0]]))


@pytest.mark.parametrize(
    "s, a, name",
    [
        (np.array([[0.0, 1j], [-1j, 0.0]]), np.zeros((2, 2)), "S"),
        (np.eye(2), np.array([[0.0, 1j], [-1j, 0.0]]), "A"),
        (np.eye(2) + 1e-3j * np.eye(2), np.zeros((2, 2)), "S"),
    ],
)
def test_complex_parts_refused(s, a, name):
    # a float cast would keep the real part and drop the rest with only a warning
    with pytest.raises(ValueError, match=f"{name} must be real"):
        TargetDecomposition(s=s, a=a)


@pytest.mark.parametrize("dtype", [complex, np.complex64, float, np.float32, int])
def test_real_values_of_any_dtype_accepted(dtype):
    # a complex dtype whose imaginary parts are all zero is a real value;
    # a float64 array comes back as it is
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = hamid.linalg.require_real_array(m.astype(dtype), "m")
    assert out.dtype == np.float64 and out.flags.c_contiguous
    np.testing.assert_array_equal(out, m)
    assert hamid.linalg.require_real_array(m, "m") is m


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


# Phases within 1e-12 of +-pi for the oracle property.  The -pi side stops
# at half the snap width: a phase on the snap boundary itself may be read as
# just inside by one eigensolver and just outside by another, and the two
# logs, both valid, then differ by 2*pi along that eigenvector.
_CUT_SIDES = st.one_of(
    st.just(np.pi),
    st.floats(min_value=np.pi - 1e-12, max_value=np.pi),
    st.floats(min_value=-np.pi, max_value=-np.pi + 0.5e-12),
)


@st.composite
def _spectra(draw):
    """1 to 12 eigenphases: fresh ones in [-3, 3], ones within 1e-12 of
    +-pi, exact repeats of earlier ones, and clusters within 1e-9 of earlier
    ones away from the cut (a cluster straddling the cut has no well-
    conditioned log)."""
    phases = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kinds = ("fresh", "cut", "repeat", "cluster") if phases else ("fresh", "cut")
        kind = draw(st.sampled_from(kinds))
        if kind == "fresh":
            phase = draw(st.floats(min_value=-3.0, max_value=3.0))
        elif kind == "cut":
            phase = draw(_CUT_SIDES)
        else:
            phase = draw(st.sampled_from(phases))
            if kind == "cluster" and abs(phase) <= 3.0:
                phase += draw(st.floats(min_value=-1e-9, max_value=1e-9))
        phases.append(phase)
    return np.array(phases)


@settings(max_examples=150, deadline=None)
@given(phases=_spectra(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_log_matches_schur_oracle_property(phases, seed):
    # the numpy-only log is exactly anti-Hermitian, has its phases in
    # (-pi, pi] (read back by an eigensolver, which adds 1e-13 of its own),
    # and agrees with the Schur log to 1e-12 in the spectral norm
    q = haar_unitary(phases.size, np.random.default_rng(seed))
    u = (q * np.exp(1j * phases)) @ q.conj().T
    m = unitary_log(u)
    assert np.array_equal(m, -m.conj().T)
    k = np.linalg.eigvalsh(-1j * m)
    assert np.all(k > -np.pi) and np.all(k <= np.pi + 1e-13)
    assert spec_norm(m - unitary_log_schur(u)) <= 1e-12


def test_split_log_zero():
    dec = decompose_target(np.eye(2, dtype=complex))
    assert np.all(dec.s == 0) and np.all(dec.a == 0)


def test_split_log_sigma_x_target():
    dec = decompose_target(SIGMA_X)
    np.testing.assert_allclose(dec.s, 0.5 * np.pi * np.array([[1, -1], [-1, 1]]), atol=1e-12)
    np.testing.assert_allclose(dec.a, 0.0, atol=1e-13)


def test_split_log_pure_antisymmetric():
    m = np.array([[0.0, 0.2], [-0.2, 0.0]], dtype=complex)
    dec = decompose_target(unitary_exp(m))
    np.testing.assert_allclose(dec.s, 0.0, atol=1e-14)
    np.testing.assert_allclose(dec.a, np.array([[0.0, 0.2], [-0.2, 0.0]]), atol=1e-14)


def test_split_log_recombination(rng):
    # S and A are the parts of unitary_log's m, bit for bit
    for _ in range(10):
        u = haar_unitary(5, rng)
        m = unitary_log(u)
        dec = decompose_target(u)
        assert np.array_equal(1j * dec.s + dec.a, m)


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
    # "re" and "im" hold the parts as nested lists; a real matrix has no "im"
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    payload = matrix_to_json(m)
    assert sorted(payload) == ["dim", "im", "re"] and payload["dim"] == 3
    assert payload["re"] == m.real.tolist() and payload["im"] == m.imag.tolist()
    r = rng.normal(size=(2, 2))
    assert matrix_to_json(r) == {"dim": 2, "re": r.tolist()}
    assert matrix_to_json(r.astype(complex)) == {"dim": 2, "re": r.tolist()}


# scipy made unimportable: a continuation run and the singularity demo, the
# two kinds that take a log, still write their outputs
NUMPY_ONLY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from hamid.experiments import ExperimentConfig, run_experiment

for kind in ("continuation-two-level", "singularity-demo"):
    cfg = ExperimentConfig(kind=kind, n_steps=200, out_dir=f"{sys.argv[1]}/{kind}")
    result = run_experiment(cfg)
    assert all(f.is_file() for f in result.files), kind
    print(kind, result.summary)
"""


def test_newton_and_sweep_leave_scipy_linalg_unloaded():
    # nothing in hamid imports scipy: a Newton solve, a sweep, a target log
    # and a continuation all run without scipy.linalg; the same script
    # checks that the continuation loads no OpenSSL or process pool, and the
    # serial sweep no numpy.random, secrets, OpenSSL, process pool or numpy.ma
    assert run_python(str(ROOT / "tools" / "footprint.py")).strip() == "footprint: ok"


def test_log_kinds_run_without_scipy(tmp_path):
    out = run_python("-c", NUMPY_ONLY_SCRIPT, str(tmp_path)).splitlines()
    assert [line.split()[0] for line in out] == ["continuation-two-level", "singularity-demo"]
    assert "'flag': 'converged'" in out[0] and "'stages': 21" in out[0]
    assert "'numerical_rank': 3" in out[1]

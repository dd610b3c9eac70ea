import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamid import (
    DoubleWellParams,
    PerturbationSpec,
    SpatialGrid,
    TimeGrid,
    TwoLevelParams,
    build_double_well,
    double_well_potential,
    perturb_pair,
    pi_pulse_field,
    propagate_final,
    sample_field,
    spec_norm,
    two_level_model,
)
from hamid.models import PICOSECOND_AU, _uniform_draws

from helpers import perturb_pair_numpy, random_pair

# frozen from an independent finite-difference eigensolver (tridiagonal
# discretization at 8191/16383 interior points, Richardson extrapolated)
ORACLE_ENERGIES = np.array(
    [
        -0.253706049158,
        -0.191854939078,
        -0.184772722113,
        -0.133491369758,
        -0.126864811607,
        -0.079413478551,
        -0.073372581362,
        -0.031398189751,
        -0.026010969245,
        0.003887186615,
        0.017450583186,
        0.041671666569,
    ]
)
ORACLE_OMEGA_03 = 0.120214679400
ORACLE_MU_03 = 0.004258585545
# stationary points of r^4 - r^2 - r/20 from a scalar root finder
WELL_LEFT = -0.694258731
BARRIER_TOP_R = -0.025031368
WELL_RIGHT = 0.719290098
BARRIER_TOP_V = 0.000625392
# levels v >= 9 lie above the barrier top; margin documented with the fixture
SPECTRUM_MARGIN = 0.05


def test_two_level_defaults():
    p = TwoLevelParams()
    pair, fld = two_level_model(p)
    np.testing.assert_allclose(pair.h0, np.diag([0.0, 1e-7]))
    np.testing.assert_allclose(pair.h1, [[0.0, 1.0], [1.0, 0.0]])
    assert fld.e0 == pytest.approx(2 * np.pi / 9000.0)
    assert fld.skew == 0.0


def test_two_level_zero_detuning():
    pair, _ = two_level_model(TwoLevelParams(delta=0.0))
    assert spec_norm(pair.h0) == 0.0


def test_two_level_pulse_area():
    # default amplitude integrates to a Rabi area of pi: mu * int E = pi / 2
    p = TwoLevelParams()
    _, fld = two_level_model(p)
    grid = TimeGrid(p.t_f, 20000)
    area = p.mu * sample_field(fld, grid).sum() * grid.dt
    assert area == pytest.approx(np.pi / 2, rel=1e-6)


def test_two_level_resonant_inversion():
    # delta * t_f << 1 and pi-area pulse: full population transfer
    p = TwoLevelParams()
    pair, fld = two_level_model(p)
    grid = TimeGrid(p.t_f, 2000)
    u_n = propagate_final(np.eye(2, dtype=complex), pair, sample_field(fld, grid), grid)
    assert abs(u_n[1, 0]) ** 2 >= 0.999


def test_picosecond_conversion():
    assert 2.0 * PICOSECOND_AU == pytest.approx(82682.7466704, rel=1e-9)


def test_potential_well_geometry():
    r = np.array([WELL_LEFT, BARRIER_TOP_R, WELL_RIGHT])
    dv = 4 * r**3 - 2 * r - 0.05
    np.testing.assert_allclose(dv, 0.0, atol=1e-7)
    # the linear tilt makes the right well the deeper one
    assert double_well_potential(WELL_RIGHT) < double_well_potential(WELL_LEFT)
    assert double_well_potential(BARRIER_TOP_R) == pytest.approx(BARRIER_TOP_V, abs=1e-9)


def test_double_well_matches_oracle():
    model = build_double_well(DoubleWellParams())
    np.testing.assert_allclose(model.eigenenergies, ORACLE_ENERGIES, atol=2e-9)
    assert model.omega_03 == pytest.approx(ORACLE_OMEGA_03, abs=2e-9)
    assert model.mu_03 == pytest.approx(ORACLE_MU_03, abs=2e-8)


def test_double_well_structure():
    model = build_double_well(DoubleWellParams())
    pair = model.pair
    assert pair.dim == 12
    # H0 diagonal of increasing energies
    np.testing.assert_allclose(pair.h0, np.diag(model.eigenenergies), atol=0.0)
    assert np.all(np.diff(model.eigenenergies) > 0)
    # H1 symmetric with exactly zero diagonal
    np.testing.assert_array_equal(np.diag(pair.h1), np.zeros(12))
    assert np.max(np.abs(pair.h1 - pair.h1.T)) == 0.0
    assert model.mu_03 == pair.h1[0, 3]
    # spectrum stays below the barrier top plus the documented margin
    assert np.all(model.eigenenergies < BARRIER_TOP_V + SPECTRUM_MARGIN)


def test_double_well_grid_refinement():
    base = build_double_well(DoubleWellParams())
    fine = build_double_well(DoubleWellParams(grid=SpatialGrid(n_points=1027)))
    assert np.max(np.abs(base.eigenenergies - fine.eigenenergies)) < 1e-9


def test_double_well_eigenbasis_orthonormal():
    # recompute the eigenvectors the same way the builder does and check the
    # grid Gram matrix
    from hamid.models import _sine_basis_hamiltonian

    p = DoubleWellParams()
    x, ham = _sine_basis_hamiltonian(p)
    _, vecs = np.linalg.eigh(ham)
    gram = vecs[:, :12].T @ vecs[:, :12]
    assert spec_norm(gram - np.eye(12)) < 1e-10


def test_double_well_dipole_symmetric_before_zeroing():
    from hamid.models import _sine_basis_hamiltonian

    p = DoubleWellParams()
    x, ham = _sine_basis_hamiltonian(p)
    _, vecs = np.linalg.eigh(ham)
    phi = vecs[:, :12]
    dipole = (phi.T * (0.5 * x)) @ phi
    assert np.max(np.abs(dipole - dipole.T)) < 1e-10
    # the asymmetric well has nonzero diagonal dipole elements, which the
    # model zeroes to stay inside the solver's search space
    assert np.max(np.abs(np.diag(dipole))) > 1e-2


def test_double_well_narrow_grid_rejected():
    with pytest.raises(ValueError):
        build_double_well(DoubleWellParams(grid=SpatialGrid(r_min=-1.0, r_max=1.0)))


def test_double_well_param_validation():
    with pytest.raises(ValueError):
        DoubleWellParams(n_levels=1)
    with pytest.raises(ValueError):
        DoubleWellParams(n_levels=12, grid=SpatialGrid(n_points=40))
    with pytest.raises(ValueError):
        SpatialGrid(r_min=1.0, r_max=-1.0)


def test_pi_pulse_field_values():
    model = build_double_well(DoubleWellParams())
    fld = pi_pulse_field(model)
    t_f = model.params.t_f
    assert fld.amplitude == pytest.approx(2 * np.pi / (t_f * model.mu_03))
    assert fld.carrier_freq == model.omega_03
    t = np.array([0.0, t_f / 8.0])
    vals = fld.values(t, t_f)
    assert vals[0] == 0.0
    assert abs(vals[1]) == pytest.approx(
        fld.amplitude * abs(np.cos(model.omega_03 * t_f / 8)), rel=1e-12
    )


def test_pi_pulse_population_transfer_short():
    # same pulse on a shorter window (0.2 ps) so the fast suite can afford
    # full carrier resolution; the transfer physics is t_f-invariant, and
    # t_f is not in the Hamiltonian
    model = build_double_well(DoubleWellParams(t_f=0.2 * PICOSECOND_AU))
    fld = pi_pulse_field(model)
    grid = TimeGrid(model.params.t_f, 2**17)
    u_n = propagate_final(
        np.eye(12, dtype=complex), model.pair, sample_field(fld, grid), grid
    )
    assert abs(u_n[3, 0]) ** 2 >= 0.95


@pytest.mark.slow
def test_pi_pulse_population_transfer_full():
    # full 2 ps pulse at the default carrier-resolving step count
    from hamid.models import DOUBLE_WELL_DEFAULT_STEPS

    model = build_double_well(DoubleWellParams())
    fld = pi_pulse_field(model)
    grid = TimeGrid(model.params.t_f, DOUBLE_WELL_DEFAULT_STEPS)
    u_n = propagate_final(
        np.eye(12, dtype=complex), model.pair, sample_field(fld, grid), grid
    )
    assert abs(u_n[3, 0]) ** 2 >= 0.95


def test_perturb_pair_eta_zero(rng):
    pair = random_pair(3, rng)
    out = perturb_pair(pair, PerturbationSpec(eta=0.0, seed=4))
    np.testing.assert_array_equal(out.h0, pair.h0)
    np.testing.assert_array_equal(out.h1, pair.h1)


def test_perturb_pair_deterministic(rng):
    pair = random_pair(4, rng)
    a = perturb_pair(pair, PerturbationSpec(eta=1e-3, seed=42))
    b = perturb_pair(pair, PerturbationSpec(eta=1e-3, seed=42))
    np.testing.assert_array_equal(a.h0, b.h0)
    np.testing.assert_array_equal(a.h1, b.h1)
    c = perturb_pair(pair, PerturbationSpec(eta=1e-3, seed=43))
    assert np.max(np.abs(c.h0 - a.h0)) > 0


def test_perturb_pair_structure(rng):
    pair = random_pair(5, rng)
    eta = 3e-4
    out = perturb_pair(pair, PerturbationSpec(eta=eta, seed=11))
    dh0 = (out.h0 - pair.h0) / eta
    dh1 = (out.h1 - pair.h1) / eta
    assert np.max(np.abs(dh0)) <= 1.0 and np.max(np.abs(dh1)) <= 1.0
    np.testing.assert_allclose(dh0, dh0.T, atol=1e-15)
    np.testing.assert_allclose(dh1, dh1.T, atol=1e-15)
    np.testing.assert_allclose(np.diag(dh1), 0.0, atol=1e-16)
    # uniform draws are almost surely nonzero everywhere off the constraints
    assert np.min(np.abs(dh0)) > 0


def test_perturbation_negative_eta_rejected():
    with pytest.raises(ValueError):
        PerturbationSpec(eta=-1.0, seed=0)


def test_perturbation_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed"):
        PerturbationSpec(eta=1e-3, seed=-1)
    with pytest.raises(ValueError):
        _uniform_draws(-1, 3)


# seeds spread over 0..2**130 and packed around the 32-bit word boundaries
# that change how many words SeedSequence mixes into its pool
_WORD_EDGES = st.builds(
    lambda bits, offset: max(0, (1 << bits) + offset),
    st.sampled_from([32, 64, 96, 128]),
    st.integers(min_value=-3, max_value=3),
)
_SEEDS = st.one_of(
    st.integers(min_value=0, max_value=2**130),
    st.integers(min_value=0, max_value=5000),
    _WORD_EDGES,
    st.integers(min_value=0, max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=2**64 - 1).map(np.uint64),
)


@settings(max_examples=400, deadline=None)
@given(seed=_SEEDS, n=st.integers(min_value=0, max_value=64))
def test_uniform_draws_are_numpy_stream_property(seed, n):
    expected = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    got = _uniform_draws(seed, n)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", range(1, 7))
def test_perturb_pair_matches_numpy_oracle(d, rng):
    pair = random_pair(d, rng)
    for seed in (0, 1, 7, 2**32, 12345678901234567890):
        spec = PerturbationSpec(eta=3e-3, seed=seed)
        got, expected = perturb_pair(pair, spec), perturb_pair_numpy(pair, spec)
        assert got.h0.tobytes() == expected.h0.tobytes()
        assert got.h1.tobytes() == expected.h1.tobytes()

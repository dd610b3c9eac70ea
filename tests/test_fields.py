import numpy as np
import pytest

from hamid import (
    PiPulse,
    SinSqEnvelope,
    TimeGrid,
    field_to_config,
    sample_field,
)


def test_grid_basics():
    grid = TimeGrid(t_f=9000.0, n_steps=2000)
    assert grid.dt == pytest.approx(4.5)
    mids = grid.midpoints()
    assert mids.shape == (2000,)
    assert mids[0] == pytest.approx(2.25)
    assert abs(grid.dt * grid.n_steps - grid.t_f) < 1e-12 * grid.t_f


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(t_f=-1.0, n_steps=10)
    with pytest.raises(ValueError):
        TimeGrid(t_f=1.0, n_steps=0)
    for n_steps in (2.5, 4.0, True, "4"):
        with pytest.raises(ValueError, match="n_steps must be a positive integer"):
            TimeGrid(t_f=1.0, n_steps=n_steps)
    assert TimeGrid(t_f=1.0, n_steps=np.int64(4)).dt == 0.25


def test_sin_sq_first_midpoint():
    # t_f = 2, N = 2: first midpoint t = 0.5, value  0.5 * sin^2(pi/4) = 0.25
    grid = TimeGrid(t_f=2.0, n_steps=2)
    samples = sample_field(SinSqEnvelope(e0=1.0), grid)
    assert samples[0] == pytest.approx(0.25)


def test_zero_amplitude_field():
    grid = TimeGrid(t_f=5.0, n_steps=17)
    assert np.all(sample_field(SinSqEnvelope(e0=0.0), grid) == 0.0)


def test_skew_preserves_area_and_breaks_symmetry():
    grid = TimeGrid(t_f=9000.0, n_steps=4096)
    plain = sample_field(SinSqEnvelope(e0=1.0), grid)
    skewed = sample_field(SinSqEnvelope(e0=1.0, skew=0.1), grid)
    # odd harmonic: same pulse area, no longer time symmetric
    assert skewed.sum() * grid.dt == pytest.approx(plain.sum() * grid.dt, rel=1e-12)
    assert np.allclose(plain, plain[::-1])
    assert not np.allclose(skewed, skewed[::-1])


def test_pi_pulse_values():
    fld = PiPulse(amplitude=2.0, envelope_freq_mult=4.0, carrier_freq=0.5)
    t_f = 8.0
    t = np.array([0.0, 1.0])  # t = t_f/8 has envelope sin^2(pi/2) = 1
    vals = fld.values(t, t_f)
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(2.0 * np.cos(0.5))


def test_field_config_roundtrip():
    # the manifest records a descriptor as its type and then its fields, so
    # the descriptor is rebuilt from the fields alone
    for fld, kind in (
        (SinSqEnvelope(e0=0.3, skew=0.05), "sin_sq"),
        (PiPulse(amplitude=1.5, envelope_freq_mult=4.0, carrier_freq=0.12), "pi_pulse"),
    ):
        payload = field_to_config(fld)
        assert payload.pop("type") == kind
        assert type(fld)(**payload) == fld


def test_field_config_unknown_type():
    with pytest.raises(TypeError, match="unknown field descriptor"):
        field_to_config(np.ones(4))
    with pytest.raises(TypeError, match="unknown field descriptor"):
        sample_field(np.ones(4), TimeGrid(t_f=1.0, n_steps=4))

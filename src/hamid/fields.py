"""Time grids and control-field descriptors.

Fields are sampled at interval midpoints, E_n = E(t_n + dt/2), which is the
sampling the midpoint time stepper in :mod:`hamid.propagation` assumes.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import asdict, dataclass
from typing import Union

import numpy as np


def require_count(name: str, n, least: int = 1) -> None:
    """Refuse anything but an integer (a numpy one included) of at least
    ``least`` for the count ``name``; a bool is not a count."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not n >= least:
        what = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            least, f"an integer of at least {least}"
        )
        raise ValueError(f"{name} must be {what}, got {n!r}")


def require_real(name: str, x, positive: bool = False) -> None:
    """Refuse anything but a finite real number (a numpy one or an integer
    included), and one above zero if ``positive``, for ``name``; a bool is
    not a number."""
    # an integer must fit a float; abs(x) <= max would pass a float32 inf, as
    # numpy casts max to float32 first
    real = not isinstance(x, bool) and isinstance(x, numbers.Real)
    real = real and (abs(x) <= sys.float_info.max if isinstance(x, numbers.Integral) else math.isfinite(x))
    if not real or positive and not x > 0:
        what = "a positive finite real number" if positive else "a finite real number"
        raise ValueError(f"{name} must be {what}, got {x!r}")


def require_type(name: str, x, cls: type) -> None:
    """Refuse anything but an instance of ``cls`` for ``name``."""
    if not isinstance(x, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {x!r}")


@dataclass(frozen=True)
class TimeGrid:
    """Equidistant grid on [0, t_f] with n_steps intervals (atomic units)."""

    t_f: float
    n_steps: int

    def __post_init__(self):
        require_real("t_f", self.t_f, positive=True)
        require_count("n_steps", self.n_steps)

    @property
    def dt(self) -> float:
        return self.t_f / self.n_steps

    def midpoints(self) -> np.ndarray:
        """Times t_n + dt/2 for n = 0..n_steps-1."""
        return (np.arange(self.n_steps) + 0.5) * self.dt


@dataclass(frozen=True)
class SinSqEnvelope:
    """E(t) = (e0/2) * sin^2(pi t / t_f) * (1 + skew * sin(2 pi t / t_f)).

    The optional odd-harmonic skew breaks the envelope's time-reversal
    symmetry without changing the pulse area (the skew term integrates to
    zero).  A perfectly symmetric envelope makes the propagator of real
    Hamiltonians exactly complex-symmetric, which leaves one direction of
    the coupling operator invisible to identification; a small skew restores
    identifiability.  skew = 0 gives the plain sin^2 envelope.
    """

    e0: float
    skew: float = 0.0

    def __post_init__(self):
        for name in ("e0", "skew"):
            require_real(name, getattr(self, name))

    def values(self, t: np.ndarray, t_f: float) -> np.ndarray:
        env = 0.5 * self.e0 * np.sin(np.pi * t / t_f) ** 2
        return env * (1.0 + self.skew * np.sin(2.0 * np.pi * t / t_f))


@dataclass(frozen=True)
class PiPulse:
    """E(t) = amplitude * sin^2(envelope_freq_mult * pi t / t_f) * cos(carrier_freq * t)."""

    amplitude: float
    envelope_freq_mult: float
    carrier_freq: float

    def __post_init__(self):
        for name in ("amplitude", "envelope_freq_mult", "carrier_freq"):
            require_real(name, getattr(self, name))

    def values(self, t: np.ndarray, t_f: float) -> np.ndarray:
        env = np.sin(self.envelope_freq_mult * np.pi * t / t_f) ** 2
        return self.amplitude * env * np.cos(self.carrier_freq * t)


ControlField = Union[SinSqEnvelope, PiPulse]
# the "type" each descriptor is recorded under, followed by its fields
_FIELD_TYPES = {SinSqEnvelope: "sin_sq", PiPulse: "pi_pulse"}


def sample_field(field_desc: ControlField, grid: TimeGrid) -> np.ndarray:
    """Midpoint samples of a control field on a grid."""
    if type(field_desc) not in _FIELD_TYPES:
        raise TypeError(f"unknown field descriptor {type(field_desc).__name__}")
    return field_desc.values(grid.midpoints(), grid.t_f)


def field_to_config(field_desc: ControlField) -> dict:
    if type(field_desc) not in _FIELD_TYPES:
        raise TypeError(f"unknown field descriptor {type(field_desc).__name__}")
    return {"type": _FIELD_TYPES[type(field_desc)], **asdict(field_desc)}

"""Time grids and control-field descriptors.

Fields are sampled at interval midpoints, E_n = E(t_n + dt/2), which is the
sampling the midpoint time stepper in :mod:`hamid.propagation` assumes.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Union

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Equidistant grid on [0, t_f] with n_steps intervals (atomic units)."""

    t_f: float
    n_steps: int

    def __post_init__(self):
        if not 0 < self.t_f < math.inf:
            raise ValueError(f"t_f must be positive and finite, got {self.t_f!r}")
        n = self.n_steps
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not n >= 1:
            raise ValueError(f"n_steps must be a positive integer, got {n!r}")

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

    def values(self, t: np.ndarray, t_f: float) -> np.ndarray:
        env = 0.5 * self.e0 * np.sin(np.pi * t / t_f) ** 2
        if self.skew != 0.0:
            env = env * (1.0 + self.skew * np.sin(2.0 * np.pi * t / t_f))
        return env


@dataclass(frozen=True)
class PiPulse:
    """E(t) = amplitude * sin^2(envelope_freq_mult * pi t / t_f) * cos(carrier_freq * t)."""

    amplitude: float
    envelope_freq_mult: float
    carrier_freq: float

    def values(self, t: np.ndarray, t_f: float) -> np.ndarray:
        env = np.sin(self.envelope_freq_mult * np.pi * t / t_f) ** 2
        return self.amplitude * env * np.cos(self.carrier_freq * t)


@dataclass(frozen=True)
class Tabulated:
    """Pre-sampled midpoint values; length must match the grid it is used on."""

    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))


ControlField = Union[SinSqEnvelope, PiPulse, Tabulated]


def sample_field(field_desc: ControlField, grid: TimeGrid) -> np.ndarray:
    """Midpoint samples of a control field on a grid."""
    if isinstance(field_desc, Tabulated):
        if field_desc.samples.shape != (grid.n_steps,):
            raise ValueError(
                f"tabulated field has {field_desc.samples.shape[0]} samples, "
                f"grid has {grid.n_steps} steps"
            )
        return field_desc.samples.copy()
    if isinstance(field_desc, (SinSqEnvelope, PiPulse)):
        return field_desc.values(grid.midpoints(), grid.t_f)
    raise TypeError(f"unknown field descriptor {type(field_desc).__name__}")


def field_to_config(field_desc: ControlField) -> dict:
    if isinstance(field_desc, SinSqEnvelope):
        return {"type": "sin_sq", "e0": field_desc.e0, "skew": field_desc.skew}
    if isinstance(field_desc, PiPulse):
        return {
            "type": "pi_pulse",
            "amplitude": field_desc.amplitude,
            "envelope_freq_mult": field_desc.envelope_freq_mult,
            "carrier_freq": field_desc.carrier_freq,
        }
    if isinstance(field_desc, Tabulated):
        return {"type": "tabulated", "samples": field_desc.samples.tolist()}
    raise TypeError(f"unknown field descriptor {type(field_desc).__name__}")


def field_from_config(cfg: dict) -> ControlField:
    kind = cfg.get("type")
    if kind == "sin_sq":
        return SinSqEnvelope(e0=float(cfg["e0"]), skew=float(cfg.get("skew", 0.0)))
    if kind == "pi_pulse":
        return PiPulse(
            amplitude=float(cfg["amplitude"]),
            envelope_freq_mult=float(cfg["envelope_freq_mult"]),
            carrier_freq=float(cfg["carrier_freq"]),
        )
    if kind == "tabulated":
        return Tabulated(samples=np.asarray(cfg["samples"], dtype=float))
    raise ValueError(f"unknown field type {kind!r}")

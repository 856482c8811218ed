"""Three-stage power conversion ladder of the resonant-beam link.

Input electrical power -> stored power in the gain medium -> extracted beam
power at the receiver -> photovoltaic electrical output.  Stages two and
three are fitted linear laws with thresholds: the raw lines go negative at
low drive, and the physical system simply emits nothing there, so outputs
are clamped at zero and the efficiencies below threshold are defined as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .diffraction import fundamental_loss_vs_distance
from .errors import UndefinedAtZeroError


@dataclass(frozen=True)
class GainParams:
    """Transmitter conversion coefficients.

    eta_stored: electrical-to-stored conversion efficiency, in (0, 1).
    m_overlap: mode/gain overlap efficiency, > 0.
    c: additive extraction constant in watts (typically negative).
    r_out: output mirror (M2) reflectivity, in (0, 1).
    """

    eta_stored: float
    m_overlap: float = 1.0
    c: float = -5.64
    r_out: float = 0.88

    def __post_init__(self):
        if not 0.0 < self.eta_stored < 1.0:
            raise ValueError(f"eta_stored must be in (0, 1), got {self.eta_stored}")
        if not 0.0 < self.r_out < 1.0:
            raise ValueError(f"r_out must be in (0, 1), got {self.r_out}")
        if not self.m_overlap > 0.0:
            raise ValueError(f"m_overlap must be > 0, got {self.m_overlap}")
        if not math.isfinite(self.c):
            raise ValueError(f"c must be finite, got {self.c}")


@dataclass(frozen=True)
class PvParams:
    """Fitted linear photovoltaic law p_pv = a1*p_beam + b1 (maximum power point)."""

    a1: float
    b1: float

    def __post_init__(self):
        if not 0.0 < self.a1 < 1.0:
            raise ValueError(f"a1 must be in (0, 1), got {self.a1}")
        if not math.isfinite(self.b1):
            raise ValueError(f"b1 must be finite, got {self.b1}")


@dataclass(frozen=True)
class PowerState:
    """The four-stage power ladder, watts, all >= 0."""

    p_in: float
    p_stored: float
    p_beam: float
    p_out: float


@dataclass(frozen=True)
class EfficiencyBreakdown:
    """Per-stage and end-to-end efficiencies; below-threshold stages read 0."""

    eta_stored: float
    eta_trans: float
    eta_pv: float
    eta_all: float


class Thresholds(NamedTuple):
    p_stored: float
    p_beam: float
    p_in: float


def stored_power(p_in: float, gain: GainParams) -> float:
    """Stored power per second in the gain medium: eta_stored * p_in."""
    if not (p_in >= 0 and math.isfinite(p_in)):
        raise ValueError(f"p_in must be finite and >= 0, got {p_in}")
    return gain.eta_stored * p_in


def gain_to_beam_coefficient(
    d: float, gain: GainParams, aperture_radius: float, wavelength: float, l: float
) -> float:
    """Distance-dependent stored-to-beam slope f(d).

    f(d) = 2*(1-R)*m / [(1+R)*delta00(d) - (1+R)*ln R], with delta00 the
    fundamental-mode diffraction loss.  The denominator is strictly positive
    for 0 < R < 1, and f(d) strictly decreases with distance.
    """
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    delta00 = fundamental_loss_vs_distance(aperture_radius, wavelength, l, d)
    r = gain.r_out
    return 2.0 * (1.0 - r) * gain.m_overlap / ((1.0 + r) * (delta00 - math.log(r)))


def beam_power(
    p_stored: float,
    d: float,
    gain: GainParams,
    aperture_radius: float,
    wavelength: float,
    l: float,
) -> float:
    """Extracted beam power max(0, f(d)*p_stored + c); zero below the lasing threshold."""
    if not (p_stored >= 0 and math.isfinite(p_stored)):
        raise ValueError(f"p_stored must be finite and >= 0, got {p_stored}")
    fd = gain_to_beam_coefficient(d, gain, aperture_radius, wavelength, l)
    return max(0.0, fd * p_stored + gain.c)


def transmission_efficiency(
    p_stored: float,
    d: float,
    gain: GainParams,
    aperture_radius: float,
    wavelength: float,
    l: float,
) -> float:
    """Stored-to-beam efficiency p_beam/p_stored; 0 below threshold.

    Raises UndefinedAtZeroError for p_stored = 0.
    """
    if p_stored == 0:
        raise UndefinedAtZeroError("transmission efficiency is undefined at p_stored = 0")
    return beam_power(p_stored, d, gain, aperture_radius, wavelength, l) / p_stored


def pv_output(p_beam: float, pv: PvParams) -> float:
    """Photovoltaic output max(0, a1*p_beam + b1); zero below the PV threshold."""
    if not (p_beam >= 0 and math.isfinite(p_beam)):
        raise ValueError(f"p_beam must be finite and >= 0, got {p_beam}")
    return max(0.0, pv.a1 * p_beam + pv.b1)


def pv_efficiency(p_beam: float, pv: PvParams) -> float:
    """PV conversion efficiency p_pv/p_beam (0 below threshold); asymptote a1.

    Raises UndefinedAtZeroError for p_beam = 0.
    """
    if p_beam == 0:
        raise UndefinedAtZeroError("PV efficiency is undefined at p_beam = 0")
    return pv_output(p_beam, pv) / p_beam


def end_to_end(
    p_in: float,
    d: float,
    gain: GainParams,
    pv: PvParams,
    aperture_radius: float,
    wavelength: float,
    l: float,
) -> tuple[PowerState, EfficiencyBreakdown]:
    """Compose the three stages at input power p_in and distance d.

    Above all thresholds the composition collapses to the closed form
    ``p_out = a1*f(d)*eta_stored*p_in + a1*c + b1`` and
    ``eta_all = eta_stored*eta_trans*eta_pv``; the staged values returned
    here match that closed form to rounding.
    """
    p_stored = stored_power(p_in, gain)  # validates p_in
    p_beam = beam_power(p_stored, d, gain, aperture_radius, wavelength, l)
    p_out = pv_output(p_beam, pv)
    state = PowerState(p_in=p_in, p_stored=p_stored, p_beam=p_beam, p_out=p_out)
    eff = EfficiencyBreakdown(
        eta_stored=gain.eta_stored,
        eta_trans=p_beam / p_stored if p_stored > 0 else 0.0,
        eta_pv=p_out / p_beam if p_beam > 0 else 0.0,
        eta_all=p_out / p_in if p_in > 0 else 0.0,
    )
    return state, eff


def thresholds(
    d: float,
    gain: GainParams,
    pv: PvParams,
    aperture_radius: float,
    wavelength: float,
    l: float,
) -> Thresholds:
    """Minimum stored/beam/input powers for nonzero electrical output.

    p_beam_th = -b1/a1, p_stored_th = (p_beam_th - c)/f(d),
    p_in_th = p_stored_th/eta_stored.  All increase with distance because
    f(d) decreases.
    """
    fd = gain_to_beam_coefficient(d, gain, aperture_radius, wavelength, l)
    p_beam_th = -pv.b1 / pv.a1
    p_stored_th = (p_beam_th - gain.c) / fd
    return Thresholds(
        p_stored=p_stored_th, p_beam=p_beam_th, p_in=p_stored_th / gain.eta_stored
    )

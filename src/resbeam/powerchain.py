"""Three-stage power conversion ladder of the resonant-beam link.

Input electrical power -> stored power in the gain medium -> extracted beam
power at the receiver -> photovoltaic electrical output.  Stages two and
three are fitted linear laws with thresholds: the raw lines go negative at
low drive, and the physical system simply emits nothing there, so outputs
are clamped at zero and the efficiencies below threshold are defined as 0.
Their offsets c and b1 are <= 0, and m_overlap <= 1, so no stage puts out
more power than it takes in (to rounding).

The stages read the link parameters from one :class:`SystemParams` bundle.
The bundle and its parts check every parameter range once, when they are
built, and raise :class:`UnitError` naming the configuration key.  The
stages share their arithmetic with the dataset rules of :mod:`resbeam.explorer`
through the unchecked bodies ``_stored``, ``_beam``, ``_pv`` and ``_ladder``,
which take the selection ``pick`` of a kit: cavity._pick on floats,
numpy.where on columns.  The inverse solvers at the end of the module answer point design questions.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .cavity import CavityGeometry, _pick, is_stable
from .diffraction import fundamental_loss_vs_distance
from .errors import (
    InfeasibleTargetError,
    Record,
    UndefinedAtZeroError,
    UnreachableTargetError,
    require,
)


class GainParams(Record):
    """Transmitter conversion coefficients.

    eta_stored: electrical-to-stored conversion efficiency, in (0, 1).
    m_overlap: mode/gain overlap efficiency, in (0, 1], so f(d) <= 1 to rounding.
    c: additive extraction constant in watts, the beam threshold: finite and <= 0.
    r_out: output mirror (M2) reflectivity, in (0, 1).
    """

    eta_stored: float
    m_overlap: float
    c: float
    r_out: float

    def __post_init__(self):
        require("eta_stored", self.eta_stored, 0.0 < self.eta_stored < 1.0, "in (0, 1)")
        require("m_overlap", self.m_overlap, 0.0 < self.m_overlap <= 1.0, "in (0, 1]")
        require("c", self.c, -math.inf < self.c <= 0.0, "finite and <= 0")
        require("r_out", self.r_out, 0.0 < self.r_out < 1.0, "in (0, 1)")


class PvParams(Record):
    """Fitted linear photovoltaic law p_pv = a1*p_beam + b1 (maximum power point), b1 <= 0."""

    a1: float
    b1: float

    def __post_init__(self):
        require("a1", self.a1, 0.0 < self.a1 < 1.0, "in (0, 1)")
        require("b1", self.b1, -math.inf < self.b1 <= 0.0, "finite and <= 0")


class SystemParams(Record):
    """Full parameter bundle for one link configuration."""

    geometry: CavityGeometry
    gain: GainParams
    pv: PvParams
    aperture_radius: float
    wavelength: float
    d: float
    p_in: float

    def __post_init__(self):
        for key, v in (("a", self.aperture_radius), ("d", self.d), ("p_in", self.p_in)):
            require(key, v, 0.0 <= v < math.inf, "finite and >= 0")
        require("wavelength", self.wavelength, 0.0 < self.wavelength < math.inf, "finite and > 0")
        # the TEM00 loss divides by wavelength * (l + d), which must not underflow at any d >= 0;
        # the smaller factor is named
        key, v = ("l", self.l) if self.l < self.wavelength else ("wavelength", self.wavelength)
        require(key, v, self.wavelength * self.l > 0.0, "such that wavelength * l > 0")

    @property
    def l(self) -> float:
        return self.geometry.l


class PowerState(NamedTuple):
    """The four-stage power ladder, watts, all >= 0."""

    p_in: float
    p_stored: float
    p_beam: float
    p_out: float


class EfficiencyBreakdown(NamedTuple):
    """Per-stage and end-to-end efficiencies; below-threshold stages read 0."""

    eta_stored: float
    eta_trans: float
    eta_pv: float
    eta_all: float


class Thresholds(NamedTuple):
    p_stored: float
    p_beam: float
    p_in: float


# The stage bodies, unchecked.  They take the selection pick of a kit, so they
# run on floats (cavity._pick) and on numpy columns (numpy.where) alike.  A
# clamp is pick(x > 0.0, x, 0.0): max(0.0, x), where -0.0 and NaN read 0.0.


def _ratio(num, den, pick):
    """num/den where den > 0, else 0.0: the below-threshold efficiency rule."""
    return pick(den > 0, num, 0.0) / pick(den > 0, den, 1.0)


def _stored(p_in, gain: GainParams):
    return gain.eta_stored * p_in


def _beam(p_stored, fd, gain: GainParams, pick):
    x = fd * p_stored + gain.c
    return pick(x > 0.0, x, 0.0)


def _pv(p_beam, pv: PvParams, pick):
    x = pv.a1 * p_beam + pv.b1
    return pick(x > 0.0, x, 0.0)


def stored_power(p_in: float, gain: GainParams) -> float:
    """Stored power per second in the gain medium: eta_stored * p_in."""
    require("p_in", p_in, 0.0 <= p_in < math.inf, "finite and >= 0")
    return _stored(p_in, gain)


def coefficient_at_loss(delta00: float, gain: GainParams) -> float:
    """Stored-to-beam slope f = 2*(1-R)*m / [(1+R)*delta00 - (1+R)*ln R].

    delta00 is the fundamental-mode diffraction loss.  The denominator is
    strictly positive for 0 < R < 1, and f falls as the loss rises, so
    delta00 = 0 gives the zero-loss ceiling.
    """
    r = gain.r_out
    return 2.0 * (1.0 - r) * gain.m_overlap / ((1.0 + r) * (delta00 - math.log(r)))


def gain_to_beam_coefficient(d: float, p: SystemParams) -> float:
    """Distance-dependent stored-to-beam slope f(d), at the loss delta00(d).

    f(d) strictly decreases with distance.
    """
    if not (d >= 0 and math.isfinite(d)):
        require("d", d, False, "finite and >= 0")
    delta00 = fundamental_loss_vs_distance(p.aperture_radius, p.wavelength, p.l, d)
    return coefficient_at_loss(delta00, p.gain)


def beam_at(p_stored: float, fd: float, gain: GainParams) -> float:
    """Extracted beam power max(0, fd*p_stored + c) at a held slope fd = f(d)."""
    if not (p_stored >= 0 and math.isfinite(p_stored)):
        require("p_stored", p_stored, False, "finite and >= 0")
    return _beam(p_stored, fd, gain, _pick)


def beam_power(p_stored: float, d: float, p: SystemParams) -> float:
    """Beam power max(0, f(d)*p_stored + c); 0 below threshold and at an unstable d (f(d) unread).

    Raises UnitError for a beam power that overflowed, as ladder_at does: f(d)
    can round a hair above 1 at m_overlap = 1, so p_stored near the float limit can.
    """
    stable = is_stable(p.geometry, d)  # validates d
    p_beam = beam_at(p_stored, gain_to_beam_coefficient(d, p) if stable else 0.0, p.gain)
    require("p_beam", p_beam, p_beam < math.inf, "finite and >= 0")
    return p_beam


def transmission_efficiency(p_stored: float, d: float, p: SystemParams) -> float:
    """Stored-to-beam efficiency p_beam/p_stored; 0 below threshold or at an unstable d.

    Raises UndefinedAtZeroError for p_stored = 0, and UnitError where beam_power does.
    """
    if p_stored == 0:
        raise UndefinedAtZeroError("transmission efficiency is undefined at p_stored = 0")
    return beam_power(p_stored, d, p) / p_stored


def pv_output(p_beam: float, pv: PvParams) -> float:
    """Photovoltaic output max(0, a1*p_beam + b1); zero below the PV threshold."""
    require("p_beam", p_beam, 0.0 <= p_beam < math.inf, "finite and >= 0")
    return _pv(p_beam, pv, _pick)


def pv_efficiency(p_beam: float, pv: PvParams) -> float:
    """PV conversion efficiency p_pv/p_beam (0 below threshold); asymptote a1.

    Raises UndefinedAtZeroError for p_beam = 0.
    """
    if p_beam == 0:
        raise UndefinedAtZeroError("PV efficiency is undefined at p_beam = 0")
    return pv_output(p_beam, pv) / p_beam


def _ladder(p_in, fd, p: SystemParams, pick) -> tuple[PowerState, EfficiencyBreakdown]:
    """The three stages at input power p_in and slope fd; an overflow reads inf."""
    p_stored = _stored(p_in, p.gain)
    p_beam = _beam(p_stored, fd, p.gain, pick)
    p_out = _pv(p_beam, p.pv, pick)
    return PowerState(p_in, p_stored, p_beam, p_out), EfficiencyBreakdown(
        p.gain.eta_stored, _ratio(p_beam, p_stored, pick), _ratio(p_out, p_beam, pick),
        _ratio(p_out, p_in, pick))


def ladder_at(p_in: float, fd: float, p: SystemParams) -> tuple[PowerState, EfficiencyBreakdown]:
    """The three stages at input power p_in, with the slope fd = f(d) held.

    Raises UnitError for a bad p_in, and for a beam power that overflowed.
    """
    require("p_in", p_in, 0.0 <= p_in < math.inf, "finite and >= 0")
    state, eff = _ladder(p_in, fd, p, _pick)
    require("p_beam", state.p_beam, state.p_beam < math.inf, "finite and >= 0")  # as pv_output
    return state, eff


def end_to_end(p_in: float, d: float, p: SystemParams) -> tuple[PowerState, EfficiencyBreakdown]:
    """Compose the three stages at input power p_in and distance d.

    Above all thresholds the composition collapses to the closed form
    ``p_out = a1*f(d)*eta_stored*p_in + a1*c + b1`` and
    ``eta_all = eta_stored*eta_trans*eta_pv``; the staged values returned
    here match that closed form to rounding.  Where the cavity is unstable at
    d no resonant beam forms: f(d) is not read and a slope of 0.0 is held, so
    with c <= 0 and b1 <= 0 p_stored stays, and p_beam, p_out and every
    efficiency but eta_stored read 0.
    """
    stable = is_stable(p.geometry, d)  # validates d
    return ladder_at(p_in, gain_to_beam_coefficient(d, p) if stable else 0.0, p)


def _formed_slope(d: float, p: SystemParams) -> float:
    """f(d), read only where a resonant beam forms; UnreachableTargetError elsewhere."""
    if not is_stable(p.geometry, d):  # validates d
        raise UnreachableTargetError(f"cavity is not stable at d = {d} m")
    return gain_to_beam_coefficient(d, p)


def _lift(excess, slope):
    """The drive that raises an output by excess at a slope >= 0: max(0, excess/slope), inf at 0."""
    if excess <= 0.0:
        return 0.0
    return excess / slope if slope > 0.0 else math.inf


def thresholds(d: float, p: SystemParams) -> Thresholds:
    """Stored/beam/input powers at which each stage starts to pass power on.

    p_beam_th = -b1/a1, p_stored_th = (p_beam_th - c)/f(d) and
    p_in_th = p_stored_th/eta_stored, each >= 0; none falls with distance, as f(d) does.
    Raises UnreachableTargetError where the cavity is unstable at d, and where
    p_in_th is not finite: f(d) underflowed, or the quotient overflowed.
    """
    fd = _formed_slope(d, p)
    p_beam_th = max(0.0, -p.pv.b1 / p.pv.a1)
    p_stored_th = _lift(p_beam_th - p.gain.c, fd)
    p_in_th = p_stored_th / p.gain.eta_stored
    if p_in_th == math.inf:
        raise UnreachableTargetError(
            f"no finite input power reaches the output threshold at d = {d} m")
    return Thresholds(p_stored=p_stored_th, p_beam=p_beam_th, p_in=p_in_th)


def required_input_power(target_p_out: float, d: float, params: SystemParams) -> float:
    """Input power that produces target_p_out at distance d (closed-form inverse).

    Raises UnreachableTargetError when the cavity is unstable at d, so no
    resonant beam forms regardless of drive, and when the answer is not
    finite: the end-to-end slope a1*f(d)*eta_stored underflowed, or the
    quotient overflowed.
    """
    if not (target_p_out > 0 and math.isfinite(target_p_out)):
        require("target_p_out", target_p_out, False, "finite and > 0")
    fd = _formed_slope(d, params)
    p_in = _lift(target_p_out - params.pv.a1 * params.gain.c - params.pv.b1,
                 params.pv.a1 * fd * params.gain.eta_stored)
    if p_in == math.inf:
        raise UnreachableTargetError(f"no finite input power gives {target_p_out} W at d = {d} m")
    return p_in


def calibrate_aperture(
    d: float, p_stored: float, eta_trans_target: float, params: SystemParams
) -> float:
    """Aperture radius at which eta_trans(p_stored, d) hits the target.

    The algebraic inverse of the forward model, exact to rounding: the target
    needs the slope f* = eta - c/p_stored, which coefficient_at_loss gives at
    the loss delta* = 2*(1-R)*m / ((1+R)*f*) + ln R, which the TEM00 loss
    exp(-2*pi*a^2/(lambda*(l+d))) gives at a = sqrt(-ln(delta*)*lambda*(l+d)/(2*pi)).

    A target equal to the floor, eta_trans at a = 0, gives 0.0.  Raises
    InfeasibleTargetError when the target is below that floor, above the
    zero-loss ceiling, or not reachable by any aperture up to 1 m, and
    UnreachableTargetError where the cavity is unstable at d, since no
    aperture then forms a beam.
    """
    if not (p_stored > 0 and math.isfinite(p_stored)):
        require("p_stored", p_stored, False, "finite and > 0")
    if not is_stable(params.geometry, d):  # validates d
        raise UnreachableTargetError(f"cavity is not stable at d = {d} m")
    if math.isnan(eta_trans_target):
        require("eta_trans_target", eta_trans_target, False, "a number")
    gain, wavelength, l = params.gain, params.wavelength, params.l
    # floor first: with no beam at any aperture the unclamped ceiling lies below it
    floor = beam_at(p_stored, coefficient_at_loss(1.0, gain), gain) / p_stored  # a = 0: loss 1
    if eta_trans_target == floor:
        return 0.0
    if eta_trans_target < floor:
        raise InfeasibleTargetError(f"target {eta_trans_target} is below the closed-aperture floor")
    ceiling = coefficient_at_loss(0.0, gain) + gain.c / p_stored
    if eta_trans_target > ceiling:
        raise InfeasibleTargetError(
            f"target {eta_trans_target} exceeds the zero-loss ceiling {ceiling:.6f}"
        )
    r = gain.r_out
    slope = eta_trans_target - gain.c / p_stored
    delta = 2.0 * (1.0 - r) * gain.m_overlap / ((1.0 + r) * slope) + math.log(r)
    if delta > 0.0:
        # just above the floor, rounding can put delta a hair above 1
        a = math.sqrt(max(0.0, -math.log(delta)) * wavelength * (l + d) / (2.0 * math.pi))
        if a <= 1.0:  # past a 1 m aperture the efficiency is the ceiling to rounding
            return a
    raise InfeasibleTargetError(f"target {eta_trans_target} is not reachable by any aperture")

"""Compile coin programs into timed electro-optic modulator pulses.

Each coin angle theta splits into two phase shifts, phi_H = theta on the
horizontal polarization and phi_V = pi - theta on the vertical one. The
horizontal component travels the counter-clockwise arm of the Sagnac loop
and the vertical one the clockwise arm, arriving at the modulator a fixed
delay later, so a single modulator addresses both phases at distinct
times. Phases map to drive voltages through a measured anchor calibration.

Both directions compute on numpy columns in (t, x) cell order and name the
first bad event, as a per-event loop would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from numbers import Real
from operator import attrgetter

import numpy as np

from .errors import AlignmentError, CollisionError, DomainError, OrphanEventError, _clip
from .state import CoinProgram, _integer, support

ARM_CCW = "ccw"  # horizontal polarization, undelayed
ARM_CW = "cw"  # vertical polarization, Sagnac-delayed
ARMS = (ARM_CCW, ARM_CW)  # in sort order, indexed by the cw flag

# Time (ns) tolerance when matching an event to its (t, x, arm) slot.
ALIGNMENT_TOL_NS = 0.05

# Colliding pairs named in a CollisionError message; the error keeps them all.
REPORTED_COLLISIONS = 5


@dataclass(frozen=True)
class PhaseCell:
    """Phase pair driving the coin at one (step, position) cell."""

    t: int
    x: int
    phi_h: float
    phi_v: float


@dataclass(frozen=True)
class TimingModel:
    """Arrival-time geometry of the optical loop, all values in ns."""

    t_ns: float = 72.9  # base round-trip time (horizontal path)
    dt_ns: float = 2.3  # extra delay per right-move (position bin width)
    sagnac_delay_ns: float = 39.1  # clockwise-arm delay at the modulator
    pulse_width_ns: float = 1.0  # electrical pulse width
    rep_period_ns: float = 1000.0  # laser repetition period (1 MHz)

    def __post_init__(self):
        for name in ("t_ns", "dt_ns", "sagnac_delay_ns", "pulse_width_ns", "rep_period_ns"):
            v = getattr(self, name)
            if not (isinstance(v, Real) and math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be positive, got {_clip(repr(v))}")
        if self.dt_ns <= self.pulse_width_ns:
            raise DomainError(
                f"position bins unresolvable: dt_ns = {self.dt_ns} must exceed "
                f"pulse_width_ns = {self.pulse_width_ns}"
            )


# Measured (phase rad, voltage V) anchors of the modulator drive.
DEFAULT_ANCHORS = (
    (math.pi / 4, 0.127),
    (math.pi / 2, 0.263),
    (3 * math.pi / 4, 0.392),
)


@dataclass(frozen=True)
class Calibration:
    """Piecewise-linear phase-to-voltage map through measured anchors.

    Exact at the anchors; outside the anchor range the end segments are
    extended linearly, with phases confined to [0, pi].
    """

    anchors: tuple[tuple[float, float], ...] = DEFAULT_ANCHORS

    def __post_init__(self):
        if len(self.anchors) < 2:
            raise DomainError("calibration needs at least two anchors")
        if not all(math.isfinite(p) and math.isfinite(v) for p, v in self.anchors):
            raise DomainError(f"calibration anchors must be finite, got {self.anchors!r}")
        phases, volts = np.array(self.anchors, dtype=float).T.copy()
        for name, column in (("phases", phases), ("voltages", volts)):
            if (np.diff(column) <= 0.0).any():
                raise DomainError(f"anchor {name} must be strictly increasing")
        object.__setattr__(self, "_columns", (phases, volts))

    def phase_to_voltage(self, phi: float) -> float:
        if not 0.0 <= phi <= math.pi + 1e-12:
            raise DomainError(f"phase {phi!r} outside [0, pi]")
        return float(_piecewise(phi, *self._columns))

    def voltage_to_phase(self, volts: float) -> float:
        if not math.isfinite(volts):
            raise DomainError(f"voltage {volts!r} is not finite")
        return float(_clamp_phase(_piecewise(volts, *reversed(self._columns))))


def _piecewise(x, xs: np.ndarray, ys: np.ndarray):
    """Linear interpolation through (xs, ys) with end-segment extrapolation,
    elementwise over x: the segment of the last anchor at or below x,
    clamped to the end ones. Overflow gives inf, as Python floats do."""
    i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    with np.errstate(over="ignore", invalid="ignore"):
        slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        return ys[i] + slope * (x - xs[i])


def _clamp_phase(phi):
    """``min(max(phi, 0.0), pi)`` elementwise: -0.0 stays, as with Python's max."""
    return np.where(math.pi < phi, math.pi, np.where(phi < 0.0, 0.0, phi))


@dataclass(frozen=True)
class PulseEvent:
    """One electrical pulse: start time, drive voltage, width, and origin tag."""

    time_ns: float
    voltage_v: float
    width_ns: float
    step: int
    position: int
    arm: str


@dataclass(frozen=True)
class PulseSchedule:
    events: tuple[PulseEvent, ...] = field(default_factory=tuple)


def coin_to_phases(p: CoinProgram) -> list[PhaseCell]:
    """Phase decomposition of every stepped cell, ordered by (t, x).

    The final disentangling layer is not compiled (it is realized by wave
    plates plus an extra walk step, not by the modulator path).
    """
    return [
        PhaseCell(t=t, x=x, phi_h=theta, phi_v=math.pi - theta)
        for (t, x), theta in zip(p.cells, p.cells.theta.tolist())
    ]


def _slot(t, x, tm: TimingModel, launch_offset_ns: float):
    """Undelayed arrival time (ns) of cell (t, x), elementwise: each step
    adds the base round-trip time, each right-move one bin delay."""
    return launch_offset_ns + t * tm.t_ns + (t + x) // 2 * tm.dt_ns


def arrival_time(
    t: int, x: int, arm: str, tm: TimingModel, launch_offset_ns: float = 0.0
) -> float:
    """Arrival time (ns) of the (t, x) pulse on one arm at the modulator;
    the clockwise arm adds the Sagnac delay."""
    if x not in support(t):
        raise DomainError(f"({t},{x}) is not a valid (step, position) pair")
    if arm not in ARMS:
        raise DomainError(f"unknown arm {arm!r}")
    time = _slot(t, x, tm, launch_offset_ns)
    if arm == ARM_CW:
        time += tm.sagnac_delay_ns
    return time


def max_steps(tm: TimingModel) -> int:
    """The largest step count T whose last pulse, cw at (T-1, T-1), ends
    within the laser period at launch offset 0, as compile_schedule checks."""

    def fits(steps: int) -> bool:
        end = arrival_time(steps - 1, steps - 1, ARM_CW, tm) + tm.pulse_width_ns
        return not end > 0.0 + tm.rep_period_ns

    low, high = 0, 1  # fits(low); the last pulse ends later as T grows
    while fits(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if fits(mid) else (low, mid)
    return low


def compile_schedule(
    p: CoinProgram,
    tm: TimingModel | None = None,
    cal: Calibration | None = None,
    launch_offset_ns: float = 0.0,
) -> PulseSchedule:
    """Emit one time-sorted electrical pulse per (cell, arm).

    Raises CollisionError when any two pulses overlap in time, or when the
    last pulse ends after the laser period that starts at the launch offset;
    overlaps are reported, never silently merged.
    """
    if not (isinstance(launch_offset_ns, Real) and math.isfinite(launch_offset_ns)):
        raise DomainError(f"launch offset must be finite, got {_clip(repr(launch_offset_ns))}")
    tm, cal = tm or TimingModel(), cal or Calibration()
    # Every cell in (t, x) order on its ccw arm (phi_H = theta), then on its cw arm.
    t = np.repeat(np.arange(p.steps), np.arange(1, p.steps + 1))
    x = 2 * (np.arange(t.size) - t * (t + 1) // 2) - t
    time = _slot(t, x, tm, float(launch_offset_ns))
    time = np.concatenate([time, time + tm.sagnac_delay_ns])
    volts = _piecewise(np.concatenate([p.cells.theta, math.pi - p.cells.theta]), *cal._columns)
    t, x, arm = np.concatenate([t, t]), np.concatenate([x, x]), np.repeat([0, 1], t.size)
    order = np.lexsort((arm, x, t, time))
    time, t, x = time[order], t[order].tolist(), x[order].tolist()
    arm = [ARMS[a] for a in arm[order].tolist()]
    hits = np.flatnonzero(time[1:] < time[:-1] + tm.pulse_width_ns).tolist()
    if hits:
        collisions = [((t[i], x[i], arm[i]), (t[i + 1], x[i + 1], arm[i + 1])) for i in hits]
        more = " ..." if len(collisions) > REPORTED_COLLISIONS else ""
        raise CollisionError(f"{len(collisions)} overlapping pulse pair(s): "
                             f"{collisions[:REPORTED_COLLISIONS]}{more}", collisions=collisions)
    time = time.tolist()
    # Events are time-sorted and share one width, so the last one ends last.
    end, period_end = time[-1] + tm.pulse_width_ns, launch_offset_ns + tm.rep_period_ns
    if end > period_end:
        raise CollisionError(f"pulse ({t[-1]},{x[-1]},{arm[-1]}) ends at {end:.1f} ns, after "
                             f"the laser period ends at {period_end:.1f} ns "
                             f"(max_steps {max_steps(tm)})")
    events = map(PulseEvent, time, volts[order].tolist(), repeat(tm.pulse_width_ns), t, x, arm)
    return PulseSchedule(events=tuple(events))


def decompile_schedule(
    ps: PulseSchedule, tm: TimingModel | None = None, cal: Calibration | None = None
) -> list[PhaseCell]:
    """Recover the phase grid from a pulse schedule.

    Pairs the two arm events of each cell, validates their times against
    the timing model (a common launch offset is inferred from the first
    event), and inverts the calibration. Steps and positions must be
    integers. The first bad event raises: DomainError for no such cell or
    arm, else AlignmentError for a time off its slot, else DomainError for
    a non-finite voltage, else AlignmentError for a repeated (cell, arm).
    Then OrphanEventError names the first (t, x) cell missing an arm.
    """
    tm, cal = tm or TimingModel(), cal or Calibration()
    if not ps.events:
        return []
    fields = attrgetter("time_ns", "voltage_v", "step", "position", "arm")
    times, volts, steps, positions, arms = zip(*map(fields, ps.events))
    t = np.array(list(map(_integer, steps, repeat("step"))), dtype=np.int64)
    x = np.array(list(map(_integer, positions, repeat("position"))), dtype=np.int64)
    first = min(range(len(times)), key=times.__getitem__)
    offset = times[first] - arrival_time(steps[first], positions[first], arms[first], tm)
    cw, ccw = (np.array(arms, dtype=object) == a for a in (ARM_CW, ARM_CCW))
    arm = np.where(cw, 1, np.where(ccw, 0, 2))
    expected = _slot(t, x, tm, offset) + tm.sagnac_delay_ns * cw
    off_slot = ~(np.abs(np.array(times, dtype=float) - expected) <= ALIGNMENT_TOL_NS)
    volts = np.array(volts, dtype=float)
    bad = (np.abs(x) > t) | ((t + x) % 2 != 0) | (arm == 2) | off_slot | ~np.isfinite(volts)
    order = np.lexsort((arm, x, t))  # stable: a repeat sorts after the event it repeats
    t, x, arm = t[order], x[order], arm[order]
    same_cell = (t[1:] == t[:-1]) & (x[1:] == x[:-1])
    bad[order[1:]] |= same_cell & (arm[1:] == arm[:-1])
    if bad.any():
        i = int(np.argmax(bad))
        e = ps.events[i]
        expected = arrival_time(e.step, e.position, e.arm, tm, offset)  # a bad cell or arm raises
        where = f"event ({e.step},{e.position},{e.arm})"
        if off_slot[i]:
            raise AlignmentError(f"{where} at {e.time_ns} ns does not match its slot at "
                                 f"{expected} ns")
        if not math.isfinite(e.voltage_v):
            raise DomainError(f"{where} has voltage {e.voltage_v!r}")
        raise AlignmentError(f"duplicate {e.arm} event for cell ({e.step},{e.position})")
    paired = np.append(False, same_cell) | np.append(same_cell, False)  # ccw sorts before cw
    if not paired.all():
        k = int(np.argmin(paired))
        raise OrphanEventError(f"cell ({t[k]},{x[k]}) is missing its {ARMS[1 - arm[k]]} event")
    phi = _clamp_phase(_piecewise(volts[order], *reversed(cal._columns)))
    cells = t[::2].tolist(), x[::2].tolist(), phi[::2].tolist(), phi[1::2].tolist()
    return list(map(PhaseCell, *cells))

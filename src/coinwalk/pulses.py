"""Compile coin programs into timed electro-optic modulator pulses.

Each coin angle theta splits into two phase shifts, phi_H = theta on the
horizontal polarization and phi_V = pi - theta on the vertical one. The
horizontal component travels the counter-clockwise arm of the Sagnac loop
and the vertical one the clockwise arm, arriving at the modulator a fixed
delay later, so a single modulator addresses both phases at distinct
times. Phases map to drive voltages through a measured anchor calibration.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

from .errors import AlignmentError, CollisionError, DomainError, OrphanEventError
from .state import CoinProgram, support

ARM_CCW = "ccw"  # horizontal polarization, undelayed
ARM_CW = "cw"  # vertical polarization, Sagnac-delayed

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
            if not (math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be positive, got {v!r}")
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
        phases = [p for p, _ in self.anchors]
        volts = [v for _, v in self.anchors]
        if any(b <= a for a, b in zip(phases, phases[1:])):
            raise DomainError("anchor phases must be strictly increasing")
        if any(b <= a for a, b in zip(volts, volts[1:])):
            raise DomainError("anchor voltages must be strictly increasing")
        object.__setattr__(self, "_columns", (phases, volts))

    def phase_to_voltage(self, phi: float) -> float:
        if not 0.0 <= phi <= math.pi + 1e-12:
            raise DomainError(f"phase {phi!r} outside [0, pi]")
        return _piecewise(phi, *self._columns)

    def voltage_to_phase(self, volts: float) -> float:
        if not math.isfinite(volts):
            raise DomainError(f"voltage {volts!r} is not finite")
        phi = _piecewise(volts, *reversed(self._columns))
        return min(max(phi, 0.0), math.pi)


def _piecewise(x: float, xs: list[float], ys: list[float]) -> float:
    """Linear interpolation through (xs, ys) with end-segment extrapolation:
    the segment of the last anchor at or below x, clamped to the end ones."""
    i = min(max(bisect_right(xs, x) - 1, 0), len(xs) - 2)
    slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
    return ys[i] + slope * (x - xs[i])


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


def arrival_time(
    t: int, x: int, arm: str, tm: TimingModel, launch_offset_ns: float = 0.0
) -> float:
    """Arrival time (ns) of the (t, x) pulse on one arm at the modulator.

    Each step adds the base round-trip time; each right-move adds one bin
    delay; the clockwise arm adds the Sagnac delay.
    """
    if x not in support(t):
        raise DomainError(f"({t},{x}) is not a valid (step, position) pair")
    if arm not in (ARM_CCW, ARM_CW):
        raise DomainError(f"unknown arm {arm!r}")
    time = launch_offset_ns + t * tm.t_ns + ((t + x) // 2) * tm.dt_ns
    if arm == ARM_CW:
        time += tm.sagnac_delay_ns
    return time


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
    if not math.isfinite(launch_offset_ns):
        raise DomainError(f"launch offset must be finite, got {launch_offset_ns!r}")
    tm = tm or TimingModel()
    cal = cal or Calibration()
    events = []
    for cell in coin_to_phases(p):
        for arm, phi in ((ARM_CCW, cell.phi_h), (ARM_CW, cell.phi_v)):
            events.append(
                PulseEvent(
                    time_ns=arrival_time(cell.t, cell.x, arm, tm, launch_offset_ns),
                    voltage_v=cal.phase_to_voltage(phi),
                    width_ns=tm.pulse_width_ns,
                    step=cell.t,
                    position=cell.x,
                    arm=arm,
                )
            )
    events.sort(key=lambda e: (e.time_ns, e.step, e.position, e.arm))
    collisions = [
        ((a.step, a.position, a.arm), (b.step, b.position, b.arm))
        for a, b in zip(events, events[1:])
        if b.time_ns < a.time_ns + a.width_ns
    ]
    if collisions:
        more = " ..." if len(collisions) > REPORTED_COLLISIONS else ""
        raise CollisionError(
            f"{len(collisions)} overlapping pulse pair(s): "
            f"{collisions[:REPORTED_COLLISIONS]}{more}",
            collisions=collisions,
        )
    # Events are time-sorted and share one width, so the last one ends last.
    last = events[-1]
    end, period_end = last.time_ns + last.width_ns, launch_offset_ns + tm.rep_period_ns
    if end > period_end:
        raise CollisionError(
            f"pulse ({last.step},{last.position},{last.arm}) ends at {end:.1f} ns, "
            f"after the laser period ends at {period_end:.1f} ns"
        )
    return PulseSchedule(events=tuple(events))


def decompile_schedule(
    ps: PulseSchedule, tm: TimingModel | None = None, cal: Calibration | None = None
) -> list[PhaseCell]:
    """Recover the phase grid from a pulse schedule.

    Pairs the two arm events of each cell, validates their times against
    the timing model (a common launch offset is inferred from the first
    event), and inverts the calibration. Raises OrphanEventError for a
    cell missing an arm, AlignmentError for a time off its slot and
    DomainError for a non-finite voltage.
    """
    tm = tm or TimingModel()
    cal = cal or Calibration()
    if not ps.events:
        return []
    first = min(ps.events, key=lambda e: e.time_ns)
    offset = first.time_ns - arrival_time(first.step, first.position, first.arm, tm)
    by_cell: dict[tuple[int, int], dict[str, PulseEvent]] = {}
    for e in ps.events:
        expected = arrival_time(e.step, e.position, e.arm, tm, offset)
        # Written so that a NaN time fails it.
        if not abs(e.time_ns - expected) <= ALIGNMENT_TOL_NS:
            raise AlignmentError(
                f"event ({e.step},{e.position},{e.arm}) at {e.time_ns} ns does "
                f"not match its slot at {expected} ns"
            )
        if not math.isfinite(e.voltage_v):
            raise DomainError(
                f"event ({e.step},{e.position},{e.arm}) has voltage {e.voltage_v!r}"
            )
        slot = by_cell.setdefault((e.step, e.position), {})
        if e.arm in slot:
            raise AlignmentError(
                f"duplicate {e.arm} event for cell ({e.step},{e.position})"
            )
        slot[e.arm] = e
    cells = []
    for (t, x), arms in sorted(by_cell.items()):
        if set(arms) != {ARM_CCW, ARM_CW}:
            missing = ({ARM_CCW, ARM_CW} - set(arms)).pop()
            raise OrphanEventError(f"cell ({t},{x}) is missing its {missing} event")
        cells.append(
            PhaseCell(
                t=t,
                x=x,
                phi_h=cal.voltage_to_phase(arms[ARM_CCW].voltage_v),
                phi_v=cal.voltage_to_phase(arms[ARM_CW].voltage_v),
            )
        )
    return cells

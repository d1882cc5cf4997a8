"""Compile coin programs into timed electro-optic modulator pulses.

Each coin angle theta splits into two phase shifts, phi_H = theta on the
horizontal polarization and phi_V = pi - theta on the vertical one. The
horizontal component travels the counter-clockwise arm of the Sagnac loop
and the vertical one the clockwise arm, arriving at the modulator a fixed
delay later, so a single modulator addresses both phases at distinct
times. Phases map to drive voltages through a measured anchor calibration.

Both directions compute on numpy columns in (t, x) cell order and name the
first bad event, as a per-event loop would. A schedule holds its events as
six columns in CSV field order; ``events`` builds a PulseEvent only for the
event it reads.

The loop's geometry is fixed while the coin program changes from run to run,
so what depends only on the geometry is built once: the default TimingModel
and Calibration, and compile's slot table (times, sort order and tags of
every pulse), cached for the last ``SLOT_TABLES`` (steps, timing model,
launch offset) keys.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import repeat
from numbers import Real
from operator import attrgetter

import numpy as np

from .errors import AlignmentError, CollisionError, DomainError, OrphanEventError, _quote
from .state import CoinProgram, _column, _held, _integer, _iterable, _number, _real, support

ARM_CCW = "ccw"  # horizontal polarization, undelayed
ARM_CW = "cw"  # vertical polarization, Sagnac-delayed
ARMS = (ARM_CCW, ARM_CW)  # in sort order, indexed by the cw flag
_ARM_CODES = {arm: code for code, arm in enumerate(ARMS)}  # any other arm is code 2

# Slot tables compile_schedule keeps, one per (steps, timing model, launch offset).
SLOT_TABLES = 4

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
        for f in fields(self):  # keep what a 0-d array holds: a model keys the slot tables
            object.__setattr__(self, f.name, _held(getattr(self, f.name)))
            _real(getattr(self, f.name), f.name, math.ulp(0.0), rule="be positive")
        if self.dt_ns <= self.pulse_width_ns:
            raise DomainError(
                f"position bins unresolvable: dt_ns = {_quote(self.dt_ns)} must exceed "
                f"pulse_width_ns = {_quote(self.pulse_width_ns)}"
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
        try:
            n = len(self.anchors)
        except TypeError:  # no collection: 5, None, a generator
            raise DomainError(f"anchors must be a sequence, got {_quote(self.anchors)}") from None
        if n < 2:
            raise DomainError("calibration needs at least two anchors")
        phases, volts = (_column(c, float, "anchors") for c in zip(*map(_anchor, self.anchors)))
        for name, column in (("phases", phases), ("voltages", volts)):
            if (np.diff(column) <= 0.0).any():
                raise DomainError(f"anchor {name} must be strictly increasing")
        object.__setattr__(self, "_columns", (phases, volts))

    def phase_to_voltage(self, phi: float) -> float:
        # An int phase compares exactly, so one too large for a float is out of range.
        if not (isinstance(phi := _held(phi), Real) and 0.0 <= phi <= math.pi + 1e-12):
            raise DomainError(f"phase {_quote(phi)} outside [0, pi]")
        return float(_piecewise(float(phi), *self._columns))

    def voltage_to_phase(self, volts: float) -> float:
        if not math.isfinite(v := _number(volts, "voltage")):
            raise DomainError(f"voltage {_quote(volts)} is not finite")
        return float(_clamp_phase(_piecewise(v, *reversed(self._columns))))


def _anchor(a) -> tuple[float, float]:
    """One (phase, voltage) anchor as two finite floats: else DomainError."""
    try:
        phase, volts = a
    except (TypeError, ValueError):
        raise DomainError(f"anchor must be a (phase, voltage) pair, got {_quote(a)}") from None
    return _real(phase, "anchor"), _real(volts, "anchor")


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


# The models compile_schedule and decompile_schedule use when given none,
# built once; the calibration's columns are read-only, so no caller changes them.
_TIMING, _CALIBRATION = TimingModel(), Calibration()


@dataclass(frozen=True)
class PulseEvent:
    """One electrical pulse: start time, drive voltage, width, and origin tag."""

    time_ns: float
    voltage_v: float
    width_ns: float
    step: int
    position: int
    arm: str


_EVENT_FIELDS = attrgetter(*(f.name for f in fields(PulseEvent)))


class PulseEvents(Sequence):
    """Read-only pulse events held as the six columns of PulseEvent's fields
    (none given: no events). Reading one event builds its PulseEvent; a
    slice is again PulseEvents."""

    __slots__ = ("columns",)

    def __init__(self, *columns):
        self.columns = tuple(map(tuple, columns)) or ((),) * 6

    def __getitem__(self, i):
        kind = PulseEvents if isinstance(i, slice) else PulseEvent
        return kind(*(c[i] for c in self.columns))

    def __iter__(self):
        return map(PulseEvent, *self.columns)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __eq__(self, other):
        if isinstance(other, PulseEvents):
            return self.columns == other.columns
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))  # as the tuple of the same events, which it equals

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class PulseSchedule:
    """Electrical pulses; ``events`` is held as PulseEvents, and PulseEvent
    records given in its place are turned into columns once."""

    events: Sequence[PulseEvent] = field(default_factory=PulseEvents)

    def __post_init__(self):
        if not isinstance(self.events, PulseEvents):
            events = list(_iterable(self.events, "events"))
            for i, e in enumerate(events):
                if not isinstance(e, PulseEvent):
                    raise DomainError(f"events[{i}] must be a PulseEvent, got {_quote(e)}")
            object.__setattr__(self, "events", PulseEvents(*zip(*map(_EVENT_FIELDS, events))))


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
    t, x = _integer(t, "step"), _integer(x, "position")
    if x not in support(t):
        raise DomainError(f"({_quote(t)},{_quote(x)}) is not a valid (step, position) pair")
    if arm not in ARMS:
        raise DomainError(f"unknown arm {_quote(arm)}")
    time = _slot(_real(t, "step"), x, tm, _number(launch_offset_ns, "launch offset"))
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


@lru_cache(maxsize=SLOT_TABLES)
def _slot_table(steps: int, tm: TimingModel, launch_offset_ns: float) -> tuple:
    """The pulses of every ``steps``-step program on this loop, time-sorted:
    the read-only order that sorts the ccw then cw voltages of the cells in
    (t, x) order, then the time, width, t, x and arm columns. Raises what
    compile_schedule raises for an overlap or an overrun; an error is not
    cached, so it is raised on every call."""
    # Every cell in (t, x) order on its ccw arm (phi_H = theta), then on its cw arm.
    t = np.repeat(np.arange(steps), np.arange(1, steps + 1))
    x = 2 * (np.arange(t.size) - t * (t + 1) // 2) - t
    # Float steps, as in arrival_time and decompile_schedule: t * tm.t_ns never
    # wraps in int64 for an int field, so a model and its float twin agree.
    time = _slot(t.astype(float), x, tm, launch_offset_ns)
    time = np.concatenate([time, time + tm.sagnac_delay_ns])
    t, x, arm = np.concatenate([t, t]), np.concatenate([x, x]), np.repeat([0, 1], t.size)
    order = np.lexsort((arm, x, t, time))
    time, t, x = time[order], t[order].tolist(), x[order].tolist()
    arm = [ARMS[a] for a in arm[order].tolist()]
    # Gaps, not ends: adding the width to a time past ~2**53 ns may not change it.
    hits = np.flatnonzero(np.diff(time) < tm.pulse_width_ns).tolist()
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
    order.flags.writeable = False
    width = (tm.pulse_width_ns,) * len(time)
    return order, tuple(time), width, tuple(t), tuple(x), tuple(arm)


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

    The times, order and tags of the pulses depend only on the geometry, not
    on the angles: they are built once per (p.steps, tm, launch offset) key
    and kept for the last ``SLOT_TABLES`` keys (an lru_cache), so only the
    voltages are computed per call. Equal keys give equal tables: an offset
    of -0.0 is that of 0.0, and a timing model with int fields that of its
    float twin. At the defaults a table holds at most 2 * 91 pulses
    (T <= max_steps = 13); a larger T under a longer laser period is kept
    in memory just the same, up to ``SLOT_TABLES`` tables.
    """
    launch_offset_ns = _real(launch_offset_ns, "launch offset")
    tm, cal = tm or _TIMING, cal or _CALIBRATION
    order, time, width, t, x, arm = _slot_table(p.steps, tm, launch_offset_ns)
    volts = _piecewise(np.concatenate([p.cells.theta, math.pi - p.cells.theta]), *cal._columns)
    return PulseSchedule(events=PulseEvents(time, volts[order].tolist(), width, t, x, arm))


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
    tm, cal = tm or _TIMING, cal or _CALIBRATION
    if not ps.events:
        return []
    times, volts, _, steps, positions, arms = ps.events.columns
    t, x = _column(steps, np.int64, "step"), _column(positions, np.int64, "position")
    time, volts = _column(times, float, "time_ns"), _column(volts, float, "voltage_v")
    first = min(range(len(times)), key=times.__getitem__)
    offset = times[first] - arrival_time(steps[first], positions[first], arms[first], tm)
    try:
        arm = np.fromiter(map(_ARM_CODES.get, arms, repeat(2)), np.int64, len(arms))
    except TypeError:  # an unhashable arm is no arm
        arm = np.array([_ARM_CODES.get(a, 2) if isinstance(a, str) else 2 for a in arms])
    expected = _slot(t.astype(float), x, tm, offset) + tm.sagnac_delay_ns * (arm == 1)
    with np.errstate(invalid="ignore"):  # -inf - -inf is nan, as with Python floats
        off_slot = ~(np.abs(time - expected) <= ALIGNMENT_TOL_NS)
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
            raise AlignmentError(f"{where} at {_quote(e.time_ns)} ns does not match its slot at "
                                 f"{expected} ns")
        if not math.isfinite(volts[i]):
            raise DomainError(f"{where} has voltage {_quote(e.voltage_v)}")
        raise AlignmentError(f"duplicate {e.arm} event for cell ({e.step},{e.position})")
    paired = np.append(False, same_cell) | np.append(same_cell, False)  # ccw sorts before cw
    if not paired.all():
        k = int(np.argmin(paired))
        raise OrphanEventError(f"cell ({t[k]},{x[k]}) is missing its {ARMS[1 - arm[k]]} event")
    phi = _clamp_phase(_piecewise(volts[order], *reversed(cal._columns)))
    cells = t[::2].tolist(), x[::2].tolist(), phi[::2].tolist(), phi[1::2].tolist()
    return list(map(PhaseCell, *cells))

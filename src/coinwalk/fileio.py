"""Text file formats: programs, distributions, schedules, calibrations.

All formats are plain text and deterministic; target schedules and
calibrations are only read, the others round-trip exactly: floats
serialize via repr (shortest exact decimal), except pulse times and
voltages which are fixed to 4 decimals to match the hardware's
resolution.

Every reader strips each line, skips it if blank or a ``#`` comment, and
splits it on whitespace (on ``,`` in the pulse CSV); a line it cannot read
raises ``ParseError("bad <kind> line '<stripped line>': <reason>")``.

A program file is read straight into angle rows: each cell angle is
range-checked by ``state.check_angle`` and the cells must be exactly those
of the header's step count (``state.program_cells``, the coin-map check
``CoinProgram`` applies to a ``cells=`` dict). A target schedule's rows
must lie in 0..T, T being its largest step.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from typing import Iterator, Mapping

from .errors import ParseError
from .pulses import ARM_CCW, ARM_CW, Calibration, PulseEvent, PulseSchedule
from .state import (
    AngleRows,
    CoinProgram,
    DistributionSchedule,
    GeneralCoinOp,
    check_angle,
    localized_state,
    program_cells,
    support,
)

PROGRAM_VERSION = 1
SHIFT_CONVENTION = "right"  # coin-|0> amplitude moves to x+1


def _f(v: float) -> str:
    return repr(float(v))


def _lines(text: str, sep: str | None = None) -> Iterator[tuple[str, list[str]]]:
    """Each stripped line that is not blank or a comment, with its fields,
    split one line at a time so that no list of field lists is kept."""
    kept = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
    return zip(kept, map(str.split, kept, repeat(sep)))


def program_to_text(p: CoinProgram) -> str:
    a, b = p.initial.pair(0)
    lines = [
        f"version {PROGRAM_VERSION}",
        f"steps {p.steps}",
        f"convention {SHIFT_CONVENTION}",
        f"initial {_f(a.real)} {_f(a.imag)} {_f(b.real)} {_f(b.imag)}",
    ]
    for t, row in enumerate(p.cells.rows):
        lines.extend(f"{t} {x} {theta!r}" for x, theta in zip(support(t), row.tolist()))
    if p.final_layer is not None:
        for x, op in sorted(p.final_layer.items()):
            lines.append(
                f"F {x} {_f(op.m00)} {_f(op.m01)} {_f(op.m10)} {_f(op.m11)}"
            )
    return "\n".join(lines) + "\n"


def program_from_text(text: str) -> CoinProgram:
    lines = _lines(text)
    head = list(islice(lines, 5))  # the 4 header lines and the first cell
    if len(head) < 5:
        raise ParseError("program file too short")
    header = {}
    try:
        for ln, _ in head[:4]:
            key, _, rest = ln.partition(" ")
            header[key] = rest
        version = int(header["version"])
        steps = int(header["steps"])
        convention = header["convention"]
        re_a, im_a, re_b, im_b = (float(v) for v in header["initial"].split())
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad program header: {exc}") from exc
    if version != PROGRAM_VERSION:
        raise ParseError(f"unsupported program version {version}")
    if convention != SHIFT_CONVENTION:
        raise ParseError(f"unsupported shift convention {convention!r}")
    angles: dict[tuple[int, int], float] = {}
    final: dict[int, GeneralCoinOp] = {}
    try:
        for ln, parts in chain(head[4:], lines):
            if parts[0] == "F":
                if len(parts) != 6:
                    raise ValueError("expected 6 fields")
                x = int(parts[1])
                if x in final:
                    raise ValueError(f"final coin at position {x} repeated")
                final[x] = GeneralCoinOp(*(float(v) for v in parts[2:6]))
            else:
                if len(parts) != 3:
                    raise ValueError("expected 3 fields")
                t, x = int(parts[0]), int(parts[1])
                if (t, x) in angles:
                    raise ValueError(f"cell ({t},{x}) repeated")
                angles[(t, x)] = check_angle(float(parts[2]))
    except ValueError as exc:
        raise ParseError(f"bad program line {ln!r}: {exc}") from exc
    initial = localized_state(complex(re_a, im_a), complex(re_b, im_b))
    cells = AngleRows(program_cells(angles, steps, float))
    return CoinProgram(
        steps=steps, cells=cells, initial=initial, final_layer=final or None
    )


def distribution_to_text(p: Mapping[int, float]) -> str:
    lines = [f"{x} {_f(p[x])}" for x in sorted(p)]
    return "\n".join(lines) + "\n"


def distribution_from_text(text: str) -> dict[int, float]:
    out = {}
    try:
        for ln, parts in _lines(text):
            if len(parts) not in (2, 3):
                raise ValueError("expected 2 or 3 fields")
            x, prob = int(parts[0]), float(parts[1])
            if len(parts) == 3:
                float(parts[2])  # the sigma that ``coinwalk sample`` writes
            if x in out:
                raise ValueError(f"position {x} repeated")
            out[x] = prob
    except ValueError as exc:
        raise ParseError(f"bad distribution line {ln!r}: {exc}") from exc
    if not out:
        raise ParseError("empty distribution file")
    return out


def schedule_targets_from_text(text: str) -> DistributionSchedule:
    rows: dict[int, dict[int, float]] = {}
    try:
        for ln, parts in _lines(text):
            if len(parts) != 3:
                raise ValueError("expected 3 fields")
            t, x, prob = int(parts[0]), int(parts[1]), float(parts[2])
            row = rows.setdefault(t, {})
            if x in row:
                raise ValueError(f"P({x},{t}) repeated")
            row[x] = prob
    except ValueError as exc:
        raise ParseError(f"bad target line {ln!r}: {exc}") from exc
    if not rows:
        raise ParseError("empty schedule file")
    rows.setdefault(0, {0: 1.0})
    return DistributionSchedule(steps=max(rows), rows=rows)


def calibration_from_text(text: str) -> Calibration:
    anchors = []
    try:
        for ln, parts in _lines(text):
            if len(parts) != 2:
                raise ValueError("expected 2 fields")
            anchors.append((float(parts[0]), float(parts[1])))
    except ValueError as exc:
        raise ParseError(f"bad calibration line {ln!r}: {exc}") from exc
    if len(anchors) < 2:
        raise ParseError("calibration needs at least two anchors")
    return Calibration(anchors=tuple(anchors))


SCHEDULE_HEADER = "time_ns,voltage_v,width_ns,step,position,arm"


def pulse_schedule_to_text(ps: PulseSchedule) -> str:
    lines = [SCHEDULE_HEADER]
    for e in ps.events:
        lines.append(
            f"{e.time_ns:.4f},{e.voltage_v:.4f},{e.width_ns:.4f},"
            f"{e.step},{e.position},{e.arm}"
        )
    return "\n".join(lines) + "\n"


def pulse_schedule_from_text(text: str) -> PulseSchedule:
    lines = _lines(text, ",")
    header = next(lines, None)
    if header is None or header[0] != SCHEDULE_HEADER:
        raise ParseError("missing or unexpected pulse schedule header")
    events = []
    try:
        for ln, parts in lines:
            if len(parts) != 6:
                raise ValueError("expected 6 fields")
            if parts[5] not in (ARM_CCW, ARM_CW):
                raise ValueError(f"unknown arm {parts[5]!r}")
            events.append(
                PulseEvent(
                    time_ns=float(parts[0]),
                    voltage_v=float(parts[1]),
                    width_ns=float(parts[2]),
                    step=int(parts[3]),
                    position=int(parts[4]),
                    arm=parts[5],
                )
            )
    except ValueError as exc:
        raise ParseError(f"bad schedule line {ln!r}: {exc}") from exc
    return PulseSchedule(events=tuple(events))

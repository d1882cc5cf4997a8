"""Text file formats: programs, distributions, schedules, calibrations.

All formats are plain text and deterministic; target schedules and
calibrations are only read, the others round-trip exactly: floats
serialize via repr (shortest exact decimal), except pulse times and
voltages which are fixed to 4 decimals to match the hardware's
resolution.

Every reader strips each line, skips it if blank or a ``#`` comment, and
splits it on whitespace (on ``,`` in the pulse CSV); a line it cannot read
raises ``ParseError("bad <kind> line '<stripped line>': <reason>")``, which
quotes at most the first 80 characters of a longer line.

Program files and target schedules laid out as ``program_to_text`` writes
them (cell lines ``t x value`` in (t, x) order, single spaces, any blank
lines, comments and padding around them) are read by column: each line
must start with its cell's ``"t x "``, the value column is parsed with
Python ``float`` in one pass, and a program's angles get one vectorized
[0, pi] check, the one ``CoinProgram`` applies to angle rows. Any other
layout, and any file the column pass cannot take whole, is read line by
line into a dict of ``CoinOp``s keyed by cell, which goes to ``CoinProgram``
like any other ``cells=`` dict; that reader alone names errors, so every
message is the same whichever layout the file has. Program cells must be
exactly those of the header's step count. A target schedule's rows must
lie in 0..T, T being its largest step; one read by column is a row
schedule (``DistributionSchedule.from_rows``), checked once as a whole
when it is built.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from operator import attrgetter
from typing import Iterator, Mapping

from .errors import CoinWalkError, ParseError, _clip
from .pulses import ARM_CCW, ARM_CW, Calibration, PulseEvent, PulseSchedule
from .state import (
    AngleRows,
    CoinOp,
    CoinProgram,
    DistributionSchedule,
    GeneralCoinOp,
    cell_at,
    localized_state,
)

PROGRAM_VERSION = 1
SHIFT_CONVENTION = "right"  # coin-|0> amplitude moves to x+1


def _f(v: float) -> str:
    return repr(float(v))


def _bad(what: str, exc: Exception, ln: str | None = None) -> ParseError:
    """The ParseError "bad <what> line '<ln>': <reason>", or with no line
    "bad <what>: <reason>". A line over 80 characters is quoted by its
    first 80 and ``...``, and so is its reason, which may quote it again
    (float's and int's do); a header's reason is clipped the same way."""
    if ln is None:
        return ParseError(f"bad {what}: {_clip(str(exc))}")
    reason = exc if len(ln) <= 80 else _clip(str(exc))
    return ParseError(f"bad {what} line {_clip(ln)!r}: {reason}")


def _kept(text: str) -> list[str]:
    """Each line stripped, without the blank and ``#`` comment lines."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]


def _lines(text: str, sep: str | None = None) -> Iterator[tuple[str, list[str]]]:
    """Each kept line (see ``_kept``) with its fields, split one line at a
    time so that no list of field lists is kept. This line-by-line reading
    is the only one that names a bad line; program files and schedules in
    the writers' layout are read by column instead (``_cell_column``, then
    one vectorized angle check), and any other layout comes back here."""
    kept = _kept(text)
    return zip(kept, map(str.split, kept, repeat(sep)))


def _cell_prefixes(rows: int) -> list[str]:
    """``"t x "`` for every cell of steps t < rows, in (t, x) order."""
    xs = [f"{x} " for x in range(-rows, rows + 1)]  # xs[rows + x] == f"{x} "
    return [tp + xp for t in range(rows) for tp in (f"{t} ",)
            for xp in xs[rows - t:rows + t + 1:2]]


def _cell_column(kept: list[str], rows: int) -> list[float] | None:
    """The values of ``kept`` when it is exactly the cell lines ``t x value``
    of steps t < rows in (t, x) order, each value one float field; else None
    (or the ValueError of a value float cannot read)."""
    if rows < 1 or len(kept) != rows * (rows + 1) // 2:  # before anything that size
        return None
    prefixes = _cell_prefixes(rows)
    if not all(map(str.startswith, kept, prefixes)):
        return None
    # float takes surrounding spaces but none inside, so each rest is one field.
    return list(map(float, map(str.removeprefix, kept, prefixes)))


def program_to_text(p: CoinProgram) -> str:
    a, b = p.initial.pair(0)
    head = [
        f"version {PROGRAM_VERSION}",
        f"steps {p.steps}",
        f"convention {SHIFT_CONVENTION}",
        f"initial {_f(a.real)} {_f(a.imag)} {_f(b.real)} {_f(b.imag)}",
    ]
    # One % pass formats every angle with repr; a prefix holds no %.
    cells = ("%r\n".join(_cell_prefixes(p.steps)) + "%r") % tuple(p.cells.theta.tolist())
    final = [
        f"F {x} {_f(op.m00)} {_f(op.m01)} {_f(op.m10)} {_f(op.m11)}"
        for x, op in sorted((p.final_layer or {}).items())
    ]
    return "\n".join([*head, cells, *final]) + "\n"


def _program_header(head: list[str]) -> tuple[int, complex, complex]:
    """The step count and initial coin amplitudes of the 4 header lines."""
    header = {}
    try:
        for ln in head:
            key, _, rest = ln.partition(" ")
            header[key] = rest
        version = int(header["version"])
        steps = int(header["steps"])
        convention = header["convention"]
        re_a, im_a, re_b, im_b = (float(v) for v in header["initial"].split())
    except (KeyError, ValueError) as exc:
        raise _bad("program header", exc) from exc
    if version != PROGRAM_VERSION:
        raise ParseError(f"unsupported program version {_clip(str(version))}")
    if convention != SHIFT_CONVENTION:
        raise ParseError(f"unsupported shift convention {_clip(convention)!r}")
    return steps, complex(re_a, im_a), complex(re_b, im_b)


def _add_final_coin(final: dict[int, GeneralCoinOp], parts: list[str]) -> None:
    if len(parts) != 6:
        raise ValueError("expected 6 fields")
    x = int(parts[1])
    if x in final:
        raise ValueError(f"final coin at position {x} repeated")
    final[x] = GeneralCoinOp(*(float(v) for v in parts[2:6]))


def _program_by_column(text: str) -> CoinProgram | None:
    """A program file as ``program_to_text`` lays it out, every cell line
    before the final layer's T + 1 ``F`` lines if it has one; else None."""
    kept = _kept(text)
    steps, a, b = _program_header(kept[:4])
    n = steps * (steps + 1) // 2
    theta = _cell_column(kept[4:4 + n], steps)
    if theta is None:
        return None
    final: dict[int, GeneralCoinOp] = {}
    for parts in map(str.split, kept[4 + n:]):
        if parts[0] != "F":
            return None
        _add_final_coin(final, parts)
    return CoinProgram(steps=steps, cells=AngleRows(theta),
                       initial=localized_state(a, b), final_layer=final or None)


def _program_by_line(text: str) -> CoinProgram:
    lines = _lines(text)
    head = list(islice(lines, 5))  # the 4 header lines and the first cell
    if len(head) < 5:
        raise ParseError("program file too short")
    steps, a, b = _program_header([ln for ln, _ in head[:4]])
    cells: dict[tuple[int, int], CoinOp] = {}
    final: dict[int, GeneralCoinOp] = {}
    try:
        for ln, parts in chain(head[4:], lines):
            if parts[0] == "F":
                _add_final_coin(final, parts)
            else:
                if len(parts) != 3:
                    raise ValueError("expected 3 fields")
                t, x = int(parts[0]), int(parts[1])
                if (t, x) in cells:
                    raise ValueError(f"cell ({t},{x}) repeated")
                cells[(t, x)] = CoinOp(float(parts[2]))
    except ValueError as exc:
        raise _bad("program", exc, ln) from exc
    return CoinProgram(steps=steps, cells=cells, initial=localized_state(a, b),
                       final_layer=final or None)


def _read(by_column, by_line, text: str):
    """What ``by_column`` reads from ``text``; when it returns None or
    raises, what ``by_line`` reads, which names anything wrong."""
    try:
        value = by_column(text)
    except (ValueError, CoinWalkError):
        value = None
    return by_line(text) if value is None else value


def program_from_text(text: str) -> CoinProgram:
    return _read(_program_by_column, _program_by_line, text)


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
        raise _bad("distribution", exc, ln) from exc
    if not out:
        raise ParseError("empty distribution file")
    return out


def _schedule_by_column(text: str) -> DistributionSchedule | None:
    """A target schedule as ``t x p`` cell lines of every step 0..T in
    (t, x) order; else None."""
    kept = _kept(text)
    rows, x = cell_at(len(kept))  # x == -rows when the lines fill rows 0..rows-1
    probs = _cell_column(kept, rows) if x == -rows else None
    return None if probs is None else DistributionSchedule.from_rows(probs)


def _schedule_by_line(text: str) -> DistributionSchedule:
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
        raise _bad("target", exc, ln) from exc
    if not rows:
        raise ParseError("empty schedule file")
    rows.setdefault(0, {0: 1.0})
    return DistributionSchedule(steps=max(rows), rows=rows)


def schedule_targets_from_text(text: str) -> DistributionSchedule:
    return _read(_schedule_by_column, _schedule_by_line, text)


def calibration_from_text(text: str) -> Calibration:
    anchors = []
    try:
        for ln, parts in _lines(text):
            if len(parts) != 2:
                raise ValueError("expected 2 fields")
            anchors.append((float(parts[0]), float(parts[1])))
    except ValueError as exc:
        raise _bad("calibration", exc, ln) from exc
    if len(anchors) < 2:
        raise ParseError("calibration needs at least two anchors")
    return Calibration(anchors=tuple(anchors))


SCHEDULE_HEADER = "time_ns,voltage_v,width_ns,step,position,arm"


def pulse_schedule_to_text(ps: PulseSchedule) -> str:
    rows = "%.4f,%.4f,%.4f,%s,%s,%s\n" * len(ps.events)  # one % pass; the header holds no %
    fields = map(attrgetter(*SCHEDULE_HEADER.split(",")), ps.events)
    return (SCHEDULE_HEADER + "\n" + rows) % tuple(chain.from_iterable(fields))


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
        raise _bad("schedule", exc, ln) from exc
    return PulseSchedule(events=tuple(events))

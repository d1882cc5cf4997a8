"""Text file formats: programs, distributions, schedules, calibrations.

All formats are plain text and deterministic; target schedules and
calibrations are only read, the others round-trip exactly: floats
serialize via repr (shortest exact decimal), except pulse times and
voltages which are fixed to 4 decimals to match the hardware's
resolution. A program's cell lines are written through one template,
built one row of ``t x %r`` lines per step, and one % pass.

Every reader skips blank and ``#`` comment lines, strips each line and
splits it on whitespace (on ``,`` in the pulse CSV); a line it cannot read
raises ``ParseError("bad <kind> line '<stripped line>': <reason>")``, which
quotes at most the first 80 characters of a longer line. The line readers
and the pulse CSV's column pass strip the lines themselves.

Program files and target schedules whose cell lines ``t x value`` hold
each cell once, in any order, are read by column: numpy's parser takes the
lines ``str.splitlines`` made (the ``#`` lines dropped first, if the text
holds a ``#``), strips each and skips the blank ones in one pass, each value
is placed at its cell, and a program's angles get the one vectorized
[0, pi] check of ``CoinProgram``. Any other layout,
any repeated or missing cell, and any token numpy's parser rejects send the
file to the line reader, which reads a dict of ``CoinOp``s keyed by cell
and alone names errors, so every message is the same whichever layout the
file has. Program cells must be exactly those of the header's step count.
A target schedule's rows must lie in 0..T, T being its largest step; one
read by column is a row schedule of the parsed values themselves, checked
once as a whole when it is built. The pulse CSV is also read by
column: one split per line, then each field column converted in one pass
into the schedule's columns; a CSV that pass cannot take whole goes to the
line reader, which names the bad line.
"""

from __future__ import annotations

import warnings
from itertools import chain, islice, repeat
from typing import Iterator, Mapping

import numpy as np

from .errors import CoinWalkError, ParseError, _clip
from .pulses import ARMS, Calibration, PulseEvents, PulseSchedule
from .state import (
    AngleRows,
    CoinOp,
    CoinProgram,
    DistributionSchedule,
    GeneralCoinOp,
    _row_stack,
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


def _text_lines(text: str) -> list[str]:
    """The lines of ``text`` as str.splitlines gives them, without its ``#`` comment lines."""
    if not isinstance(text, str):
        raise ParseError(f"text must be a str, got a {type(text).__name__}")
    lines = text.splitlines()
    return [ln for ln in lines if ln.lstrip()[:1] != "#"] if "#" in text else lines


def _kept(text: str) -> list[str]:
    """Each line stripped, without the blank and ``#`` comment lines."""
    return list(filter(None, map(str.strip, _text_lines(text))))


def _lines(text: str, sep: str | None = None) -> Iterator[tuple[str, list[str]]]:
    """Each kept line (see ``_kept``) with its fields, split one line at a
    time so that no list of field lists is kept. This line-by-line reading
    is the only one that names a bad line; program files and schedules that
    hold each cell once, and pulse CSVs, are read by column instead, and any
    file the column pass cannot take whole comes back here."""
    kept = _kept(text)
    return zip(kept, map(str.split, kept, repeat(sep)))


def _cell_column(lines: list[str]) -> np.ndarray | None:
    """The values of the cell lines ``t x value`` in (t, x) order if they hold each cell of
    steps 0..T once, in any order, T + 1 being the rows their count fills; else None or
    numpy's ValueError (it takes no token int or float rejects)."""
    if not any(map(str.strip, lines)):  # numpy warns of a text without a cell line
        return None
    with warnings.catch_warnings():  # older numpy reads an int such as 1.0 through float
        warnings.simplefilter("error", DeprecationWarning)  # and warns: then a ValueError
        t, x, value = np.loadtxt(lines, dtype=[("t", "i8"), ("x", "i8"), ("value", "f8")],
                                 comments=None, ndmin=1, unpack=True)
    rows, edge = cell_at(t.size)
    if rows < 1 or edge != -rows:  # no whole rows 0..rows-1
        return None
    if not ((0 <= t) & (t < rows) & (-t <= x) & (x <= t) & ((t ^ x) & 1 == 0)).all():
        return None  # tested before any index arithmetic, which would wrap in int64
    i = t * (t + 1) // 2 + (t + x) // 2
    if np.count_nonzero(np.bincount(i, minlength=t.size)) < t.size:  # a cell repeated
        return None
    values = np.empty(t.size)
    values[i] = value
    return values


def program_to_text(p: CoinProgram) -> str:
    a, b = p.initial.pair(0)
    head = [
        f"version {PROGRAM_VERSION}",
        f"steps {p.steps}",
        f"convention {SHIFT_CONVENTION}",
        f"initial {_f(a.real)} {_f(a.imag)} {_f(b.real)} {_f(b.imag)}",
    ]
    # The template one row per step (xs[n + x] == f"{x} "), then one % pass
    # formats every angle with repr; the template holds no other %.
    n, xs = p.steps, [f"{x} " for x in range(-p.steps, p.steps + 1)]
    template = "\n".join(f"{t} " + f"%r\n{t} ".join(xs[n - t:n + t + 1:2]) + "%r" for t in range(n))
    cells = template % tuple(p.cells.theta.tolist())
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
    """A program file whose cell lines hold each cell once, in any order,
    all before the final layer's T + 1 ``F`` lines if it has one; else None."""
    lines = _text_lines(text)
    head = list(islice(((h, ln) for h, ln in enumerate(map(str.strip, lines)) if ln), 4))
    steps, a, b = _program_header([ln for _, ln in head])
    start = head[-1][0] + 1
    end = len(lines)  # the cell lines end at the blank and F lines that end the file
    while end > start and lines[end - 1].lstrip()[:1] in ("", "F"):
        end -= 1
    cells = steps * (steps + 1) // 2  # counted before numpy reads a line
    theta = _cell_column(lines[start:end]) if end - start >= cells else None
    if theta is None or theta.size != cells:
        return None
    final: dict[int, GeneralCoinOp] = {}
    for parts in filter(None, map(str.split, lines[end:])):
        if parts[0] != "F":
            return None
        _add_final_coin(final, parts)
    return CoinProgram(steps=steps, cells=AngleRows._of(theta),
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
    """A target schedule as ``t x p`` cell lines of every step 0..T, each
    cell once, in any order; else None."""
    probs = _cell_column(_text_lines(text))
    return None if probs is None else DistributionSchedule._of(
        _row_stack(probs, cell_at(probs.size)[0]))


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
    fields = zip(*ps.events.columns)  # the events' columns are in header order
    return (SCHEDULE_HEADER + "\n" + rows) % tuple(chain.from_iterable(fields))


def _pulses_by_column(text: str) -> PulseSchedule | None:
    """A pulse CSV whose lines after the header all have 6 fields and a
    known arm, each column converted in one pass; else None."""
    kept = _kept(text)
    rows = list(map(str.split, kept[1:], repeat(",")))
    if kept[:1] != [SCHEDULE_HEADER] or set(map(len, rows)) - {6}:
        return None
    time, volts, width, step, position, arm = list(zip(*rows)) or [()] * 6
    if not set(arm).issubset(ARMS):
        return None
    numbers = map(map, (float, float, float, int, int), (time, volts, width, step, position))
    return PulseSchedule(events=PulseEvents(*numbers, arm))


def _pulses_by_line(text: str) -> PulseSchedule:
    lines = _lines(text, ",")
    header = next(lines, None)
    if header is None or header[0] != SCHEDULE_HEADER:
        raise ParseError("missing or unexpected pulse schedule header")
    events = []
    try:
        for ln, parts in lines:
            if len(parts) != 6:
                raise ValueError("expected 6 fields")
            if parts[5] not in ARMS:
                raise ValueError(f"unknown arm {parts[5]!r}")
            events.append((float(parts[0]), float(parts[1]), float(parts[2]),
                           int(parts[3]), int(parts[4]), parts[5]))
    except ValueError as exc:
        raise _bad("schedule", exc, ln) from exc
    return PulseSchedule(events=PulseEvents(*zip(*events)))


def pulse_schedule_from_text(text: str) -> PulseSchedule:
    return _read(_pulses_by_column, _pulses_by_line, text)

"""The line rule every text reader shares: blank and comment lines are
skipped, lines are stripped, and a bad line is named the same way. Program
files and schedules in the writers' layout are read by column; whatever
else they hold, the public readers agree with the line-by-line readers."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import fileio
from coinwalk.errors import IncompleteLayerError, ParseError
from coinwalk.pulses import compile_schedule
from coinwalk.state import AngleRows, CoinProgram, GeneralCoinOp, localized_state, support
from coinwalk.synth import uniform_program

PROGRAM = fileio.program_to_text(uniform_program(3))
PULSES = fileio.pulse_schedule_to_text(compile_schedule(uniform_program(2)))

# reader, a valid bare file, and the kind its error lines name
READERS = {
    "program": (fileio.program_from_text, PROGRAM, "program"),
    "distribution": (fileio.distribution_from_text, "-1 0.25 0.01\n1 0.75\n", "distribution"),
    "schedule": (fileio.schedule_targets_from_text, "0 0 1.0\n1 -1 0.5\n1 1 0.5\n", "target"),
    "calibration": (fileio.calibration_from_text, "0.785 0.127\n1.571 0.263\n", "calibration"),
    "pulses": (fileio.pulse_schedule_from_text, PULSES, "schedule"),
}


def padded(text):
    """The same file with blank lines, comments and whitespace around every
    line: an indented header in a program, a trailing space after the CSV header."""
    out = ["", "# column-0 comment", "   "]
    for ln in text.splitlines():
        out += [f"  \t{ln}  ", "    # indented comment", "\t"]
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("read, text", [v[:2] for v in READERS.values()], ids=READERS.keys())
def test_blank_comment_and_padded_lines_parse_like_the_bare_file(read, text):
    assert read(padded(text)) == read(text)


def test_header_only_program_is_too_short():
    header = "".join(PROGRAM.splitlines(keepends=True)[:4])
    with pytest.raises(ParseError, match="program file too short"):
        fileio.program_from_text(header + "# no cells\n")


@pytest.mark.parametrize("name, line, fields", [
    ("program", "0 0", "3"),
    ("program", "F 1 1.0 0.0 0.0", "6"),
    ("distribution", "0", "2 or 3"),
    ("distribution", "0 0.5 0.1 7", "2 or 3"),
    ("schedule", "1 -1", "3"),
    ("calibration", "0.5", "2"),
    ("pulses", "0.0000,0.1270,1.0000,0,0", "6"),
])
def test_wrong_field_count_names_the_stripped_line(name, line, fields):
    read, text, kind = READERS[name]
    with pytest.raises(ParseError, match=f"^bad {kind} line '{line}': expected {fields} fields$"):
        read(text + f"  {line} \n")


def test_program_of_another_version_is_rejected():
    with pytest.raises(ParseError, match="^unsupported program version 2$"):
        fileio.program_from_text(PROGRAM.replace("version 1\n", "version 2\n", 1))


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"], ids=["empty", "comment"])
def test_distribution_or_schedule_without_a_line_is_rejected(text):
    with pytest.raises(ParseError, match="^empty distribution file$"):
        fileio.distribution_from_text(text)
    with pytest.raises(ParseError, match="^empty schedule file$"):
        fileio.schedule_targets_from_text(text)


def test_calibration_of_one_anchor_is_rejected():
    with pytest.raises(ParseError, match="^calibration needs at least two anchors$"):
        fileio.calibration_from_text("0.785 0.127\n")


def test_distribution_sigma_must_be_a_float():
    with pytest.raises(ParseError, match="^bad distribution line '0 1.0 abc': could not convert"):
        fileio.distribution_from_text("0 1.0 abc\n")
    assert fileio.distribution_from_text("0 1.0 0.5\n") == {0: 1.0}


def test_pulse_arm_must_be_ccw_or_cw():
    with pytest.raises(ParseError, match="^bad schedule line '0.0000,0.1270,1.0000,0,0,xyz': "
                                         "unknown arm 'xyz'$"):
        fileio.pulse_schedule_from_text(PULSES + "0.0000,0.1270,1.0000,0,0,xyz\n")


HUGE = "9" * 1_000_000 + "x"  # a field float and int cannot read, quoted whole by their errors


@pytest.mark.parametrize("read, text", [
    (fileio.program_from_text, PROGRAM.replace("\n0 0 ", f"\n0 0 {HUGE} ", 1)),
    (fileio.program_from_text, PROGRAM.replace("initial ", f"initial {HUGE} ", 1)),
    (fileio.program_from_text, PROGRAM.replace("convention right", f"convention {HUGE}")),
    (fileio.distribution_from_text, f"0 0.5\n2 {HUGE}\n"),
    (fileio.schedule_targets_from_text, f"0 0 1.0\n1 -1 {HUGE}\n"),
    (fileio.calibration_from_text, f"0.785 0.127\n{HUGE} 0.263\n"),
    (fileio.pulse_schedule_from_text, PULSES + f"{HUGE},0.1270,1.0000,0,0,ccw\n"),
    (fileio.pulse_schedule_from_text, PULSES + f"0.0000,0.1270,1.0000,0,0,{HUGE}\n"),
], ids=["program-cell", "program-header", "program-convention", "distribution",
        "schedule", "calibration", "pulses-time", "pulses-arm"])
def test_message_of_a_huge_bad_line_stays_short(read, text):
    with pytest.raises(ParseError) as info:
        read(text)
    message = str(info.value)
    assert len(message.encode()) < 300
    assert "9" * 40 in message and "..." in message


def random_program_text(rng, steps, final):
    """A program file as program_to_text writes it: random angles, a random
    initial coin and, if ``final``, a random orthogonal final layer."""
    alpha, beta = rng.uniform(0.0, math.pi, 2)
    final_layer = None
    if final:
        final_layer = {
            x: GeneralCoinOp(math.cos(phi), math.sin(phi), math.sin(phi), -math.cos(phi))
            for x, phi in zip(support(steps), rng.uniform(0.0, math.pi, steps + 1))
        }
    program = CoinProgram(
        steps=steps,
        cells=AngleRows(rng.uniform(0.0, math.pi, steps * (steps + 1) // 2)),
        initial=localized_state(math.cos(alpha), math.sin(alpha) * cmath.exp(1j * beta)),
        final_layer=final_layer,
    )
    return fileio.program_to_text(program)


def random_schedule_text(rng, steps):
    """``t x p`` lines of random normalized rows for steps 0..T."""
    lines = []
    for t in range(steps + 1):
        w = rng.random(t + 1)
        lines += [f"{t} {x} {p!r}" for x, p in zip(support(t), (w / w.sum()).tolist())]
    return "\n".join(lines) + "\n"


TOKENS = ["nan", "inf", "4.0", "-0.0", "1_0", "+1"]


@st.composite
def mutated(draw, lines, body):
    """``lines`` changed once from line ``body`` on (the program header
    only by its step count), or left as they are."""
    lines = list(lines)
    i = draw(st.integers(body, len(lines) - 1))
    kind = draw(st.sampled_from(
        ["none", "swap", "duplicate", "drop", "field", "bare", "value", "pad", "steps"]))
    if kind == "swap":
        j = draw(st.integers(body, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "duplicate":
        lines.insert(draw(st.integers(body, len(lines))), lines[i])
    elif kind == "drop":
        del lines[i]
    elif kind == "field":
        lines[i] += " 0.5"
    elif kind == "bare":
        lines[i] = lines[i].split(" ")[-1]
    elif kind == "value":
        parts = lines[i].split(" ")
        parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(TOKENS))
        lines[i] = " ".join(parts)
    elif kind == "pad":
        lines = padded("\n".join(lines)).splitlines()
    elif kind == "steps" and body:
        steps = int(lines[1].split()[1])
        lines[1] = f"steps {steps + draw(st.sampled_from([-1, 1, 2, 1000]))}"
    return "\n".join(lines) + "\n"


def outcome(read, text):
    """The value ``read`` returns, or the type and message of what it raises."""
    try:
        return read(text)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def program_files(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    text = random_program_text(rng, draw(st.integers(1, 30)), draw(st.booleans()))
    return draw(mutated(text.splitlines(), 4))


@st.composite
def schedule_files(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return draw(mutated(random_schedule_text(rng, draw(st.integers(1, 30))).splitlines(), 0))


@settings(max_examples=150, deadline=None)
@given(program_files())
def test_program_reader_agrees_with_the_line_reader(text):
    assert outcome(fileio.program_from_text, text) == outcome(fileio._program_by_line, text)


@settings(max_examples=150, deadline=None)
@given(schedule_files())
def test_schedule_reader_agrees_with_the_line_reader(text):
    assert (outcome(fileio.schedule_targets_from_text, text)
            == outcome(fileio._schedule_by_line, text))


@pytest.mark.parametrize("final", [False, True], ids=["cells", "final-layer"])
def test_written_files_are_read_by_column(monkeypatch, final):
    program = random_program_text(np.random.default_rng(1), 12, final)
    schedule = random_schedule_text(np.random.default_rng(2), 12)
    expected = fileio._program_by_line(program), fileio._schedule_by_line(schedule)

    def line_reader(text):
        raise AssertionError("a written file reached the line reader")

    monkeypatch.setattr(fileio, "_program_by_line", line_reader)
    monkeypatch.setattr(fileio, "_schedule_by_line", line_reader)
    got = (fileio.program_from_text(padded(program)),
           fileio.schedule_targets_from_text(padded(schedule)))
    assert got == expected


def test_huge_steps_header_is_rejected_before_any_cell_list(monkeypatch):
    text = fileio.program_to_text(uniform_program(2)).replace("steps 2", "steps 1000000000000")
    sizes = []
    prefixes = fileio._cell_prefixes

    def recorded(rows):
        sizes.append(rows)
        return prefixes(min(rows, 2))  # never the list a huge header asks for

    monkeypatch.setattr(fileio, "_cell_prefixes", recorded)
    with pytest.raises(IncompleteLayerError, match=r"cell \(2,-2\) at step 2, position -2"):
        fileio.program_from_text(text)
    assert sizes == []

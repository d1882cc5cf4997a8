"""The line rule every text reader shares: blank and comment lines are
skipped, lines are stripped, and a bad line is named the same way. Program
files and schedules that hold each cell once, in any order, are read by
column; whatever else they hold, the public readers agree with the
line-by-line readers."""

import cmath
import math
import operator
import warnings

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


FILLER_LINES = ["", "  ", "\t", "\u3000", "# comment", "  # indented comment", "#"]
PADS = ["", " ", "\t ", "\u3000"]


@st.composite
def respaced(draw, text):
    """``text`` as it is, or with blank, whitespace-only and ``#`` lines put in before, inside
    or after a program's header and anywhere else, lines padded with leading and trailing
    spaces, and ``\\r\\n`` line ends."""
    if draw(st.booleans()):
        return text
    lines = text.splitlines()
    for head in (True, False, False):
        i = draw(st.integers(0, min(5, len(lines)) if head else len(lines)))
        lines.insert(i, draw(st.sampled_from(FILLER_LINES)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from(PADS)) + lines[i] + draw(st.sampled_from(PADS))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


@st.composite
def program_files(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    text = random_program_text(rng, draw(st.integers(1, 30)), draw(st.booleans()))
    return draw(respaced(draw(mutated(text.splitlines(), 4))))


@st.composite
def schedule_files(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    text = random_schedule_text(rng, draw(st.integers(1, 30)))
    return draw(respaced(draw(mutated(text.splitlines(), 0))))


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


class Text(str):
    """A str that keeps the list its splitlines returned."""

    def splitlines(self, keepends=False):
        self.lines = super().splitlines(keepends)
        return self.lines


@pytest.mark.parametrize("final", [False, True], ids=["cells", "final-layer"])
def test_written_files_reach_numpy_as_their_own_lines(monkeypatch, final):
    program = Text(random_program_text(np.random.default_rng(1), 12, final))
    schedule = Text(random_schedule_text(np.random.default_rng(2), 12))
    expected = fileio._program_by_line(program), fileio._schedule_by_line(schedule)
    read, loadtxt = [], fileio.np.loadtxt

    def recorded(lines, **kwargs):
        read.append(lines)
        return loadtxt(lines, **kwargs)

    def kept(text):
        raise AssertionError("a written file was stripped line by line")

    monkeypatch.setattr(fileio.np, "loadtxt", recorded)
    monkeypatch.setattr(fileio, "_kept", kept)
    got = fileio.program_from_text(program), fileio.schedule_targets_from_text(schedule)
    assert got == expected
    cells, rows = read
    # The 78 cell lines are the program's own line objects, after its 4 header lines; the
    # schedule's lines are the very list splitlines returned.
    assert len(cells) == 78 and all(map(operator.is_, cells, program.lines[4:]))
    assert rows is schedule.lines


EDGES = [str(2**63), str(-2**63), str(2**63 - 1), str(10**20)]  # int64's edges and past them
NUMPY_REJECTS = ["\u0661", "\uff10.5", "1_0"]  # int or float reads each; numpy's parser does not
DIGITS = [str.maketrans("0123456789", "".join(map(chr, range(zero, zero + 10))))
          for zero in (0x660, 0xFF10)]  # Arabic-Indic and fullwidth digits


@st.composite
def reordered(draw, lines, body):
    """``lines`` with their cell lines from line ``body`` on shuffled or not,
    then changed once: as ``mutated`` changes them, by a cell moved to a
    nearby step or position, a step or position at or past the edges of
    int64, a step written as a float, a field that int or float reads but
    numpy's parser does not, or tabs or em spaces between the fields of one
    cell line or of all of them."""
    lines = list(lines)
    cells = [i for i in range(body, len(lines)) if not lines[i].startswith("F")]
    if draw(st.booleans()):
        for i, ln in zip(cells, draw(st.permutations([lines[i] for i in cells]))):
            lines[i] = ln
    kind = draw(st.sampled_from(
        ["mutated", "moved", "edge", "float-step", "token", "digits", "sep"]))
    if kind == "mutated":
        return draw(mutated(lines, body))
    i = draw(st.sampled_from(cells))
    parts = lines[i].split(" ")
    if kind == "moved":  # onto a neighbour cell, of the other parity, or off the lattice
        k = draw(st.integers(0, 1))
        parts[k] = str(int(parts[k]) + draw(st.sampled_from([-2, -1, 1, 2])))
    elif kind == "edge":
        parts[draw(st.integers(0, 1))] = draw(st.sampled_from(EDGES))
    elif kind == "float-step":
        parts[0] += draw(st.sampled_from([".0", "e0"]))
    elif kind == "token":
        parts[draw(st.integers(0, 2))] = draw(st.sampled_from(NUMPY_REJECTS))
    elif kind == "digits":  # the same number in other digits, or with an underscore
        k = draw(st.integers(0, 2))
        pairs = [j for j in range(1, len(parts[k])) if parts[k][j - 1:j + 1].isdigit()]
        if pairs and draw(st.booleans()):
            j = draw(st.sampled_from(pairs))
            parts[k] = parts[k][:j] + "_" + parts[k][j:]
        else:
            parts[k] = parts[k].translate(draw(st.sampled_from(DIGITS)))
    lines[i] = " ".join(parts)
    if kind == "sep":
        sep = draw(st.sampled_from(["\t", "\u2003"]))
        for j in (cells if draw(st.booleans()) else [i]):
            lines[j] = lines[j].replace(" ", sep)
    return "\n".join(lines) + "\n"


@st.composite
def reordered_program_files(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    text = random_program_text(rng, draw(st.integers(1, 30)), draw(st.booleans()))
    return draw(respaced(draw(reordered(text.splitlines(), 4))))


@st.composite
def reordered_schedule_files(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    text = random_schedule_text(rng, draw(st.integers(1, 30)))
    return draw(respaced(draw(reordered(text.splitlines(), 0))))


@settings(max_examples=150, deadline=None)
@given(reordered_program_files())
def test_program_reader_agrees_with_the_line_reader_in_any_order(text):
    assert outcome(fileio.program_from_text, text) == outcome(fileio._program_by_line, text)


@settings(max_examples=150, deadline=None)
@given(reordered_schedule_files())
def test_schedule_reader_agrees_with_the_line_reader_in_any_order(text):
    assert (outcome(fileio.schedule_targets_from_text, text)
            == outcome(fileio._schedule_by_line, text))


@pytest.mark.parametrize("cell", [
    "1 0",  # the other parity: its index is that of (1,-1)
    "1 1",  # (1,1) twice, (1,-1) missing
    "1 -3",  # left of the lattice: its index is that of (0,0)
    "2 4",  # right of the lattice: its index is one past the last
    "3 -1",  # the step of the header, or past the schedule's last row
    "2 -9223372036854775808",
    "-9223372036854775808 -9223372036854775808",
    "9223372036854775807 1",
    "1.0 -1",
    "1e0 -1",
    "\u0661 -1",
    "1\t-1",
    "1\u2003-1",
])
@pytest.mark.parametrize("at", ["0 0", "1 -1"])
def test_a_cell_line_the_column_pass_must_not_place_reads_as_by_line(cell, at):
    schedule = "# T = 2\n0 0 1.0\n1 -1 0.5\n1 1 0.5\n2 -2 0.25\n2 0 0.5\n2 2 0.25\n"
    for read, by_line, text in [
        (fileio.program_from_text, fileio._program_by_line, PROGRAM),
        (fileio.schedule_targets_from_text, fileio._schedule_by_line, schedule),
    ]:
        text = text.replace(f"\n{at} ", f"\n{cell} ", 1)
        assert outcome(read, text) == outcome(by_line, text)


@pytest.mark.parametrize("final", [False, True], ids=["cells", "final-layer"])
def test_shuffled_written_files_are_read_by_column(monkeypatch, final):
    rng = np.random.default_rng(3)
    written = random_program_text(np.random.default_rng(1), 12, final)
    program = written.splitlines()
    program[4:82] = rng.permutation(program[4:82]).tolist()  # the 78 cell lines
    schedule = rng.permutation(random_schedule_text(np.random.default_rng(2), 12).splitlines())
    program, schedule = "\n".join(program) + "\n", "\n".join(schedule) + "\n"
    assert program != written
    expected = fileio._program_by_line(program), fileio._schedule_by_line(schedule)

    def line_reader(text):
        raise AssertionError("a shuffled written file reached the line reader")

    monkeypatch.setattr(fileio, "_program_by_line", line_reader)
    monkeypatch.setattr(fileio, "_schedule_by_line", line_reader)
    got = fileio.program_from_text(program), fileio.schedule_targets_from_text(schedule)
    assert got == expected


def test_huge_steps_header_is_rejected_before_numpy_reads_a_line(monkeypatch):
    rows = []
    loadtxt = fileio.np.loadtxt

    def recorded(lines, **kwargs):
        rows.append(len(lines))
        return loadtxt(lines, **kwargs)

    monkeypatch.setattr(fileio.np, "loadtxt", recorded)
    text = fileio.program_to_text(uniform_program(2))
    fileio.program_from_text(text)
    assert rows == [3]  # the column pass reads through the recording
    with pytest.raises(IncompleteLayerError, match=r"cell \(2,-2\) at step 2, position -2"):
        fileio.program_from_text(text.replace("steps 2", "steps 1000000000000"))
    assert rows == [3]


def test_an_int_that_older_numpy_reads_through_float_goes_to_the_line_reader(monkeypatch):
    """From numpy 1.23 until the deprecation expired, numpy's parser read an int
    field such as 1.0 through float with only a DeprecationWarning, which it
    raises as a ValueError when the warning is an error."""
    loadtxt = fileio.np.loadtxt

    def older_loadtxt(lines, **kwargs):
        if any(ln.startswith("1.0 ") for ln in lines):
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
            except DeprecationWarning as exc:
                raise ValueError("could not convert string '1.0' to int64") from exc
            lines = ["1" + ln[3:] if ln.startswith("1.0 ") else ln for ln in lines]
        return loadtxt(lines, **kwargs)

    monkeypatch.setattr(fileio.np, "loadtxt", older_loadtxt)
    text = PROGRAM.replace("\n1 -1 ", "\n1.0 -1 ", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # as outside __main__ by default
        assert outcome(fileio.program_from_text, text) == outcome(fileio._program_by_line, text)


def kept_reference(text):
    """The kept lines as one comprehension: each line stripped, and the blank
    and ``#`` comment lines left out."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]


# Line breaks and whitespace to str.splitlines and str.strip: \x0b, \x0c, \x1c,
# \x85 and \u2028 end a line, \u3000 is only stripped.
KEPT_TOKENS = ["#", " ", "\t", "\r\n", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028",
               "\u3000", "0", "7", "a", "Z"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(KEPT_TOKENS), max_size=60).map("".join))
def test_kept_lines_equal_the_one_comprehension(text):
    assert fileio._kept(text) == kept_reference(text)
    assert fileio._kept(text.replace("#", "")) == kept_reference(text.replace("#", ""))


def test_program_writer_writes_each_cell_as_t_x_repr_in_cell_order():
    rng = np.random.default_rng(29)
    programs = [uniform_program(300)]  # with a final layer
    for steps in range(1, 41):
        theta = rng.uniform(0.0, math.pi, steps * (steps + 1) // 2)
        theta[::5] = 0.0  # and the edges of the angle range
        theta[2::5] = math.pi
        programs.append(CoinProgram(steps, AngleRows(theta), localized_state(1.0, 0.0)))
    for program in programs:
        cells = [(t, x) for t in range(program.steps) for x in range(-t, t + 1, 2)]
        lines = fileio.program_to_text(program).splitlines()
        assert lines[4:4 + len(cells)] == [f"{t} {x} {v!r}" for (t, x), v in
                                           zip(cells, program.cells.theta.tolist(), strict=True)]
        assert all(ln.startswith("F ") for ln in lines[4 + len(cells):])

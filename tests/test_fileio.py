"""The line rule every text reader shares: blank and comment lines are
skipped, lines are stripped, and a bad line is named the same way."""

import pytest

from coinwalk import fileio
from coinwalk.errors import ParseError
from coinwalk.pulses import compile_schedule
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


def test_distribution_sigma_must_be_a_float():
    with pytest.raises(ParseError, match="^bad distribution line '0 1.0 abc': could not convert"):
        fileio.distribution_from_text("0 1.0 abc\n")
    assert fileio.distribution_from_text("0 1.0 0.5\n") == {0: 1.0}


def test_pulse_arm_must_be_ccw_or_cw():
    with pytest.raises(ParseError, match="^bad schedule line '0.0000,0.1270,1.0000,0,0,xyz': "
                                         "unknown arm 'xyz'$"):
        fileio.pulse_schedule_from_text(PULSES + "0.0000,0.1270,1.0000,0,0,xyz\n")

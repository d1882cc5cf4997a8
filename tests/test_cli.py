import argparse
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from coinwalk import cli, fileio, synth, walk
from coinwalk.cli import (
    EXIT_COLLISION,
    EXIT_DOMAIN,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from coinwalk.errors import DomainError, IncompleteLayerError, ParseError
from coinwalk.noise import NoiseModel, perturb_program
from coinwalk.pulses import TimingModel, compile_schedule
from coinwalk.state import CoinOp, WalkerState
from coinwalk.synth import uniform_program


def run(*argv):
    return main([str(a) for a in argv])


class TestSynthesizeSimulate:
    def test_uniform_pipeline(self, tmp_path):
        prog = tmp_path / "uniform.prog"
        out = tmp_path / "dists"
        assert run("synthesize", "--target", "uniform", "--steps", "11",
                   "-o", prog) == EXIT_OK
        assert run("simulate", prog, "--out-dir", out) == EXIT_OK
        final = fileio.distribution_from_text((out / "dist_t11.txt").read_text())
        assert final == pytest.approx({x: 1 / 12 for x in range(-11, 12, 2)}, abs=1e-9)

    def test_gaussian_similarity_is_one(self, tmp_path, capsys):
        prog = tmp_path / "g.prog"
        out = tmp_path / "dists"
        run("synthesize", "--target", "gaussian", "--steps", "11", "-o", prog)
        run("simulate", prog, "--out-dir", out)
        analytic = {x: math.comb(11, (11 + x) // 2) / 2 ** 11
                    for x in range(-11, 12, 2)}
        ref = tmp_path / "analytic.txt"
        ref.write_text(fileio.distribution_to_text(analytic))
        assert run("similarity", out / "dist_t11.txt", ref) == EXIT_OK
        f = float(capsys.readouterr().out.strip())
        assert f == pytest.approx(1.0, abs=1e-9)

    def test_schedule_file_input(self, tmp_path):
        sched = tmp_path / "targets.txt"
        lines = ["0 0 1.0"]
        for t in range(1, 5):
            for x in range(-t, t + 1, 2):
                lines.append(f"{t} {x} {1 / (t + 1)!r}")
        sched.write_text("\n".join(lines) + "\n")
        prog = tmp_path / "from_sched.prog"
        assert run("synthesize", "--schedule", sched, "-o", prog) == EXIT_OK
        parsed = fileio.program_from_text(prog.read_text())
        assert parsed.steps == 4
        assert parsed.final_layer is not None
        final = walk.run_program(parsed)[-1].state
        for x, (a, b) in final.amplitudes.items():
            assert abs(a - math.sqrt(1 / 5)) < 1e-12
            assert abs(b) < 1e-12

    def test_schedule_with_empty_final_cell(self, tmp_path):
        sched = tmp_path / "targets.txt"
        sched.write_text("0 0 1.0\n1 -1 1.0\n1 1 0.0\n")
        prog = tmp_path / "p.prog"
        assert run("synthesize", "--schedule", sched, "--no-final-layer",
                   "-o", prog) == EXIT_OK
        assert fileio.program_from_text(prog.read_text()).final_layer is None
        # The empty cell (1, 1) gets a coin too: any orthogonal coin
        # disentangles a zero pair.
        assert run("synthesize", "--schedule", sched, "-o", prog) == EXIT_OK
        final = walk.run_program(fileio.program_from_text(prog.read_text()))[-1].state
        assert final.pair(-1) == pytest.approx((1, 0), abs=1e-12)
        assert final.pair(1) == pytest.approx((0, 0), abs=1e-12)


class TestCompileCommand:
    def test_hadamard_single_step(self, tmp_path):
        prog = tmp_path / "h.prog"
        sched = tmp_path / "pulses.csv"
        run("synthesize", "--target", "hadamard", "--steps", "1", "-o", prog)
        assert run("compile", prog, "-o", sched) == EXIT_OK
        lines = sched.read_text().splitlines()
        assert lines[1].startswith("0.0000,0.1270")
        assert lines[2].startswith("39.1000,0.3920")

    def test_collision_exit_code(self, tmp_path):
        prog = tmp_path / "h.prog"
        run("synthesize", "--target", "hadamard", "--steps", "2", "-o", prog)
        code = run("compile", prog, "-o", tmp_path / "x.csv",
                   "--dt-ns", "1.8", "--sagnac-ns", "0.9")
        assert code == EXIT_COLLISION

    def test_pulse_past_laser_period_exit_code(self, tmp_path):
        prog = tmp_path / "u.prog"
        run("synthesize", "--target", "uniform", "--steps", "14", "-o", prog)
        assert run("compile", prog, "-o", tmp_path / "x.csv") == EXIT_COLLISION


# The compile flag of each TimingModel field, and a value of it other than the default.
TIMING_FLAGS = {"t_ns": ("--t-ns", 70.0), "dt_ns": ("--dt-ns", 2.5),
                "sagnac_delay_ns": ("--sagnac-ns", 38.0), "pulse_width_ns": ("--width-ns", 0.8),
                "rep_period_ns": ("--rep-ns", 1200.0)}


def test_compile_reads_every_timing_flag_into_its_field(tmp_path):
    assert set(TIMING_FLAGS) == {f.name for f in fields(TimingModel)}
    program = uniform_program(13)
    (tmp_path / "u.prog").write_text(fileio.program_to_text(program))
    flags = [str(a) for flag, value in TIMING_FLAGS.values() for a in (flag, value)]
    assert run("compile", tmp_path / "u.prog", "-o", tmp_path / "u.csv", *flags,
               "--launch-offset", "3.5") == EXIT_OK
    tm = TimingModel(**{name: value for name, (_, value) in TIMING_FLAGS.items()})
    expected = fileio.pulse_schedule_to_text(compile_schedule(program, tm, launch_offset_ns=3.5))
    assert (tmp_path / "u.csv").read_text() == expected
    # The laser period changes no pulse; one too short to hold them shows it is read.
    assert run("compile", tmp_path / "u.prog", "-o", tmp_path / "x.csv", *flags,
               "--rep-ns", "500") == EXIT_COLLISION


class TestExitCodes:
    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.prog"
        bad.write_text("not a program\n")
        assert run("simulate", bad, "--out-dir", tmp_path / "o") == EXIT_PARSE

    def test_infeasible_schedule(self, tmp_path):
        sched = tmp_path / "bad_sched.txt"
        sched.write_text(
            "0 0 1.0\n1 -1 0.1\n1 1 0.9\n2 -2 0.9\n2 0 0.05\n2 2 0.05\n"
        )
        assert run("synthesize", "--schedule", sched,
                   "-o", tmp_path / "p.prog") == EXIT_INFEASIBLE

    def test_domain_error(self, tmp_path):
        dist = tmp_path / "d.txt"
        dist.write_text("0 0.5\n2 0.5\n")
        # Position 0 is outside the 7-step support parity.
        assert run("extract-bits", dist, "--steps", "7", "--events", "10",
                   "-o", tmp_path / "bits.txt") == EXIT_DOMAIN


    def test_stray_program_cell(self, tmp_path):
        text = fileio.program_to_text(uniform_program(1)) + "7 1 0.5\n"
        with pytest.raises(DomainError, match="step 7, position 1"):
            fileio.program_from_text(text)
        prog = tmp_path / "stray.prog"
        prog.write_text(text)
        assert run("compile", prog, "-o", tmp_path / "x.csv") == EXIT_DOMAIN

    def test_stray_final_coin(self, tmp_path):
        text = fileio.program_to_text(uniform_program(1)) + "F 3 1.0 0.0 0.0 -1.0\n"
        with pytest.raises(DomainError, match="position 3"):
            fileio.program_from_text(text)
        prog = tmp_path / "stray.prog"
        prog.write_text(text)
        assert run("simulate", prog, "--out-dir", tmp_path / "o") == EXIT_DOMAIN
        assert run("compile", prog, "-o", tmp_path / "x.csv") == EXIT_DOMAIN

    def test_missing_final_coin(self, tmp_path):
        lines = fileio.program_to_text(uniform_program(1)).splitlines()
        text = "\n".join(ln for ln in lines if not ln.startswith("F 1 ")) + "\n"
        with pytest.raises(IncompleteLayerError, match="position 1"):
            fileio.program_from_text(text)
        prog = tmp_path / "missing.prog"
        prog.write_text(text)
        assert run("simulate", prog, "--out-dir", tmp_path / "o") == EXIT_DOMAIN
        assert run("compile", prog, "-o", tmp_path / "x.csv") == EXIT_DOMAIN


# Program files whose cell (0, 0) is not an angle in [0, pi], and a 2-step
# body under a header claiming 10^9 steps.
CELL_0_0 = f"\n0 0 {math.pi / 4!r}\n"
NAN_THETA_PROGRAM = fileio.program_to_text(uniform_program(1)).replace(CELL_0_0, "\n0 0 nan\n")
THETA_4_PROGRAM = fileio.program_to_text(uniform_program(1)).replace(CELL_0_0, "\n0 0 4.0\n")
HUGE_STEPS_PROGRAM = fileio.program_to_text(uniform_program(2)).replace(
    "steps 2", "steps 1000000000")

# Input files for the boundary cases: NaN, repeated and malformed lines.
BOUNDARY_FILES = {
    "one.txt": "0 1.0\n",
    "nan.txt": "-1 nan\n1 1.0\n",
    "negative.txt": "-1 -0.5\n1 1.5\n",
    "repeated.txt": "0 0.5\n0 1.0\n",
    "malformed.txt": "0 abc\n",
    "malformed_sigma.txt": "0 1.0 abc\n",
    "u.prog": fileio.program_to_text(uniform_program(3)),
    "repeated.prog": fileio.program_to_text(uniform_program(1)) + "0 0 0.1\n",
    "nan_cal.txt": "nan 0.2\n1.5 0.3\n",
    "malformed_cal.txt": "0.5\n1.5 0.3\n",
    "repeated_sched.txt": "0 0 1.0\n1 -1 0.5\n1 1 0.5\n1 -1 0.75\n1 1 0.25\n",
    "nan_sched.txt": "0 0 1.0\n1 -1 nan\n1 1 1.0\n",
    "malformed_sched.txt": "0 0 1.0\n1 -1\n",
    # Each row is normalized within 1e-9, but the rows differ in mass by 1.8e-9.
    "closure_sched.txt": "0 0 1.0000000009\n1 -1 0.4999999996\n1 1 0.4999999995\n",
    "stray_row_sched.txt": "0 0 1.0\n1 -1 0.5\n1 1 0.5\n-3 5 7.0\n",
    "nan_theta.prog": NAN_THETA_PROGRAM,
    "theta_4.prog": THETA_4_PROGRAM,
    "huge_steps.prog": HUGE_STEPS_PROGRAM,
    "header_only.prog": "".join(
        fileio.program_to_text(uniform_program(1)).splitlines(keepends=True)[:4]),
    "opposite_inf_sched.txt": "0 0 1.0\n1 -1 inf\n1 1 -inf\n",
    "huge_stray_cell.prog": fileio.program_to_text(uniform_program(2)) + f"1 {'9' * 4000} 0.5\n",
}

BOUNDARY_CASES = {
    "similarity-nan": (["similarity", "nan.txt", "one.txt"], EXIT_DOMAIN),
    "similarity-negative": (["similarity", "one.txt", "negative.txt"], EXIT_DOMAIN),
    "similarity-repeated": (["similarity", "repeated.txt", "one.txt"], EXIT_PARSE),
    "similarity-malformed": (["similarity", "one.txt", "malformed.txt"], EXIT_PARSE),
    "entropy-nan": (["entropy", "nan.txt"], EXIT_DOMAIN),
    "entropy-repeated": (["entropy", "repeated.txt"], EXIT_PARSE),
    "entropy-malformed-sigma": (["entropy", "malformed_sigma.txt"], EXIT_PARSE),
    "sample-nan": (["sample", "nan.txt", "--events", "10", "-o", "out.txt"], EXIT_DOMAIN),
    "sample-negative": (["sample", "negative.txt", "--events", "10", "-o", "out.txt"],
                        EXIT_DOMAIN),
    "extract-bits-nan": (["extract-bits", "nan.txt", "--steps", "1", "--events", "10",
                          "-o", "out.txt"], EXIT_DOMAIN),
    "extract-bits-repeated": (["extract-bits", "repeated.txt", "--steps", "2",
                               "--events", "10", "-o", "out.txt"], EXIT_PARSE),
    "compile-nan-calibration": (["compile", "u.prog", "--calibration", "nan_cal.txt",
                                 "-o", "out.csv"], EXIT_DOMAIN),
    "compile-malformed-calibration": (["compile", "u.prog", "--calibration",
                                       "malformed_cal.txt", "-o", "out.csv"], EXIT_PARSE),
    "compile-repeated-program": (["compile", "repeated.prog", "-o", "out.csv"], EXIT_PARSE),
    "simulate-repeated-program": (["simulate", "repeated.prog", "--out-dir", "d"],
                                  EXIT_PARSE),
    "synthesize-repeated-schedule": (["synthesize", "--schedule", "repeated_sched.txt",
                                      "-o", "out.prog"], EXIT_PARSE),
    "synthesize-nan-schedule": (["synthesize", "--schedule", "nan_sched.txt",
                                 "-o", "out.prog"], EXIT_DOMAIN),
    "synthesize-malformed-schedule": (["synthesize", "--schedule", "malformed_sched.txt",
                                       "-o", "out.prog"], EXIT_PARSE),
    "synthesize-gaussian-1030": (["synthesize", "--target", "gaussian", "--steps", "1030",
                                  "-o", "out.prog"], EXIT_DOMAIN),
    "synthesize-closure": (["synthesize", "--schedule", "closure_sched.txt",
                            "-o", "out.prog"], EXIT_INFEASIBLE),
    "compile-nan-launch-offset": (["compile", "u.prog", "-o", "out.csv",
                                   "--launch-offset", "nan"], EXIT_DOMAIN),
    "compile-inf-launch-offset": (["compile", "u.prog", "-o", "out.csv",
                                   "--launch-offset", "inf"], EXIT_DOMAIN),
    "verify-purity-nan-gamma": (["verify-purity", "--target", "uniform", "--steps", "3",
                                 "--gamma", "nan"], EXIT_DOMAIN),
    "verify-purity-gamma-2": (["verify-purity", "--target", "uniform", "--steps", "3",
                               "--gamma", "2"], EXIT_DOMAIN),
    "synthesize-stray-row": (["synthesize", "--schedule", "stray_row_sched.txt",
                              "-o", "out.prog"], EXIT_DOMAIN),
    "compile-nan-theta": (["compile", "nan_theta.prog", "-o", "out.csv"], EXIT_PARSE),
    "simulate-theta-4": (["simulate", "theta_4.prog", "--out-dir", "d"], EXIT_PARSE),
    "simulate-huge-steps-header": (["simulate", "huge_steps.prog", "--out-dir", "d"],
                                   EXIT_DOMAIN),
    "simulate-header-only-program": (["simulate", "header_only.prog", "--out-dir", "d"],
                                     EXIT_PARSE),
    "synthesize-opposite-infinities-schedule": (["synthesize", "--schedule",
                                                 "opposite_inf_sched.txt", "-o", "out.prog"],
                                                EXIT_DOMAIN),
    "simulate-huge-stray-cell": (["simulate", "huge_stray_cell.prog", "--out-dir", "d"],
                                 EXIT_DOMAIN),
    "sample-negative-seed": (["--seed", "-1", "sample", "one.txt", "--events", "10",
                              "-o", "out.txt"], EXIT_DOMAIN),
    "extract-bits-negative-seed": (["--seed", "-1", "extract-bits", "one.txt", "--steps", "1",
                                    "--events", "10", "-o", "out.txt"], EXIT_DOMAIN),
    "reproduce-negative-seed": (["--seed", "-1", "reproduce", "--out-dir", "d"], EXIT_DOMAIN),
    "synthesize-missing-steps": (["synthesize", "--target", "uniform", "-o", "out.prog"],
                                 EXIT_PARSE),
    "entropy-missing-file": (["entropy", "missing.txt"], EXIT_PARSE),
}


@pytest.mark.parametrize("argv, code", BOUNDARY_CASES.values(), ids=BOUNDARY_CASES.keys())
def test_bad_input_exits_with_one_error_line(tmp_path, capsys, monkeypatch, argv, code):
    for name, text in BOUNDARY_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    # Any exception other than a CoinWalkError propagates and fails the case.
    assert run(*argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = [ln for ln in captured.err.splitlines() if not ln.startswith("seed ")]
    assert len(lines) == 1 and lines[0].startswith("error: ")


class TestRepeatedLines:
    def test_program_cell(self):
        text = fileio.program_to_text(uniform_program(1)) + "0 0 0.1\n"
        with pytest.raises(ParseError, match=r"'0 0 0.1': cell \(0,0\) repeated"):
            fileio.program_from_text(text)

    def test_program_final_coin(self):
        text = fileio.program_to_text(uniform_program(1)) + "F 1 1.0 0.0 0.0 -1.0\n"
        with pytest.raises(ParseError, match="final coin at position 1 repeated"):
            fileio.program_from_text(text)

    def test_distribution_position(self):
        with pytest.raises(ParseError, match="'0 1.0': position 0 repeated"):
            fileio.distribution_from_text("0 0.5\n0 1.0\n")

    def test_schedule_cell(self):
        with pytest.raises(ParseError, match=r"'1 1 0.25': P\(1,1\) repeated"):
            fileio.schedule_targets_from_text("0 0 1.0\n1 -1 0.5\n1 1 0.5\n1 1 0.25\n")


class TestAnalysisCommands:
    def test_entropy_of_uniform(self, tmp_path, capsys):
        dist = tmp_path / "u.txt"
        dist.write_text(fileio.distribution_to_text(
            {x: 0.125 for x in range(-7, 8, 2)}))
        assert run("entropy", dist) == EXIT_OK
        assert float(capsys.readouterr().out.strip()) == 3.0

    def test_sample_reproducible(self, tmp_path):
        dist = tmp_path / "u.txt"
        dist.write_text(fileio.distribution_to_text(
            {x: 0.125 for x in range(-7, 8, 2)}))
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run("--seed", "7", "sample", dist, "--events", "5000", "-o", a)
        run("--seed", "7", "sample", dist, "--events", "5000", "-o", b)
        assert a.read_text() == b.read_text()

    def test_verify_purity_table(self, tmp_path):
        out = tmp_path / "table.txt"
        assert run("verify-purity", "--target", "uniform", "--steps", "9",
                   "-o", out) == EXIT_OK
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(lines) == 9
        assert all(ln.endswith("yes") for ln in lines)

    def test_verify_purity_without_output_writes_stdout(self, tmp_path, capsys):
        out = tmp_path / "table.txt"
        assert run("verify-purity", "--target", "gaussian", "--steps", "5", "-o", out) == EXIT_OK
        assert run("verify-purity", "--target", "gaussian", "--steps", "5") == EXIT_OK
        assert capsys.readouterr().out == out.read_text()

    def test_extract_bits(self, tmp_path):
        dist = tmp_path / "u.txt"
        dist.write_text(fileio.distribution_to_text(
            {x: 0.125 for x in range(-7, 8, 2)}))
        out = tmp_path / "bits.txt"
        assert run("extract-bits", dist, "--steps", "7", "--events", "1000",
                   "-o", out) == EXIT_OK
        bits = out.read_text().strip()
        assert len(bits) == 3000
        assert set(bits) <= {"0", "1"}

    def test_sample_counts_feed_extract_bits(self, tmp_path):
        dist = tmp_path / "u.txt"
        dist.write_text(fileio.distribution_to_text(
            {x: 0.125 for x in range(-7, 8, 2)}))
        counts = tmp_path / "counts.txt"
        assert run("sample", dist, "--events", "1000", "-o", counts) == EXIT_OK
        # "# events ..." header, then "x count sigma" lines
        assert len(counts.read_text().splitlines()[1].split()) == 3
        assert run("extract-bits", counts, "--steps", "7", "--events", "100",
                   "-o", tmp_path / "bits.txt") == EXIT_OK


SEED_LINE_CASES = {
    "sample": (["sample", "u.txt", "--events", "100", "-o", "c.txt"], 1),
    "extract-bits": (["extract-bits", "u.txt", "--steps", "7", "--events", "10",
                      "-o", "b.txt"], 1),
    "reproduce": (["reproduce", "--out-dir", "r"], 1),
    "entropy": (["entropy", "u.txt"], 0),
    "simulate": (["simulate", "u.prog", "--out-dir", "d"], 0),
}


@pytest.mark.parametrize("argv, seed_lines", SEED_LINE_CASES.values(),
                         ids=SEED_LINE_CASES.keys())
def test_randomized_commands_print_one_seed_line(tmp_path, capsys, monkeypatch,
                                                 argv, seed_lines):
    (tmp_path / "u.txt").write_text(fileio.distribution_to_text(
        {x: 0.125 for x in range(-7, 8, 2)}))
    (tmp_path / "u.prog").write_text(fileio.program_to_text(uniform_program(3)))
    monkeypatch.chdir(tmp_path)
    assert run("--seed", "7", *argv) == EXIT_OK
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("seed")]
    assert lines == ["seed 7"] * seed_lines


class TestProgramFile:
    @pytest.mark.parametrize("make", [
        lambda: uniform_program(7),
        # Complex initial state, no final layer.
        lambda: walk.hadamard_program(9, walk.circular_initial()),
        lambda: uniform_program(60),
        lambda: perturb_program(uniform_program(60),
                                NoiseModel(coin_angle_jitter_rad=0.05, seed=3)),
        lambda: uniform_program(300),
    ], ids=["uniform-7", "hadamard-9-circular", "uniform-60", "perturbed-uniform-60",
            "uniform-300"])
    def test_round_trip_identity(self, make):
        p = make()
        text = fileio.program_to_text(p)
        parsed = fileio.program_from_text(text)
        assert parsed == p
        assert fileio.program_to_text(parsed) == text

    @pytest.mark.parametrize("text, error, match", [
        (NAN_THETA_PROGRAM, ParseError, "bad program line '0 0 nan': theta must be finite"),
        (THETA_4_PROGRAM, ParseError, r"bad program line '0 0 4.0': theta must lie in \[0, pi\]"),
        (HUGE_STEPS_PROGRAM, IncompleteLayerError, r"cell \(2,-2\) at step 2, position -2"),
        (HUGE_STEPS_PROGRAM.replace("steps 1000000000", "steps 0"), DomainError,
         "steps must be >= 1, got 0"),
    ], ids=["nan-theta", "theta-4", "huge-steps-header", "zero-steps-header"])
    def test_bad_cells_are_named(self, text, error, match):
        with pytest.raises(error, match=match):
            fileio.program_from_text(text)

    def test_rows_are_read_and_run_without_coin_objects(self, monkeypatch):
        built = []
        check = CoinOp.__post_init__

        def counted(op):
            built.append(op.theta)
            check(op)

        monkeypatch.setattr(CoinOp, "__post_init__", counted)
        CoinOp(0.5)
        assert built == [0.5]  # the counter sees every CoinOp
        built.clear()
        p = fileio.program_from_text(fileio.program_to_text(uniform_program(20)))
        walk.run_program(p)
        reports = walk.run_program(walk.hadamard_program(9, walk.circular_initial()))
        assert built == []
        for r in reports:
            assert type(r.state) is WalkerState
            # The public constructor turns numpy scalars into int keys and complex pairs.
            public = WalkerState(r.step, {np.int64(x): (np.complex128(a), np.complex128(b))
                                          for x, (a, b) in r.state.amplitudes.items()})
            assert repr(r.state.amplitudes) == repr(public.amplitudes)

    def test_indented_comment_is_skipped(self, tmp_path):
        prog = tmp_path / "u.prog"
        prog.write_text(fileio.program_to_text(uniform_program(3)) + "  # note\n")
        assert run("simulate", prog, "--out-dir", tmp_path / "d") == EXIT_OK

    def test_initial_amplitude_whose_mass_overflows_exits_5(self, tmp_path, capsys):
        prog = tmp_path / "big.prog"
        text = fileio.program_to_text(uniform_program(2))
        prog.write_text(re.sub("(?m)^initial .*$", "initial 1e200 0.0 0.0 0.0", text))
        assert run("simulate", prog, "--out-dir", tmp_path / "d") == EXIT_DOMAIN
        assert capsys.readouterr().err.splitlines() == [
            "error: amplitude (1e+200+0j) is too large: its squared magnitude overflows a float"]

    def test_hadamard_initial_preserved(self, tmp_path):
        prog = tmp_path / "h.prog"
        run("synthesize", "--target", "hadamard", "--steps", "3", "-o", prog)
        parsed = fileio.program_from_text(prog.read_text())
        a, b = parsed.initial.pair(0)
        assert a == pytest.approx(1 / math.sqrt(2))
        assert b == pytest.approx(1j / math.sqrt(2))


def test_megabyte_bad_line_exits_2_with_a_short_message(tmp_path, capsys):
    dist = tmp_path / "bad.txt"
    dist.write_text("0 0.5\n2 " + "x" * 1_000_000 + "\n")
    assert run("entropy", dist) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: bad distribution line '2 xxx") and len(err) < 300


def test_a_size_that_runs_out_of_memory_exits_5_with_one_line(tmp_path, capsys, monkeypatch):
    def allocate(steps):
        raise MemoryError("Unable to allocate 37.3 GiB")
    monkeypatch.setattr(synth, "uniform_program", allocate)
    assert run("synthesize", "--target", "uniform", "--steps", "100000",
               "-o", tmp_path / "u.prog") == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: synthesize ran out of memory\n"


class TestReproduce:
    def test_deterministic_outputs(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert run("reproduce", "--out-dir", d1) == EXIT_OK
        assert run("reproduce", "--out-dir", d2) == EXIT_OK
        names = sorted(p.name for p in d1.iterdir())
        assert names == [
            "fig2a.txt", "fig2b.txt", "fig2c.txt", "fig3a.txt", "fig3b.txt",
            "fig4.txt", "table1.txt", "table2.txt",
        ]
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_only_the_runs_read_at_every_step_walk_the_triangle(self, tmp_path, monkeypatch):
        # The jittered fig2 runs and the purity tables read one state: they walk two rows.
        runs, run_program = [], walk.run_program
        monkeypatch.setattr(walk, "run_program", lambda p: runs.append(p) or run_program(p))
        assert run("reproduce", "--out-dir", tmp_path / "r") == EXIT_OK
        assert len(runs) == 3
        runs.clear()
        assert run("verify-purity", "--target", "gaussian", "--steps", "9",
                   "-o", tmp_path / "g.txt") == EXIT_OK
        assert runs == []

    def test_entropy_ordering_in_fig4(self, tmp_path):
        out = tmp_path / "r"
        run("reproduce", "--out-dir", out)
        for ln in (out / "fig4.txt").read_text().splitlines():
            if ln.startswith("#"):
                continue
            _, rh, rg, ru = ln.split()
            assert float(ru) >= float(rg) - 1e-9
            assert float(ru) >= float(rh) - 1e-9


class TestRepeatedMain:
    """One process runs main many times on one parser: each call parses into a new
    namespace and prints what a parser built for it alone would print."""

    def test_compile_without_a_timing_flag_gets_the_default_after_one_with_it(self, tmp_path):
        program = uniform_program(3)
        (tmp_path / "u.prog").write_text(fileio.program_to_text(program))
        # A 3 ns round trip makes pulses collide; 70 ns does not.
        assert run("compile", tmp_path / "u.prog", "-o", tmp_path / "u.csv",
                   "--t-ns", "3") == EXIT_COLLISION
        for argv, tm in (([], TimingModel()), (["--t-ns", "70"], TimingModel(t_ns=70.0)),
                         ([], TimingModel())):
            assert run("compile", tmp_path / "u.prog", "-o", tmp_path / "u.csv", *argv) == EXIT_OK
            expected = fileio.pulse_schedule_to_text(compile_schedule(program, tm))
            assert (tmp_path / "u.csv").read_text() == expected

    def test_synthesize_by_target_then_by_schedule_keeps_the_namespaces_apart(self, tmp_path):
        sched = synth.uniform_schedule(3)
        (tmp_path / "s.txt").write_text("".join(
            f"{t} {x} {p!r}\n" for t, row in sched.rows.items() for x, p in row.items()))
        by_target = fileio.program_to_text(synth.gaussian_program(4))
        by_schedule = fileio.program_to_text(synth.schedule_program(sched))
        for argv, expected in ((["--target", "gaussian", "--steps", "4"], by_target),
                               (["--schedule", tmp_path / "s.txt"], by_schedule),
                               (["--target", "gaussian", "--steps", "4"], by_target)):
            assert run("synthesize", *argv, "-o", tmp_path / "p.prog") == EXIT_OK
            assert (tmp_path / "p.prog").read_text() == expected

    def test_every_help_text_equals_a_fresh_parsers_at_each_width(self, capsys, monkeypatch):
        def printed(parser_main, argv):
            with pytest.raises(SystemExit) as info:
                parser_main(argv)
            assert info.value.code == 0
            return capsys.readouterr().out

        fresh = cli._build_parser.__wrapped__()
        commands = next(a for a in fresh._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        cli._build_parser.cache_clear()
        texts = {}
        for columns in ("200", "60"):
            monkeypatch.setenv("COLUMNS", columns)
            for argv in (["--help"], *([name, "--help"] for name in commands)):
                texts[columns, *argv] = got = printed(main, argv)
                assert got == printed(cli._build_parser.__wrapped__().parse_args, argv)
        assert texts["60", "--help"] != texts["200", "--help"]  # the width is read each time
        assert cli._build_parser.cache_info().misses == 1

    def test_the_usage_error_without_a_subcommand_is_the_same_each_time(self, capsys):
        cli._build_parser.cache_clear()
        errors = []
        for parse in (main, main, cli._build_parser.__wrapped__().parse_args):
            with pytest.raises(SystemExit) as info:
                parse([])
            assert info.value.code == EXIT_PARSE
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("usage: coinwalk ")
        assert errors[0] == errors[1] == errors[2]

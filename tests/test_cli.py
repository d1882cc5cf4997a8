import math

import pytest

from coinwalk import fileio, walk
from coinwalk.cli import (
    EXIT_COLLISION,
    EXIT_DOMAIN,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from coinwalk.errors import DomainError, IncompleteLayerError
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


class TestProgramFile:
    def test_round_trip_identity(self):
        p = uniform_program(7)
        text = fileio.program_to_text(p)
        assert fileio.program_to_text(fileio.program_from_text(text)) == text

    def test_hadamard_initial_preserved(self, tmp_path):
        prog = tmp_path / "h.prog"
        run("synthesize", "--target", "hadamard", "--steps", "3", "-o", prog)
        parsed = fileio.program_from_text(prog.read_text())
        a, b = parsed.initial.pair(0)
        assert a == pytest.approx(1 / math.sqrt(2))
        assert b == pytest.approx(1j / math.sqrt(2))


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

    def test_entropy_ordering_in_fig4(self, tmp_path):
        out = tmp_path / "r"
        run("reproduce", "--out-dir", out)
        for ln in (out / "fig4.txt").read_text().splitlines():
            if ln.startswith("#"):
                continue
            _, rh, rg, ru = ln.split()
            assert float(ru) >= float(rg) - 1e-9
            assert float(ru) >= float(rh) - 1e-9

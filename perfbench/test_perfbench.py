"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

package = harness.import_package(ROOT / "src")


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_generator_is_deterministic_per_seed(seed):
    first = inputs.design_inputs(seed, steps=20)
    assert [s.text for s in first] == [s.text for s in inputs.design_inputs(seed, steps=20)]
    assert inputs.pulse_inputs(seed) == inputs.pulse_inputs(seed)
    assert inputs.emulate_inputs(seed) == inputs.emulate_inputs(seed)
    other = seed + 1
    assert inputs.design_inputs(other, steps=20)[2].text != first[2].text
    assert inputs.pulse_inputs(other) != inputs.pulse_inputs(seed)
    assert inputs.emulate_inputs(other) != inputs.emulate_inputs(seed)


def _corrupt_one_angle(program, t, x):
    cells = dict(program.cells)
    cells[(t, x)] = package.state.CoinOp(min(cells[(t, x)].theta + 1e-3, 3.0))
    return package.state.CoinProgram(steps=program.steps, cells=cells, initial=program.initial)


def test_design_reference_agrees_at_small_T_and_rejects_a_corrupted_angle(tmp_path):
    for target in inputs.design_inputs(3, steps=12):
        out = workloads.design_run(package, target, tmp_path)
        workloads.design_check(target, out, tmp_path)

        program = _corrupt_one_angle(package.fileio.program_from_text(out[0]), 5, 1)
        reports = package.walk.run_program(program)
        rows = [{2 * i - t: p for i, p in enumerate(row)} for t, row in enumerate(target.rows)]
        scores = [package.measure.similarity(r.distribution, rows[r.step]) for r in reports]
        bad = (package.fileio.program_to_text(program), reports, scores)
        with pytest.raises(reference.Mismatch, match="against the target"):
            workloads.design_check(target, bad, tmp_path)


def test_pulse_reference_agrees_and_rejects_a_corrupted_angle(tmp_path):
    for rows in inputs.pulse_inputs(4, steps=6, count=3):
        out = workloads.pulse_run(package, rows, tmp_path)
        workloads.pulse_check(rows, out, tmp_path)
        bad_rows = [list(r) for r in rows]
        bad_rows[3][1] += 1e-3
        with pytest.raises(reference.Mismatch):
            workloads.pulse_check(bad_rows, out, tmp_path)


def test_emulate_reference_agrees_and_rejects_a_corrupted_theory_value(tmp_path):
    out = workloads.emulate_run(package, 7, tmp_path)
    workloads.emulate_check(7, out, tmp_path)
    fig = tmp_path / "fig2b.txt"
    lines = fig.read_text().splitlines()
    x, p, *rest = lines[3].split()
    lines[3] = " ".join([x, repr(float(p) * (1 + 1e-9)), *rest])
    fig.write_text("\n".join(lines) + "\n")
    with pytest.raises(reference.Mismatch, match="fig2b theory"):
        workloads.emulate_check(7, out, tmp_path)


def test_an_injected_exception_counts_as_failed(tmp_path):
    def run(pkg, item, workdir):
        time.sleep(0.001)
        if item == "raise":
            raise RuntimeError("injected")
        return item

    def check(item, out, workdir):
        if out == "wrong":
            raise reference.Mismatch("wrong output")
        return out

    probe = workloads.Workload(
        name="probe", build=list, run=run, check=check, cells=1, tail_level=50.0
    )
    phase = harness.run_phase(probe, package, ["ok", "raise", "ok", "wrong"], 0.05, tmp_path / "w", {})
    # Whole passes only: each input ran equally often.
    assert phase.attempted >= 4 and phase.attempted % 4 == 0
    raised = wrong = phase.attempted // 4
    assert phase.raised == {"RuntimeError: injected": raised}
    assert len(phase.wrong) == wrong
    assert phase.failed == raised + wrong
    assert len(phase.ok_durations) == phase.attempted - phase.failed


def test_tracing_wraps_cross_module_names_and_reports_every_per_layer_metric(tmp_path):
    wl = workloads.WORKLOADS["emulate-T11"]
    seeds = inputs.emulate_inputs(0, count=2)
    digests = {}
    plain = harness.run_phase(wl, package, seeds, 0.0, tmp_path / "w", digests)
    original = package.walk.run_program
    tracer = tracing.Tracer()
    with tracing.installed(tracer, package):
        assert package.noise.run_program is package.walk.run_program is not original
        traced = harness.run_phase(wl, package, seeds, 0.0, tmp_path / "w", digests, tracer)
    assert package.noise.run_program is package.walk.run_program is original
    assert not plain.wrong and not traced.wrong and len(digests) == 2
    metrics = tracer.per_layer(traced.ok_durations[0], traced.ok_ctl[0] / plain.ok_ctl[0] - 1.0)
    assert set(metrics) == set(tracing.METRICS)
    assert metrics["walk.run_program.calls"] == 10
    # Both expected_counts walks repeat a program reproduce already ran.
    assert metrics["walk.run_program.repeat_frac"] == pytest.approx(0.2)
    tracer.end[-1] = 0.0
    with pytest.raises(RuntimeError, match="left open"):
        tracer.per_layer(traced.ok_durations[0], 0.0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.METRICS)
    assert [m["unit"] for m in spec["per_layer"]] == list(tracing.METRICS.values())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

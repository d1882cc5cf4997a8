import math
from dataclasses import replace

import pytest

from coinwalk.errors import (
    AlignmentError,
    CollisionError,
    DomainError,
    OrphanEventError,
)
from coinwalk.fileio import pulse_schedule_from_text, pulse_schedule_to_text
from coinwalk.pulses import (
    ARM_CCW,
    ARM_CW,
    Calibration,
    PulseSchedule,
    TimingModel,
    arrival_time,
    coin_to_phases,
    compile_schedule,
    decompile_schedule,
)
from coinwalk.state import CoinOp, CoinProgram
from coinwalk.synth import gaussian_program, uniform_program
from coinwalk.walk import circular_initial, hadamard_program

TM = TimingModel()
CAL = Calibration()


class TestCoinToPhases:
    def test_hadamard_cell(self):
        cells = coin_to_phases(hadamard_program(1, circular_initial()))
        assert [(c.t, c.x) for c in cells] == [(0, 0)]
        assert cells[0].phi_h == pytest.approx(math.pi / 4)
        assert cells[0].phi_v == pytest.approx(3 * math.pi / 4)

    def test_not_gate_cell(self):
        prog = gaussian_program(3)
        cells = {(c.t, c.x): c for c in coin_to_phases(prog)}
        assert cells[(2, 0)].phi_h == pytest.approx(math.pi / 2)
        assert cells[(2, 0)].phi_v == pytest.approx(math.pi / 2)

    def test_phi_v_complements_phi_h(self):
        for c in coin_to_phases(uniform_program(5)):
            assert c.phi_h + c.phi_v == pytest.approx(math.pi, abs=1e-12)

    def test_rejects_general_coin_cells(self):
        # A cell that is not a CoinOp never reaches the compiler: the
        # program rejects it when it is built.
        initial = circular_initial()
        with pytest.raises(DomainError, match=r"cell \(0,0\)"):
            CoinProgram(steps=1, cells={(0, 0): object()}, initial=initial)


class TestArrivalTime:
    def test_origin(self):
        assert arrival_time(0, 0, ARM_CCW, TM) == 0.0

    def test_first_right_move(self):
        assert arrival_time(1, 1, ARM_CCW, TM) == pytest.approx(75.2)

    def test_clockwise_adds_sagnac_delay(self):
        assert arrival_time(1, 1, ARM_CW, TM) == pytest.approx(114.3)

    def test_arm_separation_constant(self):
        for t in range(6):
            for x in range(-t, t + 1, 2):
                d = arrival_time(t, x, ARM_CW, TM) - arrival_time(t, x, ARM_CCW, TM)
                assert d == pytest.approx(TM.sagnac_delay_ns)

    def test_invalid_cell(self):
        with pytest.raises(DomainError):
            arrival_time(1, 0, ARM_CCW, TM)
        with pytest.raises(DomainError):
            arrival_time(1, 3, ARM_CCW, TM)


class TestCalibration:
    def test_anchor_values_exact(self):
        assert CAL.phase_to_voltage(math.pi / 4) == 0.127
        assert CAL.phase_to_voltage(math.pi / 2) == 0.263
        assert CAL.phase_to_voltage(3 * math.pi / 4) == 0.392

    def test_strictly_increasing(self):
        phis = [i * math.pi / 200 for i in range(201)]
        volts = [CAL.phase_to_voltage(p) for p in phis]
        assert all(b > a for a, b in zip(volts, volts[1:]))

    def test_round_trip_inverse(self):
        for i in range(50):
            phi = i * math.pi / 49
            v = CAL.phase_to_voltage(phi)
            assert CAL.voltage_to_phase(v) == pytest.approx(phi, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            CAL.phase_to_voltage(-0.01)
        with pytest.raises(DomainError):
            CAL.phase_to_voltage(math.pi + 0.01)

    @pytest.mark.parametrize("volts", [math.nan, math.inf, -math.inf])
    def test_rejects_voltage_that_is_not_finite(self, volts):
        with pytest.raises(DomainError, match=f"voltage {volts} is not finite"):
            CAL.voltage_to_phase(volts)

    def test_lookup_takes_the_segment_of_the_last_anchor_at_or_below(self):
        cal = Calibration(((0.0, -1.0), (0.5, 0.1), (1.0, 0.2), (2.0, 0.9), (3.0, 1.5)))

        def scan(x, xs, ys):  # every segment scanned, the end ones extended
            i = max([j for j in range(len(xs) - 1) if xs[j] <= x], default=0)
            return ys[i] + (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) * (x - xs[i])

        phases, volts = zip(*cal.anchors)
        for inverse, xs, ys in ((False, phases, volts), (True, volts, phases)):
            near = [v for x in xs for v in (math.nextafter(x, -9), x, math.nextafter(x, 9))]
            for x in near + [(a + b) / 2 for a, b in zip(xs, xs[1:])] + [-0.5, 3.1]:
                if inverse:
                    assert cal.voltage_to_phase(x) == min(max(scan(x, xs, ys), 0.0), math.pi)
                elif 0.0 <= x <= math.pi:
                    assert cal.phase_to_voltage(x) == scan(x, xs, ys)

    def test_rejects_non_monotone_anchors(self):
        with pytest.raises(DomainError):
            Calibration(anchors=((0.1, 0.2), (0.2, 0.1)))

    @pytest.mark.parametrize("anchor", [(math.nan, 0.2), (0.5, math.nan), (0.5, math.inf)])
    def test_rejects_non_finite_anchor(self, anchor):
        with pytest.raises(DomainError, match="must be finite"):
            Calibration(anchors=((0.1, 0.1), anchor))


class TestCompile:
    def test_single_step_hadamard(self):
        sched = compile_schedule(hadamard_program(1, circular_initial()))
        times = [(e.time_ns, e.voltage_v) for e in sched.events]
        assert times == [(0.0, 0.127), (39.1, 0.392)]

    def test_sorted_and_collision_free(self):
        sched = compile_schedule(uniform_program(11))
        times = [e.time_ns for e in sched.events]
        assert times == sorted(times)
        for a, b in zip(sched.events, sched.events[1:]):
            assert b.time_ns >= a.time_ns + a.width_ns

    def test_same_arm_bin_separation(self):
        sched = compile_schedule(gaussian_program(11))
        by_arm: dict[str, list[float]] = {}
        for e in sched.events:
            by_arm.setdefault(e.arm, []).append(e.time_ns)
        for times in by_arm.values():
            times.sort()
            gaps = [b - a for a, b in zip(times, times[1:])]
            assert min(gaps) >= TM.dt_ns - 1e-9
            assert min(gaps) >= TM.pulse_width_ns

    def test_collision_detected_on_half_bin_sagnac(self):
        tm = TimingModel(dt_ns=1.8, sagnac_delay_ns=0.9)
        with pytest.raises(CollisionError) as err:
            compile_schedule(hadamard_program(2, circular_initial()), tm)
        assert err.value.collisions

    def test_collision_message_is_bounded(self):
        with pytest.raises(CollisionError) as err:
            compile_schedule(hadamard_program(40, circular_initial()))
        assert len(err.value.collisions) == 576
        message = str(err.value)
        assert len(message.encode()) < 1024
        assert message.startswith("576 overlapping pulse pair(s): ")
        assert str(err.value.collisions[4]) in message
        assert str(err.value.collisions[5]) not in message

    def test_last_pulse_must_end_within_the_laser_period(self):
        last = compile_schedule(uniform_program(13)).events[-1]
        assert last.time_ns + last.width_ns == pytest.approx(942.5)
        with pytest.raises(CollisionError, match="ends at 1017.7 ns"):
            compile_schedule(uniform_program(14))

    def test_determinism_byte_identical(self):
        p = gaussian_program(7)
        a = pulse_schedule_to_text(compile_schedule(p))
        b = pulse_schedule_to_text(compile_schedule(p))
        assert a == b

    def test_launch_offset_shifts_everything(self):
        p = hadamard_program(2, circular_initial())
        base = compile_schedule(p)
        moved = compile_schedule(p, launch_offset_ns=TM.rep_period_ns)
        for e0, e1 in zip(base.events, moved.events):
            assert e1.time_ns == pytest.approx(e0.time_ns + TM.rep_period_ns)


class TestDecompile:
    @pytest.mark.parametrize(
        "make", [
            lambda: hadamard_program(11, circular_initial()),
            lambda: gaussian_program(11),
            lambda: uniform_program(11),
        ],
        ids=["hadamard", "gaussian", "uniform"],
    )
    def test_round_trip_recovers_thetas(self, make):
        prog = make()
        cells = decompile_schedule(compile_schedule(prog))
        assert len(cells) == len(prog.cells)
        for c in cells:
            theta = prog.cells[(c.t, c.x)].theta
            assert c.phi_h == pytest.approx(theta, abs=1e-9)
            assert c.phi_v == pytest.approx(math.pi - theta, abs=1e-9)

    def test_round_trip_preserves_times(self):
        prog = gaussian_program(5)
        sched = compile_schedule(prog)
        cells = decompile_schedule(sched)
        grid = coin_to_phases(prog)
        assert [(c.t, c.x) for c in cells] == [(c.t, c.x) for c in grid]

    def test_orphan_event(self):
        sched = compile_schedule(hadamard_program(1, circular_initial()))
        broken = PulseSchedule(events=sched.events[:1])
        with pytest.raises(OrphanEventError):
            decompile_schedule(broken)

    def test_alignment_error(self):
        sched = compile_schedule(hadamard_program(2, circular_initial()))
        e = sched.events[2]
        moved = list(sched.events)
        moved[2] = type(e)(
            time_ns=e.time_ns + 0.2,
            voltage_v=e.voltage_v,
            width_ns=e.width_ns,
            step=e.step,
            position=e.position,
            arm=e.arm,
        )
        with pytest.raises(AlignmentError):
            decompile_schedule(PulseSchedule(events=tuple(moved)))

    @pytest.mark.parametrize("index", [0, 2])
    def test_nan_time_fails_alignment(self, index):
        events = list(compile_schedule(hadamard_program(2, circular_initial())).events)
        events[index] = replace(events[index], time_ns=math.nan)
        with pytest.raises(AlignmentError, match="at nan ns"):
            decompile_schedule(PulseSchedule(events=tuple(events)))

    @pytest.mark.parametrize("volts", [math.nan, math.inf])
    def test_non_finite_voltage_names_event(self, volts):
        events = list(compile_schedule(hadamard_program(2, circular_initial())).events)
        e = events[2]
        events[2] = replace(e, voltage_v=volts)
        with pytest.raises(DomainError, match=rf"\({e.step},{e.position},{e.arm}\)"):
            decompile_schedule(PulseSchedule(events=tuple(events)))

    def test_voltage_perturbation_linearity(self):
        sched = compile_schedule(hadamard_program(1, circular_initial()))
        e = sched.events[0]
        bumped = type(e)(
            time_ns=e.time_ns,
            voltage_v=e.voltage_v + 0.001,
            width_ns=e.width_ns,
            step=e.step,
            position=e.position,
            arm=e.arm,
        )
        cells = decompile_schedule(PulseSchedule(events=(bumped, sched.events[1])))
        slope = (math.pi / 2 - math.pi / 4) / (0.263 - 0.127)
        assert cells[0].phi_h == pytest.approx(math.pi / 4 + slope * 0.001, abs=1e-9)


class TestScheduleFile:
    def test_file_round_trip(self):
        sched = compile_schedule(uniform_program(4))
        text = pulse_schedule_to_text(sched)
        again = pulse_schedule_to_text(pulse_schedule_from_text(text))
        assert text == again

    def test_header_and_precision(self):
        sched = compile_schedule(hadamard_program(1, circular_initial()))
        lines = pulse_schedule_to_text(sched).splitlines()
        assert lines[0] == "time_ns,voltage_v,width_ns,step,position,arm"
        assert lines[1] == "0.0000,0.1270,1.0000,0,0,ccw"
        assert lines[2] == "39.1000,0.3920,1.0000,0,0,cw"

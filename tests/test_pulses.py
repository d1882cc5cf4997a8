import hashlib
import math
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import fileio, pulses
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
    PulseEvent,
    PulseSchedule,
    TimingModel,
    arrival_time,
    coin_to_phases,
    compile_schedule,
    decompile_schedule,
    max_steps,
)
from coinwalk.state import AngleRows, CoinOp, CoinProgram
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


class TestTimingModel:
    @pytest.mark.parametrize("value", ["a", None, 1j, "x" * 100, math.nan, 0.0])
    def test_rejects_what_is_not_a_positive_number(self, value):
        with pytest.raises(DomainError, match="^t_ns must be positive, got ") as err:
            TimingModel(t_ns=value)
        assert len(str(err.value)) < 120

    def test_rejects_an_integer_too_large_for_a_float(self):
        with pytest.raises(DomainError, match=r"^t_ns must fit a float, got 10{79}\.\.\.$"):
            TimingModel(t_ns=10**400)


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

    def test_rejects_an_integer_too_large_for_a_float(self):
        with pytest.raises(DomainError, match=r"^anchor must fit a float, got 10{79}\.\.\.$"):
            Calibration(anchors=((0.1, 0.1), (10**400, 0.2)))
        with pytest.raises(DomainError, match=r"^voltage must fit a float, got -10{78}\.\.\.$"):
            CAL.voltage_to_phase(-(10**400))
        with pytest.raises(DomainError, match=r"^phase 10{79}\.\.\. outside \[0, pi\]$"):
            CAL.phase_to_voltage(10**400)

    def test_rejects_non_monotone_anchors(self):
        with pytest.raises(DomainError):
            Calibration(anchors=((0.1, 0.2), (0.2, 0.1)))

    @pytest.mark.parametrize("anchor", [(math.nan, 0.2), (0.5, math.nan), (0.5, math.inf)])
    def test_rejects_non_finite_anchor(self, anchor):
        with pytest.raises(DomainError, match="must be finite"):
            Calibration(anchors=((0.1, 0.1), anchor))

    @pytest.mark.parametrize("anchors, quoted", [
        (((0.1, 0.2, 0.3), (1.0, 2.0)), "(0.1, 0.2, 0.3)"),  # ragged: numpy rejects it
        (((0.1, 0.2, 0.3), (1.0, 2.0, 3.0)), "(0.1, 0.2, 0.3)"),  # numpy reads 2 x 3
        ((0.1, 0.2), "0.1"),  # numpy reads a vector
    ])
    def test_rejects_an_anchor_that_is_not_a_pair(self, anchors, quoted):
        match = rf"^anchor must be a \(phase, voltage\) pair, got {re.escape(quoted)}$"
        with pytest.raises(DomainError, match=match):
            Calibration(anchors)

    @pytest.mark.parametrize("cal", [CAL, pulses._CALIBRATION], ids=["built", "default"])
    def test_columns_reject_writes(self, cal):
        for column in cal._columns:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0
        assert pulses._CALIBRATION.phase_to_voltage(math.pi / 2) == 0.263


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

    def test_pulses_that_only_touch_do_not_collide(self):
        tm = TimingModel(sagnac_delay_ns=1.0)  # the cw pulse starts as the ccw one ends
        sched = compile_schedule(hadamard_program(1, circular_initial()), tm)
        assert [e.time_ns for e in sched.events] == [0.0, 1.0]

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
        with pytest.raises(CollisionError, match="ends at 1017.7 ns") as err:
            compile_schedule(uniform_program(14))
        assert str(err.value).endswith("after the laser period ends at 1000.0 ns (max_steps 13)")

    @pytest.mark.parametrize("tm", [TM, TimingModel(rep_period_ns=500.0)], ids=["default", "500ns"])
    def test_max_steps_is_the_largest_program_compile_accepts(self, tm):
        accepted = []
        for steps in range(1, 21):
            try:
                compile_schedule(uniform_program(steps), tm)
                accepted.append(steps)
            except CollisionError:
                pass
        assert accepted == list(range(1, max_steps(tm) + 1))
        assert max_steps(TM) == 13 and max_steps(tm) < 20

    def test_max_steps_is_zero_when_no_step_fits(self):
        assert max_steps(TimingModel(sagnac_delay_ns=999.5)) == 0

    @pytest.mark.parametrize("offset", ["a", None, "x" * 100])
    def test_launch_offset_must_be_a_number(self, offset):
        with pytest.raises(DomainError, match="^launch offset must be finite, got ") as err:
            compile_schedule(uniform_program(2), launch_offset_ns=offset)
        assert len(str(err.value)) < 120

    def test_launch_offset_too_large_for_a_float(self):
        match = r"^launch offset must fit a float, got 10{79}\.\.\.$"
        with pytest.raises(DomainError, match=match):
            compile_schedule(uniform_program(2), launch_offset_ns=10**400)

    def test_determinism_byte_identical(self):
        p = gaussian_program(7)
        a = pulse_schedule_to_text(compile_schedule(p))
        b = pulse_schedule_to_text(compile_schedule(p))
        assert a == b

    def test_a_cached_table_gives_the_schedule_a_fresh_one_gives(self):
        p = random_program(13)
        first, moved, again = (pulse_schedule_to_text(compile_schedule(p, launch_offset_ns=offset))
                               for offset in (0.0, 3.7, 0.0))
        assert first == again != moved
        pulses._slot_table.cache_clear()
        assert pulse_schedule_to_text(compile_schedule(p)) == first

    def test_another_timing_model_is_not_served_the_default_table(self):
        p, tm = random_program(5), TimingModel(dt_ns=2.5)
        compile_schedule(p)
        events = compile_schedule(p, tm).events
        assert all(e.time_ns == arrival_time(e.step, e.position, e.arm, tm) for e in events)
        assert events != compile_schedule(p).events

    @pytest.mark.parametrize("a, b", [
        ({"launch_offset_ns": 0.0}, {"launch_offset_ns": -0.0}),
        ({"tm": TimingModel(t_ns=73)}, {"tm": TimingModel(t_ns=73.0)}),
    ], ids=["zero-offset", "int-t_ns"])
    def test_equal_keys_give_the_same_schedule_in_either_order(self, a, b):
        p = random_program(13)
        texts = []
        for first, second in ((a, b), (b, a)):
            pulses._slot_table.cache_clear()
            texts += [pulse_schedule_to_text(compile_schedule(p, **kw)) for kw in (first, second)]
        assert len(set(texts)) == 1

    def test_an_overrun_raises_on_every_call(self):
        p = uniform_program(14)
        errors = []
        for _ in range(2):
            with pytest.raises(CollisionError) as err:
                compile_schedule(p)
            errors.append(str(err.value))
        assert errors[0] == errors[1] and errors[0].endswith("(max_steps 13)")

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

    def test_minus_infinite_first_time_fails_alignment_without_a_warning(self):
        # Every slot is then -inf, and -inf - -inf is nan: numpy must not warn.
        events = list(compile_schedule(hadamard_program(2, circular_initial())).events)
        events[0] = replace(events[0], time_ns=-math.inf)
        with pytest.raises(AlignmentError, match=r"^event \(0,0,ccw\) at -inf ns"):
            decompile_schedule(PulseSchedule(events=tuple(events)))

    @pytest.mark.parametrize("volts", [math.nan, math.inf])
    def test_non_finite_voltage_names_event(self, volts):
        events = list(compile_schedule(hadamard_program(2, circular_initial())).events)
        e = events[2]
        events[2] = replace(e, voltage_v=volts)
        with pytest.raises(DomainError, match=rf"\({e.step},{e.position},{e.arm}\)"):
            decompile_schedule(PulseSchedule(events=tuple(events)))

    @pytest.mark.parametrize("field, value", [("step", 1.5), ("position", "0"), ("step", None)])
    def test_step_and_position_must_be_integers(self, field, value):
        events = list(compile_schedule(hadamard_program(2, circular_initial())).events)
        events[3] = replace(events[3], **{field: value})
        with pytest.raises(DomainError, match=rf"^{field} must be an integer, got {value!r}$"):
            decompile_schedule(PulseSchedule(events=tuple(events)))

    @pytest.mark.parametrize("field", ["time_ns", "voltage_v"])
    @pytest.mark.parametrize("index", [0, 2])
    def test_time_or_voltage_too_large_for_a_float(self, field, index):
        events = list(compile_schedule(hadamard_program(2, circular_initial())).events)
        events[index] = replace(events[index], **{field: 10**400})
        with pytest.raises(DomainError, match=rf"^{field} must fit a float, got 10{{79}}\.\.\.$"):
            decompile_schedule(PulseSchedule(events=tuple(events)))

    def test_voltage_that_overflows_the_map_clamps_to_pi(self):
        events = list(compile_schedule(hadamard_program(1, circular_initial())).events)
        events[0] = replace(events[0], voltage_v=1e308)
        cells = decompile_schedule(PulseSchedule(events=tuple(events)))
        assert cells[0].phi_h == math.pi == CAL.voltage_to_phase(1e308)

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

    def test_written_file_is_read_by_column(self, monkeypatch):
        text = pulse_schedule_to_text(compile_schedule(gaussian_program(13)))
        expected = fileio._pulses_by_line(text)

        def line_reader(text):
            raise AssertionError("a written file reached the line reader")

        monkeypatch.setattr(fileio, "_pulses_by_line", line_reader)
        assert pulse_schedule_from_text(text) == expected
        assert pulse_schedule_from_text("# no events\n" + text[:text.index("\n") + 1]) == \
            PulseSchedule()


class TestEvents:
    """A schedule holds its events as columns; ``events`` reads as the tuple
    of PulseEvent it was built from."""

    SCHED = compile_schedule(gaussian_program(5))
    RECORDS = tuple(SCHED.events)

    def test_reads_as_its_records(self):
        records = self.RECORDS
        assert len(self.SCHED.events) == len(records) == 30
        assert all(type(e) is PulseEvent for e in records)
        assert list(self.SCHED.events) == list(records)
        assert [self.SCHED.events[i] for i in range(-30, 30)] == list(records * 2)
        assert self.SCHED.events[-1] == records[-1] == PulseEvent(
            records[-1].time_ns, records[-1].voltage_v, 1.0, 4, 4, ARM_CW)
        with pytest.raises(IndexError):
            self.SCHED.events[30]
        assert repr(self.SCHED) == f"PulseSchedule(events={records!r})"

    def test_built_from_records(self):
        rebuilt = PulseSchedule(events=self.RECORDS)
        assert rebuilt == self.SCHED and hash(rebuilt) == hash(self.SCHED)
        assert PulseSchedule(events=list(self.RECORDS)) == self.SCHED
        assert PulseSchedule(events=self.RECORDS[:-1]) != self.SCHED
        assert self.SCHED.events == self.RECORDS and hash(self.SCHED.events) == hash(self.RECORDS)
        assert self.SCHED.events != list(self.RECORDS)

    def test_slices_build_schedules(self):
        head = PulseSchedule(events=self.SCHED.events[:1])
        assert list(head.events) == [self.RECORDS[0]]
        assert head == PulseSchedule(events=self.RECORDS[:1])
        assert list(self.SCHED.events[::-2]) == list(self.RECORDS[::-2])
        assert list(self.SCHED.events[5:2]) == []

    def test_replace(self):
        moved = [replace(e, time_ns=e.time_ns + 1000.0) for e in self.RECORDS]
        sched = replace(self.SCHED, events=moved)
        assert list(sched.events) == moved
        assert replace(self.SCHED) == self.SCHED
        assert decompile_schedule(sched) == decompile_schedule(self.SCHED)

    def test_empty(self):
        empty = PulseSchedule()
        assert empty == PulseSchedule(events=()) == replace(self.SCHED, events=[])
        assert hash(empty) == hash(PulseSchedule(events=()))
        assert len(empty.events) == 0 and list(empty.events) == [] and not empty.events
        assert repr(empty) == "PulseSchedule(events=())"
        assert decompile_schedule(empty) == []
        assert pulse_schedule_from_text(pulse_schedule_to_text(empty)) == empty


FIELD_TOKENS = ["1_0", "+3", "-0", "nan", "inf", "-inf", "NaN", "1e400", "x"]
BAD_ARMS = ["xyz", "CCW", "", "cw ", "ccw,"]


@st.composite
def pulse_files(draw):
    """The CSV of a compiled schedule, changed up to three times: lines
    swapped, blank and comment lines added, spaces around a field, 5 or 7
    fields, a bad arm, or a token such as 1_0, +3, nan or inf as a field."""
    steps = draw(st.integers(1, 13))
    sched = compile_schedule(random_program(steps), TM, CAL, draw(st.sampled_from([0.0, 3.7])))
    lines = pulse_schedule_to_text(sched).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        parts = lines[i].split(",")
        k = draw(st.integers(0, len(parts) - 1))
        kind = draw(st.sampled_from(["swap", "blank", "space", "fields", "arm", "token"]))
        if kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "blank":
            lines.insert(i, draw(st.sampled_from(["", "  ", "# note", "  # note", "\t"])))
        elif kind == "space":
            parts[k] = draw(st.sampled_from([" ", "  ", "\t"])) + parts[k] + " "
        elif kind == "fields":
            parts = parts[:-1] if draw(st.booleans()) else parts + ["0"]
        elif kind == "arm":
            parts[-1] = draw(st.sampled_from(BAD_ARMS))
        else:
            parts[k] = draw(st.sampled_from(FIELD_TOKENS))
        if kind != "swap" and kind != "blank":
            lines[i] = ",".join(parts)
    return "\n".join(lines) + "\n"


def outcome(read, text):
    """repr of what ``read`` returns (nan compares equal), or the type and
    message of what it raises."""
    try:
        return repr(read(text))
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(pulse_files())
def test_pulse_reader_agrees_with_the_line_reader(text):
    assert outcome(pulse_schedule_from_text, text) == outcome(fileio._pulses_by_line, text)


SPECIAL_ANGLES = [0.0, math.pi, math.pi / 4, math.pi / 2, 3 * math.pi / 4]


def random_program(steps):
    """Seeded angles in [0, pi]: the first is -0.0, a quarter are 0, pi or
    an anchor phase of the default calibration, the rest uniform."""
    rng = random.Random(steps)
    theta = [-0.0]
    while len(theta) < steps * (steps + 1) // 2:
        u = rng.random()
        theta.append(rng.choice(SPECIAL_ANGLES) if u < 0.25 else rng.uniform(0.0, math.pi))
    return CoinProgram(steps=steps, cells=AngleRows(theta), initial=circular_initial())


def random_calibration(seed):
    """2 to 5 anchors at seeded increasing phases in [0, pi] and voltages."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    phases = sorted(rng.uniform(0.0, math.pi) for _ in range(n))
    volts = sorted(rng.uniform(-0.2, 0.8) for _ in range(n))
    return Calibration(tuple(zip(phases, volts)))


CALIBRATIONS = [CAL, random_calibration(1), random_calibration(2), random_calibration(3)]

# sha256 of the pulse CSVs, of repr(decompile_schedule(...)) of the compiled
# schedules and of repr(decompile_schedule(...)) of the schedules read back
# from those CSVs, for random_program(T), T = 1..13, per calibration and
# launch offset.
DIGESTS = {
    (0, 0.0): (
        "d960e288257ae6364252fb040b1c20eaa49c9816195a0bb0f52d634254d913cc",
        "3a13ff401c7e802ebc2076a897a33e45e368bb885386a2f7371af80ac7bb23fb",
        "ad30fcd9ef92912326da58e6ebcbbba733d6951f7bb5e6f56ec9396f678b9157",
    ),
    (0, 3.7): (
        "af37882cdab2d1b2487e8aa492c610688dbf5df1adecc40e5d7860dddb03f5c8",
        "3a13ff401c7e802ebc2076a897a33e45e368bb885386a2f7371af80ac7bb23fb",
        "ad30fcd9ef92912326da58e6ebcbbba733d6951f7bb5e6f56ec9396f678b9157",
    ),
    (1, 0.0): (
        "dc08ce33f50d3b5a9f2ac38318f619912d8207235509790215aba2a744147b71",
        "f99a5135468fd9c18c53ac64cc3a69bd765fe66c8e7a198713647ade238600b3",
        "4b8ae12f7d607bee155db4f6a8bcbb7c41982108438315fbd271c499a4377fbf",
    ),
    (1, 3.7): (
        "24e69eaa3353e06c5421214bbba5fcbac5e5e11a21d8016c693c3df2c6819caa",
        "f99a5135468fd9c18c53ac64cc3a69bd765fe66c8e7a198713647ade238600b3",
        "4b8ae12f7d607bee155db4f6a8bcbb7c41982108438315fbd271c499a4377fbf",
    ),
    (2, 0.0): (
        "56ec30f5b9792c076f13e88ee3a7219b8610bc21c0911bef4f5bcd3a156d1fc5",
        "dd0325f1ddef0a2a516c0fcbf03b6f952fa1ba5ce24c9e51d4fe251ac2dd007c",
        "757affb99f4b0b918bb1e93aa0377a7a1f297e584df6a396cb59cc3c64e07ff9",
    ),
    (2, 3.7): (
        "c09627f38016cc9ff0c10cc6666bde75a19c9b80c5b3d2d340ec91257e15bacf",
        "dd0325f1ddef0a2a516c0fcbf03b6f952fa1ba5ce24c9e51d4fe251ac2dd007c",
        "757affb99f4b0b918bb1e93aa0377a7a1f297e584df6a396cb59cc3c64e07ff9",
    ),
    (3, 0.0): (
        "d10aa7bed8cd763d0792a619c72154b3c10ab68aa79a4847dcbd7a826dce94c7",
        "77c6546c5e172b59a6125f4df73c9eaad863cce811720c32d39908c039ef324a",
        "1aa770f9ae25bbe3ae3e9c3d9a6b07e85f7d7069b8e5a2efcf150452e3288607",
    ),
    (3, 3.7): (
        "d4098ed6db7c0ef954f5a709241b0f3d4b927e26398d85845c80cdf714eb8a59",
        "77c6546c5e172b59a6125f4df73c9eaad863cce811720c32d39908c039ef324a",
        "1aa770f9ae25bbe3ae3e9c3d9a6b07e85f7d7069b8e5a2efcf150452e3288607",
    ),
}


@pytest.mark.parametrize("cal_index", range(len(CALIBRATIONS)))
@pytest.mark.parametrize("offset", [0.0, 3.7])
def test_schedules_and_decompiled_cells_match_their_digests(cal_index, offset):
    cal = CALIBRATIONS[cal_index]
    csv, cells, read = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for steps in range(1, 14):
        sched = compile_schedule(random_program(steps), TM, cal, offset)
        text = pulse_schedule_to_text(sched)
        csv.update(text.encode())
        cells.update(repr(decompile_schedule(sched, TM, cal)).encode())
        read.update(repr(decompile_schedule(pulse_schedule_from_text(text), TM, cal)).encode())
    digests = csv.hexdigest(), cells.hexdigest(), read.hexdigest()
    assert digests == DIGESTS[cal_index, offset]


class TestDecompileErrorOrder:
    """Two faults in a shuffled schedule: the one met first in event order
    is named, and within one event a bad cell or arm comes before its
    time, its time before its voltage, its voltage before a duplicate."""

    @staticmethod
    def shuffled(seed):
        """The events of uniform_program(4), shuffled, the earliest (which
        sets the launch offset) moved to the front, and two indices i < j
        after it."""
        events = list(compile_schedule(uniform_program(4)).events)
        rng = random.Random(seed)
        rest = events[1:]
        rng.shuffle(rest)
        i, j = sorted(rng.sample(range(1, len(events)), 2))
        return [events[0], *rest], i, j

    @staticmethod
    def decompile(events):
        return decompile_schedule(PulseSchedule(events=tuple(events)))

    @pytest.mark.parametrize("seed", range(4))
    def test_bad_cell_or_arm(self, seed):
        events, i, j = self.shuffled(seed)
        e = events[i]
        events[i] = replace(e, position=e.step + 2)
        events[j] = replace(events[j], arm="up")
        with pytest.raises(DomainError, match=rf"^\({e.step},{e.step + 2}\) is not a valid"):
            self.decompile(events)
        events[i] = replace(e, arm="up")
        with pytest.raises(DomainError, match="^unknown arm 'up'$"):
            self.decompile(events)
        events[i] = replace(e, arm=[ARM_CW])  # an unhashable arm
        with pytest.raises(DomainError, match=r"^unknown arm \['cw'\]$"):
            self.decompile(events)

    @pytest.mark.parametrize("seed", range(4))
    def test_alignment(self, seed):
        events, i, j = self.shuffled(seed)
        e = events[i]
        events[i] = replace(e, time_ns=e.time_ns + 0.2)
        events[j] = replace(events[j], time_ns=math.nan)
        with pytest.raises(AlignmentError, match=rf"^event \({e.step},{e.position},{e.arm}\) at "):
            self.decompile(events)

    @pytest.mark.parametrize("seed", range(4))
    def test_voltage(self, seed):
        events, i, j = self.shuffled(seed)
        e = events[i]
        events[i] = replace(e, voltage_v=math.inf)
        events[j] = replace(events[j], voltage_v=math.nan)
        name = rf"^event \({e.step},{e.position},{e.arm}\) has voltage inf$"
        with pytest.raises(DomainError, match=name):
            self.decompile(events)

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate(self, seed):
        events, i, j = self.shuffled(seed)
        a, b = random.Random(seed).sample(events[:i], 2)
        events[j:j] = [b]
        events[i:i] = [a]
        name = rf"^duplicate {a.arm} event for cell \({a.step},{a.position}\)$"
        with pytest.raises(AlignmentError, match=name):
            self.decompile(events)

    @pytest.mark.parametrize("seed", range(4))
    def test_orphan_is_the_first_cell_missing_an_arm(self, seed):
        events, i, j = self.shuffled(seed)
        a, b = events[i], events[j]
        first = min((a.step, a.position), (b.step, b.position))
        assert (a.step, a.position) != (b.step, b.position)
        del events[j], events[i]
        missing = a.arm if (a.step, a.position) == first else b.arm
        name = rf"^cell \({first[0]},{first[1]}\) is missing its {missing} event$"
        with pytest.raises(OrphanEventError, match=name):
            self.decompile(events)

    @pytest.mark.parametrize("seed", range(4))
    def test_event_order_comes_before_fault_kind(self, seed):
        events, i, j = self.shuffled(seed)
        a = random.Random(seed).choice(events[:i])
        e = events[j]
        events[j] = replace(e, position=e.step + 2)  # a bad cell after ...
        events[i:i] = [a]  # ... a duplicate
        with pytest.raises(AlignmentError, match="^duplicate "):
            self.decompile(events)

    def test_one_event_is_checked_cell_time_voltage_in_turn(self):
        events, i, _ = self.shuffled(0)
        e = events[i]
        events[i] = replace(e, time_ns=e.time_ns + 0.2, voltage_v=math.nan)
        with pytest.raises(AlignmentError):
            self.decompile(events)
        events[i] = replace(e, position=e.step + 2, time_ns=e.time_ns + 0.2)
        with pytest.raises(DomainError, match="not a valid"):
            self.decompile(events)
        events[i] = replace(events[0], voltage_v=math.nan)  # a repeat of the first event
        with pytest.raises(DomainError, match="has voltage nan$"):
            self.decompile(events)

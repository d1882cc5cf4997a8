import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import gaussian_closed_form, uniform_closed_form
from coinwalk.errors import (
    ClosureError,
    DomainError,
    InconsistentPlanError,
    InfeasibleScheduleError,
    UnsupportedStateError,
    ZeroCellError,
)
from coinwalk.state import DistributionSchedule, GeneralCoinOp, WalkerState, localized_state
from coinwalk.synth import (
    AmplitudePlan,
    binomial_schedule,
    disentangle_layer,
    gaussian_program,
    plan_amplitudes,
    synthesize_coins,
    uniform_program,
    uniform_schedule,
)
from coinwalk.walk import apply_coin_layer, run_program


def random_feasible_schedule(steps, rng):
    """Random schedule built from a random nonnegative amplitude flow.

    Each cell's probability mass splits randomly between its two
    children, so feasibility holds by construction. Split fractions stay
    in [0.1, 0.9] so no cell mass collapses toward zero, which would make
    the synthesized angles numerically ill conditioned.
    """
    masses = {(0, 0): 1.0}
    for t in range(steps):
        nxt = {}
        for x in range(-t, t + 1, 2):
            m = masses.get((t, x), 0.0)
            u = float(rng.uniform(0.1, 0.9))
            nxt[(t + 1, x + 1)] = nxt.get((t + 1, x + 1), 0.0) + u * m
            nxt[(t + 1, x - 1)] = nxt.get((t + 1, x - 1), 0.0) + (1 - u) * m
        masses.update(nxt)
    rows = {}
    for (t, x), m in masses.items():
        rows.setdefault(t, {})[x] = m
    for t, row in rows.items():
        total = sum(row.values())
        rows[t] = {x: v / total for x, v in row.items()}
    return DistributionSchedule(steps=steps, rows=rows)


class TestPlanAmplitudes:
    def test_uniform_first_step_by_hand(self):
        plan = plan_amplitudes(uniform_schedule(1))
        r = 1.0 / math.sqrt(2.0)
        assert plan.pair(1, -1) == pytest.approx((0.0, r))
        assert plan.pair(1, 1) == pytest.approx((r, 0.0))

    def test_binomial_second_row(self):
        plan = plan_amplitudes(binomial_schedule(2))
        for x in (-2, 0, 2):
            a, b = plan.pair(2, x)
            assert a * a + b * b == pytest.approx(
                binomial_schedule(2).rows[2][x], abs=1e-12
            )

    def test_flux_conservation(self):
        plan = plan_amplitudes(uniform_schedule(9))
        for t in range(9):
            for x in range(-t, t + 1, 2):
                a, b = plan.pair(t, x)
                a1, _ = plan.pair(t + 1, x + 1)
                _, b1 = plan.pair(t + 1, x - 1)
                assert a1 * a1 + b1 * b1 == pytest.approx(a * a + b * b, abs=1e-12)

    def test_edge_structure(self):
        plan = plan_amplitudes(binomial_schedule(7))
        for t in range(1, 8):
            assert plan.pair(t, -t)[0] == 0.0
            assert plan.pair(t, t)[1] == 0.0

    def test_per_step_normalization(self):
        plan = plan_amplitudes(uniform_schedule(11))
        for t in range(12):
            total = sum(plan.mass(t, x) for x in range(-t, t + 1, 2))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_schedule_names_cell(self):
        # All mass rushing to the left edge cannot be fed by step-1 flux.
        sched = DistributionSchedule(
            steps=2,
            rows={
                0: {0: 1.0},
                1: {-1: 0.1, 1: 0.9},
                2: {-2: 0.9, 0: 0.05, 2: 0.05},
            },
        )
        with pytest.raises(InfeasibleScheduleError) as err:
            plan_amplitudes(sched)
        assert err.value.cell == (2, 0)
        assert "-0.8" in str(err.value)

    def test_negative_left_edge_target_names_cell(self):
        # Schedules accept P >= -1e-9; the plan needs b^2 >= -1e-12.
        sched = DistributionSchedule(
            steps=1, rows={0: {0: 1.0}, 1: {-1: -5e-10, 1: 1.0 + 5e-10}}
        )
        with pytest.raises(InfeasibleScheduleError) as err:
            plan_amplitudes(sched)
        assert err.value.cell == (1, -1)

    def test_rows_that_differ_in_mass_miss_the_right_edge_closure(self):
        # Each row sums to 1 within 1e-9, but row 1 carries 1.8e-9 less
        # than row 0, which the right-edge cell cannot absorb.
        sched = DistributionSchedule(
            steps=1, rows={0: {0: 1.0000000009}, 1: {-1: 0.4999999996, 1: 0.4999999995}}
        )
        with pytest.raises(ClosureError, match="right-edge closure at step 1") as err:
            plan_amplitudes(sched)
        assert err.value.cell == (1, 1)

    def test_matches_exact_sweep(self):
        # The difference form cumsum(q - [0, p]) keeps every square at the
        # exact sweep's value to rounding; cumsum(q) - [0, cumsum(p)] does not.
        steps = 100
        sched = uniform_schedule(steps)
        exact = oracle.exact_plan_squares(lambda t, x: sched.rows[t].get(x, 0.0), steps)
        plan = plan_amplitudes(sched)
        for (t, x), (a_sq, b_sq) in exact.items():
            a, b = plan.pair(t, x)
            assert abs(a * a - float(a_sq)) <= 1e-15
            assert abs(b * b - float(b_sq)) <= 1e-15


class TestSynthesizeCoins:
    def test_trivial_cell_reduces_to_children(self):
        alpha = 0.7
        plan = AmplitudePlan(
            steps=1,
            a=[[1.0], [0.0, math.cos(alpha)]],
            b=[[0.0], [math.sin(alpha), 0.0]],
        )
        prog = synthesize_coins(plan)
        assert prog.cells[(0, 0)].theta == pytest.approx(alpha, abs=1e-12)

    def test_zero_cell_with_nonzero_child_names_cell(self):
        # Cell (1,-1) is empty but its left child b(2,-2) is not.
        plan = AmplitudePlan(
            steps=2,
            a=[[1.0], [0.0, 1.0], [0.0, 0.0, 1.0]],
            b=[[0.0], [0.0, 0.0], [0.6, 0.0, 0.0]],
        )
        with pytest.raises(ZeroCellError, match=r"cell \(1,-1\)"):
            synthesize_coins(plan)

    def test_inconsistent_plan_names_cell(self):
        # Row 1 splits by alpha; cell (1,1) then feeds twice its amplitude.
        c, s = math.cos(0.7), math.sin(0.7)
        plan = AmplitudePlan(
            steps=2,
            a=[[1.0], [0.0, c], [0.0, 0.0, 2 * c]],
            b=[[0.0], [s, 0.0], [s, 0.0, 0.0]],
        )
        with pytest.raises(InconsistentPlanError, match=r"cell \(1,1\)"):
            synthesize_coins(plan)

    def test_plan_rows_must_have_lengths_1_to_steps_plus_1(self):
        with pytest.raises(DomainError, match=r"^plan rows must have lengths 1\.\.2$"):
            AmplitudePlan(steps=1, a=[[1.0], [0.0]], b=[[0.0], [0.0, 0.0]])
        with pytest.raises(DomainError, match=r"^plan rows must have lengths 1\.\.3$"):
            AmplitudePlan(steps=2, a=[[1.0], [0.0, 1.0]], b=[[0.0], [0.0, 0.0]])

    def test_plan_pair_off_the_lattice_is_zero(self):
        plan = plan_amplitudes(uniform_schedule(2))
        for t, x in ((-1, 0), (3, 1), (1, 0), (2, 4), (0, 2)):
            assert plan.pair(t, x) == (0.0, 0.0) and plan.mass(t, x) == 0.0
        assert plan.pair(1, 1) == (float(plan.a[1][1]), float(plan.b[1][1]))

    def test_uniform_boundary_cell(self):
        plan = plan_amplitudes(uniform_schedule(2))
        prog = synthesize_coins(plan)
        theta = prog.cells[(1, 1)].theta
        assert math.cos(theta) == pytest.approx(math.sqrt(2 / 3), abs=1e-12)
        assert math.sin(theta) == pytest.approx(math.sqrt(1 / 3), abs=1e-12)

    def test_pythagorean_consistency(self):
        plan = plan_amplitudes(binomial_schedule(11))
        prog = synthesize_coins(plan)
        for op in prog.cells.values():
            c, s = math.cos(op.theta), math.sin(op.theta)
            assert abs(c * c + s * s - 1.0) < 1e-9

    def test_full_uniform_round_trip(self):
        plan = plan_amplitudes(uniform_schedule(11))
        prog = synthesize_coins(plan)
        reports = run_program(prog)
        for t in range(12):
            for x in range(-t, t + 1, 2):
                assert reports[t].distribution.get(x, 0.0) == pytest.approx(
                    1.0 / (t + 1), abs=1e-9
                )

    def test_reproduces_plan_amplitudes(self):
        rng = np.random.default_rng(42)
        sched = random_feasible_schedule(6, rng)
        plan = plan_amplitudes(sched)
        reports = run_program(synthesize_coins(plan))
        for t in range(7):
            for x, (a, b) in reports[t].state.amplitudes.items():
                pa, pb = plan.pair(t, x)
                assert abs(a - pa) < 1e-9
                assert abs(b - pb) < 1e-9


class TestClosedForms:
    def test_gaussian_interior_matches_synthesis(self):
        plan = plan_amplitudes(binomial_schedule(11))
        prog = synthesize_coins(plan)
        for t in range(1, 11):
            for x in range(-t + 2, t - 1, 2):
                c, s = gaussian_closed_form(t, x)
                theta = prog.cells[(t, x)].theta
                assert math.cos(theta) == pytest.approx(c, abs=1e-9)
                assert math.sin(theta) == pytest.approx(s, abs=1e-9)

    def test_gaussian_closed_form_unitary_everywhere(self):
        for t in range(1, 12):
            for x in range(-t, t + 1, 2):
                c, s = gaussian_closed_form(t, x)
                assert abs(c * c + s * s - 1.0) < 1e-12

    def test_uniform_cosine_matches_synthesis(self):
        # The closed-form cosine agrees with the synthesized angle at
        # every cell; the sine only does where the pair is unitary.
        plan = plan_amplitudes(uniform_schedule(11))
        prog = synthesize_coins(plan)
        for t in range(1, 11):
            for x in range(-t, t + 1, 2):
                c, _ = uniform_closed_form(t, x)
                theta = prog.cells[(t, x)].theta
                assert math.cos(theta) == pytest.approx(c, abs=1e-9)

    def test_uniform_center_column_matches_synthesis(self):
        plan = plan_amplitudes(uniform_schedule(10))
        prog = synthesize_coins(plan)
        for t in range(2, 10, 2):
            c, s = uniform_closed_form(t, 0)
            theta = prog.cells[(t, 0)].theta
            assert math.cos(theta) == pytest.approx(c, abs=1e-9)
            assert math.sin(theta) == pytest.approx(s, abs=1e-9)

    def test_uniform_unitarity_defect(self):
        # Sum of squares is 1 + x^2 / (t (t + 2)): unitary only at x = 0,
        # and 4/3 at the first boundary cell.
        for t in range(1, 8):
            for x in range(-t, t + 1, 2):
                c, s = uniform_closed_form(t, x)
                defect = x * x / (t * (t + 2.0))
                assert c * c + s * s == pytest.approx(1.0 + defect, abs=1e-12)
        c, s = uniform_closed_form(1, 1)
        assert c * c + s * s == pytest.approx(4 / 3, abs=1e-12)

    def test_uniform_center_is_not_gate(self):
        c, s = uniform_closed_form(2, 0)
        assert (c, s) == pytest.approx((0.0, 1.0), abs=1e-12)


class TestBuiltInPrograms:
    def test_gaussian_program_rows(self):
        reports = run_program(gaussian_program(11))
        sched = binomial_schedule(11)
        for t in range(12):
            for x, p in sched.rows[t].items():
                assert reports[t].distribution.get(x, 0.0) == pytest.approx(
                    p, abs=1e-9
                )

    def test_gaussian_not_gate_cells(self):
        prog = gaussian_program(10)
        for t in range(2, 10, 2):
            assert prog.cells[(t, 0)].theta == math.pi / 2

    def test_uniform_program_rows(self):
        reports = run_program(uniform_program(7))
        for t in range(8):
            for x in range(-t, t + 1, 2):
                assert reports[t].distribution.get(x, 0.0) == pytest.approx(
                    1.0 / (t + 1), abs=1e-9
                )

    def test_uniform_w_state_amplitudes(self):
        steps = 9
        final = run_program(uniform_program(steps))[-1].state
        target = 1.0 / math.sqrt(steps + 1)
        for x in range(-steps, steps + 1, 2):
            a, b = final.pair(x)
            assert abs(a - target) < 1e-9
            assert abs(b) < 1e-9

    @pytest.mark.parametrize(
        "program, closed_form",
        [(gaussian_program, gaussian_closed_form), (uniform_program, uniform_closed_form)],
    )
    def test_angles_match_closed_forms(self, program, closed_form):
        steps = 50
        prog = program(steps)
        checked = 0
        for t in range(1, steps):
            for x in range(-t, t + 1, 2):
                c, s = closed_form(t, x)
                if abs(c * c + s * s - 1.0) <= 1e-9:
                    expected = oracle.closed_form_angle(c, s)
                    assert abs(prog.cells[(t, x)].theta - expected) <= 1e-13
                    checked += 1
        assert checked >= (steps - 1) // 2  # uniform: only x = 0 at even t

    def test_initial_cell_is_pi_over_4(self):
        assert gaussian_program(3).cells[(0, 0)].theta == math.pi / 4
        assert uniform_program(3).cells[(0, 0)].theta == math.pi / 4

    def test_binomial_rows_past_the_float_exponent_range(self):
        # 2.0 ** 1024 overflows; the rows must not.
        row = binomial_schedule(1100).rows[1100]
        assert row[0] == math.comb(1100, 550) / (1 << 1100)
        assert row[-1100] == 0.0
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)

    def test_binomial_rows_match_float_power_formula(self):
        sched = binomial_schedule(1023)
        for t in (*range(0, 1023, 61), 1022, 1023):
            for x, p in sched.rows[t].items():
                assert p == math.comb(t, (t + x) // 2) / 2.0 ** t, (t, x)

    def test_matches_oracle(self):
        prog = gaussian_program(8)
        ref = oracle.evolve(
            lambda t, x: prog.cells[(t, x)].theta, (1.0, 0.0), 8
        )
        sched = binomial_schedule(8)
        for x, p in sched.rows[8].items():
            assert oracle.distribution(ref[8])[x] == pytest.approx(p, abs=1e-9)


class TestDisentangleLayer:
    def test_normalized_pair(self):
        s = WalkerState(step=0, amplitudes={0: (0.6, 0.8)})
        layer = disentangle_layer(s)
        assert np.allclose(layer[0].matrix, [[0.6, 0.8], [0.8, -0.6]], atol=1e-12)
        out = apply_coin_layer(s, layer)
        assert out.pair(0) == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_subnormalized_pair(self):
        r = 0.5  # (1/sqrt2, 1/sqrt2) scaled by 1/sqrt2
        s = WalkerState(step=0, amplitudes={0: (r, r)}, require_normalized=False)
        out = apply_coin_layer(s, disentangle_layer(s))
        assert out.pair(0)[0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert abs(out.pair(0)[1]) < 1e-12

    def test_uniform_nine_step_state(self):
        prog = uniform_program(9)
        bare = run_program(
            type(prog)(steps=prog.steps, cells=prog.cells, initial=prog.initial)
        )[-1].state
        out = apply_coin_layer(bare, disentangle_layer(bare))
        for x in range(-9, 10, 2):
            a, b = out.pair(x)
            assert abs(a - 1 / math.sqrt(10)) < 1e-9
            assert abs(b) < 1e-9

    def test_zero_pair_gets_diagonal_coin(self):
        s = WalkerState(step=1, amplitudes={-1: (1.0, 0.0), 1: (0.0, 0.0)})
        layer = disentangle_layer(s)
        assert layer[1] == GeneralCoinOp(1.0, 0.0, 0.0, -1.0)
        assert apply_coin_layer(s, layer).pair(1) == (0j, 0j)

    def test_rejects_complex_amplitudes(self):
        s = localized_state(1 / math.sqrt(2), 1j / math.sqrt(2))
        with pytest.raises(UnsupportedStateError):
            disentangle_layer(s)


class TestRandomScheduleRoundTrip:
    def test_plan_synthesize_simulate_round_trip(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            steps = int(rng.integers(1, 9))
            sched = random_feasible_schedule(steps, rng)
            prog = synthesize_coins(plan_amplitudes(sched))
            reports = run_program(prog)
            for t in range(steps + 1):
                for x, p in sched.rows[t].items():
                    assert reports[t].distribution.get(x, 0.0) == pytest.approx(
                        p, abs=1e-9
                    )


def plan_reference(sched):
    """plan_amplitudes as one loop over the steps, one prefix sum per row read
    through the schedule's public rows: its a and b rows, or what it raises."""
    def row(t):
        return np.array([sched.rows[t].get(x, 0.0) for x in range(-t, t + 1, 2)])

    p = row(0)
    a_rows, b_rows = [np.sqrt(p)], [np.zeros(1)]
    for t in range(1, sched.steps + 1):
        q = row(t)
        b_sq = np.cumsum(q - np.concatenate(([0.0], p)))
        a_sq = np.concatenate(([0.0], p - b_sq[:-1]))
        b_sq[-1] = 0.0
        bad = (a_sq < -1e-12) | (b_sq < -1e-12)
        if bad.any():
            i = int(np.argmax(bad))
            name, value = ("a", a_sq[i]) if a_sq[i] < -1e-12 else ("b", b_sq[i])
            raise InfeasibleScheduleError(
                f"no nonnegative flow: {name}^2({2 * i - t},{t}) = {float(value)!r}",
                cell=(t, 2 * i - t))
        a_sq = np.maximum(a_sq, 0.0)
        if abs(a_sq[-1] - q[-1]) > 1e-9:
            raise ClosureError(f"right-edge closure at step {t}: "
                               f"a^2({t},{t}) = {float(a_sq[-1])!r} but P = {float(q[-1])!r}",
                               cell=(t, t))
        a_rows.append(np.sqrt(a_sq))
        b_rows.append(np.sqrt(np.maximum(b_sq, 0.0)))
        p = q
    return a_rows, b_rows


def flow_rows(steps, rng):
    """Target rows of a random nonnegative flow: each cell's mass splits
    between its two children by a share in [0.1, 0.9], but the right edge
    sends 0.99 of its mass on to the right, so it keeps its mass."""
    rows = [np.ones(1)]
    for t in range(steps):
        u = rng.uniform(0.1, 0.9, t + 1)
        u[-1] = 0.99
        rows.append(np.append(rows[-1] * (1 - u), 0.0) + np.insert(rows[-1] * u, 0, 0.0))
    return rows


def negative_fault(rows, t):
    """Row t with the mass of cell i + 1 moved to cell i, i = (t - 1) // 2:
    more than the flow can carry there, so a^2(2i + 2 - t, t) < 0."""
    i = (t - 1) // 2
    rows[t] = rows[t].copy()
    rows[t][i] += rows[t][i + 1]
    rows[t][i + 1] = 0.0


def closure_fault(rows, t):
    """The right edges of rows t - 1 and t moved by -0.9e-9 and +0.9e-9: each
    row still sums to 1 within 1e-9, but step t's right edge misses its
    target by 1.8e-9, and no square turns negative."""
    rows[t - 1], rows[t] = rows[t - 1].copy(), rows[t].copy()
    rows[t - 1][-1] -= 0.9e-9
    rows[t][-1] += 0.9e-9


def same_plan_or_error(sched):
    """plan_amplitudes agrees with plan_reference: the same rows bit for bit,
    or the same exception type, cell and message; returns that exception."""
    try:
        a_rows, b_rows = plan_reference(sched)
    except (InfeasibleScheduleError, ClosureError) as expected:
        with pytest.raises(type(expected)) as got:
            plan_amplitudes(sched)
        assert (got.value.cell, str(got.value)) == (expected.cell, str(expected))
        return expected
    plan = plan_amplitudes(sched)
    for made, ref in zip(plan.a + plan.b, a_rows + b_rows, strict=True):
        assert made.tobytes() == ref.tobytes()
    return None


FAULT_STEPS = [1, 63, 64, 65, 128, 129]  # around the edges of the plan's row blocks


# Every step-1 row that sums to 1 has a nonnegative flow: no negative fault at step 1.
@pytest.mark.parametrize("fault, kind, t", [
    *((closure_fault, ClosureError, t) for t in FAULT_STEPS),
    *((negative_fault, InfeasibleScheduleError, t) for t in FAULT_STEPS[1:])])
def test_plan_names_a_single_fault_as_the_row_loop_does(fault, kind, t):
    rows = flow_rows(140, np.random.default_rng(t))
    fault(rows, t)
    error = same_plan_or_error(DistributionSchedule.from_rows(np.concatenate(rows)))
    assert type(error) is kind and error.cell[0] == t


@pytest.mark.parametrize("faults, kind, step", [
    ([(negative_fault, 10), (closure_fault, 40)], InfeasibleScheduleError, 10),  # one block
    ([(closure_fault, 10), (negative_fault, 40)], ClosureError, 10),
    ([(negative_fault, 30), (closure_fault, 100)], InfeasibleScheduleError, 30),  # two blocks
    ([(closure_fault, 30), (negative_fault, 100)], ClosureError, 30),
    ([(closure_fault, 70), (negative_fault, 70)], InfeasibleScheduleError, 70),  # one step
])
def test_plan_names_the_first_of_two_faults_as_the_row_loop_does(faults, kind, step):
    rows = flow_rows(140, np.random.default_rng(step))
    for fault, t in faults:
        fault(rows, t)
    error = same_plan_or_error(DistributionSchedule.from_rows(np.concatenate(rows)))
    assert type(error) is kind and error.cell[0] == step


def as_dicts(sched):
    return DistributionSchedule(sched.steps, {t: dict(r) for t, r in sched.rows.items()})


@pytest.mark.parametrize("steps", [1, 2, 3, 63, 64, 65, 127, 128, 129, 200])
def test_plan_rows_equal_the_row_loop_bit_for_bit(steps):
    flow = DistributionSchedule.from_rows(np.concatenate(flow_rows(steps, np.random.default_rng(steps))))
    for sched in (flow, as_dicts(flow), uniform_schedule(steps), binomial_schedule(steps)):
        assert same_plan_or_error(sched) is None


@settings(max_examples=25, deadline=None)
@given(steps=st.integers(1, 200), seed=st.integers(0, 2**32 - 1), dicts=st.booleans())
def test_plan_rows_of_random_flows_equal_the_row_loop(steps, seed, dicts):
    rows = flow_rows(steps, np.random.default_rng(seed))
    sched = DistributionSchedule.from_rows(np.concatenate(rows))
    assert same_plan_or_error(as_dicts(sched) if dicts else sched) is None

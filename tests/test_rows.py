"""Dense rows from schedule to score.

Run distributions, similarities and written texts are checked for bit
identity against the scalar per-entry formulas of ``oracle``; the row map
is checked against the dict it stands for, entry point by entry point.
"""

import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from coinwalk import fileio, measure, noise, state, synth, walk
from coinwalk.errors import DomainError, NormalizationError
from coinwalk.state import (
    CoinOp,
    DistributionSchedule,
    Row,
    WalkerState,
    check_distribution,
    position_distribution,
    row_stack,
    support,
)


@functools.lru_cache(maxsize=None)
def program(name):
    if name.endswith("-no-final"):
        return replace(program(name.removesuffix("-no-final")), final_layer=None)
    if name == "uniform-300":
        return synth.uniform_program(300)
    if name == "gaussian-40":
        return synth.gaussian_program(40)
    if name == "hadamard-circular-60":
        return walk.hadamard_program(60, walk.circular_initial())
    assert name == "jittered-uniform-120"
    model = noise.NoiseModel(coin_angle_jitter_rad=0.05, seed=7)
    return noise.perturb_program(synth.uniform_program(120), model)


PROGRAMS = [
    "uniform-300", "uniform-300-no-final", "gaussian-40", "gaussian-40-no-final",
    "hadamard-circular-60", "jittered-uniform-120", "jittered-uniform-120-no-final",
]


@functools.lru_cache(maxsize=None)
def schedule(name):
    if name == "uniform-300":
        return synth.uniform_schedule(300)
    if name == "binomial-40":
        return synth.binomial_schedule(40)
    # A perturbed uniform target, written and read back by column.
    assert name == "read-jittered-120"
    reports = walk.run_program(program("jittered-uniform-120-no-final"))
    text = "".join(f"{r.step} {x} {p!r}\n" for r in reports for x, p in r.distribution.items())
    return fileio.schedule_targets_from_text(text)


SCHEDULES = ["uniform-300", "binomial-40", "read-jittered-120"]


def as_dicts(sched):
    return DistributionSchedule(sched.steps, {t: dict(row) for t, row in sched.rows.items()})


@pytest.mark.parametrize("name", PROGRAMS)
def test_run_distributions_are_the_scalar_masses(name):
    for r in walk.run_program(program(name)):
        expected = oracle.position_distribution(dict(r.state.amplitudes))
        assert list(r.distribution.items()) == list(expected.items())
        assert fileio.distribution_to_text(r.distribution) == fileio.distribution_to_text(expected)


@pytest.mark.parametrize("name", SCHEDULES)
def test_each_report_scores_its_row_as_the_scalar_similarity(name):
    sched = schedule(name)
    assert all(isinstance(row, Row) for row in sched.rows.values())
    for r in walk.run_program(synth.schedule_program(sched)):
        got = measure.similarity(r.distribution, sched.rows[r.step])
        expected = oracle.similarity(dict(r.distribution), dict(sched.rows[r.step]))
        assert type(got) is float
        assert repr(got) == repr(expected)


@pytest.mark.parametrize("name", SCHEDULES)
def test_row_schedule_writes_the_program_of_its_dicts(name):
    sched = schedule(name)
    assert as_dicts(sched) == sched
    assert (fileio.program_to_text(synth.schedule_program(sched))
            == fileio.program_to_text(synth.schedule_program(as_dicts(sched))))


def test_row_schedule_is_checked_once(monkeypatch):
    calls = []
    passing = state._passing

    def counted(rows):
        calls.append(rows.shape)
        return passing(rows)

    monkeypatch.setattr(state, "_passing", counted)
    sched = synth.uniform_schedule(50)
    assert calls == [(51, 51)]  # the schedule's stack, when it is built
    reports = walk.run_program(synth.schedule_program(sched))
    assert calls == [(51, 51)] * 2  # and the run's
    for r in reports:
        measure.similarity(r.distribution, sched.rows[r.step])
    # Scoring checks no stacked row again; the step-0 report's distribution,
    # which no stack holds, is checked as a one-row matrix, as any map is.
    assert calls == [(51, 51)] * 2 + [(1, 1)]


def test_stack_with_opposite_infinities_fails_without_a_warning():
    # Warnings are errors here: inf + -inf must not reach the stack's sum.
    rows = row_stack([1.0, math.inf, -math.inf])
    check_distribution(rows[0], "row 0")
    with pytest.raises(DomainError, match="row 1 at x = -1 is inf, not a probability"):
        check_distribution(rows[1], "row 1")


def test_stack_whose_row_sum_overflows_fails_without_a_warning():
    # Warnings are errors here: the stack's sum of two finite entries overflows to inf.
    with pytest.raises(NormalizationError, match=r"^row 1 sums to inf, expected 1 within"):
        DistributionSchedule.from_rows([1.0, 1e308, 1e308])


def outcome(f, *args):
    """The repr of what ``f`` returns, or the type and message it raises."""
    try:
        return repr(f(*args))
    except Exception as exc:
        return type(exc), str(exc)


UPPER, LOWER = 1.0 + 1e-9, 1.0 - 1e-9
EDGE_TOTALS = [v for b in (UPPER, LOWER) for v in (math.nextafter(b, 0.0), b, math.nextafter(b, 2.0))]
SPECIAL = [-0.0, -5e-10, -2e-9, math.nan, math.inf, -math.inf]


def left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


@st.composite
def probability_values(draw, t):
    """t+1 values: a random distribution, one with a special entry, one with
    an entry moved just below 0 (within or beyond 1e-9) and the total kept,
    or one whose left-to-right total is one ulp from 1 +- 1e-9."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random(t + 1)
    values = (w / w.sum()).tolist()
    kind = draw(st.sampled_from(["plain", "special", "negative", "edge"]))
    if kind == "special":
        values[draw(st.integers(0, t))] = draw(st.sampled_from(SPECIAL))
    elif kind == "negative":
        i = draw(st.integers(0, t))
        j = (i + draw(st.integers(1, t))) % (t + 1)
        v = draw(st.sampled_from([-5e-10, -1.5e-9]))
        values[j] += values[i] - v
        values[i] = v
    elif kind == "edge":
        # A first entry >= 0.5 makes the last subtraction exact.
        values = [0.6, *(0.3 * w[1:t] / w[1:t].sum()).tolist()] if t > 1 else [0.6]
        target = draw(st.sampled_from(EDGE_TOTALS))
        values.append(target - left_to_right(values))
        assume(left_to_right(values) == target)
    return values


def stacked(t, values):
    """Row t of a stack whose rows 0..t-1 are uniform."""
    head = [1.0 / (k + 1) for k in range(t) for _ in range(k + 1)]
    return row_stack(head + list(values))[t]


@st.composite
def rows_and_partners(draw):
    t = draw(st.integers(1, 12))
    values = draw(probability_values(t))
    row = stacked(t, values) if draw(st.booleans()) else Row(t, (np.array(values),))
    partner = stacked(t, draw(st.just(values) | probability_values(t)))
    kind = draw(st.sampled_from(["row", "sparse-row", "dict", "missing", "off-support"]))
    if kind == "sparse-row":  # keyed at its nonzero positions only, so the keys differ from row's
        partner = Row(t, partner.columns, [x for x, v in partner.items() if v != 0.0])
    elif kind != "row":
        partner = dict(partner)
        if kind == "missing":
            for x in draw(st.sets(st.sampled_from(list(support(t))), max_size=t)):
                del partner[x]
        elif kind == "off-support":
            x = draw(st.sampled_from([t + 2, -t - 2, t + 1, 0 if t % 2 else 1]))
            partner[x] = draw(st.sampled_from([0.0, 1e-10, 0.25]))
    return t, values, row, partner


@settings(max_examples=300, deadline=None)
@given(rows_and_partners(), st.integers(0, 2**32 - 1))
def test_a_row_and_its_dict_give_the_same_results(case, seed):
    t, values, row, partner = case
    plain = dict(row)
    plain_partner = dict(partner)
    assert outcome(measure.similarity, row, partner) == outcome(measure.similarity, plain, plain_partner)
    assert outcome(measure.similarity, partner, row) == outcome(measure.similarity, plain_partner, plain)
    assert outcome(measure.shannon_entropy, row) == outcome(measure.shannon_entropy, plain)
    assert outcome(check_distribution, row, "p") == outcome(check_distribution, plain, "p")
    assert outcome(noise.sample_counts, row, 1000, seed) == outcome(noise.sample_counts, plain, 1000, seed)
    head = [1.0 / (k + 1) for k in range(t) for _ in range(k + 1)]
    rows = row_stack(head + values)
    assert (outcome(DistributionSchedule.from_rows, head + values)
            == outcome(DistributionSchedule, t, {k: dict(r) for k, r in enumerate(rows)}))


def test_row_reads_like_its_dict():
    row = row_stack([1.0, 0.25, 0.75, 0.2, 0.3, 0.5])[2]
    d = {-2: 0.2, 0: 0.3, 2: 0.5}
    assert repr(row) == repr(d) == "{-2: 0.2, 0: 0.3, 2: 0.5}"
    assert row == d and d == row and not row != d and row != {-2: 0.2}
    assert list(row) == list(d) and list(row.items()) == list(d.items())
    assert list(row.values()) == [0.2, 0.3, 0.5] and len(row) == 3
    assert type(row.items()) is type(d.items()) and type(row.values()) is type(d.values())
    assert row.keys() - {0} == {-2, 2} and row.keys() & {0, 4} == {0}
    assert row.keys() | {4} == {-2, 0, 2, 4} and row.keys() ^ {2, 4} == {-2, 0, 4}
    assert row[0] == 0.3 and row.get(4) is None and row.get(4, 0.0) == 0.0
    assert 0 in row and 1 not in row and dict(row) == d
    with pytest.raises(KeyError):
        row[4]
    with pytest.raises(TypeError):
        row[0] = 1.0
    with pytest.raises(TypeError):
        del row[0]
    with pytest.raises(TypeError):
        hash(row)
    with pytest.raises(ValueError):
        row.columns[0][0] = 1.0


def test_dict_built_and_row_built_states_compare_equal():
    a, b = np.array([0.6, 0j]), np.array([0j, 0.8])
    built = WalkerState(1, {1: (0j, 0.8), -1: (0.6, 0j)})
    assert WalkerState.from_rows(1, a, b) == built
    assert built == WalkerState.from_rows(1, a, b)
    assert WalkerState.from_rows(1, a, b) != WalkerState(1, {-1: (0.6, 0j), 1: (0.8, 0j)})
    # The benchmark's tracer counts a repeated program by these comparisons.
    p = synth.uniform_program(5)
    q = fileio.program_from_text(fileio.program_to_text(p))
    assert (q.initial, q.cells, q.final_layer) == (p.initial, p.cells, p.final_layer)
    assert walk.run_program(q)[3].state == walk.run_program(p)[3].state


def test_sparse_state_keeps_its_keys():
    s = WalkerState(4, {2: (0.6, 0.8j)})
    assert list(s.amplitudes) == s.positions() == [2]
    # The support positions off the keys hold zeros in the columns, yet are no keys.
    row = s.amplitudes
    assert row.get(2) == (0.6 + 0j, 0.8j) and row.get(0) is None and row.get(0, 1) == 1
    assert 2 in row and 0 not in row and -4 not in row and 6 not in row
    assert list(row.items()) == [(2, (0.6 + 0j, 0.8j))]
    assert row == {2: (0.6, 0.8j)} and {2: (0.6, 0.8j)} == row
    assert row != {0: (0j, 0j), 2: (0.6, 0.8j)}
    assert row == WalkerState(4, {2: (0.6, 0.8j)}).amplitudes
    assert list(position_distribution(s).items()) == [(2, abs(0.6) ** 2 + abs(0.8j) ** 2)]
    assert walk.apply_shift(s).positions() == [1, 3]
    assert walk.apply_shift(s).amplitudes == {1: (0j, 0.8j), 3: (0.6 + 0j, 0j)}
    assert walk.mirror_state(s).amplitudes == {-2: (0.8j, 0.6 + 0j)}
    assert walk.apply_coin_layer(s, {2: CoinOp(0.3)}).positions() == [2]
    empty = WalkerState(3, {}, require_normalized=False)
    assert empty.amplitudes == {} and walk.apply_shift(empty).amplitudes == {}


def test_similarity_of_disjoint_rows_with_negative_zeros_is_positive_zero():
    # Each scalar term is sqrt(1.0 * -0.0) = -0.0, and the scalar sum starts from 0.0.
    p, q = row_stack([1.0, -0.0, 1.0])[1], row_stack([1.0, 1.0, -0.0])[1]
    assert repr(oracle.similarity(dict(p), dict(q))) == "0.0"
    assert repr(measure.similarity(p, q)) == "0.0"


@pytest.mark.parametrize("make, message", [
    (lambda: row_stack([]), "0 values do not fill rows 0..T"),
    (lambda: DistributionSchedule.from_rows([]), "0 values do not fill rows 0..T"),
    (lambda: synth.uniform_program(-1), "steps must be >= 1, got -1"),
    (lambda: synth.gaussian_program(-1), "steps must be >= 1, got -1"),
    (lambda: synth.binomial_schedule(-2), "steps must be >= 1, got -2"),
], ids=["row-stack", "from-rows", "uniform-program", "gaussian-program", "binomial-schedule"])
def test_an_empty_stack_is_a_domain_error(make, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        make()


def test_a_stack_copies_the_callers_array():
    v = np.array([1.0, 0.5, 0.5])
    sched = DistributionSchedule.from_rows(v)
    v[0] = 2.0
    assert v.tolist() == [2.0, 0.5, 0.5]
    assert sched.rows == {0: {0: 1.0}, 1: {-1: 0.5, 1: 0.5}}


@st.composite
def distribution_values(draw, t):
    """t+1 probabilities at x = -t..t, some of them zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random(t + 1) * (rng.random(t + 1) < draw(st.sampled_from([0.5, 1.0])))
    assume(w.any())
    return (w / w.sum()).tolist()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda t: st.tuples(
    distribution_values(t), distribution_values(t), st.permutations(list(support(t))),
    st.permutations(list(support(t))), st.integers(0, 4), st.integers(0, 2**32 - 1))))
def test_a_row_a_shuffled_dict_and_a_draw_matrix_row_measure_alike(case):
    # Every sum runs in ascending x, so neither the map's order nor the path matters.
    values, partner, order, partner_order, i, seed = case
    t = len(values) - 1
    p, q = Row(t, (np.array(values),)), Row(t, (np.array(partner),))
    shuffled_p = {x: p[x] for x in order}
    shuffled_q = {x: q[x] for x in partner_order}
    matrix = np.random.default_rng(seed).dirichlet(np.ones(t + 1), size=5)
    matrix[i] = values
    expected_f = repr(oracle.similarity(shuffled_p, shuffled_q))
    expected_h = repr(oracle.shannon_entropy(shuffled_p))
    for a, b in ((p, q), (shuffled_p, shuffled_q), (p, shuffled_q), (shuffled_p, q)):
        assert repr(measure.similarity(a, b)) == expected_f
    assert repr(float(measure._similarity_rows(matrix, np.array(partner))[i])) == expected_f
    assert repr(measure.shannon_entropy(p)) == expected_h
    assert repr(measure.shannon_entropy(shuffled_p)) == expected_h
    assert repr(float(measure._entropy_rows(matrix)[i])) == expected_h


def test_the_t40_binomial_row_has_one_entropy_in_every_key_order():
    row = synth.binomial_schedule(40).rows[40]
    rng = np.random.default_rng(40)
    xs = list(row)
    expected = repr(oracle.shannon_entropy(dict(row)))
    assert repr(measure.shannon_entropy(row)) == expected
    for _ in range(200):
        rng.shuffle(xs)
        assert repr(measure.shannon_entropy({x: row[x] for x in xs})) == expected


@st.composite
def feasible_schedules(draw):
    """A random feasible schedule, as rows or as dicts: each cell's mass splits between its
    two children by a fraction in [0.1, 0.9], so every cell carries mass."""
    steps = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [np.ones(1)]
    for t in range(steps):
        u = rng.uniform(0.1, 0.9, t + 1)  # the share of each cell that moves right
        rows.append(np.append(rows[-1] * (1 - u), 0.0) + np.insert(rows[-1] * u, 0, 0.0))
    sched = DistributionSchedule.from_rows(np.concatenate(rows))
    return as_dicts(sched) if draw(st.booleans()) else sched


def counted_column(mp):
    """Count the calls of state._column in every module that holds it by name."""
    calls, column = [], state._column

    def counted(*args, **kwargs):
        calls.append(args[2])
        return column(*args, **kwargs)

    for module in (state, synth, walk, noise, measure, fileio):
        if hasattr(module, "_column"):
            mp.setattr(module, "_column", counted)
    return calls


def accepts(row):
    try:
        check_distribution(dict(row), "row")
    except (DomainError, NormalizationError):
        return False
    return True


@settings(max_examples=40, deadline=None)
@given(sched=feasible_schedules(), scale=st.sampled_from([1.0, 1.0 + 1e-10, 1.0 + 1e-8, 2.0]))
def test_package_made_values_equal_their_public_twins(sched, scale):
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_column(mp)
        plan = synth.plan_amplitudes(sched)
        assert calls == []  # the plan's rows are not read again
    twin = synth.AmplitudePlan(plan.steps, plan.a, plan.b)
    for made, public in zip(plan.a + plan.b, twin.a + twin.b):
        assert made.dtype == public.dtype == np.float64
        assert not made.flags.writeable and np.array_equal(made, public)

    program = synth.schedule_program(sched)
    t = plan.steps
    last = WalkerState.from_rows(t, plan.a[t], plan.b[t])
    public = replace(synth.synthesize_coins(plan), final_layer=synth.disentangle_layer(last))
    assert program == public
    assert np.array_equal(program.cells.theta, public.cells.theta)
    assert fileio.program_to_text(program) == fileio.program_to_text(public)

    # An initial state scaled off norm 1 gives rows that check_distribution may reject.
    a, b = program.initial.pair(0)
    initial = WalkerState(0, {0: (scale * a, scale * b)}, require_normalized=False)
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_column(mp)
        reports = walk.run_program(replace(program, initial=initial))
        assert calls == []  # nor are the run's masses
    for r in reports[1:]:  # the step-0 report's row is no stack's, and never marked checked
        assert r.distribution._checked == accepts(r.distribution)
        assert not r.distribution.columns[0].flags.writeable
        assert r.distribution == position_distribution(r.state)


@settings(max_examples=20, deadline=None)
@given(sched=feasible_schedules(), jitter=st.sampled_from([1e-3, 0.5, 4.0]))
def test_walk_and_noise_programs_hold_the_angles_they_made(sched, jitter):
    made = synth.schedule_program(sched)
    steps, theta, initial = made.steps, made.cells.theta, walk.circular_initial()
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_column(mp)
        got = (noise.perturb_program(made, noise.NoiseModel(coin_angle_jitter_rad=jitter, seed=5)),
               walk.hadamard_program(steps, initial), walk.mirror_program(made))
        assert calls == []  # their angles are not read again
    # Each equals the program built on the public AngleRows from angles found here.
    jittered = theta + np.random.default_rng(5).normal(0.0, jitter, theta.size)
    mirrored = [math.pi - made.cells[(t, -x)].theta for t, x in made.cells]
    public = (replace(made, cells=state.AngleRows(np.clip(jittered, 0.0, math.pi))),
              state.CoinProgram(steps, state.AngleRows(np.full(theta.size, math.pi / 4)), initial),
              replace(walk.mirror_program(made), cells=state.AngleRows(mirrored)))
    for program, twin in zip(got, public, strict=True):
        assert program == twin and not program.cells.theta.flags.writeable
        assert program.cells.theta.tobytes() == twin.cells.theta.tobytes()

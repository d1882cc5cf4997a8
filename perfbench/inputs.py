"""Seeded input generator for the coinwalk benchmark (numpy only).

Every input a job hands to the package is made here from the run's
``--seed``: schedule texts, coin-angle grids and CLI seeds. The same seed
always gives the same inputs. This module never imports ``coinwalk``.

Angle grids are lists of rows: ``rows[t][i]`` is the coin angle of cell
``(t, x = 2 i - t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import reference

DESIGN_STEPS = 300
PULSE_STEPS = 13
EMULATE_STEPS = 11
# Angle noise of the perturbed-uniform target (rad).
PERTURB_SIGMA = 0.05
PULSE_PROGRAMS = 64
EMULATE_SEEDS = 16


@dataclass(frozen=True)
class ScheduleInput:
    """One inverse-design target: its name, P rows and schedule text."""

    name: str
    rows: list[np.ndarray]
    text: str


def schedule_text(rows: list[np.ndarray]) -> str:
    """``t x p`` lines, floats as repr, in the package's schedule format."""
    lines = []
    for t, row in enumerate(rows):
        for i, p in enumerate(row.tolist()):
            lines.append(f"{t} {2 * i - t} {p!r}")
    return "\n".join(lines) + "\n"


def program_angles(rows: list[np.ndarray]) -> list[np.ndarray]:
    """Angles of the nonnegative-amplitude program realizing P ``rows``.

    Flux conservation fixes b^2 of row t+1 as a prefix sum,
    b^2(j) = sum_{k<=j} P(k, t+1) - sum_{k<j} P(k, t), and a^2(j) =
    P(j-1, t) - b^2(j-1); each angle follows from a cell and its two
    children. Every cell must carry mass.
    """
    a, b = np.ones(1), np.zeros(1)
    angles = []
    for p, q in zip(rows, rows[1:]):
        b_sq = np.maximum(np.cumsum(q) - np.concatenate(([0.0], np.cumsum(p))), 0.0)
        b_sq[-1] = 0.0
        a_sq = np.maximum(np.concatenate(([0.0], p - b_sq[:-1])), 0.0)
        a_next, b_next = np.sqrt(a_sq), np.sqrt(b_sq)
        m = a * a + b * b
        c = (a * a_next[1:] - b * b_next[:-1]) / m
        s = (b * a_next[1:] + a * b_next[:-1]) / m
        angles.append(np.arctan2(s, c))
        a, b = a_next, b_next
    return angles


def perturbed_uniform_rows(steps: int, rng: np.random.Generator) -> list[np.ndarray]:
    """A feasible target: the P rows of the uniform angles plus N(0, sigma).

    Running a real coin program forward gives rows that some program
    realizes, so the schedule is feasible by construction.
    """
    angles = [
        np.clip(row + rng.normal(0.0, PERTURB_SIGMA, row.size), 0.0, math.pi)
        for row in program_angles([reference.uniform_row(t) for t in range(steps + 1)])
    ]
    return reference.sweep(angles, (1.0, 0.0))


def design_inputs(seed: int, steps: int = DESIGN_STEPS) -> list[ScheduleInput]:
    rng = np.random.default_rng([seed, 1])
    targets = (
        ("uniform", [reference.uniform_row(t) for t in range(steps + 1)]),
        ("binomial", [reference.binomial_row(t) for t in range(steps + 1)]),
        ("perturbed-uniform", perturbed_uniform_rows(steps, rng)),
    )
    return [ScheduleInput(name, rows, schedule_text(rows)) for name, rows in targets]


def pulse_inputs(
    seed: int, steps: int = PULSE_STEPS, count: int = PULSE_PROGRAMS
) -> list[list[list[float]]]:
    """``count`` grids of angles drawn uniformly from [0, pi]."""
    rng = np.random.default_rng([seed, 2])
    return [
        [rng.uniform(0.0, math.pi, t + 1).tolist() for t in range(steps)]
        for _ in range(count)
    ]


def emulate_inputs(seed: int, count: int = EMULATE_SEEDS) -> list[int]:
    """CLI seeds for ``coinwalk --seed s reproduce``."""
    rng = np.random.default_rng([seed, 3])
    return rng.integers(0, 2**31 - 1, size=count).tolist()

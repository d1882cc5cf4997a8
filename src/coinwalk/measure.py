"""Analysis of walk outcomes: overlap, entropy, purity, bit extraction.

The purity check works on pairs of neighboring occupied positions
{x, x+2}: their 2x2 reduced density matrix, built from the walker
amplitudes with an optional dephasing factor on the coherences, must
satisfy |rho_{x,x+2}|^2 = rho_{x,x} rho_{x+2,x+2} for a coherent (pure)
multi-path state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, MustDisentangleError, _quote
from .state import (CONSTRUCTION_TOL, WalkerState, _at_least, _distribution, _integer, _iterable,
                    _left_sum, _left_sums, _map_column, _real, support)


def similarity(p: Mapping[int, float], q: Mapping[int, float]) -> float:
    """Bhattacharyya overlap sum_x sqrt(p_x q_x) over the union support.

    Equals 1 exactly when the distributions match and 0 when their
    supports are disjoint. The terms at the positions both hold (one that
    only one side holds adds 0.0) are added in ascending x, left to right
    from 0.0, so rows and dicts in any key order give the same float.
    """
    (xp, pv), (xq, qv) = _distribution(p, "p"), _distribution(q, "q")
    if xp != xq:  # a range and its equal list too: their masks keep every position
        both = set(xp) & set(xq)  # the positions both hold, kept in ascending x on each side
        pv, qv = pv[[x in both for x in xp]], qv[[x in both for x in xq]]
    return float(_similarity_rows(pv, qv))


def shannon_entropy(p: Mapping[int, float]) -> float:
    """Entropy -sum p log2 p in bits, with 0 log 0 = 0: the terms added in
    ascending x, left to right from 0.0, whatever the map's order."""
    values = _distribution(p, "p")[1].tolist()
    return -_left_sum([v * math.log2(v) for v in values if v > 0.0])


def _similarity_rows(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """similarity of a row, or of every row of a matrix, against ``q``, whose
    columns are the same positions in ascending x, bit for bit, without the
    checks: IEEE sqrt terms, as math.sqrt gives, added by ``_left_sums``."""
    return np.minimum(_left_sums(np.sqrt(np.maximum(rows, 0.0) * np.maximum(q, 0.0))), 1.0)


def _entropy_rows(rows: np.ndarray) -> np.ndarray:
    """shannon_entropy of every row of a matrix whose columns are in
    ascending x, bit for bit, without the checks: math.log2 terms (np.log2
    may differ in the last bit) added by ``_left_sums``. A term at v <= 0
    is v * 0.0, a zero that leaves every sum as it is."""
    values, inverse = np.unique(rows, return_inverse=True)
    logs = np.array([math.log2(v) if v > 0.0 else 0.0 for v in values.tolist()])
    return -_left_sums(rows * logs[inverse].reshape(rows.shape))


@dataclass(frozen=True)
class PairDensity:
    """Reduced density matrix over the basis {|x>, |x+2>}, unnormalized:
    diagonal entries are the two position populations."""

    x: int
    rho: np.ndarray


def _walker_amplitudes(source) -> dict[int, complex]:
    """The walker amplitude of ``source`` at each position, keyed in ascending x."""
    if isinstance(source, WalkerState):
        amps = {}
        for x, (a, b) in source.amplitudes.items():
            if abs(b) > 1e-9:
                raise MustDisentangleError(
                    f"coin amplitude |b({x})| = {abs(b)!r}; apply the "
                    f"disentangling layer before purity analysis"
                )
            amps[x] = a
    else:
        xs, column = _map_column(source, complex, "source", "amplitude")
        amps = dict(zip(xs, column.tolist()))  # Python complexes, quoted as (2+0j)
    for x, a in amps.items():  # a state's amplitudes too: one rule whatever the source
        if not math.hypot(a.real, a.imag) <= 1.0 + CONSTRUCTION_TOL:  # NaN fails too
            raise DomainError(f"amplitude at x = {_quote(x)} is {_quote(a)}, not of modulus <= 1")
    return amps


def pair_density(source, x: int, gamma: float = 1.0) -> PairDensity:
    """Density matrix of the pair {x, x+2} of a disentangled state.

    ``source`` is a WalkerState with the coin factored to |0>, or a map
    from position to walker amplitude. ``gamma`` scales the off-diagonal
    coherence (1 = pure, the ensemble-averaged dephasing factor
    otherwise), a retention in [0, 1].
    """
    gamma, x = _real(gamma, "gamma", 0.0, 1.0, "lie in [0, 1]"), _integer(x, "position")
    amps = _walker_amplitudes(source)
    if x not in amps and x + 2 not in amps:
        raise DomainError(f"neither {_quote(x)} nor {_quote(x + 2)} is occupied")
    return PairDensity(x=x, rho=_pair_rho(amps.get(x, 0j), amps.get(x + 2, 0j), gamma))


def _pair_rho(c1: complex, c2: complex, gamma: float) -> np.ndarray:
    """The density matrix of walker amplitudes c1 at x and c2 at x+2, coherences times gamma."""
    return np.array([[abs(c1) ** 2, gamma * c1 * c2.conjugate()],
                     [gamma * c2 * c1.conjugate(), abs(c2) ** 2]])


@dataclass(frozen=True)
class PurityRecord:
    """One pair of the purity criterion: lhs = |rho_{x,x+2}|^2 against
    rhs = rho_{x,x} rho_{x+2,x+2}."""

    x: int
    lhs: float
    rhs: float
    passed: bool


def purity_criterion(
    source,
    gamma: float = 1.0,
    tol: float = 1e-9,
) -> list[PurityRecord]:
    """Evaluate the pairwise purity equality over all neighboring pairs.

    A pair passes when lhs >= rhs - tol (lhs never exceeds rhs, so the
    one-sided test captures equality). ``tol`` should be widened to three
    propagated standard errors when the matrix comes from finite counts.
    """
    gamma = _real(gamma, "gamma", 0.0, 1.0, "lie in [0, 1]")
    tol = _real(tol, "tol", 0.0, rule="be finite and >= 0")
    amps = _walker_amplitudes(source)
    records = []
    for x in list(amps)[:-1]:
        if x + 2 not in amps:
            continue
        rho = _pair_rho(amps[x], amps[x + 2], gamma)
        lhs = float(abs(rho[0, 1]) ** 2)
        rhs = float(abs(rho[0, 0]) * abs(rho[1, 1]))
        records.append(PurityRecord(x=x, lhs=lhs, rhs=rhs, passed=lhs >= rhs - tol))
    return records


@dataclass(frozen=True)
class BitExtraction:
    bits: str
    bits_per_sample: int
    n_accepted: int
    n_rejected: int


def extract_bits(samples: Iterable[int], t: int) -> BitExtraction:
    """Map measured positions of a t-step walk to fixed-width bit strings.

    Positions index ascending from -t. When t+1 is a power of two every
    sample yields log2(t+1) bits; otherwise samples with index at or
    above the largest power of two are rejected (unbiased, no
    post-processing on accepted samples).
    """
    t = _at_least(t, 1, "step count")
    width = int(math.floor(math.log2(t + 1)))
    cap = 1 << width
    chunks = []
    rejected = 0
    positions = support(t)
    for x in map(_integer, _iterable(samples, "samples"), repeat("position")):
        if x not in positions:
            raise DomainError(f"position {_quote(x)} outside the step-{t} support")
        idx = (x + t) // 2
        if idx >= cap:
            rejected += 1
            continue
        chunks.append(format(idx, f"0{width}b"))
    return BitExtraction(
        bits="".join(chunks),
        bits_per_sample=width,
        n_accepted=len(chunks),
        n_rejected=rejected,
    )

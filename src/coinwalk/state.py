"""Core value types for one-dimensional coin-walker lattices.

The walker lives on the integer line; the coin is a two-level degree of
freedom. Everything indexed by position after t steps is held as dense
rows at x = 2i - t, i = 0..t: a walker state as its coin-|0> and coin-|1>
amplitude rows, a position distribution and a target schedule row as one
row of probabilities, and a coin program as read-only angle rows, row t
holding the t+1 angles of step t. States and distributions read as
read-only maps from position to value (``Row``), so a state built from a
dict keeps exactly its keys, and a key off the step's support is rejected
when the state is built. Every mass |a|^2 + |b|^2 is taken in numpy by
``_masses``, bit for bit the float Python's abs(z) ** 2 gives.

Tolerance policy: user-facing construction checks run at 1e-9, internal
evolution invariants are asserted at 1e-12.

Argument policy: a real, complex or integer is checked by ``_real``, ``_complex`` or
``_integer`` (a numpy bool or 0-d array as the value it holds), every array by ``_column``,
numpy's one pass or that rule on each value, named by its cell; anything else is a
DomainError, quoting each value through ``errors._quote``, clipped to 80 characters.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import InitVar, dataclass
from functools import reduce
from itertools import count, islice, repeat
from numbers import Complex, Integral, Real
from operator import add, index

import numpy as np

from .errors import DomainError, IncompleteLayerError, NormalizationError, _clip, _quote

CONSTRUCTION_TOL = 1e-9
EVOLUTION_TOL = 1e-12
_PLAN_BLOCK = 64  # steps per 2-D pass: row_stack's checks, the plan sweep and synthesis
_FMAX = sys.float_info.max

AmplitudePair = tuple[complex, complex]


def support(t: int) -> range:
    """Positions -t, -t+2, ..., t the walker can occupy after t steps."""
    return range(-t, t + 1, 2)


def _held(v):
    """``v``, a numpy bool or 0-d numpy array read as the Python value it holds."""
    return v.item() if isinstance(v, (np.bool_, np.ndarray)) and v.ndim == 0 else v


def _integer(v, name: str) -> int:
    """operator.index of ``_held(v)`` (int() truncates 1.7): else DomainError."""
    try:
        return index(_held(v))
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {_quote(v)}") from None


def _at_least(v, low: int, name: str) -> int:
    """``v`` as an integer >= ``low``: else DomainError naming it."""
    v = _integer(v, name)
    if v < low:
        raise DomainError(f"{name} must be >= {low}, got {_quote(v)}")
    return v


def _real(v, name: str, low=-_FMAX, high=_FMAX, rule="be finite") -> float:
    """float(v), never NaN, for a numbers.Real ``_held(v)`` (no str, bytes, None or complex) in
    [low, high], finite by default: else DomainError, "<name> must fit a float" or "must <rule>"."""
    if isinstance(v := _held(v), Real):
        try:
            f = float(v)
        except OverflowError:
            raise DomainError(f"{name} must fit a float, got {_quote(v)}") from None
        if low <= f <= high:
            return f
    raise DomainError(f"{name} must {rule}, got {_quote(v)}")


def _number(v, name: str) -> float:
    """``_real`` on the whole line, but any float, NaN too, is left to the caller's checks."""
    if isinstance(v := _held(v), (float, np.floating)):
        return float(v)
    return _real(v, name, -math.inf, math.inf, "be a real number")


def _complex(z, name: str) -> complex:
    """complex(z) for a numbers.Complex ``_held(z)`` whose parts fit a float: else DomainError."""
    if isinstance(z := _held(z), (complex, float)):  # a builtin or numpy float or complex, fast
        return complex(z)
    if isinstance(z, Complex):
        return complex(_number(z.real, name), _number(z.imag, name))
    raise DomainError(f"{name} must be a complex number, got {_quote(z)}")


_RULES = {float: (_number, "biuf"), complex: (_complex, "biufc"), np.int64: (_integer, "bi")}


def _column(values, dtype: type, whole: str, names: Iterable[str] | None = None) -> np.ndarray:
    """``values``, named ``whole``, as a new read-only 1-D ``dtype`` array: numpy's one pass if it
    reads a vector of the numpy kinds in ``_RULES``, else the dtype's scalar rule there on each
    value under its name in ``names`` (else ``whole``), naming the first it rejects."""
    rule, kinds = _RULES[dtype]
    try:
        column = np.array(values)  # a copy: the caller's array stays its own
    except ValueError:  # ragged: numpy reads it only as objects
        column = np.array(values, dtype=object)
    if column.ndim == 0 or isinstance(values, (bytearray, memoryview)):  # numpy: a uint8 vector
        raise DomainError(f"{whole} must be a sequence, got {_quote(values)}")
    if column.ndim == 1 and column.dtype.kind in kinds:
        column = column.astype(dtype, copy=False)
    else:
        column = np.empty(len(column), dtype)
        for i, (v, name) in enumerate(zip(values, names or repeat(whole))):
            try:
                v = column[i] = rule(v, name)
            except OverflowError:  # an integer outside int64
                raise DomainError(f"{name} at index {i} must fit int64, got {_quote(v)}") from None
    column.flags.writeable = False
    return column


def _left_sum(values: list) -> float:
    """The values added left to right from 0.0 (builtin sum compensates from Python 3.12)."""
    return reduce(add, values, 0.0)


def _left_sums(rows: np.ndarray) -> np.ndarray:
    """_left_sum of a row, or of each row of a matrix, bit for bit: one cumsum (add.accumulate),
    then + 0.0, which turns the one total that a start from 0.0 changes, -0.0, into 0.0. A
    sum of finite values that overflows is inf, as with Python's +."""
    if rows.shape[-1] == 0:
        return np.zeros(rows.shape[:-1])
    with np.errstate(over="ignore"):
        return np.add.accumulate(rows, axis=-1)[..., -1] + 0.0


def _mapping(v, name: str) -> Mapping:
    """``v`` if it is a Mapping: else DomainError naming it."""
    if not isinstance(v, Mapping):
        raise DomainError(f"{name} must be a map, got {_quote(v)}")
    return v


def _iterable(v, name: str) -> Iterator:
    """An iterator over ``v``: else DomainError naming it, in ``_column``'s wording."""
    try:
        return iter(v)
    except TypeError:
        raise DomainError(f"{name} must be a sequence, got {_quote(v)}") from None


def _map_column(p, dtype: type, whole: str, entry: str) -> tuple[list[int], np.ndarray]:
    """The map ``p``, named ``whole``, as its integer keys in ascending x and its values there
    through ``_column``, each named "<entry> at x = <x>"."""
    xs = sorted(_integer(x, "position") for x in _mapping(p, whole))
    names = (f"{entry} at x = {_quote(x)}" for x in xs)
    return xs, _column([p[x] for x in xs], dtype, whole, names)


def check_distribution(p: Mapping[int, float], name: str) -> None:
    """Require a probability row: every entry finite and >= -1e-9
    (DomainError), the entries summing to 1 within 1e-9 (NormalizationError)."""
    _distribution(p, name)


def _distribution(p: Mapping[int, float], name: str) -> tuple[Sequence[int], np.ndarray]:
    """check_distribution, returning the keys in ascending x and the column it checked: a row
    that ``row_stack`` accepted, which is dense, gives its own; any other map is read by
    ``_map_column`` and checked as a one-row matrix that names its smallest bad x."""
    if isinstance(p, Row) and p._checked:
        return p.xs, p.columns[0]
    xs, values = _map_column(p, float, name, name)
    _check_rows(xs, values[None], name)
    return xs, values


def _passing(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether check_distribution accepts each row of a matrix, columns in ascending x,
    and each row's sum. Zeros after a row's entries change neither the test nor the sum."""
    bad = ~np.isfinite(rows) | (rows < -CONSTRUCTION_TOL)
    # A bad entry fails its row anyway, so it is added as 0.0: inf + -inf would warn.
    totals = _left_sums(np.where(bad, 0.0, rows))
    return ~bad.any(axis=1) & (abs(totals - 1.0) <= CONSTRUCTION_TOL), totals


def _check_rows(xs: Sequence[int], rows: np.ndarray, name: str) -> None:
    """check_distribution on every row of a matrix whose columns are the
    positions ``xs``: the first failing row names its smallest bad x, or else its sum."""
    passing, totals = _passing(rows)
    if not passing.all():
        i = int(np.argmin(passing))
        bad = np.flatnonzero(~np.isfinite(rows[i]) | (rows[i] < -CONSTRUCTION_TOL))
        if bad.size:
            x, v = xs[bad[0]], rows[i, bad[0]].item()
            raise DomainError(f"{name} at x = {_quote(x)} is {v!r}, not a probability")
        total = totals[i].item()
        raise NormalizationError(f"{name} sums to {total!r}, expected 1 within {CONSTRUCTION_TOL}")


def _masses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """abs(a) ** 2 + abs(b) ** 2 for each entry of rows a, b, read-only, bit for bit the
    Python floats: hypot is Python's abs of a complex and float_power, which
    calls libm's pow as Python does, its ** 2 (numpy's abs, square and power
    differ in the last bit). A sum of finite squares that overflows is inf,
    as with Python's +; a square that is infinite raises DomainError naming
    the first such amplitude in the order a0, b0, a1, b1, ..."""
    with np.errstate(over="ignore"):
        sa, sb = (np.float_power(np.hypot(z.real, z.imag), 2.0) for z in (a, b))
        total = sa + sb
    if not np.isfinite(total).all():  # a square overflowed, or only a sum did
        z = np.ravel([a, b], order="F")[np.isinf(np.ravel([sa, sb], order="F"))]
        if z.size:
            raise DomainError(f"amplitude {complex(z[0])!r} is too large: its "
                              f"squared magnitude overflows a float")
    total.flags.writeable = False
    return total


class Row(Mapping):
    """Read-only map from position to value over dense rows at x = 2i - step.

    ``columns`` holds one row of floats (a distribution), or the two rows
    a, b of complex amplitudes, whose values are the pairs (a, b). ``xs``
    are the keys in ascending order: every support position, or those of
    the sparse dict the row was built from, with zeros at the others. As a
    read-only ``Mapping`` it reads like that dict (keys, order, repr, ==,
    get, items, keys() set operations): ``__getitem__``, ``get``, ``items``
    and ``values`` read one dict, built with one tolist() per column when
    first read.
    """

    __slots__ = ("step", "columns", "xs", "_checked", "_dict")

    def __init__(self, step: int, columns: tuple[np.ndarray, ...],
                 xs: Sequence[int] | None = None):
        self.step = step
        self.columns = columns
        self.xs = support(step) if xs is None or len(xs) == step + 1 else xs
        self._checked = False  # set by row_stack on a row it accepts
        self._dict = None

    @property
    def dense(self) -> bool:
        """Whether every support position is a key."""
        return isinstance(self.xs, range)

    def index(self):
        """Where the keys sit in the columns: a slice or a list of indices."""
        return slice(None) if self.dense else [(x + self.step) // 2 for x in self.xs]

    def _as_dict(self) -> dict:
        if self._dict is None:
            columns = self.columns
            if not self.dense:
                i = self.index()
                columns = [c[i] for c in columns]
            values = zip(*(c.tolist() for c in columns)) if len(columns) == 2 else columns[0].tolist()
            self._dict = dict(zip(self.xs, values))
        return self._dict

    def __getitem__(self, x):
        return self._as_dict()[x]

    def get(self, x, default=None):
        return self._as_dict().get(x, default)

    def items(self):
        return self._as_dict().items()

    def values(self):
        return self._as_dict().values()

    def __iter__(self):
        return iter(self.xs)

    def __len__(self) -> int:
        return len(self.xs)

    def __repr__(self) -> str:
        return repr(self._as_dict())


def row_stack(values) -> list[Row]:
    """Rows t = 0..T of ``values`` laid end to end in (t, x) order, row t
    holding the t+1 values at x = 2i - t: read-only views, checked as
    distributions together when the stack is built."""
    values = _column(values, float, "probabilities",
                     (f"P({x},{t})" for t, x in map(cell_at, count())))
    n, x = cell_at(values.size)
    if n == 0 or x != -n:
        raise DomainError(f"{values.size} values do not fill rows 0..T")
    return _row_stack(values, n)


def _row_views(flat: np.ndarray, n: int) -> list[np.ndarray]:
    """Rows 0..n-1 of ``flat``, held end to end in (t, x) order, as views; all made read-only."""
    flat.flags.writeable = False
    starts = [t * (t + 1) // 2 for t in range(n + 1)]
    return [flat[i:j] for i, j in zip(starts, starts[1:])]


def _row_stack(values: np.ndarray, n: int) -> list[Row]:
    """row_stack of the floats of rows 0..n-1 that the package made, not read again:
    ``_passing`` checks blocks of ``_PLAN_BLOCK`` rows, each block one matrix padded
    with zeros to its longest row."""
    rows = [Row(t, (row,)) for t, row in enumerate(_row_views(values, n))]
    for t0 in range(0, n, _PLAN_BLOCK):
        t1 = min(t0 + _PLAN_BLOCK, n)
        block = np.zeros((t1 - t0, t1))
        lo, hi = t0 * (t0 + 1) // 2, t1 * (t1 + 1) // 2
        block[np.arange(t1) <= np.arange(t0, t1)[:, None]] = values[lo:hi]
        for row, passing in zip(rows[t0:t1], _passing(block)[0].tolist()):
            row._checked = passing
    return rows


def _require_finite_rows(a: np.ndarray, b: np.ndarray, step: int | None = None) -> None:
    """Name the first cell whose amplitudes a, b, complex or real, are not finite:
    the rows of ``step``, or else rows 0.. laid end to end in (t, x) order."""
    finite = np.isfinite(a) & np.isfinite(b)
    if not finite.all():
        i = int(np.argmin(finite))
        name, z = ("a", a[i]) if not np.isfinite(a[i]) else ("b", b[i])
        t, x = cell_at(i) if step is None else (step, 2 * i - step)
        raise DomainError(f"amplitude {name}({x},{t}) must have finite components, got {z.item()!r}")


def _amplitude_pair(x, pair) -> tuple[int, AmplitudePair]:
    """A state's entry as a position and its pair of complex amplitudes: else DomainError."""
    x = _integer(x, "position")
    try:
        a, b = pair
    except (TypeError, ValueError):  # not an iterable of two values
        raise DomainError(f"amplitudes at x = {_quote(x)} must be a pair, "
                          f"got {_quote(pair)}") from None
    return x, (_complex(a, "amplitude"), _complex(b, "amplitude"))


@dataclass(frozen=True)
class WalkerState:
    """Coin-walker wavefunction at a fixed step.

    ``amplitudes`` maps each occupied position x to the pair (a, b) of
    coin-|0> and coin-|1> amplitudes. Occupied positions must share the
    parity of ``step`` and lie in [-step, step]. The state holds them as
    the dense rows a, b at x = 2i - step (``rows``), and ``amplitudes``
    becomes their read-only ``Row`` view; a state built from a dict keeps
    the dict's keys, with zeros at the other positions.
    """

    step: int
    amplitudes: Mapping[int, AmplitudePair]
    require_normalized: InitVar[bool] = True

    def __post_init__(self, require_normalized: bool):
        object.__setattr__(self, "step", _at_least(self.step, 0, "step"))
        amps = self.amplitudes
        if not (isinstance(amps, Row) and amps.step == self.step and len(amps.columns) == 2):
            amps = dict(_amplitude_pair(*entry) for entry in _mapping(amps, "amplitudes").items())
            positions = support(self.step)
            stray = next((x for x in amps if x not in positions), None)
            if stray is not None:
                raise DomainError(f"position {_quote(stray)} is outside the step-{self.step} "
                                  "support {-t, -t+2, ..., t}")
            pairs = np.array([amps.get(x, (0j, 0j)) for x in positions], dtype=complex)
            pairs.flags.writeable = False
            amps = Row(self.step, (pairs[:, 0], pairs[:, 1]), sorted(amps))
        _require_finite_rows(*amps.columns, self.step)
        object.__setattr__(self, "amplitudes", amps)
        if require_normalized:
            n = norm(self)
            if abs(n - 1.0) > CONSTRUCTION_TOL:
                raise NormalizationError(
                    f"state norm is {n!r}, expected 1 within {CONSTRUCTION_TOL}"
                )

    @classmethod
    def from_rows(cls, step: int, a: np.ndarray, b: np.ndarray) -> WalkerState:
        """Unnormalized state at ``step`` from dense rows a, b at x = 2i - step,
        checked once per row: one entry per support position, every one finite."""
        step = _at_least(step, 0, "step")
        a = _column(a, complex, "a", (f"amplitude a({x},{step})" for x in count(-step, 2)))
        b = _column(b, complex, "b", (f"amplitude b({x},{step})" for x in count(-step, 2)))
        if a.shape != (step + 1,) or b.shape != (step + 1,):
            raise DomainError(f"step-{step} rows must hold {step + 1} amplitudes, "
                              f"got {a.shape} and {b.shape}")
        return cls(step, Row(step, (a, b)), require_normalized=False)

    @classmethod
    def _of(cls, row: Row) -> WalkerState:
        """The state whose amplitudes are ``row``, a pair row its caller checked."""
        s = object.__new__(cls)
        object.__setattr__(s, "step", row.step)
        object.__setattr__(s, "amplitudes", row)
        return s

    @property
    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only amplitude rows a, b at x = 2i - step."""
        return self.amplitudes.columns

    def pair(self, x: int) -> AmplitudePair:
        """Amplitude pair at position x (implicit zeros off support)."""
        return self.amplitudes.get(x, (0j, 0j))

    def positions(self) -> list[int]:
        return list(self.amplitudes.xs)


def localized_state(coin_amp0: complex, coin_amp1: complex) -> WalkerState:
    """State at t = 0 with the walker localized at x = 0.

    The coin starts in coin_amp0 |0> + coin_amp1 |1>; the pair must be
    normalized within 1e-9.
    """
    return WalkerState(step=0, amplitudes={0: (coin_amp0, coin_amp1)})


def norm(s: WalkerState) -> float:
    """Total probability carried by the state (1 for any valid state): the
    masses added by ``_left_sum`` in ascending x."""
    return _left_sum(_masses(*s.rows).tolist())


def position_distribution(s: WalkerState) -> Row:
    """P(x) = |a(x)|^2 + |b(x)|^2 over the occupied positions."""
    return Row(s.step, (_masses(*s.rows),), s.amplitudes.xs)


@dataclass(frozen=True)
class CoinOp:
    """Real-orthogonal coin [[cos t, sin t], [sin t, -cos t]], determinant -1."""

    theta: float

    def __post_init__(self):
        theta = self.theta
        if type(theta) is not float or not 0.0 <= theta <= math.pi:  # NaN fails too
            _real(theta, "theta")  # a non-float real in [0, pi] passes both
            _real(theta, "theta", 0.0, math.pi, "lie in [0, pi]")

    @property
    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, s], [s, -c]])


HADAMARD = CoinOp(math.pi / 4)


@dataclass(frozen=True)
class GeneralCoinOp:
    """Arbitrary real-orthogonal 2x2 coin, row-major entries.

    Houses the disentangling coins (1/N)[[a, b], [b, -a]], which only fit
    the angle form after normalization.
    """

    m00: float
    m01: float
    m10: float
    m11: float

    def __post_init__(self):
        m00, m01, m10, m11 = self.m00, self.m01, self.m10, self.m11
        if not (type(m00) is type(m01) is type(m10) is type(m11) is float
                and all(map(math.isfinite, (m00, m01, m10, m11)))):  # else name the failure
            m00, m01, m10, m11 = (_real(m, "coin entry") for m in (m00, m01, m10, m11))
        # The entries of m^T m - I: column norms minus one and the column product.
        residuals = (m00 * m00 + m10 * m10 - 1.0, m01 * m01 + m11 * m11 - 1.0,
                     m00 * m01 + m10 * m11)
        if max(map(abs, residuals)) > EVOLUTION_TOL:
            raise DomainError(f"coin matrix {self.matrix.tolist()} is not orthogonal")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.m00, self.m01], [self.m10, self.m11]])


def cell_at(i: int) -> tuple[int, int]:
    """Cell (t, x) at index i of the angle rows laid end to end."""
    t = (math.isqrt(8 * i + 1) - 1) // 2
    return t, 2 * (i - t * (t + 1) // 2) - t


class AngleRows(Mapping):
    """Read-only coin angles laid end to end in (t, x) order; ``rows[t]`` is a
    view of the t+1 angles of step t at x = 2i - t. As a mapping, each cell
    (t, x) gives its CoinOp."""

    def __init__(self, theta):
        names = (f"coin angle at step {t}, position {x}" for t, x in map(cell_at, count()))
        self._hold(_column(theta, float, "coin angles", names))

    @classmethod
    def _of(cls, theta: np.ndarray) -> AngleRows:
        """The rows of ``theta``, float angles the package made, held and not read again."""
        angles = object.__new__(cls)
        angles._hold(theta)
        return angles

    def _hold(self, theta: np.ndarray) -> None:
        self.theta = theta
        self.rows = tuple(_row_views(theta, cell_at(theta.size)[0]))  # CoinProgram checks size

    def __getitem__(self, key: tuple[int, int]) -> CoinOp:
        try:
            t, x = key
            if 0 <= t < len(self.rows) and x in support(t):
                return CoinOp(float(self.rows[t][(x + t) // 2]))
        except (TypeError, ValueError, IndexError):  # no pair of integers
            pass
        raise KeyError(key)

    def __iter__(self):
        return ((t, x) for t in range(len(self.rows)) for x in support(t))

    def __len__(self) -> int:
        return self.theta.size


def _coins_at(given: Mapping, whole: str, keys: Iterable, kind: type, owner: str, where) -> list:
    """The coins of the map ``given``, named ``whole``, at exactly ``keys``, in key order,
    each a ``kind``: else IncompleteLayerError or DomainError naming the first bad key, which
    ``where`` formats from the parts of the key, each quoted by ``_quote``. A
    stray key is named as the smallest one shaped like ``keys`` (a tuple exactly
    when they are, with as many integer parts), or else as the first in
    ``given``'s order, quoted whole."""
    # A key past the map's length is missing, so no more keys are needed.
    keys = list(islice(keys, len(_mapping(given, whole)) + 1))

    def parts(key) -> tuple:
        return key if isinstance(key, tuple) else (key,)

    def shaped(key) -> bool:
        return (isinstance(key, tuple) == isinstance(keys[0], tuple)
                and len(parts(key)) == len(parts(keys[0]))
                and all(isinstance(v, Integral) for v in parts(key)))

    def name(key) -> str:
        return where(*map(_quote, parts(key))) if shaped(key) else _quote(key)

    coins = []
    for key in keys:
        coin = given.get(key)
        if coin is None:
            raise IncompleteLayerError(f"{owner} is missing the coin for {name(key)}")
        if not isinstance(coin, kind):
            raise DomainError(f"{owner} coin for {name(key)} is a "
                              f"{type(coin).__name__}, not a {kind.__name__}")
        coins.append(coin)
    if len(given) != len(keys):
        expected = set(keys)
        strays = [key for key in given if key not in expected]
        key = min(filter(shaped, strays), default=strays[0])
        raise DomainError(f"{owner} has a coin for {_clip(name(key))}, "
                          "outside its support")
    return coins


@dataclass(frozen=True)
class CoinProgram:
    """Full assignment of a coin to every (step, position) cell.

    ``cells`` holds the angles of the positions reachable at each step
    t < steps as AngleRows (a dict of CoinOps at exactly those cells is
    converted once); ``final_layer``, when present, is the coin-only
    disentangling layer applied after the last shift and holds a
    GeneralCoinOp at exactly the positions of ``support(steps)``.
    """

    steps: int
    cells: Mapping[tuple[int, int], CoinOp]
    initial: WalkerState
    final_layer: dict[int, GeneralCoinOp] | None = None

    def __post_init__(self):
        object.__setattr__(self, "steps", _at_least(self.steps, 1, "steps"))
        if self.initial.step != 0:
            raise DomainError("initial state must be at step 0")
        if isinstance(self.cells, AngleRows):
            theta = self.cells.theta
            if theta.size != self.steps * (self.steps + 1) // 2:
                raise DomainError(f"{self.steps}-step program has {theta.size} coin angles")
            bad = np.flatnonzero(~((theta >= 0.0) & (theta <= math.pi)))  # NaN fails both
            if bad.size:
                t, x = cell_at(int(bad[0]))
                raise DomainError(f"coin angle at step {t}, position {x} is "
                                  f"{float(theta[bad[0]])!r}, not in [0, pi]")
        else:
            keys = ((t, x) for t in range(self.steps) for x in support(t))
            where = "cell ({0},{1}) at step {0}, position {1}".format
            coins = _coins_at(self.cells, "cells", keys, CoinOp, "program", where)
            object.__setattr__(self, "cells", AngleRows([op.theta for op in coins]))
        if self.final_layer is not None:
            _coins_at(self.final_layer, "final_layer", support(self.steps), GeneralCoinOp,
                      "final layer", "position {}".format)

    def layer(self, t: int) -> dict[int, CoinOp]:
        """The coins of step t, keyed by position."""
        if not 0 <= (t := _integer(t, "step")) < self.steps:
            raise DomainError(f"step {_quote(t)} outside program range [0, {self.steps})")
        return {x: self.cells[(t, x)] for x in support(t)}


@dataclass(frozen=True)
class DistributionSchedule:
    """Target position distribution P(x, t) for every step t = 0..steps.

    Each row is a dict, whose entries are converted and checked one by one,
    or a float ``Row`` at its own step, which ``from_rows`` builds and whose
    stack is checked once, when it is built.
    """

    steps: int
    rows: dict[int, Mapping[int, float]]

    def __post_init__(self):
        object.__setattr__(self, "steps", _at_least(self.steps, 1, "steps"))
        rows = {}
        for t, row in _mapping(self.rows, "rows").items():
            t = _integer(t, "schedule row")
            if not (isinstance(row, Row) and row.step == t and len(row.columns) == 1):
                xs = [_integer(x, "position") for x in _mapping(row, f"schedule row {_quote(t)}")]
                names = (f"P({_quote(x)},{_quote(t)})" for x in xs)
                row = dict(zip(xs, _column([*row.values()], float, "row", names).tolist()))
            rows[t] = row
        object.__setattr__(self, "rows", rows)
        stray = [t for t in rows if not 0 <= t <= self.steps]
        if stray:
            raise DomainError(f"schedule has a row for step {_quote(min(stray))}, "
                              f"outside 0..{self.steps}")
        for t in range(self.steps + 1):
            row = rows.get(t)
            if row is None:
                raise DomainError(f"schedule is missing the row for step {t}")
            check_distribution(row, f"row {t}")
            if isinstance(row, Row):
                continue  # its keys lie on the support
            for x in sorted(row.keys() - set(support(t))):
                if row[x] > CONSTRUCTION_TOL:
                    raise DomainError(
                        f"P({_quote(x)},{t}) = {row[x]!r} lies outside the step-{t} support"
                    )

    @classmethod
    def from_rows(cls, values) -> DistributionSchedule:
        """The schedule whose rows t = 0..T are ``values`` laid end to end in
        (t, x) order, row t holding the t+1 probabilities at x = 2i - t."""
        return cls._of(row_stack(values))

    @classmethod
    def _of(cls, rows: list[Row]) -> DistributionSchedule:
        """The schedule of the rows of a stack, checked when the stack was built."""
        return cls(steps=len(rows) - 1, rows=dict(enumerate(rows)))

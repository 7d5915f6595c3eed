"""Symbolic measure generators and level-n adic measures.

Every generator is a stationary digit chain (P, pi).  A Bernoulli digit
process is the chain whose rows all equal pi; a self-similar digit-set
measure with equal contraction ratios is the Bernoulli process with zeros off
its digits.  A generator produces: level-n measures (its chain factorization
from a start law), conditionals given a finite past, samples and entropy.
A level-n measure assigns weight w_k to the half-open interval
[k/a^n, (k+1)/a^n) and is read as piecewise uniform.  Its correlation
integral is the lag sum sum_D c_D R(D) T(r/h - D) over the weight
autocorrelation R = w * w that `fourier.scaled_sq_integral` also sums; the
guard r >= 16 h makes that one-sided kernel exact (see `correlation_integral`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError, NullCylinderError, PrecisionError, ResolutionError, ResourceError

MAX_WEIGHT_ENTRIES = 1 << 24   # weight-vector budget (memory < 1 GB)
_PROB_TOL = 1e-12

BERNOULLI = "bernoulli"
MARKOV = "markov"


def _freeze(arr: np.ndarray, dtype=np.float64) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=dtype)
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MeasureGen:
    """Symbolic generator of a shift-invariant digit measure: the stationary
    chain with stochastic matrix P and pi P = pi.

    kind 'bernoulli': i.i.d. digits with law pi; every row of P is pi.
    kind 'markov':    `steps` is the chain's `StepTable` for `sample_digits`.
    """

    kind: str
    base: int
    P: np.ndarray
    pi: np.ndarray
    steps: StepTable | None = field(default=None, repr=False)


@dataclass(frozen=True, eq=False)
class StepTable:
    """A Markov chain's digit steps and start draw, built once by `markov`.

    With B the distinct values across all rows of cumsum P, a uniform u in
    [B_(k-1), B_k) takes every row s to T_u(s) = min(searchsorted(cum[s], u,
    "right"), l_s), l_s the last positive entry of row s, and that map is
    maps[k] for every such u.  For a^a <= 256 a map is the code
    sum_s T(s) a^s, composition[g a^a + f] is the code of g o f, value[c] is
    the digit of a constant code c (else -1) and miss = P(T_u not constant);
    otherwise maps holds rows, both tables are None and miss is 1.  The start
    draw searches pi_cum, the cumsum of pi before its last positive entry.
    """

    breaks: np.ndarray
    maps: np.ndarray
    composition: np.ndarray | None
    value: np.ndarray | None
    miss: float
    pi_cum: np.ndarray
    chunk: int              # digits per scan chunk


def bernoulli(base: int, p) -> MeasureGen:
    p = np.asarray(p, dtype=np.float64)
    if base < 2 or len(p) != base:
        raise InputError("probability vector length must equal base >= 2")
    if not np.all(np.isfinite(p) & (p >= 0)) or abs(p.sum() - 1.0) > _PROB_TOL:
        raise InputError("probabilities must be finite, >= 0 and sum to 1 within 1e-12")
    _check_budget(base, 2)      # P, a rows of pi, is as large as the level-2 weights
    return MeasureGen(kind=BERNOULLI, base=base, P=_freeze(np.tile(p, (base, 1))),
                      pi=_freeze(p))


def uniform(base: int) -> MeasureGen:
    return bernoulli(base, np.full(base, 1.0 / base))


def markov(P, pi=None) -> MeasureGen:
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 2:
        raise InputError("P must be a square stochastic matrix, size >= 2")
    a = P.shape[0]
    if not np.all(np.isfinite(P) & (P >= 0)) or np.any(np.abs(P.sum(1) - 1.0) > _PROB_TOL):
        raise InputError("rows of P must be finite, >= 0 and sum to 1 within 1e-12")
    if pi is None:
        A = P.T - np.eye(a)
        A[-1] = 1.0
        pi = np.linalg.solve(A, np.eye(a)[-1])
    pi = np.asarray(pi, dtype=np.float64)
    if not np.all(np.isfinite(pi) & (pi >= -_PROB_TOL)) or abs(pi.sum() - 1.0) > _PROB_TOL:
        raise InputError("pi must be a probability vector")
    if np.max(np.abs(pi @ P - pi)) > _PROB_TOL:
        raise InputError("pi is not stationary for P (pi P != pi within 1e-12)")
    pi = np.clip(pi, 0.0, None)
    return MeasureGen(kind=MARKOV, base=a, P=_freeze(P), pi=_freeze(pi),
                      steps=_step_table(P, pi))


_SCAN_ENTRIES = 1 << 15   # scan-table entries per chunk: codes, or (chunk, a) rows


def _step_table(P: np.ndarray, pi: np.ndarray) -> StepTable:
    a = len(P)
    cum = np.cumsum(P, axis=1)
    breaks = np.unique(cum)
    if (len(breaks) + 1) * a > MAX_WEIGHT_ENTRIES:
        raise ResourceError(f"the step table of a {a}-state chain has "
                            f"{(len(breaks) + 1) * a} entries, over the weight-vector budget",
                            dict(states=a, entries=(len(breaks) + 1) * a,
                                 budget=MAX_WEIGHT_ENTRIES))
    lefts = np.concatenate(([0.0], breaks))     # left ends; u < B_0 reads 0.0
    maps = np.empty((len(lefts), a), dtype=np.int64)
    for s, row in enumerate(cum):
        last = np.flatnonzero(P[s])[-1]
        maps[:, s] = np.minimum(np.searchsorted(row, lefts, side="right"), last)
    composition, value, miss = None, None, 1.0
    if a ** a <= 256:
        powers = a ** np.arange(a)
        decoded = np.arange(a ** a)[:, None] // powers % a      # map of each code
        # decoded[:, decoded][g, f, s] = g(f(s))
        composition = _freeze((decoded[:, decoded] @ powers).ravel(), np.int64)
        value = _freeze(np.where((decoded == decoded[:, :1]).all(1), decoded[:, 0], -1), np.int64)
        maps = maps @ powers
        miss = float(np.clip(np.diff(lefts, append=1.0), 0.0, None) @ (value[maps] < 0))
    return StepTable(breaks=_freeze(breaks), maps=_freeze(maps, np.int64),
                     composition=composition, value=value, miss=miss,
                     pi_cum=_freeze(np.cumsum(pi)[:np.flatnonzero(pi)[-1]]),
                     chunk=max(1, _SCAN_ENTRIES // maps[0].size))


def ifs_digits(base: int, digits, weights=None) -> MeasureGen:
    """Equal-ratio self-similar measure on the digit set: the Bernoulli
    process with the weights on its digits and zeros off them."""
    digits = tuple(sorted(int(d) for d in digits))
    if not digits or len(set(digits)) != len(digits):
        raise InputError("digit set must be nonempty without repeats")
    if any(not (0 <= d < base) for d in digits):
        raise InputError("digit set must lie in [0, base)")
    if weights is None:
        weights = np.full(len(digits), 1.0 / len(digits))
    if len(weights) != len(digits):
        raise InputError("weights must match the digit set")
    p = np.zeros(base)
    p[list(digits)] = weights
    return bernoulli(base, p)


def cantor3() -> MeasureGen:
    """Middle-thirds digit-set measure: base 3, digits {0, 2}, equal weights."""
    return ifs_digits(3, (0, 2))


def entropy(gen: MeasureGen) -> float:
    """Entropy rate in nats, sum_s pi_s H(P_s); 0*log 0 := 0."""
    rows = [row[row > 0] for row in gen.P]
    return float(gen.pi @ np.array([-(v * np.log(v)).sum() for v in rows]))


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PastWord:
    """Finite truncation of a one-sided past; symbols[0] is the most recent digit."""

    base: int
    symbols: tuple[int, ...] = ()

    def __post_init__(self):
        if any(not (0 <= s < self.base) for s in self.symbols):
            raise InputError("past symbols must lie in [0, base)")

    def extended_by(self, consumed) -> "PastWord":
        """Past after the word `consumed` (oldest first) has been shifted into it."""
        new = tuple(int(d) for d in reversed(list(consumed))) + self.symbols
        return PastWord(self.base, new)


@dataclass(frozen=True)
class CylinderWord:
    """Digit word naming one level-n interval [k/a^n, (k+1)/a^n)."""

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if not self.digits:
            raise InputError("cylinder word must be nonempty")
        if any(not (0 <= d < self.base) for d in self.digits):
            raise InputError("cylinder digits must lie in [0, base)")

    @property
    def index(self) -> int:
        k = 0
        for d in self.digits:
            k = k * self.base + d
        return k

    def __len__(self) -> int:
        return len(self.digits)


def word(base: int, digits) -> CylinderWord:
    return CylinderWord(base, tuple(int(d) for d in digits))


# ---------------------------------------------------------------------------
# Level-n measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, init=False)
class AdicMeasure:
    """Nonnegative weights on the a^level half-open level intervals, summing to 1.

    It takes its weight vector, validated and frozen here, or `structure`, the
    chain factorization (init, P) from `realize` and `conditional_on_past`:
    w_(d_1 ... d_n) = init[d_1] P[d_1, d_2] ... P[d_(n-1), d_n].  A factorized
    measure builds its weights on the first read of `.weights`, under the
    weight-vector budget, and keeps them; `fourier.ft_adic_many` never reads
    them.  Its level must keep the cell width a^-level a normal float.
    """

    base: int
    level: int
    structure: tuple | None = field(default=None, repr=False)

    def __init__(self, base: int, level: int, weights=None, structure: tuple | None = None):
        if (weights is None) == (structure is None):
            raise InputError("a measure takes its weights or a chain structure: one, not both")
        if structure is not None and level < 1:
            raise InputError("level must be >= 1")
        if base < 2 or level < 0:
            raise InputError("base >= 2 and level >= 0 required")
        if structure is not None and base ** level > 2 ** 1022:
            raise PrecisionError(f"cell width {base}**-{level} is below the normal floats",
                                 dict(base=base, level=level))
        self.__dict__.update(base=base, level=level, structure=structure)   # frozen: no setattr
        if structure is None:
            w = np.asarray(weights, dtype=np.float64)
            if len(w) != base ** level:
                raise InputError("weight vector length must be base**level")
            self.__dict__["weights"] = _checked(w)     # read in place of the chain build

    @cached_property
    def weights(self) -> np.ndarray:
        """The chain's weights, one digit per step: w_(u d) = w_u P[last digit of u, d]."""
        a, (init, P) = self.base, self.structure
        _check_budget(a, self.level)
        w = init.copy()
        for _ in range(self.level - 1):
            w = (w.reshape(-1, a)[:, :, None] * P).ravel()
        return _checked(w)

    @property
    def cell_width(self) -> float:
        return float(self.base) ** -self.level


def _checked(w: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise InputError("weights must be finite and nonnegative")
    if abs(w.sum() - 1.0) > _PROB_TOL:
        raise InputError("weights must sum to 1 within 1e-12")
    return _freeze(w)


def _check_budget(a: int, n: int) -> None:
    if a ** n > MAX_WEIGHT_ENTRIES:
        raise ResourceError(f"a^n = {a}**{n} exceeds the weight-vector budget", dict(
            base=a, level=n, entries=a ** n, budget=MAX_WEIGHT_ENTRIES))


def realize(gen: MeasureGen, n: int) -> AdicMeasure:
    """Level-n measure: each digit word gets its generator cylinder probability."""
    return AdicMeasure(gen.base, n, structure=(gen.pi, gen.P))


def conditional_on_past(gen: MeasureGen, past: PastWord, n: int) -> AdicMeasure:
    """Level-n conditional measure given the finite past: the chain started
    from the row of P at the most recent symbol.  An i.i.d. past may be
    empty, as every row is pi."""
    if past.base != gen.base:
        raise InputError("past and generator bases differ")
    if gen.kind == MARKOV and not past.symbols:
        raise InputError("Markov conditioning requires a nonempty past")
    init = gen.P[past.symbols[0]] if past.symbols else gen.pi
    return AdicMeasure(gen.base, n, structure=(init, gen.P))


def cylinder_condition(mu: AdicMeasure, w: CylinderWord) -> AdicMeasure:
    """Condition on the cylinder w, rescaled back to [0,1).

    Returns the normalized restriction to [k/a^n, (k+1)/a^n) pushed forward by
    n digit shifts; errors out on a null cylinder rather than inventing mass.
    """
    if w.base != mu.base:
        raise InputError("cylinder and measure bases differ")
    n = len(w)
    if n > mu.level:
        raise InputError("cylinder word longer than measure level")
    block_len = mu.base ** (mu.level - n)
    k = w.index
    block = mu.weights[k * block_len:(k + 1) * block_len]
    mass = float(block.sum())
    if mass <= 0.0:
        raise NullCylinderError(f"conditioning on null atom {w.digits}")
    return AdicMeasure(base=mu.base, level=mu.level - n, weights=block / mass)


def shift_push(mu: AdicMeasure, j: int) -> AdicMeasure:
    """Push forward by j digit shifts: w'_u = sum over length-j prefixes v of w_{v*u}."""
    if not (0 <= j <= mu.level):
        raise InputError(f"shift count {j} outside 0..{mu.level}")
    if j == 0:
        return mu
    w = mu.weights.reshape(mu.base ** j, -1).sum(axis=0)
    return AdicMeasure(base=mu.base, level=mu.level - j, weights=w)


def equivariance_gap(gen: MeasureGen, past: PastWord, w: CylinderWord,
                     N: int) -> float:
    """Largest entrywise difference between conditioning-then-shifting
    (the level-N conditional restricted to w) and shifting the past by w;
    both routes give a level-(N - len(w)) measure."""
    n = len(w)
    if N <= n:
        raise InputError("N must exceed the cylinder length")
    lhs = cylinder_condition(conditional_on_past(gen, past, N), w)
    rhs = conditional_on_past(gen, past.extended_by(w.digits), N - n)
    return float(np.max(np.abs(lhs.weights - rhs.weights)))


# ---------------------------------------------------------------------------
# Correlation integral
# ---------------------------------------------------------------------------

def _lag_weights(w: np.ndarray) -> np.ndarray:
    """c_D R(D), D < K: R = w * w by one zero-padded rfft of length 2K, c_0 = 1, c_D = 2."""
    K = len(w)
    R = np.fft.irfft(np.abs(np.fft.rfft(w, 2 * K)) ** 2, 2 * K)[:K]
    R[1:] *= 2.0
    return R


def correlation_integral(mu: AdicMeasure, r: float) -> float:
    """Average mass of the open radius-r ball around a mu-random point.

    Closed form for the piecewise-uniform interpretation: points of cells D
    apart differ by (D + U - V) h with U, V uniform on [0, 1], so with T the
    CDF of U - V the value is sum_D c_D R(D) T(r/h - D) over `_lag_weights`.
    Lags -D and D share c_D as T(z) + T(-z) = 1.  The exact kernel is
    T(rho - D) - T(-rho - D), rho = r/h; the guard makes rho >= 16, so the
    second term is 0 for D >= 0.  No circular wraparound: the measure lives
    on [0,1] inside the line.
    """
    return _lag_correlation(_lag_weights(mu.weights), mu.cell_width, r)


def _lag_correlation(R: np.ndarray, h: float, r: float) -> float:
    """`correlation_integral` at radius r from the `_lag_weights` R of a
    measure of cell width h, so callers that hold R do not rebuild it."""
    if r <= 0:
        raise InputError("radius must be positive")
    if h > r / 16.0:
        raise ResolutionError(
            f"cell width {h:g} exceeds r/16 = {r / 16:g}; deepen the level",
            dict(cell_width=h, radius=r, max_cell_width=r / 16))
    if r >= 1.0:
        return 1.0
    # T(rho - D) alone: rho >= 16 puts -rho - D below T's support [-1, 1]
    z = np.clip(r / h - np.arange(len(R)), -1.0, 1.0)
    T = np.where(z < 0.0, 0.5 * (1.0 + z) ** 2, 1.0 - 0.5 * (1.0 - z) ** 2)
    return float(np.sum(R * T))     # pairwise: a BLAS dot's order follows its threads


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _scan(x: np.ndarray, compose, value: np.ndarray | None, miss: float) -> None:
    """Inclusive prefix scan in place, x[i] <- x[i] o ... o x[0], in O(len(x))
    compositions (Blelloch 1990).  The up-sweep leaves the composite of each
    aligned block of 2d maps at the block's last entry; the down-sweep then
    composes each entry that still lacks its prefix with the prefix ending d
    before it.  The index ranges hold for any length, so nothing is padded.

    A constant composite c is its own prefix (c o f = c), so the up-sweep
    stops at the first level whose block composites all have a value >= 0,
    and the down-sweep starts there.  No test runs at the top level, where
    a stop saves nothing, or while a block without a constant map (each map
    non-constant with probability miss) is expected.  A test costs what its
    level costs and a stop only drops levels, so the work stays O(len(x))."""
    L = len(x)
    d = 1
    while 2 * d <= L:
        x[2 * d - 1::2 * d] = compose(x[2 * d - 1::2 * d], x[d - 1:L - d:2 * d])
        if (4 * d <= L and L * miss ** (2 * d) < 2 * d
                and value.take(x[2 * d - 1::2 * d]).min() >= 0):
            break
        d *= 2
    else:
        d //= 2
    while d:
        x[3 * d - 1::2 * d] = compose(x[3 * d - 1::2 * d], x[2 * d - 1:L - d:2 * d])
        d //= 2


def sample_digits(gen: MeasureGen, n: int, rng: np.random.Generator,
                  start: int | None = None) -> np.ndarray:
    """n digits of the stationary process; `start`, the previous symbol,
    conditions a Markov chain and is checked, then ignored, for i.i.d. digits.

    Markov digits are exact: with the uniforms drawn before the start state
    (drawn from pi and clamped to its last positive entry, as each step is
    to its row's), digit i is T_i o ... o T_0(start), T_i the step map of
    u_i from the generator's `StepTable`, indexed by the number of breaks
    <= u_i (a compare-and-sum over at most 16 breaks for codes, searchsorted
    for rows).  Map 0 of each chunk is replaced by the constant map
    T_0(state), so every prefix composite that `_scan` forms is constant and
    its value is the digit; the chunk's last digit is the state carried on.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    a = gen.base
    if start is not None and not 0 <= start < a:
        raise InputError(f"start state {start} outside 0..{a - 1}")
    if gen.kind == BERNOULLI:
        return rng.choice(a, size=n, p=gen.pi / gen.pi.sum())
    steps = gen.steps
    us = rng.random(n)
    state = int(np.searchsorted(steps.pi_cum, rng.random(), "right") if start is None else start)
    table = steps.composition

    def compose(g, f):
        return np.take_along_axis(g, f, axis=1) if table is None else table.take(g * a ** a + f)
    out = np.empty(n, dtype=np.int64)
    for lo in range(0, n, steps.chunk):
        u = us[lo:lo + steps.chunk]
        if table is None:           # map 0 becomes the constant map T_0(state)
            x = steps.maps.take(np.searchsorted(steps.breaks, u, side="right"), axis=0)
            x[0] = x[0, state]
        else:
            x = steps.maps.take((u >= steps.breaks[:, None]).sum(0, dtype=np.uint8))
            x[0] = x[0] // a ** state % a * (a ** a - 1) // (a - 1)   # times the map 1's code
        _scan(x, compose, steps.value, steps.miss)
        out[lo:lo + len(x)] = x[:, 0] if table is None else steps.value.take(x)
        state = int(out[lo + len(x) - 1])
    return out


def sample_past(gen: MeasureGen, length: int, rng: np.random.Generator) -> PastWord:
    """Stationary past of the given length (most recent symbol first)."""
    digits = sample_digits(gen, length, rng)
    return PastWord(gen.base, tuple(int(d) for d in digits[::-1]))

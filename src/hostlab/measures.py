"""Symbolic measure generators and level-n adic measures.

A generator (Bernoulli digit process, stationary Markov chain, or a
self-similar digit-set measure with equal contraction ratios) produces:
level-n weight vectors, conditional measures given a finite past, samples,
entropy, and correlation integrals.  A level-n measure assigns weight w_k to
the half-open interval [k/a^n, (k+1)/a^n) and is read as piecewise uniform.
Its correlation integral is the lag sum sum_D c_D R(D) T(r/h - D) over the weight
autocorrelation R = w * w that `fourier.scaled_sq_integral` also sums; the guard
r >= 16 h makes that one-sided kernel exact (see `correlation_integral`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NullCylinderError, ResolutionError, ResourceError

MAX_WEIGHT_ENTRIES = 1 << 24   # weight-vector budget (memory < 1 GB)
_PROB_TOL = 1e-12

BERNOULLI = "bernoulli"
MARKOV = "markov"
IFS_DIGITS = "ifs_digits"


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MeasureGen:
    """Symbolic generator of a shift-invariant digit measure.

    kind 'bernoulli': i.i.d. digits with probability vector p (length a).
    kind 'markov':    stationary chain with stochastic matrix P and pi P = pi.
    kind 'ifs_digits': digits restricted to a subset D with weights on D
                       (equal-ratio self-similar measure); stored as the
                       full-length vector p with zeros off D.
    """

    kind: str
    base: int
    p: np.ndarray | None = None
    P: np.ndarray | None = None
    pi: np.ndarray | None = None
    digits: tuple[int, ...] | None = None
    label: str = ""


def bernoulli(base: int, p) -> MeasureGen:
    p = np.asarray(p, dtype=np.float64)
    if base < 2 or len(p) != base:
        raise InputError("probability vector length must equal base >= 2")
    if not np.all(np.isfinite(p) & (p >= 0)) or abs(p.sum() - 1.0) > _PROB_TOL:
        raise InputError("probabilities must be finite, >= 0 and sum to 1 within 1e-12")
    return MeasureGen(kind=BERNOULLI, base=base, p=_freeze(p),
                      label=f"bernoulli({base})")


def uniform(base: int) -> MeasureGen:
    g = bernoulli(base, np.full(base, 1.0 / base))
    return MeasureGen(kind=BERNOULLI, base=base, p=g.p, label=f"uniform({base})")


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
        rhs = np.zeros(a)
        rhs[-1] = 1.0
        pi = np.linalg.solve(A, rhs)
    pi = np.asarray(pi, dtype=np.float64)
    if not np.all(np.isfinite(pi) & (pi >= -_PROB_TOL)) or abs(pi.sum() - 1.0) > _PROB_TOL:
        raise InputError("pi must be a probability vector")
    if np.max(np.abs(pi @ P - pi)) > _PROB_TOL:
        raise InputError("pi is not stationary for P (pi P != pi within 1e-12)")
    pi = np.clip(pi, 0.0, None)
    return MeasureGen(kind=MARKOV, base=a, P=_freeze(P), pi=_freeze(pi),
                      label=f"markov({a})")


def ifs_digits(base: int, digits, weights=None) -> MeasureGen:
    digits = tuple(sorted(int(d) for d in digits))
    if not digits or len(set(digits)) != len(digits):
        raise InputError("digit set must be nonempty without repeats")
    if any(not (0 <= d < base) for d in digits):
        raise InputError("digit set must lie in [0, base)")
    if weights is None:
        weights = np.full(len(digits), 1.0 / len(digits))
    weights = np.asarray(weights, dtype=np.float64)
    if (len(weights) != len(digits) or not np.all(np.isfinite(weights) & (weights >= 0))
            or abs(weights.sum() - 1.0) > _PROB_TOL):
        raise InputError("weights must match the digit set, be finite and sum to 1")
    p = np.zeros(base)
    p[list(digits)] = weights
    return MeasureGen(kind=IFS_DIGITS, base=base, p=_freeze(p), digits=digits,
                      label=f"ifs({base};{','.join(map(str, digits))})")


def cantor3() -> MeasureGen:
    """Middle-thirds digit-set measure: base 3, digits {0, 2}, equal weights."""
    return ifs_digits(3, (0, 2))


def entropy(gen: MeasureGen) -> float:
    """Shannon entropy in nats; 0*log 0 := 0."""
    def h(v):
        v = v[v > 0]
        return float(-(v * np.log(v)).sum())

    if gen.kind in (BERNOULLI, IFS_DIGITS):
        return h(gen.p)
    rows = np.array([h(row) for row in gen.P])
    return float(gen.pi @ rows)


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

@dataclass(frozen=True, eq=False)
class AdicMeasure:
    """Nonnegative weights on the a^level half-open level intervals, summing to 1.

    `structure`, when present, is a multiplicative factorization of the
    weight vector (("product", p, n) or ("chain", init, P, n)) attached by
    the generator constructors; transform code uses it as an algebraically
    exact fast path and ignores it otherwise.
    """

    base: int
    level: int
    weights: np.ndarray = field(repr=False)
    structure: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.base < 2 or self.level < 0:
            raise InputError("base >= 2 and level >= 0 required")
        w = np.asarray(self.weights, dtype=np.float64)
        if len(w) != self.base ** self.level:
            raise InputError("weight vector length must be base**level")
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise InputError("weights must be finite and nonnegative")
        if abs(w.sum() - 1.0) > _PROB_TOL:
            raise InputError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def cell_width(self) -> float:
        return float(self.base) ** -self.level


def _check_level(a: int, n: int) -> None:
    if n < 1:
        raise InputError("level must be >= 1")
    if a ** n > MAX_WEIGHT_ENTRIES:
        raise ResourceError(f"a^n = {a}**{n} exceeds the weight-vector budget")


def _chain_measure(gen: MeasureGen, init: np.ndarray, n: int) -> AdicMeasure:
    """Level-n weights of the chain started from the digit law `init`."""
    a = gen.base
    _check_level(a, n)
    w = init.copy()
    for _ in range(n - 1):
        w = (w.reshape(-1, a)[:, :, None] * gen.P[None, :, :]).reshape(-1)
    return AdicMeasure(base=a, level=n, weights=w,
                       structure=("chain", init, gen.P, n))


def realize(gen: MeasureGen, n: int) -> AdicMeasure:
    """Level-n weights: each digit word gets its generator cylinder probability."""
    if gen.kind == MARKOV:
        return _chain_measure(gen, gen.pi, n)
    _check_level(gen.base, n)
    w = gen.p.copy()
    for _ in range(n - 1):
        w = (w[:, None] * gen.p[None, :]).ravel()
    return AdicMeasure(base=gen.base, level=n, weights=w,
                       structure=("product", gen.p, n))


def conditional_on_past(gen: MeasureGen, past: PastWord, n: int) -> AdicMeasure:
    """Level-n conditional measure given the finite past.

    Bernoulli and digit-set generators are past-independent; a Markov chain
    depends on the past only through its most recent symbol.
    """
    if past.base != gen.base:
        raise InputError("past and generator bases differ")
    if gen.kind in (BERNOULLI, IFS_DIGITS):
        return realize(gen, n)
    if not past.symbols:
        raise InputError("Markov conditioning requires a nonempty past")
    return _chain_measure(gen, gen.P[past.symbols[0]], n)


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
    if mu.level == n:
        return AdicMeasure(base=mu.base, level=0, weights=np.array([1.0]))
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


def verify_equivariance(gen: MeasureGen, past: PastWord, w: CylinderWord,
                        N: int, tol: float = 1e-12) -> bool:
    """True iff the two routes of `equivariance_gap` agree within tol."""
    return equivariance_gap(gen, past, w, N) <= tol


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
            f"cell width {h:g} exceeds r/16 = {r / 16:g}; deepen the level")
    if r >= 1.0:
        return 1.0
    # T(rho - D) alone: rho >= 16 puts -rho - D below T's support [-1, 1]
    z = np.clip(r / h - np.arange(len(R)), -1.0, 1.0)
    T = np.where(z < 0.0, 0.5 * (1.0 + z) ** 2, 1.0 - 0.5 * (1.0 - z) ** 2)
    return float(R @ T)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

_SCAN_ENTRIES = 1 << 15   # (chunk, a) transition-table entries per scan chunk


def sample_digits(gen: MeasureGen, n: int, rng: np.random.Generator,
                  start: int | None = None) -> np.ndarray:
    """n digits of the stationary process; `start` conditions a Markov chain
    on its previous symbol.

    Markov digits are exact: with the uniforms drawn before the start state,
    the step map of digit i is T_i(s) = min(searchsorted(cumsum P[s], u_i), l_s)
    with l_s the last positive entry of row s (of pi for the start draw), and
    a Hillis-Steele prefix scan (F_i <- F_i o F_(i-d), d = 1, 2, 4, ...)
    composes them per chunk, so digit i is T_i o ... o T_0(start).
    """
    if n < 1:
        raise InputError("n must be >= 1")
    a = gen.base
    if gen.kind in (BERNOULLI, IFS_DIGITS):
        return rng.choice(a, size=n, p=gen.p / gen.p.sum())
    if start is not None and not 0 <= start < a:
        raise InputError(f"start state {start} outside 0..{a - 1}")
    cum = np.cumsum(gen.P, axis=1)
    us = rng.random(n)
    if start is None:
        start = min(np.searchsorted(np.cumsum(gen.pi), rng.random(), side="right"),
                    np.flatnonzero(gen.pi)[-1])
    state = int(start)
    last = [np.flatnonzero(row)[-1] for row in gen.P]
    out = np.empty(n, dtype=np.int64)
    chunk = max(1, _SCAN_ENTRIES // a)
    rows = np.arange(0, min(chunk, n) * a, a)[:, None]    # flat offset of each row
    for lo in range(0, n, chunk):
        u = us[lo:lo + chunk]
        F = np.empty((len(u), a), dtype=np.int64)
        for s in range(a):
            F[:, s] = np.searchsorted(cum[s], u, side="right")
        np.minimum(F, last, out=F)
        d = 1
        while d < len(u):
            # a flat take: 1.6-1.8x faster than take_along_axis at a = 2, 3
            F[d:] = F.take(rows[d:len(u)] + F[:-d])
            d *= 2
        out[lo:lo + len(u)] = F[:, state]
        state = out[lo + len(u) - 1]
    return out


def sample_past(gen: MeasureGen, length: int, rng: np.random.Generator) -> PastWord:
    """Stationary past of the given length (most recent symbol first)."""
    digits = sample_digits(gen, length, rng)
    return PastWord(gen.base, tuple(int(d) for d in digits[::-1]))

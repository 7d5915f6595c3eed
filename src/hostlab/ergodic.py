"""Simulated checks of the soft averaging statements.

Covers Cesaro averages of windowed functions minus their closed-form
conditional expectations, the interleaved-subsequence reassembly identity,
and joint equidistribution of (n theta, shift^{floor(beta n)} x) against the
product of Lebesgue and the stationary measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .adic import _floor_multiples
from .errors import InputError
from .measures import MeasureGen, _check_budget, realize, sample_digits
from .reports import derive_rng


# ---------------------------------------------------------------------------
# Windowed functions of the digit process
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DigitFunction:
    """Real or complex table over digit words of a fixed window length."""

    base: int
    window: int
    table: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        t = np.asarray(self.table)
        t = np.ascontiguousarray(t, dtype=np.result_type(t, np.float64))
        if self.window < 1 or len(t) != self.base ** self.window:
            raise InputError("table length must be base**window, window >= 1")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.table)))

    def integral(self, gen: MeasureGen) -> complex:
        """Exact integral against the stationary measure (cylinder function)."""
        return complex(np.dot(realize(gen, self.window).weights, self.table))


def parity_window(base: int, window: int) -> DigitFunction:
    """+-1 according to the parity of the digit sum over the window."""
    _check_budget(base, window)
    idx = np.arange(base ** window)
    total = np.zeros_like(idx)
    rest = idx.copy()
    for _ in range(window):
        total += rest % base
        rest //= base
    return DigitFunction(base=base, window=window,
                         table=np.where(total % 2 == 0, 1.0, -1.0),
                         label=f"parity{window}")


def first_digit_sign(base: int) -> DigitFunction:
    """+1 on digit 0, -1 otherwise (window length 1)."""
    t = -np.ones(base)
    t[0] = 1.0
    return DigitFunction(base=base, window=1, table=t, label="sign0")


def _conditional_table(gen: MeasureGen, f: DigitFunction) -> np.ndarray:
    """E[f(next window) | current state], in closed form: the k-step
    transition sum, contracted one window position at a time.  When the rows
    of P are equal (i.i.d. digits) every entry is the mean of f.
    """
    a, k = gen.base, f.window
    vals = f.table.copy()
    for _ in range(k - 1):
        flat = vals.reshape(-1, a)
        prev_state = np.arange(flat.shape[0]) % a
        vals = np.einsum("ij,ij->i", gen.P[prev_state], flat)
    return gen.P @ vals.reshape(a)


def _word_indices(digits: np.ndarray, k: int, base: int) -> np.ndarray:
    n = len(digits) - k + 1
    words = digits[:n].astype(np.int64)
    for j in range(1, k):                   # Horner over k shifted slices
        words = words * base + digits[j:j + n]
    return words


def martingale_avg_experiment(gen: MeasureGen, f: DigitFunction,
                              N: int, trials: int, seed: int) -> np.ndarray:
    """Per-trial values of the length-N Cesaro average of f_n - E(f_n | first n digits).

    f_n reads the digits at positions n+1 .. n+window; its conditional
    expectation given the first n digits is the closed-form table above, so
    no inner simulation is involved.  Trial t samples its digits from
    derive_rng(seed, t).
    """
    if f.base != gen.base:
        raise InputError("window function and process bases differ")
    if N < 1 or trials < 1:
        raise InputError("N and trials must be >= 1")
    cond = _conditional_table(gen, f)
    k = f.window

    def one_trial(trial: int) -> float:
        rng = derive_rng(seed, trial)
        digits = sample_digits(gen, N + k, rng)
        words = _word_indices(digits, k, gen.base)
        f_vals = f.table[words[1:N + 1]]
        cond_vals = cond[digits[0:N]]
        return float(np.mean(f_vals - cond_vals))

    return np.asarray([one_trial(t) for t in range(trials)])


# ---------------------------------------------------------------------------
# Joint equidistribution along floor(beta n)
# ---------------------------------------------------------------------------

def first_digit_indicator(base: int, digit: int = 0) -> DigitFunction:
    if not 0 <= digit < base:
        raise InputError(f"indicator digit {digit} outside 0..{base - 1}")
    t = np.zeros(base, dtype=np.complex128)
    t[digit] = 1.0
    return DigitFunction(base=base, window=1, table=t, label=f"ind{digit}")


def character_on_digits(base: int, window: int, m: int = 1) -> DigitFunction:
    """e(m x) read off the first `window` digits of x."""
    _check_budget(base, window)
    idx = np.arange(base ** window)
    xs = idx / float(base ** window)
    return DigitFunction(base=base, window=window,
                         table=np.exp(2j * np.pi * m * xs),
                         label=f"e{m}w{window}")


def operationally_irrational(theta: float, q_max: int = 10 ** 6,
                             tol: float = 1e-14) -> bool:
    """False iff some continued-fraction convergent p/q, q <= q_max, matches
    theta to within tol."""
    frac = Fraction(theta).limit_denominator(q_max)
    return abs(theta - float(frac)) >= tol


@dataclass(frozen=True, eq=False)
class JointEquidistResult:
    js: tuple[int, ...]
    g_labels: tuple[str, ...]
    averages: np.ndarray          # (len(js), len(gs)) complex
    expected: np.ndarray
    z_scores: np.ndarray          # NaN where the samples have no spread
    tolerance: float
    eps_N: float

    def deviations(self) -> np.ndarray:
        return np.abs(self.averages - self.expected)

    def all_within_tolerance(self) -> bool:
        return bool(np.all(self.deviations() <= self.tolerance))


def time_change_joint_experiment(theta: float, beta: float, gen: MeasureGen,
                                 js, gs, N: int, M: int, seed: int) -> JointEquidistResult:
    """Empirical averages A(j, g) of e(j n theta) g(shift^{floor(beta n)} x).

    x is sampled from the stationary digit process M times; the predicted
    limits are tau-hat(j) * integral(g), with tau Lebesgue on the circle
    (theta passes an irrationality gate, so the rotation orbit closure is
    everything).  The tolerance is 5 M^{-1/2} plus a documented Cesaro
    allowance eps_N = 1/(2 N min_j ||j theta||) + N^{-1/2}.

    Only the integrated identity is asserted; per-point limit measures are
    not constructed (they need not be invariant under the product map).
    """
    if beta <= 0:
        raise InputError("beta must be positive")
    if not operationally_irrational(theta):
        raise InputError("theta is rational at working precision")
    if N < 1 or M < 2:
        raise InputError(f"need N >= 1 and M >= 2 (a z-score needs a spread), "
                         f"got N = {N}, M = {M}")
    js = tuple(int(j) for j in js)
    gs = tuple(gs)
    if not js or not gs:
        raise InputError("need at least one frequency j and one test function g")
    if len(set(js)) < len(js) or len({g.label for g in gs}) < len(gs):
        raise InputError("frequencies j and test-function labels must be distinct: "
                         "each (j, g) names one row")
    if any(g.base != gen.base for g in gs):
        raise InputError("test function base differs from the generator")

    num, den = float(beta).as_integer_ratio()     # floor(beta n) exactly
    offs = _floor_multiples(num, den, N)[0][1:]
    max_window = max(g.window for g in gs)
    need = int(offs[-1]) + max_window
    ns = np.arange(1, N + 1, dtype=np.float64)
    phases = np.exp(2j * np.pi * theta * np.outer(np.asarray(js, float), ns))

    def one_sample(i: int) -> np.ndarray:
        rng = derive_rng(seed, i)
        digits = sample_digits(gen, need, rng)
        out = np.empty((len(js), len(gs)), dtype=np.complex128)
        for gi, g in enumerate(gs):
            g_vals = g.table[_word_indices(digits, g.window, gen.base)[offs]]
            out[:, gi] = phases @ g_vals / N
        return out

    per_sample = np.asarray([one_sample(i) for i in range(M)])
    averages = per_sample.mean(axis=0)

    expected = np.zeros_like(averages)
    for ji, j in enumerate(js):
        if j == 0:
            for gi, g in enumerate(gs):
                expected[ji, gi] = g.integral(gen)

    nonzero = [abs(j * theta - round(j * theta)) for j in js if j != 0]
    eps_N = (1.0 / (2.0 * N * min(nonzero)) if nonzero else 0.0) + N ** -0.5
    tolerance = 5.0 / math.sqrt(M) + eps_N

    # a cell whose samples all agree has no z-score: NaN marks it
    se = np.abs(per_sample.std(axis=0, ddof=1)) / math.sqrt(M)
    z = np.full(se.shape, np.nan)
    np.divide(np.abs(averages - expected), se, out=z, where=se > 0)

    return JointEquidistResult(
        js=js, g_labels=tuple(g.label for g in gs), averages=averages,
        expected=expected, z_scores=z, tolerance=tolerance, eps_N=eps_N)

"""Exponential-sum experiments along exact xb orbits of generator-typical
points, the orbit-versus-conditional comparison, and the k-indexed scale
integral whose decay drives everything.

All orbits run in exact integer arithmetic at a precision budget covering the
full orbit length; nothing is silently degraded to floats.  Each orbit point
T_b^n x is read out as r_n = floor(2^53 frac(b^n x)), exactly, from one big
division (recursive, `adic._big_divmod`) and the base-b digit stream of its
quotient (read from its bytes when b = 2^j); only the characters
e(m r_n 2^-53) are floats, so a Weyl average is within O(m 2^-53) of the
exact one.  The comparison reuses that stream: its cylinder phases are
floats built from r_n and the digits of x, within O(m a^(k+1) 2^-53) of the
exact ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adic import (
    PrecisionBudget,
    UnitPoint,
    _big_divmod,
    _int_to_digits,
    _pow,
    kronecker_schedule,
    make_point_from_digits,
    mul_mod1,
    multiplicatively_dependent,
)
from .errors import InputError, NullCylinderError, PrecisionError
from .fourier import TAU, _scale_averages, cis, ft_adic_many
from .measures import (
    MARKOV,
    MeasureGen,
    PastWord,
    _lag_correlation,
    _lag_weights,
    conditional_on_past,
    entropy,
    sample_digits,
    sample_past,
)
from .reports import derive_rng


# ---------------------------------------------------------------------------
# Weyl sums along an exact orbit
# ---------------------------------------------------------------------------

_CHUNK = 2048                 # orbit steps per scan / phase block
_MASK64 = (1 << 64) - 1


def _orbit_readout_chunks(num: int, mod: int, b: int, N: int):
    """Yield r_n = floor(2^53 frac(b^n x)), x = num/mod, for n = 1..N, as
    consecutive uint64 blocks of at most _CHUNK steps.

    G_n = floor(2^53 b^n x) satisfies G_n = b G_(n-1) + e_n, where e_1..e_N
    are the base-b digits of G_N below b^N.  So one big division gives G_N,
    one radix conversion gives the digits, and the recurrence runs as a
    uint64 doubling scan.  The scan wraps mod 2^64, and 2^53 divides 2^64,
    so r_n = G_n mod 2^53 is exact.
    """
    bN = b ** N
    head, low = divmod(_big_divmod((num * bN) << 53, mod)[0], bN)
    digits = _int_to_digits(low, b, N)
    g = head                                  # G_(start) mod 2^64
    for start in range(0, N, _CHUNK):
        v = digits[start:start + _CHUNK].copy()
        v[0] = (b * g + int(v[0])) & _MASK64
        p, s = b, 1                           # p = b^s mod 2^64, a Python int
        while s < len(v):
            v[s:] += np.uint64(p) * v[:-s]
            p, s = (p * p) & _MASK64, 2 * s
        g = int(v[-1])
        yield v & np.uint64((1 << 53) - 1)


def _orbit_character_sums(blocks, freqs, checkpoints):
    """Averages (1/N) sum_(n<=N) e(m T_b^n x) at each ascending checkpoint N
    (rows) and m in `freqs` (columns), from the `_orbit_readout_chunks` blocks
    of read-outs r_n: e_m is evaluated at r_n 2^-53, so each is within O(m 2^-53)."""
    taus = TAU * np.asarray(freqs, dtype=np.float64)
    out = np.empty((len(checkpoints), len(taus)), dtype=np.complex128)
    total = np.zeros(len(taus), dtype=np.complex128)
    ci, done = 0, 0
    for r in blocks:
        ph = cis(np.multiply.outer(taus, r * 2.0 ** -53))
        lo = 0
        while ci < len(checkpoints) and checkpoints[ci] <= done + len(r):
            n = checkpoints[ci]
            total += ph[:, lo:n - done].sum(axis=1)
            out[ci] = total / n
            lo, ci = n - done, ci + 1
        total += ph[:, lo:].sum(axis=1)
        done += len(r)
    return out


def _freqs_and_checkpoints(freqs, checkpoints):
    """Validated frequencies and ascending checkpoints; repeats are refused,
    since each (m, N) names one row of the output."""
    freqs = tuple(int(m) for m in freqs)
    checkpoints = tuple(sorted(int(n) for n in checkpoints))
    if not freqs or 0 in freqs or len(set(freqs)) < len(freqs):
        raise InputError("frequency set must be nonempty, distinct and exclude 0")
    if not checkpoints or checkpoints[0] < 1 or len(set(checkpoints)) < len(checkpoints):
        raise InputError("checkpoints must be distinct positive integers")
    return freqs, checkpoints


def weyl_sum(x: UnitPoint, b: int, freqs, checkpoints) -> np.ndarray:
    """Running character averages W_N(m) along the exact xb orbit of x, as a
    complex (checkpoints x freqs) array: rows are the checkpoints in
    ascending order, columns the frequencies in the order given.

    The point's retained precision must cover the longest checkpoint; running
    past the budget is a hard error, never a silent degradation.  Repeated
    frequencies or checkpoints are refused.
    """
    freqs, checkpoints = _freqs_and_checkpoints(freqs, checkpoints)
    if b < 2:
        raise InputError("b must be >= 2")
    budget = PrecisionBudget.plan(x.base, b, checkpoints[-1])
    if x.precision < budget.L:
        raise PrecisionError(
            f"point precision {x.precision} below budget {budget.L} "
            f"for N={checkpoints[-1]}")
    return _orbit_character_sums(
        _orbit_readout_chunks(x.numerator, x.denominator, b, checkpoints[-1]),
        freqs, checkpoints)


# ---------------------------------------------------------------------------
# Orbit average vs conditional-measure average
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompareResult:
    orbit_avg: complex
    cond_avg: complex
    cond_abs_avg: float      # average of per-step transform moduli; dominates
                             # |cond_avg| by the triangle inequality
    gap: float


def _conditional_cache(gen: MeasureGen, past: PastWord, level: int):
    """Level-`level` conditional measures keyed by the relevant state."""
    if gen.kind == MARKOV:
        return {s: conditional_on_past(gen, PastWord(gen.base, (s,)), level)
                for s in range(gen.base)}
    mu = conditional_on_past(gen, past, level)
    return {s: mu for s in range(gen.base)}


def orbit_vs_conditional_compare(gen: MeasureGen, past: PastWord, x: UnitPoint,
                                 b: int, k: int, m: int, N: int,
                                 level: int | None = None) -> CompareResult:
    """Compare (1/N) sum of e_m(T_b^n T_a^k x) with the matching average of
    conditional-measure transforms.

    Each conditional term is the transform of the current scaled conditional
    measure at frequency xi_n = m * a^(k + z_n), times the cylinder-position
    phase e(m * a^k * b^n * K_n / a^(n')), K_n the integer of the first n'
    digits of x.  The phase makes the term equal the transform of the direct
    n-step pushforward (without it only the moduli agree).  Writing
    x = (K_n + t_n) / a^(n') and a^(z_n) = b^n / a^(n'), the phase is
    frac(m r_n 2^-53 - xi_n t_n), with r_n the exact read-out of T_b^n T_a^k x
    from the orbit side's own stream and t_n summed from J digits of x past
    n' (a^-J < 2^-53 / a).  It is within O(m a^(k+1) 2^-53) of the exact
    phase, the order of the float error xi_n already carries.  A level over
    the weight budget raises ResourceError before any orbit work.
    """
    a = gen.base
    if m == 0:
        raise InputError("m must be nonzero")
    if x.base != a:
        raise InputError("point base differs from generator base")
    if k < 0 or N < 1:
        raise InputError("need k >= 0 and N >= 1")
    if past.base != a:
        raise InputError("past base differs from generator base")
    if gen.kind == MARKOV and not past.symbols:
        raise InputError("Markov conditioning requires a nonempty past")

    nprime, z = kronecker_schedule(a, b, N)
    nprime, z = nprime[1:], z[1:]                 # steps n = 1..N
    budget = PrecisionBudget.plan(a, b, N)
    if x.precision < budget.L + k:
        raise PrecisionError(
            f"point precision {x.precision} below {budget.L + k} needed "
            f"for N={N}, k={k}")
    if level is None:
        level = k + max(4, math.ceil(math.log(512 * abs(m)) / math.log(a)))
    cache = _conditional_cache(gen, past, level)

    # the budget's 64 guard digits cover the J tail digits past n'(N)
    J = math.ceil(53 / math.log2(a)) + 1
    count = int(nprime[-1]) + J
    xdig = _int_to_digits(x.numerator // _pow(a, x.precision - count), a, count).astype(np.int64)
    # each digit of the point's path has positive probability after the one
    # before it; an empty (i.i.d.) past starts from row 0, equal to every row
    state0 = past.symbols[0] if past.symbols else 0
    path = xdig[:nprime[-1]]
    if not np.all(gen.P[np.concatenate(([state0], path[:-1])), path] > 0.0):
        raise NullCylinderError("point digits leave the generator's support")

    y = mul_mod1(x, a ** k)
    blocks = list(_orbit_readout_chunks(y.numerator, y.denominator, b, N))
    orbit_avg = complex(_orbit_character_sums(blocks, (m,), (N,))[0, 0])

    tails = np.zeros(len(xdig) - J + 1)           # t for every n' = 0..n'(N)
    for j in range(J, 0, -1):
        tails = (tails + xdig[j - 1:len(xdig) - J + j]) / a
    xis = m * float(a) ** k * np.power(float(a), z)
    phases = m * (np.concatenate(blocks) * 2.0 ** -53) - xis * tails[nprime]
    phases -= np.floor(phases)                # before scaling by 2 pi

    states = np.where(nprime >= 1, xdig[np.maximum(nprime - 1, 0)], state0)
    vals = np.empty(N, dtype=np.complex128)
    for s in np.unique(states):
        idx = np.flatnonzero(states == s)
        vals[idx] = ft_adic_many(cache[int(s)], xis[idx])
    vals *= cis(TAU * phases)
    cond_avg = complex(vals.mean())

    return CompareResult(orbit_avg=orbit_avg, cond_avg=cond_avg,
                         cond_abs_avg=float(np.abs(vals).mean()),
                         gap=abs(orbit_avg - cond_avg))


# ---------------------------------------------------------------------------
# The k-decay quantity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProofChainEstimate:
    """Monte Carlo estimate over sampled pasts of the z-averaged squared
    transform of the k-scaled conditional measures, with the companion bound
    split into its scale and correlation halves."""

    k: int
    m: int
    samples: int
    level: int
    value: float
    std_error: float
    scale_term: float
    corr_term: float
    rhs: float
    b: int                      # carried for provenance; the z-average itself
                                # integrates over one full power of the base


def proof_chain_quantity(gen: MeasureGen, b: int, k: int, m: int,
                         samples: int, level: int | None = None,
                         seed: int = 0) -> ProofChainEstimate:
    """Estimate the average over pasts of int_0^1 |F_m(S_{a^z} S_{a^k} mu_past)|^2 dz.

    The z-integral is the scale-smoothing quantity with scale base a and
    prescale a^k; its companion bound is 1/(a^(k/2) |m| ln a) plus the
    correlation integral of the unscaled conditional at radius a^(-k/2).
    Pasts are 32 symbols long.  Conditional measures of the supported
    generator kinds depend on at most the most recent past symbol, so
    distinct sampled pasts reuse cached values; the Monte Carlo mean and
    standard error are unchanged by this.
    """
    a = gen.base
    if m == 0:
        raise InputError("m must be nonzero")
    if k < 0 or samples < 1:
        raise InputError("need k >= 0 and samples >= 1")
    if entropy(gen) <= 1e-12:
        raise InputError("generator entropy must be positive (atoms do not decay)")

    r = float(a) ** (-k / 2.0)
    if level is None:
        level = max(math.ceil(k / 2.0 + math.log(16.0) / math.log(a)) + 2, 8)

    prescale = float(a) ** k
    lhs_cache: dict[int, tuple[float, float]] = {}

    def values_for(state_key: int, past: PastWord) -> tuple[float, float]:
        if state_key not in lhs_cache:
            # one c_D R(D) for both sides; the values equal scaled_sq_integral
            # and correlation_integral bit for bit
            mu = conditional_on_past(gen, past, level)
            R = _lag_weights(mu.weights)
            lhs = _scale_averages([R], mu.cell_width, m, float(a), prescale)[0]
            lhs_cache[state_key] = (lhs, _lag_correlation(R, mu.cell_width, r))
        return lhs_cache[state_key]

    lhs_vals = np.empty(samples)
    corr_vals = np.empty(samples)
    for i in range(samples):
        rng = derive_rng(seed, k, m, i)
        past = sample_past(gen, length=32, rng=rng)
        key = past.symbols[0] if gen.kind == MARKOV else -1
        lhs_vals[i], corr_vals[i] = values_for(key, past)

    scale_term = 1.0 / (float(a) ** (k / 2.0) * abs(m) * math.log(a))
    value = float(lhs_vals.mean())
    # deviations from the first sample, so equal samples give exactly 0
    spread = (lhs_vals - lhs_vals[0]).std(ddof=1) if samples > 1 else 0.0
    se = float(spread / math.sqrt(samples))
    corr_mean = float(corr_vals.mean())
    return ProofChainEstimate(
        k=k, m=m, samples=samples, level=level, value=value, std_error=se,
        scale_term=scale_term, corr_term=corr_mean,
        rhs=scale_term + corr_mean, b=b)


# ---------------------------------------------------------------------------
# Full orbit experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HostExperimentConfig:
    gen: MeasureGen
    b: int
    seed: int
    samples: int = 50
    checkpoints: tuple[int, ...] = (1000, 10_000, 100_000)
    freqs: tuple[int, ...] = (1, 2, 3)
    k: int = 0
    soft_final_threshold: float = 0.05

    def __post_init__(self):
        freqs, checkpoints = _freqs_and_checkpoints(self.freqs, self.checkpoints)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "checkpoints", checkpoints)


@dataclass(frozen=True, eq=False)
class HostReport:
    negative_control: bool
    rows: list                       # (sample, m, N, re, im, abs)
    medians: dict                    # (m, N) -> median |W|
    percentile90: dict
    medians_decreasing: dict         # m -> bool
    final_median_ok: dict            # m -> bool
    seed_keys: list
    budget: PrecisionBudget          # the orbit precision plan every sample used


def host_experiment(cfg: HostExperimentConfig, parallel_map=map) -> HostReport:
    """Sample points from the generator and record checkpointed Weyl sums.

    Points are sampled digit-by-digit from the generator at the orbit
    precision budget, which is exactly sampling from the measure at that
    resolution.  a and b multiplicatively dependent does not abort the run;
    the report is labeled a negative control.  No equidistribution rate is
    asserted here: the decrease/threshold flags are soft and configurable.
    Samples go through `parallel_map` (default: in order); the CLI keeps the
    default: big-int set-up and a scan in 2,048-step numpy blocks hold the
    GIL, and at paper scale 2 threads took 2.2-2.4 s against 2.15 s in order.
    """
    gen, b = cfg.gen, cfg.b
    a = gen.base
    if cfg.samples < 1 or cfg.k < 0:
        raise InputError(f"need samples >= 1 and k >= 0, got samples = {cfg.samples}, "
                         f"k = {cfg.k}")
    if b < 2:
        raise InputError("b must be >= 2")
    if entropy(gen) <= 1e-12:
        raise InputError("generator entropy must be positive")
    negative_control = multiplicatively_dependent(a, b)

    budget = PrecisionBudget.plan(a, b, max(cfg.checkpoints))
    L = budget.L + cfg.k

    def run_sample(i: int):
        rng = derive_rng(cfg.seed, i)
        digits = sample_digits(gen, L, rng)
        x = make_point_from_digits(a, digits)
        if cfg.k:
            x = mul_mod1(x, a ** cfg.k)
        return weyl_sum(x, b, cfg.freqs, cfg.checkpoints)

    all_vals = list(parallel_map(run_sample, range(cfg.samples)))

    rows = []
    for i, vals in enumerate(all_vals):
        for ci, N in enumerate(cfg.checkpoints):
            for fi, m in enumerate(cfg.freqs):
                w = vals[ci, fi]
                rows.append((i, m, N, float(w.real), float(w.imag), float(abs(w))))

    medians, p90 = {}, {}
    stack = np.stack(all_vals)        # (samples, checkpoints, freqs)
    mags = np.abs(stack)
    for ci, N in enumerate(cfg.checkpoints):
        for fi, m in enumerate(cfg.freqs):
            medians[(m, N)] = float(np.median(mags[:, ci, fi]))
            p90[(m, N)] = float(np.percentile(mags[:, ci, fi], 90))

    decreasing = {}
    final_ok = {}
    for fi, m in enumerate(cfg.freqs):
        series = [medians[(m, N)] for N in cfg.checkpoints]
        decreasing[m] = all(b_ < a_ for a_, b_ in zip(series, series[1:]))
        final_ok[m] = series[-1] < cfg.soft_final_threshold

    seed_keys = [[cfg.seed, i] for i in range(cfg.samples)]
    return HostReport(negative_control=negative_control, rows=rows,
                      medians=medians, percentile90=p90,
                      medians_decreasing=decreasing, final_median_ok=final_ok,
                      seed_keys=seed_keys, budget=budget)

"""Exponential-sum experiments along exact xb orbits of generator-typical
points, the orbit-versus-conditional comparison, and the k-indexed scale
integral whose decay drives everything.

All orbits run in exact integer arithmetic at a precision budget covering the
full orbit length; nothing is silently degraded to floats.  Each orbit point
T_b^n x is read out as r_n = floor(2^53 frac(b^n x)), exactly, into one
uint64 array (`_orbit_readouts`), from one big division (recursive,
`adic._big_divmod`) and the base-b digits of its quotient (read from its bytes
when b = 2^j).  Only the characters are floats: one cos/sin per orbit point
gives e(r_n 2^-53), its |m|-th power is a product of shared squares, and a
Weyl average is within O(|m| 2^-53) of the exact one.  The comparison reads
the same array for its orbit average and its cylinder phases, and the same
kernel's read-outs of x's xa orbit for the cylinder tails: its phases are
floats within O(m a^(k+1) 2^-53) of the exact ones.
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
from .errors import InputError, NullCylinderError, PrecisionError, integer
from .fourier import TAU, cis, ft_adic_many, smoothing_certificate
from .measures import MeasureGen, PastWord, conditional_on_past, entropy, sample_digits
from .reports import derive_rng


# ---------------------------------------------------------------------------
# Weyl sums along an exact orbit
# ---------------------------------------------------------------------------

_CHUNK = 2048                 # orbit steps per phase segment
_MASK64 = (1 << 64) - 1
_MASK53 = (1 << 53) - 1


def _orbit_readouts(num: int, mod: int, b: int, N: int) -> np.ndarray:
    """r_n = floor(2^53 frac(b^n x)), x = num/mod, for n = 1..N, as one uint64 array.

    G_n = floor(2^53 b^n x) satisfies G_n = b G_(n-1) + e_n, where e_1..e_N
    are the base-b digits of G_N below b^N.  So one big division gives G_N,
    one radix conversion gives the digits, and the recurrence runs as an
    in-place uint64 doubling scan over them.  The scan wraps mod 2^64, and
    2^53 divides 2^64, so r_n = G_n mod 2^53 is exact.  It stops once
    b^s = 0 mod 2^53: later passes add only multiples of 2^53.
    """
    bN = b ** N
    head, low = divmod(_big_divmod((num * bN) << 53, mod)[0], bN)
    v = _int_to_digits(low, b, N)
    v[0] = (b * head + int(v[0])) & _MASK64
    tmp = np.empty_like(v)
    p, s = b, 1                               # p = b^s mod 2^64, a Python int
    while s < N and p & _MASK53:
        np.multiply(v[:-s], np.uint64(p), out=tmp[s:])
        v[s:] += tmp[s:]
        p, s = (p * p) & _MASK64, 2 * s
    v &= np.uint64(_MASK53)
    return v


def _orbit_character_sums(r: np.ndarray, freqs, checkpoints):
    """Averages (1/N) sum_(n<=N) e(m T_b^n x) at each ascending checkpoint N
    (rows) and m in `freqs` (columns), from the `_orbit_readouts` array r.

    One cos/sin per orbit point gives z_n = e(r_n 2^-53); z_n^|m| is a
    product of the squares z, z^2, z^4, ..., shared by all frequencies, and
    m < 0 is the conjugate column.  Each squaring doubles the phase error,
    so each average is within O(|m| 2^-53); at m = 1 the angle and the sum
    are those of e(m r_n 2^-53) itself.  Points are summed over segments
    that end at each checkpoint and each multiple of _CHUNK, so no array is
    longer than _CHUNK."""
    mags = sorted({abs(int(m)) for m in freqs})
    sums = np.empty((len(checkpoints), len(mags)), dtype=np.complex128)
    total = np.zeros(len(mags), dtype=np.complex128)
    ends = sorted({*checkpoints, *range(_CHUNK, checkpoints[-1], _CHUNK)})
    ci, lo = 0, 0
    for hi in ends:
        squares = [cis((TAU * 2.0 ** -53) * r[lo:hi])]        # z^(2^i)
        while len(squares) < mags[-1].bit_length():
            squares.append(squares[-1] * squares[-1])
        for i, m in enumerate(mags):
            zm = None
            for bit, sq in enumerate(squares):
                if m >> bit & 1:
                    zm = sq if zm is None else zm * sq
            total[i] += zm.sum()
        if hi == checkpoints[ci]:
            sums[ci] = total / hi
            ci += 1
        lo = hi
    out = sums[:, [mags.index(abs(m)) for m in freqs]]
    neg = [i for i, m in enumerate(freqs) if m < 0]
    out[:, neg] = out[:, neg].conj()
    return out


def _freqs_and_checkpoints(freqs, checkpoints):
    """Validated frequencies and ascending checkpoints; repeats are refused,
    since each (m, N) names one row of the output."""
    freqs = tuple(integer(m, "frequency") for m in freqs)
    checkpoints = tuple(sorted(integer(n, "checkpoint") for n in checkpoints))
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
            f"for N={checkpoints[-1]}",
            dict(precision=x.precision, budget=budget.L, N=checkpoints[-1]))
    return _orbit_character_sums(
        _orbit_readouts(x.numerator, x.denominator, b, checkpoints[-1]), freqs, checkpoints)


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


def _conditional_laws(gen: MeasureGen, pasts, level: int):
    """(firsts, law, mus): the first-digit law given each past (the weights of
    its level-1 conditional measure), the distinct level-`level` conditional
    measures mus, and law[i], the index in mus of past i's measure.  A
    chain's conditional measure given a past is fixed by its first-digit
    law, so the pasts that share one share a measure, built once."""
    firsts = np.array([conditional_on_past(gen, past, 1).weights for past in pasts])
    keys: dict[bytes, int] = {}
    law = np.array([keys.setdefault(f.tobytes(), len(keys)) for f in firsts])
    reps = np.unique(law, return_index=True)[1]
    return firsts, law, [conditional_on_past(gen, pasts[i], level) for i in reps]


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
    from the orbit side's own array and t_n = frac(a^(n') x) read out the
    same way, floor(2^53 t_n) 2^-53.  It is within O(m a^(k+1) 2^-53) of the
    exact phase, the order of the float error xi_n already carries.  No weights are
    built; a level with a^level > 2^1022 raises PrecisionError before any orbit work.
    """
    a = gen.base
    k, m, N = integer(k, "k"), integer(m, "m"), integer(N, "N")
    if m == 0:
        raise InputError("m must be nonzero")
    if x.base != a:
        raise InputError("point base differs from generator base")
    if k < 0 or N < 1:
        raise InputError("need k >= 0 and N >= 1")
    if past.base != a:
        raise InputError("past base differs from generator base")
    budget = PrecisionBudget.plan(a, b, N)
    if x.precision < budget.L + k:
        raise PrecisionError(
            f"point precision {x.precision} below {budget.L + k} needed "
            f"for N={N}, k={k}", dict(precision=x.precision, needed=budget.L + k, N=N, k=k))
    if level is None:
        level = k + max(4, math.ceil(math.log(512 * abs(m)) / math.log(a)))
    # step n conditions on x's last digit s read (index s), or on the past (index a) at n' = 0
    firsts, law, mus = _conditional_laws(gen, [PastWord(a, (s,)) for s in range(a)] + [past],
                                         level)

    nprime, z = kronecker_schedule(a, b, N)
    nprime, z = nprime[1:], z[1:]                 # steps n = 1..N
    count = max(int(nprime[-1]), 1)
    xdig = _int_to_digits(x.numerator // _pow(a, x.precision - count), a, count).astype(np.int64)
    # each digit of the point's path has positive probability given the
    # past and the digits before it
    path = xdig[:nprime[-1]]
    if not np.all(firsts[np.concatenate(([a], path[:-1])), path] > 0.0):
        raise NullCylinderError("point digits leave the generator's support")

    y = mul_mod1(x, a ** k)
    r = _orbit_readouts(y.numerator, y.denominator, b, N)
    orbit_avg = complex(_orbit_character_sums(r, (m,), (N,))[0, 0])

    # t for every n' = 0..n'(N): the exact read-outs of x's xa orbit, as those of x/a from n = 1
    tails = _orbit_readouts(x.numerator, a * x.denominator, a, count + 1) * 2.0 ** -53
    xis = m * float(a) ** k * np.power(float(a), z)
    phases = m * (r * 2.0 ** -53) - xis * tails[nprime]
    phases -= np.floor(phases)                # before scaling by 2 pi

    step_law = law[np.where(nprime >= 1, xdig[np.maximum(nprime - 1, 0)], a)]
    vals = np.empty(N, dtype=np.complex128)
    for i in np.unique(step_law):
        idx = np.flatnonzero(step_law == i)
        vals[idx] = ft_adic_many(mus[i], xis[idx])
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
    """The exact average over stationary pasts of the z-averaged squared
    transform of the k-scaled conditional measures, with the companion bound
    split into its scale and correlation halves."""

    k: int
    m: int
    level: int
    value: float
    scale_term: float
    corr_term: float
    rhs: float


def proof_chain_quantity(gen: MeasureGen, k: int, m: int, level: int | None = None,
                         diagnostics: list | None = None) -> ProofChainEstimate:
    """The average over stationary pasts of int_0^1 |F_m(S_{a^z} S_{a^k} mu_past)|^2 dz.

    As F_m(S_{a^k} mu) = F_(m a^k)(mu), the z-integral is the lhs of the
    smoothing certificate of the unscaled conditional at frequency m a^k and
    scale base a, and the correlation term is that certificate's at radius
    a^(-k/2); the companion bound's scale half is 1/(a^(k/2) |m| ln a).
    A conditional depends on its past only through the most recent symbol s,
    whose law is pi, so both averages are exact sums over the states with
    pi_s > 0; states with one conditional law share one certificate row.  The
    certificate's scale-average counts, with k, go to diagnostics.
    """
    a = gen.base
    k, m = integer(k, "k"), integer(m, "m")
    if k < 0:
        raise InputError("need k >= 0")
    if entropy(gen) <= 1e-12:
        raise InputError("generator entropy must be positive (atoms do not decay)")

    r = float(a) ** (-k / 2.0)
    if level is None:
        level = max(math.ceil(k / 2.0 + math.log(16.0) / math.log(a)) + 2, 8)

    states = np.flatnonzero(gen.pi > 0.0)
    _, law, mus = _conditional_laws(gen, [PastWord(a, (int(s),)) for s in states], level)
    mass = np.bincount(law, weights=gen.pi[states])
    stats: list[dict] = []
    rows = smoothing_certificate(list(enumerate(mus)), [m * a ** k], [float(a)], [r], stats)
    if diagnostics is not None:
        diagnostics.append({"k": k, **stats[0]})
    lhs, corr = (np.array([row[key] for row in rows]) for key in ("lhs", "corr"))

    scale_term = 1.0 / (float(a) ** (k / 2.0) * abs(m) * math.log(a))
    # deviations from the first law, so one law gives its value bit for bit
    value = float(lhs[0] + mass @ (lhs - lhs[0]))
    corr_term = float(corr[0] + mass @ (corr - corr[0]))
    return ProofChainEstimate(
        k=k, m=m, level=level, value=value, scale_term=scale_term,
        corr_term=corr_term, rhs=scale_term + corr_term)


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

    def __post_init__(self):
        freqs, checkpoints = _freqs_and_checkpoints(self.freqs, self.checkpoints)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "checkpoints", checkpoints)


@dataclass(frozen=True, eq=False)
class HostReport:
    W: np.ndarray                    # (samples, checkpoints, freqs) complex W_N(m)
    negative_control: bool
    budget: PrecisionBudget          # the orbit precision plan every sample used


def host_experiment(cfg: HostExperimentConfig, parallel_map=map) -> HostReport:
    """Sample points from the generator and record checkpointed Weyl sums.

    W[i] is the `weyl_sum` array of sample i, whose digits come from
    derive_rng(seed, i): rows are the ascending checkpoints, columns the
    frequencies in the order given.  Points are sampled digit-by-digit from
    the generator at the orbit precision budget, which is exactly sampling
    from the measure at that resolution.  a and b multiplicatively dependent
    does not abort the run; the report is labeled a negative control.  No
    equidistribution rate is asserted here.
    Samples go through `parallel_map` (default: in order).  No CLI path
    passes one; the parameter stays only because the benchmark's self-test
    (`bench/selftest.py`) passes `reports.parallel_map` (ROADMAP item 1).
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

    budget = PrecisionBudget.plan(a, b, max(cfg.checkpoints))
    L = budget.L + cfg.k

    def run_sample(i: int):
        rng = derive_rng(cfg.seed, i)
        digits = sample_digits(gen, L, rng)
        x = make_point_from_digits(a, digits)
        if cfg.k:
            x = mul_mod1(x, a ** cfg.k)
        return weyl_sum(x, b, cfg.freqs, cfg.checkpoints)

    return HostReport(W=np.stack(list(parallel_map(run_sample, range(cfg.samples)))),
                      negative_control=multiplicatively_dependent(a, b), budget=budget)

"""Transforms of adic measures, scalings, and the two smoothing bounds.

Conventions: e(x) = exp(2 pi i x), e_m(x) = e(m x), and the transform of a
measure is F_xi(nu) = integral of e(xi x) d nu(x).  For a level-n measure the
transform has the closed form

    F(xi) = sinc(xi h) * sum_k w_k e(xi (k + 1/2) h),      h = a^-n,

with sinc(u) = sin(pi u)/(pi u); no sampling is involved.  Scaling satisfies
F_m(S_t nu) = F(nu, m t), which is how scale averages are evaluated.  A
measure with the chain factorization (init, P) sums place by place: digit d at
place j costs one cos and sin (`cis`) of (2 pi h a^j)(xi d), not a power of
another place's phase (that would scale its rounding error by a^j); a digit
that neither init nor any row of P can emit costs nothing.

The scale average is closed form too: with c_D R(D) from `measures._lag_weights`
(R = w * w, c_0 = 1, c_D = 2 for D > 0; `correlation_integral` sums it too),
s = pi xi h and s0 = pi |m| p h, |F(xi)|^2 = (sin^2 s/s^2) sum_D c_D R(D) cos(2Ds),
so int_0^1 |F(m p b^t)|^2 dt = (1/ln b) sum_D c_D R(D) J_D, J_D = int_{s0}^{b s0}
sin^2 s cos(2Ds)/s^3 ds.  If b s0 <= 1, J_0 = [Ci(2s) - sin^2 s/(2s^2) - sin 2s/(2s)]
and for D > 0 sin^2 s/s^2 is expanded in powers of s: Ci(2Ds) plus elementary
integrals of s^(2j-1) cos(2Ds), each O(1).  Otherwise sin^2 s cos 2Ds = cos(2Ds)/2
- cos((2D+2)s)/4 - cos((2D-2)s)/4 and each cosine integrates through Ci (DLMF 6.2,
6.5), to about eps D/s0; at small s0 that split would cancel 1/s0^2 terms.

J_D = F_L(b s0) - F_L(s0), L the series terms b s0 needs (L = 0: three cosines);
`_lag_rows` evaluates F once per distinct endpoint and every L at once, on the lags
where some R is non-zero (J is 0 elsewhere).  Callers form s0 and the pairwise
`np.sum(R * J)` (a BLAS dot's order follows its threads) in `_scale_averages`, so
shared values are bit-equal.  scipy is imported where called: it slowed start-up.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError
from .measures import (AdicMeasure, _lag_correlation, _lag_weights, bernoulli, cantor3,
                       correlation_integral, markov, realize, uniform)
from .reports import derive_rng

TAU = 2.0 * np.pi
SLACK = 1e-4        # every certified inequality holds as lhs <= rhs + SLACK


# ---------------------------------------------------------------------------
# Transform of an adic measure
# ---------------------------------------------------------------------------

def _phase_powers(q: np.ndarray, count: int) -> np.ndarray:
    """out[k, c] = q[c]**k for k < count, by binary doubling of row blocks."""
    out = np.empty((count, len(q)), dtype=np.complex128)
    out[0] = 1.0
    p = q.copy()
    filled = 1
    while filled < count:
        m = min(filled, count - filled)
        np.multiply(out[:m], p[None, :], out=out[filled:filled + m])
        filled += m
        if filled < count:
            p *= p
    return out


def cis(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) for real angles, from one cos and one sin."""
    out = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _structured_phase_sum(flat: np.ndarray, h: float, base: int, level: int,
                          structure: tuple) -> np.ndarray:
    """sum_k w_k e(xi h k) for the chain factorization structure = (init, P):
    from the last place up, u_s <- sum_d P[s, d] e(xi h a^j d) u_d (real P on
    (re, im) pairs), with init for P's row at the leading place.  A digit that
    neither init nor any row of P emits has weight 0, so it gets no phase.
    Values agree with the dense atom sum to rounding error."""
    init, P = structure
    digits = np.flatnonzero(P[:, 1:].any(axis=0) | (init[1:] > 0)) + 1    # e(0) = 1
    u = np.ones((base, len(flat)), dtype=np.complex128)
    for place in range(level):
        u[digits] *= cis(TAU * h * base ** place * np.multiply.outer(digits, flat))
        u = ((P if place < level - 1 else init) @ u.view(np.float64)).view(np.complex128)
    return u


def ft_adic_many(mu: AdicMeasure, xis) -> np.ndarray:
    """Transform of mu at every frequency in xis (vectorized); a chain
    factorization is summed place by place and its weights are never read."""
    xis = np.asarray(xis, dtype=np.float64)
    flat = np.ravel(xis)
    h = mu.cell_width
    if mu.structure is not None:
        out = _structured_phase_sum(flat, h, mu.base, mu.level, mu.structure)
        return (out * (cis((np.pi * h) * flat) * np.sinc(flat * h))).reshape(xis.shape)
    w = mu.weights
    K = len(w)
    out = np.empty(len(flat), dtype=np.complex128)

    nz = np.flatnonzero(w)
    if len(nz) * 8 <= K:
        # sparse support: direct phases on the populated cells only
        centers = (nz + 0.5) * h
        wn = w[nz]
        for i, xi in enumerate(flat):
            out[i] = np.dot(wn, np.exp((1j * TAU * xi) * centers))
    else:
        chunk = max(1, min(64, (1 << 21) // max(K, 1)))
        for i in range(0, len(flat), chunk):
            xc = flat[i:i + chunk]
            q = np.exp((1j * TAU * h) * xc)
            vals = w @ _phase_powers(q, K)
            out[i:i + chunk] = vals * np.exp((1j * np.pi * h) * xc)
    out *= np.sinc(flat * h)
    return out.reshape(xis.shape)


def ft_adic(mu: AdicMeasure, xi: float) -> complex:
    """Exact transform of the piecewise-uniform measure at frequency xi."""
    return complex(ft_adic_many(mu, np.array([xi]))[0])


# ---------------------------------------------------------------------------
# C1 density bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class C1DensitySpec:
    """A C1 density f on [a, b], symmetric about its midpoint, with unit integral and exact
    norm constants: f-hat(t) = e(t (a+b)/2) ft(t (b-a)) with ft real, even and ft(0) = 1."""

    label: str
    a: float
    b: float
    ft: Callable[[float], float]
    sup_f: float
    sup_df: float


def _jn_ratio(n: int, u: float) -> float:
    """j_n(pi u)/(pi u)^n, the transform of (1 - v^2)^n/(2^(n+1) n!) on [-1, 1] at u/2
    (Poisson's integral, DLMF 10.54.1)."""
    from scipy.special import spherical_jn
    return float(spherical_jn(n, math.pi * u)) / (math.pi * u) ** n


def _sinc(x: float) -> float:
    """sin(pi x)/(pi x) from x - round(x), which is exact: 0 at every nonzero integer,
    where np.sinc leaves up to 4e-17 from the rounded pi."""
    k = round(x)
    return (-1) ** k * math.sin(math.pi * (x - k)) / (math.pi * x) if x else 1.0


def quadratic_bump(a: float = 0.0, b: float = 1.0) -> C1DensitySpec:
    """f(x) = 6 (x-a)(b-x)/(b-a)^3, ft(u) = 3 j_1(pi u)/(pi u); sup f' = 6/(b-a)^2."""
    width = b - a
    return C1DensitySpec(
        label=f"quadratic_bump[{a:g},{b:g}]", a=a, b=b,
        ft=lambda u: 3.0 * _jn_ratio(1, u),
        sup_f=1.5 / width, sup_df=6.0 / width ** 2)


def quartic_bump(a: float = 0.0, b: float = 1.0) -> C1DensitySpec:
    """f(x) = 30 s^2 (1-s)^2 / (b-a), s = (x-a)/(b-a), ft(u) = 15 j_2(pi u)/(pi u)^2;
    sup f' = (10/sqrt(3))/(b-a)^2."""
    width = b - a
    return C1DensitySpec(
        label=f"quartic_bump[{a:g},{b:g}]", a=a, b=b,
        ft=lambda u: 15.0 * _jn_ratio(2, u),
        sup_f=(30.0 / 16.0) / width, sup_df=(10.0 / math.sqrt(3.0)) / width ** 2)


def raised_cosine(a: float = 0.0, b: float = 1.0) -> C1DensitySpec:
    """f(x) = (1 + cos(2 pi s))/(b-a), ft(u) = sinc(u) - (sinc(u+1) + sinc(u-1))/2;
    sup f = 2/(b-a), sup f' = 2 pi/(b-a)^2."""
    width = b - a
    return C1DensitySpec(
        label=f"raised_cosine[{a:g},{b:g}]", a=a, b=b,
        ft=lambda u: _sinc(u) - (_sinc(u + 1.0) + _sinc(u - 1.0)) / 2.0,
        sup_f=2.0 / width, sup_df=TAU / width ** 2)


def c1_default_battery() -> tuple[C1DensitySpec, ...]:
    return (quadratic_bump(), quartic_bump(), raised_cosine(),
            quadratic_bump(0.5, 2.5))


def c1_bound_check(spec: C1DensitySpec, t: float) -> tuple[float, float, bool]:
    """lhs = |f-hat(t)| = |ft(t (b-a))| in closed form, rhs = (sup f + (b-a) sup f')/(pi |t|);
    the bound is one-sided in t, and |t| is used via conjugate symmetry."""
    if t == 0:
        raise InputError("t must be nonzero")
    lhs = abs(spec.ft(t * (spec.b - spec.a)))
    rhs = (spec.sup_f + (spec.b - spec.a) * spec.sup_df) / (math.pi * abs(t))
    return lhs, rhs, lhs <= rhs + SLACK


# ---------------------------------------------------------------------------
# Scale-averaged squared transform and its bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothingParams:
    """Parameters of the scale-smoothing inequality."""

    b_scale: float
    m: int
    r: float

    def __post_init__(self):
        if self.b_scale <= 1.0:
            raise InputError("b_scale must exceed 1")
        if self.m == 0:
            raise InputError("m must be nonzero")
        if self.r <= 0:
            raise InputError("r must be positive")


def _lag_rows(s: float, lags: np.ndarray, coefs: dict) -> dict[int, np.ndarray]:
    """F_L(s) on the sorted lags (lags[0] = 0) for each series coefs[L] of length L, or the
    three-cosine form at L = 0; a smaller L's (qx, qy) is a prefix of the largest's chain."""
    from scipy.special import sici
    s, rows = np.array([s]), {}
    if 0 in coefs:
        # A_c = -cos(cs)/(2s^2) + c sin(cs)/(2s) - c^2 Ci(cs)/2 reads one rounded argument;
        # regrouping the three cosines by trig identities would lose about eps D^2
        d = np.arange(1, lags[-1] + 2, dtype=np.float64)
        x = (2.0 * s) * d
        A = np.concatenate((-0.5 / s ** 2, -np.cos(x) / (2.0 * s * s) + d * np.sin(x) / s
                            - 2.0 * d * d * sici(x)[1]))
        rows[0] = 0.5 * A[lags] - 0.25 * A[lags + 1] - 0.25 * A[np.abs(lags - 1)]
    if not any(coefs):
        return rows
    coef = coefs[max(coefs)]
    # Re exp(ics) (x_n + i y_n) integrates s^n cos(cs); each coef-weighted term is O(1)
    c = 2.0 * lags[1:]
    ci, cos, sin = sici(s * c)[1], np.cos(s * c), np.sin(s * c)
    lag0 = sici(2.0 * s)[1] - np.sin(s) ** 2 / (2.0 * s * s) - np.sin(2.0 * s) / (2.0 * s)
    x, y, qx, qy, t = (np.zeros(len(c)) for _ in range(5))
    y[:] = -1.0 / c
    for n in range(1, 2 * len(coef) - 2):
        np.multiply(x, n, out=t)
        t -= s ** n
        np.multiply(y, -n, out=x)
        x /= c                                      # x <- -n y / c
        np.divide(t, c, out=y)                      # y <- (n x - s^n) / c
        if n % 2:
            qx += np.multiply(x, coef[(n + 1) // 2], out=t)
            qy += np.multiply(y, coef[(n + 1) // 2], out=t)
            if (n + 3) // 2 in coefs:               # coef[(n + 1) // 2] ends that series
                rows[(n + 3) // 2] = np.concatenate((lag0, ci + cos * qx - sin * qy))
    return rows


def _lag_integral_vectors(lags, ends, stats: dict | None = None):
    """J of each (s0, s1) in ends, in order: F_L(s1) - F_L(s0) on the lags where some R
    in lags is non-zero and 0 elsewhere.  A plain loop: an endpoint's `_lag_rows` row is
    computed the first time a pair needs it and dropped after the last pair that reads it."""
    support = np.flatnonzero(np.any(lags, axis=0))
    pairs, needs = [], {}
    for s0, s1 in ends:
        coef = [1.0] if s1 <= 1.0 else []   # sin^2 s/s^2 = sum_j coef[j] s^(2j), to 1e-17 at s1
        while coef and abs(coef[-1]) * s1 ** (2 * len(coef) - 2) >= 1e-17:
            coef.append(coef[-1] * -4.0 / ((2 * len(coef) + 1) * (2 * len(coef) + 2)))
        pairs.append((s0, s1, len(coef)))
        for s in (s0, s1):
            needs.setdefault(s, {})[len(coef)] = coef
    if stats is not None:
        stats.update(K=len(lags[0]), lags=len(support), endpoints=len(needs),
                     series_rows=sum(max(n) > 0 for n in needs.values()),
                     three_cosine_rows=sum(0 in n for n in needs.values()), min_s0=min(ends)[0])
    last, rows = {s: i for i, (s0, s1, _) in enumerate(pairs) for s in (s0, s1)}, {}
    for i, (s0, s1, L) in enumerate(pairs):
        for s in {s0, s1} - rows.keys():
            rows[s] = _lag_rows(s, support, needs[s])
        J = np.zeros(len(lags[0]))
        J[support] = rows[s1][L] - rows[s0][L]
        yield J
        rows = {s: row for s, row in rows.items() if last[s] > i}


def _scale_averages(lags, h: float, pairs, prescale: float = 1.0,
                    stats: dict | None = None) -> list[list[float]]:
    """(1/ln b) sum_D c_D R(D) J_D for each (m, b) in pairs and each c_D R(D) in lags,
    all of one length K and cell width h."""
    ends = [(math.pi * abs(m) * prescale * h, b) for m, b in pairs]
    Js = _lag_integral_vectors(lags, [(s0, b * s0) for s0, b in ends], stats)
    return [[float(np.sum(R * J)) / math.log(b) for R in lags] for (_, b), J in zip(ends, Js)]


def scaled_sq_integral(mu: AdicMeasure, params: SmoothingParams,
                       prescale: float = 1.0) -> float:
    """integral over t in [0,1] of |F_m(S_{b^t} S_prescale mu)|^2 dt, in the
    closed form of the module docstring; c_D R(D) comes from `_lag_weights`."""
    if prescale <= 0:
        raise InputError("prescale must be positive")
    return _scale_averages([_lag_weights(mu.weights)], mu.cell_width,
                           [(params.m, params.b_scale)], prescale)[0][0]


def _scale_bound(params: SmoothingParams) -> float:
    return 1.0 / (params.r * abs(params.m) * math.log(params.b_scale))


def smoothing_rhs(mu: AdicMeasure, params: SmoothingParams) -> float:
    """1/(r |m| ln b) plus the correlation integral at radius r."""
    return _scale_bound(params) + correlation_integral(mu, params.r)


# ---------------------------------------------------------------------------
# Certification battery
# ---------------------------------------------------------------------------

def default_measure_battery(seed: int = 20240) -> list[tuple[str, AdicMeasure]]:
    """Four measures deep enough for the r-grid guard: Lebesgue, the base-3
    digit-set measure, a 2-state chain, and a seeded random Bernoulli."""
    rng = derive_rng(seed, 0)
    p0 = float(rng.uniform(0.15, 0.85))
    return [
        ("uniform2", realize(uniform(2), 14)),
        ("cantor3", realize(cantor3(), 9)),
        ("markov2", realize(markov([[0.9, 0.1], [0.5, 0.5]]), 14)),
        ("random_bernoulli2", realize(bernoulli(2, [p0, 1.0 - p0]), 14)),
    ]


def smoothing_certificate(measures, ms, bs, rs, diagnostics: list | None = None) -> list[dict]:
    """One row per (measure, m, b, r): lhs, rhs, margin, ok.

    One R per measure serves both sides; one `_scale_averages` call per (base, level)
    serves every (|m|, b) and appends its counts to diagnostics, if given.  Each lhs is
    bit-equal to `scaled_sq_integral` and each rhs to `smoothing_rhs` (module docstring).
    """
    measures = list(measures)
    grid = [SmoothingParams(b_scale=b, m=m, r=r) for m, b, r in itertools.product(ms, bs, rs)]
    if not grid:
        return []
    lags = {mu: _lag_weights(mu.weights) for _, mu in measures}
    pairs = list(dict.fromkeys((abs(p.m), p.b_scale) for p in grid))
    lhs_by_key = {}
    for base, level in dict.fromkeys((mu.base, mu.level) for mu in lags):
        mus = [mu for mu in lags if (mu.base, mu.level) == (base, level)]
        stats = {"base": base, "level": level}
        values = _scale_averages([lags[mu] for mu in mus], mus[0].cell_width, pairs, 1.0, stats)
        lhs_by_key.update(((mu, *key), v) for key, vals in zip(pairs, values)
                          for mu, v in zip(mus, vals))
        if diagnostics is not None:
            diagnostics.append(stats)
    rows = []
    for label, mu in measures:
        corr = {r: _lag_correlation(lags[mu], mu.cell_width, r) for r in rs}
        for p in grid:
            lhs = lhs_by_key[mu, abs(p.m), p.b_scale]
            rhs = _scale_bound(p) + corr[p.r]
            rows.append({"measure": label, "m": p.m, "b": p.b_scale, "r": p.r, "lhs": lhs,
                         "rhs": rhs, "margin": rhs - lhs, "ok": lhs <= rhs + SLACK})
    return rows


def c1_certificate(densities, ts) -> list[dict]:
    rows = []
    for spec in densities:
        for t in ts:
            lhs, rhs, ok = c1_bound_check(spec, t)
            rows.append({"density": spec.label, "t": t, "lhs": lhs, "rhs": rhs,
                         "margin": rhs - lhs, "ok": ok})
    return rows

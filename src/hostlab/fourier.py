"""Transforms of adic measures, scalings, and the two smoothing bounds.

Conventions: e(x) = exp(2 pi i x), e_m(x) = e(m x), and the transform of a
measure is F_xi(nu) = integral of e(xi x) d nu(x).  For a level-n measure the
transform has the closed form

    F(xi) = sinc(xi h) * sum_k w_k e(xi (k + 1/2) h),      h = a^-n,

with sinc(u) = sin(pi u)/(pi u); no sampling is involved.  Scaling satisfies
F_m(S_t nu) = F(nu, m t), which is how scale averages are evaluated.

The scale average is closed form too: with c_D R(D) from `measures._lag_weights`
(R = w * w, c_0 = 1, c_D = 2 for D > 0; `correlation_integral` sums it too),
s = pi xi h and s0 = pi |m| p h, |F(xi)|^2 = (sin^2 s/s^2) sum_D c_D R(D) cos(2Ds),
so int_0^1 |F(m p b^t)|^2 dt = (1/ln b) sum_D c_D R(D) J_D, J_D = int_{s0}^{b s0}
sin^2 s cos(2Ds)/s^3 ds.  If b s0 <= 1, J_0 = [Ci(2s) - sin^2 s/(2s^2) - sin 2s/(2s)]
and for D > 0 sin^2 s/s^2 is expanded in powers of s: Ci(2Ds) plus elementary
integrals of s^(2j-1) cos(2Ds), each O(1).  Otherwise sin^2 s cos 2Ds = cos(2Ds)/2
- cos((2D+2)s)/4 - cos((2D-2)s)/4 and each cosine integrates through Ci (DLMF 6.2,
6.5), to about eps D/s0; at small s0 that split would cancel 1/s0^2 terms.

R depends only on the measure and J_D only on (K, h, |m| p, b), so the
smoothing certificate builds R once per measure for both sides and J once per
(base, level, |m|, b).  Every caller forms s0 and R @ J in `_scale_averages`,
so a shared value is bit-equal to `scaled_sq_integral`.

scipy is imported inside the two functions that call it (`quad` in
`c1_bound_check`, `sici` in `_lag_integrals`): at module level it took most
of every subcommand's start-up, and only fourier-cert and proof-chain use it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, QuadratureError
from .measures import (AdicMeasure, _lag_correlation, _lag_weights, bernoulli, cantor3,
                       correlation_integral, markov, realize, uniform)

TAU = 2.0 * np.pi


def e(x):
    """e(x) = exp(2 pi i x); accepts scalars or arrays."""
    return np.exp(2j * np.pi * np.asarray(x, dtype=np.float64))


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


def _structured_phase_sum(flat: np.ndarray, h: float, base: int,
                          structure: tuple) -> np.ndarray:
    """sum_k w_k e(xi h k) via the weight factorization.

    For product weights the sum over digit words splits into one factor per
    digit place; for a chain it is the transfer-matrix product.  Values agree
    with the dense atom sum to rounding error.
    """
    kind = structure[0]
    digits = np.arange(base, dtype=np.float64)
    if kind == "product":
        _, p, n = structure
        total = np.ones(len(flat), dtype=np.complex128)
        for place in range(n):
            E = np.exp((2j * np.pi * h * base ** place) * np.outer(flat, digits))
            total *= E @ p
        return total
    _, init, P, n = structure
    u = np.ones((len(flat), base), dtype=np.complex128)
    for place in range(n - 1):
        E = np.exp((2j * np.pi * h * base ** place) * np.outer(flat, digits))
        u = (E * u) @ P.T
    E = np.exp((2j * np.pi * h * base ** (n - 1)) * np.outer(flat, digits))
    return (E * u) @ init


def _ft_structured(base: int, level: int, structure: tuple, xis) -> np.ndarray:
    """Transform at every frequency in xis of the level-`level` measure whose
    weights factor as `structure`; the weights themselves are never formed."""
    xis = np.asarray(xis, dtype=np.float64)
    flat = np.ravel(xis)
    h = float(base) ** -level
    out = _structured_phase_sum(flat, h, base, structure)
    out *= np.exp((1j * np.pi * h) * flat) * np.sinc(flat * h)
    return out.reshape(xis.shape)


def ft_adic_many(mu: AdicMeasure, xis) -> np.ndarray:
    """Transform of mu at every frequency in xis (vectorized)."""
    if mu.structure is not None and mu.level >= 1:
        return _ft_structured(mu.base, mu.level, mu.structure, xis)
    xis = np.asarray(xis, dtype=np.float64)
    flat = np.ravel(xis)
    h = mu.cell_width
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
        out *= np.sinc(flat * h)
        return out.reshape(xis.shape)

    chunk = max(1, min(64, (1 << 21) // max(K, 1)))
    for i in range(0, len(flat), chunk):
        xc = flat[i:i + chunk]
        q = np.exp((1j * TAU * h) * xc)
        powers = _phase_powers(q, K)
        vals = w @ powers
        out[i:i + chunk] = vals * np.exp((1j * np.pi * h) * xc)
    out *= np.sinc(flat * h)
    return out.reshape(xis.shape)


def ft_adic(mu: AdicMeasure, xi: float) -> complex:
    """Exact transform of the piecewise-uniform measure at frequency xi."""
    return complex(ft_adic_many(mu, np.array([xi]))[0])


def ft_scaled(mu: AdicMeasure, t: float, m: int) -> complex:
    """Transform of the measure scaled by t, at integer frequency m."""
    if t <= 0:
        raise InputError("scale t must be positive")
    return ft_adic(mu, m * t)


# ---------------------------------------------------------------------------
# C1 density bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class C1DensitySpec:
    """A C1 density on [a, b] with unit integral and exact norm constants."""

    label: str
    a: float
    b: float
    f: Callable[[float], float]
    sup_f: float
    sup_df: float


def quadratic_bump(a: float = 0.0, b: float = 1.0) -> C1DensitySpec:
    """f(x) = 6 (x-a)(b-x)/(b-a)^3; sup f = 1.5/(b-a), sup f' = 6/(b-a)^2."""
    width = b - a
    return C1DensitySpec(
        label=f"quadratic_bump[{a:g},{b:g}]", a=a, b=b,
        f=lambda x: 6.0 * (x - a) * (b - x) / width ** 3,
        sup_f=1.5 / width, sup_df=6.0 / width ** 2)


def quartic_bump(a: float = 0.0, b: float = 1.0) -> C1DensitySpec:
    """f(x) = 30 s^2 (1-s)^2 / (b-a), s = (x-a)/(b-a); sup f' = (10/sqrt(3))/(b-a)^2."""
    width = b - a

    def f(x):
        s = (x - a) / width
        return 30.0 * s * s * (1.0 - s) ** 2 / width

    return C1DensitySpec(label=f"quartic_bump[{a:g},{b:g}]", a=a, b=b, f=f,
                         sup_f=(30.0 / 16.0) / width,
                         sup_df=(10.0 / math.sqrt(3.0)) / width ** 2)


def raised_cosine(a: float = 0.0, b: float = 1.0) -> C1DensitySpec:
    """f(x) = (1 + cos(2 pi s))/(b-a); sup f = 2/(b-a), sup f' = 2 pi/(b-a)^2."""
    width = b - a
    return C1DensitySpec(
        label=f"raised_cosine[{a:g},{b:g}]", a=a, b=b,
        f=lambda x: (1.0 + math.cos(TAU * (x - a) / width)) / width,
        sup_f=2.0 / width, sup_df=TAU / width ** 2)


def c1_default_battery() -> tuple[C1DensitySpec, ...]:
    return (quadratic_bump(), quartic_bump(), raised_cosine(),
            quadratic_bump(0.5, 2.5))


def c1_bound_check(spec: C1DensitySpec, t: float,
                   slack: float = 0.0) -> tuple[float, float, bool]:
    """lhs = |f-hat(t)| by adaptive quadrature, rhs = (sup f + (b-a) sup f')/(pi |t|).

    The bound is one-sided in t; |t| is used via conjugate symmetry.  The
    quadrature error estimate must come in below 1e-10.
    """
    if t == 0:
        raise InputError("t must be nonzero")
    from scipy.integrate import quad
    w = TAU * t
    re, re_err = quad(spec.f, spec.a, spec.b, weight="cos", wvar=w,
                      limit=400, epsabs=1e-12, epsrel=1e-12)
    im, im_err = quad(spec.f, spec.a, spec.b, weight="sin", wvar=w,
                      limit=400, epsabs=1e-12, epsrel=1e-12)
    if re_err + im_err > 1e-10:
        raise QuadratureError("transform quadrature above tolerance",
                              {"t": t, "err": re_err + im_err, "density": spec.label})
    lhs = math.hypot(re, im)
    rhs = (spec.sup_f + (spec.b - spec.a) * spec.sup_df) / (math.pi * abs(t))
    return lhs, rhs, lhs <= rhs + slack


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


def _lag_integrals(K: int, s0: float, s1: float) -> np.ndarray:
    """J_D of the module docstring for D = 0..K-1, as F(s1) - F(s0) with the
    antiderivative F of the branch that s1 selects, at both ends at once."""
    from scipy.special import sici
    s = np.array([s1, s0])
    if s1 > 1.0:
        # A_c = -cos(cs)/(2s^2) + c sin(cs)/(2s) - c^2 Ci(cs)/2 reads one rounded argument;
        # regrouping the three cosines by trig identities would lose about eps D^2
        d = np.arange(1, K + 1, dtype=np.float64)[:, None]
        x = (2.0 * s) * d
        A = np.vstack((-0.5 / s ** 2,
                       -np.cos(x) / (2.0 * s * s) + d * np.sin(x) / s - 2.0 * d * d * sici(x)[1]))
        return (0.5 * A[:K] - 0.25 * A[1:] - 0.25 * A[np.abs(np.arange(K) - 1)]) @ [1.0, -1.0]
    coef = [1.0]                      # sin^2 s/s^2 = sum_j coef[j] s^(2j), to 1e-17 at s1
    while abs(coef[-1]) * s1 ** (2 * len(coef) - 2) >= 1e-17:
        coef.append(coef[-1] * -4.0 / ((2 * len(coef) + 1) * (2 * len(coef) + 2)))
    # Re exp(ics) (x_n + i y_n) integrates s^n cos(cs); each coef-weighted term is O(1).
    # Rows s1, s0 update in place; dividing by c (not times 1/c) keeps tests/oracles.py's bits
    c = 2.0 * np.arange(1, K, dtype=np.float64)
    x, y, qx, qy, t = (np.zeros((2, K - 1)) for _ in range(5))
    y[:] = -1.0 / c
    for n in range(1, 2 * len(coef) - 2):
        np.multiply(x, n, out=t)
        t -= s[:, None] ** n
        np.multiply(y, -n, out=x)
        x /= c                                      # x <- -n y / c
        np.divide(t, c, out=y)                      # y <- (n x - s^n) / c
        if n % 2:
            qx += np.multiply(x, coef[(n + 1) // 2], out=t)
            qy += np.multiply(y, coef[(n + 1) // 2], out=t)
    cs = s[:, None] * c
    F = sici(cs)[1]
    F += np.multiply(np.cos(cs, out=t), qx, out=t)
    F -= np.multiply(np.sin(cs, out=t), qy, out=t)
    lag0 = sici(2.0 * s)[1] - np.sin(s) ** 2 / (2.0 * s * s) - np.sin(2.0 * s) / (2.0 * s)
    return np.concatenate(([lag0[0] - lag0[1]], F[0] - F[1]))


def _scale_averages(lags, h: float, m: int, b: float, prescale: float = 1.0) -> list[float]:
    """(1/ln b) sum_D c_D R(D) J_D for each c_D R(D) in lags, all of one
    length K and cell width h: J_D is computed once, shared, then dropped."""
    s0 = math.pi * abs(m) * prescale * h
    J = _lag_integrals(len(lags[0]), s0, b * s0)
    return [float(R @ J) / math.log(b) for R in lags]


def scaled_sq_integral(mu: AdicMeasure, params: SmoothingParams,
                       prescale: float = 1.0) -> float:
    """integral over t in [0,1] of |F_m(S_{b^t} S_prescale mu)|^2 dt, in the
    closed form of the module docstring; c_D R(D) comes from `_lag_weights`."""
    if prescale <= 0:
        raise InputError("prescale must be positive")
    return _scale_averages([_lag_weights(mu.weights)], mu.cell_width, params.m,
                           params.b_scale, prescale)[0]


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
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    p0 = float(rng.uniform(0.15, 0.85))
    return [
        ("uniform2", realize(uniform(2), 14)),
        ("cantor3", realize(cantor3(), 9)),
        ("markov2", realize(markov([[0.9, 0.1], [0.5, 0.5]]), 14)),
        ("random_bernoulli2", realize(bernoulli(2, [p0, 1.0 - p0]), 14)),
    ]


def smoothing_certificate(measures, ms, bs, rs, slack: float = 1e-4,
                          parallel_map=map) -> list[dict]:
    """One row per (measure, m, b, r): lhs, rhs, margin, ok.

    One R per distinct measure serves its scale averages and every radius.
    One `parallel_map` item per (base, level, |m|, b) computes J, gives each
    measure of that group its lhs and drops J.  Each lhs is bit-equal to
    `scaled_sq_integral` and each rhs to `smoothing_rhs` (module docstring).
    """
    measures = list(measures)
    grid = [SmoothingParams(b_scale=b, m=m, r=r) for m, b, r in itertools.product(ms, bs, rs)]
    if not grid:
        return []
    lags = {mu: _lag_weights(mu.weights) for _, mu in measures}
    groups: dict[tuple, list] = {}
    for mu, (m, b) in itertools.product(lags, dict.fromkeys((abs(p.m), p.b_scale) for p in grid)):
        groups.setdefault((mu.base, mu.level, m, b), []).append(mu)

    def group_lhs(item):
        (_, _, m, b), mus = item
        values = _scale_averages([lags[mu] for mu in mus], mus[0].cell_width, m, b)
        return [((mu, m, b), v) for mu, v in zip(mus, values)]

    lhs_by_key = dict(itertools.chain.from_iterable(parallel_map(group_lhs, groups.items())))
    rows = []
    for label, mu in measures:
        corr = {r: _lag_correlation(lags[mu], mu.cell_width, r) for r in rs}
        for p in grid:
            lhs = lhs_by_key[mu, abs(p.m), p.b_scale]
            rhs = _scale_bound(p) + corr[p.r]
            rows.append({"measure": label, "m": p.m, "b": p.b_scale, "r": p.r, "lhs": lhs,
                         "rhs": rhs, "margin": rhs - lhs, "ok": lhs <= rhs + slack})
    return rows


def c1_certificate(densities, ts, slack: float = 1e-4) -> list[dict]:
    rows = []
    for spec in densities:
        for t in ts:
            lhs, rhs, ok = c1_bound_check(spec, t, slack=slack)
            rows.append({"density": spec.label, "t": t, "lhs": lhs, "rhs": rhs,
                         "margin": rhs - lhs, "ok": ok})
    return rows

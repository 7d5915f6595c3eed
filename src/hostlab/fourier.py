"""Transforms of adic measures, scalings, and the two smoothing bounds.

Conventions: e(x) = exp(2 pi i x), e_m(x) = e(m x), and the transform of a
measure is F_xi(nu) = integral of e(xi x) d nu(x).  For a level-n measure the
transform has the closed form

    F(xi) = sinc(xi h) * sum_k w_k e(xi (k + 1/2) h),      h = a^-n,

with sinc(u) = sin(pi u)/(pi u); no sampling is involved.  Scaling satisfies
F_m(S_t nu) = F(nu, m t), which is how scale averages are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from .errors import InputError, QuadratureError
from .measures import AdicMeasure, bernoulli, cantor3, correlation_integral, markov, realize, uniform

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
    nodes: int = 16

    def __post_init__(self):
        if self.b_scale <= 1.0:
            raise InputError("b_scale must exceed 1")
        if self.m == 0:
            raise InputError("m must be nonzero")
        if self.r <= 0:
            raise InputError("r must be positive")
        if self.nodes < 4:
            raise InputError("need at least 4 quadrature nodes per panel")


def scaled_sq_integral(mu: AdicMeasure, params: SmoothingParams,
                       prescale: float = 1.0, tol: float = 1e-6,
                       max_doublings: int = 6) -> float:
    """integral over t in [0,1] of |F_m(S_{b^t} S_prescale mu)|^2 dt.

    Panel Gauss-Legendre with `nodes` points per panel; the initial panel
    count resolves the integrand's oscillation (about |m| b ln b per unit
    support diameter, and the prescaled support has diameter `prescale`),
    then panels double until two successive values agree within tol.
    """
    b, m = params.b_scale, params.m
    panels = max(16, math.ceil(4.0 * abs(m) * b * math.log(b) * prescale))
    x_gl, w_gl = leggauss(params.nodes)

    def value(p: int) -> float:
        edges = np.arange(p, dtype=np.float64) / p
        ts = (edges[:, None] + (x_gl[None, :] + 1.0) / (2.0 * p)).ravel()
        xis = m * prescale * np.power(b, ts)
        vals = np.abs(ft_adic_many(mu, xis)) ** 2
        return float(vals @ np.tile(w_gl / (2.0 * p), p))

    prev = value(panels)
    for _ in range(max_doublings):
        panels *= 2
        cur = value(panels)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    raise QuadratureError(
        "scale-average quadrature did not converge",
        {"panels": panels, "last": prev, "tol": tol, "m": m, "b": b})


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

    The scale average does not depend on r, so it is computed once per
    (measure, m, b) and compared against every radius row; the correlation
    integral depends only on (measure, r), so it is computed once per pair.
    """
    measures = list(measures)
    combos = [(label, mu, m, b) for label, mu in measures for m in ms for b in bs]

    def lhs_of(combo):
        _, mu, m, b = combo
        return scaled_sq_integral(mu, SmoothingParams(b_scale=b, m=m, r=rs[0]))

    lhs_vals = list(parallel_map(lhs_of, combos))
    corr = {id(mu): [correlation_integral(mu, r) for r in rs] for _, mu in measures}
    rows = []
    for (label, mu, m, b), lhs in zip(combos, lhs_vals):
        for r, c in zip(rs, corr[id(mu)]):
            rhs = _scale_bound(SmoothingParams(b_scale=b, m=m, r=r)) + c
            rows.append({
                "measure": label, "m": m, "b": b, "r": r,
                "lhs": lhs, "rhs": rhs, "margin": rhs - lhs,
                "ok": lhs <= rhs + slack,
            })
    return rows


def c1_certificate(densities, ts, slack: float = 1e-4) -> list[dict]:
    rows = []
    for spec in densities:
        for t in ts:
            lhs, rhs, ok = c1_bound_check(spec, t, slack=slack)
            rows.append({"density": spec.label, "t": t, "lhs": lhs, "rhs": rhs,
                         "margin": rhs - lhs, "ok": ok})
    return rows

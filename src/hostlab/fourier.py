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
shared values are bit-equal.  Ci is `_ci`'s, numpy only, as are the C1 bumps' j_n.
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
    """j_n(x)/x^n at x = pi u for n = 1, 2, the transform of (1 - v^2)^n/(2^(n+1) n!) on
    [-1, 1] at u/2 (Poisson's integral, DLMF 10.54.1).  Closed forms (DLMF 10.49.3):
    j_1(x)/x = (sin x - x cos x)/x^3, j_2(x)/x^2 = ((3 - x^2) sin x - 3x cos x)/x^5.
    They cancel about eps/x^(2n) in relative terms, so below |x| = 2 the series
    sum_k (-x^2/2)^k/(k! (2n+2k+1)!!) (DLMF 10.53.1) is summed to its 12th term."""
    x = math.pi * u
    if abs(x) < 2.0:
        t, term, total = -0.5 * x * x, 1.0 / (3.0, 15.0)[n - 1], 0.0
        for k in range(12):
            total += term
            term *= t / ((k + 1) * (2 * n + 2 * k + 3))
        return total
    s, c = math.sin(x), math.cos(x)
    if n == 1:
        return (s - x * c) / x ** 3
    return ((3.0 - x * x) * s - 3.0 * x * c) / x ** 5


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


# Ci's polynomials, highest power first, from tests/ci_coefficients.py: the series in
# t = x^2 for x <= 4, then per region (upper edge, center, x f, x^2 g), the auxiliary
# functions in u = x - center, or in u = 1/x^2 if center is None
_CI_SERIES = (-1.2566625429386353e-34, 1.1713890132392279e-31, -9.53690870471076e-29,
              6.715573212900493e-26, -4.0439960874775335e-23, 2.0551588116560825e-20,
              -8.677337204770125e-18, 2.9871733327421158e-15, -8.193389712664089e-13,
              1.7397297489890083e-10, -2.755731922398589e-08, 3.1001984126984127e-06,
              -0.0002314814814814815, 0.010416666666666666, -0.25)
_CI_AUX = (
    (8.0, 6.0,    # x f of degree 19, x^2 g of degree 18
     (2.424953138888036e-17, -1.6658468603640105e-16, 6.646182791233828e-16,
      -4.638498529921431e-15, 3.6641043347094605e-14, -2.572577108665712e-13,
      1.7938629663154628e-12, -1.2688794887492082e-11, 9.000693136442923e-11,
      -6.385317492414044e-10, 4.523906145559881e-09, -3.191871029207604e-08,
      2.2338291633361229e-07, -1.542211206347841e-06, 1.0422477308078291e-05,
      -6.817857474195139e-05, 0.00042426584344856723, -0.002438147804815066,
      0.012176631120115525, 0.9558333214575802),
     (8.327866451104263e-17, -5.154162386232387e-16, 1.5205645658155388e-15,
      -8.063142817561254e-15, 4.851308236957587e-14, -1.62798920062956e-13,
      -3.515228119239081e-13, 1.4125457661371718e-11, -1.9365663814155942e-10,
      2.1197707077010236e-09, -2.085997890145678e-08, 1.918013574391624e-07,
      -1.6710264408314939e-06, 1.3829693843296443e-05, -0.0001081385950211853,
      0.0007877541069835858, -0.005198637377258522, 0.02925777365777629, 0.882773534736887)),
    (16.0, None,    # x f of degree 17, x^2 g of degree 15
     (-4.766944970787061e+25, 8.671146281892658e+24, -7.415269015154563e+23,
      3.9665370537090785e+22, -1.4902393487627093e+21, 4.18857983951964e+19,
      -9.169803570614609e+17, 1.6104587865034026e+16, -232750807244533.9, 2844913643719.0894,
      -30524682031.75063, 305264083.77588826, -3149181.996103765, 39210.34974730633,
      -717.9887515401846, 23.997363932700996, -1.9999977986786568, 0.9999999991257881),
     (-1.4556772908612129e+23, 2.3681498515331613e+22, -1.7992346659606026e+21,
      8.493050651093069e+19, -2.7973597237214884e+18, 6.853634337922715e+16,
      -1303302060439897.5, 19908691728658.33, -253191696036.4255, 2814682028.98387,
      -29608710.28256967, 336271.18640198326, -4985.780458387072, 119.92005177727964,
      -5.99992511013369, 0.999999966797274)),
    (32.0, None,    # x f of degree 11, x^2 g of degree 10
     (-1.035839785358174e+18, 3.5584416922121396e+16, -585847850916786.5, 6336039473496.201,
      -53451998684.31319, 413308706.27422684, -3527387.4534029956, 40201.52703922797,
      -719.900078055564, 23.999942990098226, -1.9999999804005542, 0.9999999999969449),
     (1.0868290990163624e+17, -3486963905973665.5, 53824667800348.38, -553443287467.1176,
      4588247693.481306, -37067647.32309577, 359138.9128771186, -5036.477891046076,
      119.997775989116, -5.999999161245156, 0.9999999998577975)),
    (math.inf, None,    # x f of degree 8, x^2 g of degree 8
     (7135073533811.684, -68005446228.39253, 462445182.30469257, -3619962.620463142,
      40317.14620541569, -719.999473438153, 23.99999995078322, -1.999999999998214, 1.0),
     (108599484405445.52, -973395612834.8585, 5942316303.8600645, -39765994.02294587,
      362831.5244555696, -5039.991081033917, 119.99999916779265, -5.999999999969828,
      0.9999999999999998)),
)


def _poly(coefs, u: np.ndarray) -> np.ndarray:
    """sum_k coefs[k] u^(n-k), n = len(coefs) - 1, by Horner's rule in place."""
    acc = coefs[0] * u
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= u
        acc += c
    return acc


def _ci(x: np.ndarray, cos_x: np.ndarray, sin_x: np.ndarray) -> np.ndarray:
    """Ci(x) on ascending positive x, given cos x and sin x: gamma + ln x + sum_k
    (-x^2)^k/(2k (2k)!) (DLMF 6.6.6) up to x = 4, then f sin x - g cos x with the
    auxiliary functions f and g (DLMF 6.2.17-18) from x f and x^2 g in `_CI_AUX`.
    The error is within 2e-15 up to x = 4 and within 3e-16/x above, where the three-cosine
    rows scale Ci by x^2 (scipy's `sici`: 1.8e-15 and 4.8e-16/x; tests)."""
    out = np.empty_like(x)
    ends = np.searchsorted(x, (4.0, *(region[0] for region in _CI_AUX)), side="right").tolist()
    lo = ends[0]
    t = x[:lo] * x[:lo]
    v = _poly(_CI_SERIES, t)
    v *= t
    np.add(np.log(x[:lo]) + np.euler_gamma, v, out=out[:lo])
    for (_, center, F, G), hi in zip(_CI_AUX, ends[1:]):
        if hi == lo:
            continue
        xs = x[lo:hi]
        u = xs - center if center is not None else 1.0 / (xs * xs)
        f, g = _poly(F, u), _poly(G, u)
        f *= sin_x[lo:hi]
        g *= cos_x[lo:hi]
        g /= xs
        f -= g
        np.divide(f, xs, out=out[lo:hi])
        lo = hi
    return out


def _lag_rows(s: float, lags: np.ndarray, coefs: dict) -> dict[int, np.ndarray]:
    """F_L(s) on the sorted lags (lags[0] = 0) for each series coefs[L] of length L, or the
    three-cosine form at L = 0; a smaller L's (qx, qy) is a prefix of the largest's chain.
    Each form's Ci arguments ascend, and `_ci` reuses the cos and sin it needs anyway."""
    s, rows = np.array([s]), {}
    if 0 in coefs:
        # A_c = -cos(cs)/(2s^2) + c sin(cs)/(2s) - c^2 Ci(cs)/2 reads one rounded argument;
        # regrouping the three cosines by trig identities would lose about eps D^2
        d = np.arange(1, lags[-1] + 2, dtype=np.float64)
        x = (2.0 * s) * d
        cos, sin = np.cos(x), np.sin(x)
        A = np.concatenate((-0.5 / s ** 2, -cos / (2.0 * s * s) + d * sin / s
                            - 2.0 * d * d * _ci(x, cos, sin)))
        rows[0] = 0.5 * A[lags] - 0.25 * A[lags + 1] - 0.25 * A[np.abs(lags - 1)]
    if not any(coefs):
        return rows
    coef = coefs[max(coefs)]
    # Re exp(ics) (x_n + i y_n) integrates s^n cos(cs); each coef-weighted term is O(1)
    c = 2.0 * lags[1:]
    sc = s * np.concatenate(([2.0], c))             # Ci(2s) for lag 0 leads the row's Ci
    cos, sin = np.cos(sc), np.sin(sc)
    ci = _ci(sc, cos, sin)
    lag0 = ci[:1] - np.sin(s) ** 2 / (2.0 * s * s) - sin[:1] / (2.0 * s)
    ci, cos, sin = ci[1:], cos[1:], sin[1:]
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

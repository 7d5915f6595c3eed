"""Independent reference computations used only by the test suite.

Each oracle deliberately takes a different route than the library code it
checks (per-offset dot products instead of an FFT autocorrelation, Monte
Carlo or panel quadrature of the transform instead of the closed-form scale
average, explicit interval wrapping instead of frequency identities).
"""

from __future__ import annotations

import bisect
import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import sici

from hostlab.errors import InputError, ResourceError
from hostlab.fourier import _ci, ft_adic_many
from hostlab.measures import MAX_WEIGHT_ENTRIES, AdicMeasure

TAU = 2.0 * np.pi


class OracleQuadratureError(Exception):
    """An oracle's quadrature missed its tolerance; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


def c1_density(spec):
    """The density f of a `hostlab.fourier` C1DensitySpec, from its family's formula."""
    a, b, width = spec.a, spec.b, spec.b - spec.a
    return {
        "quadratic_bump": lambda x: 6.0 * (x - a) * (b - x) / width ** 3,
        "quartic_bump": lambda x: 30.0 * ((x - a) / width) ** 2 * ((b - x) / width) ** 2 / width,
        "raised_cosine": lambda x: (1.0 + math.cos(TAU * (x - a) / width)) / width,
    }[spec.label.split("[")[0]]


def c1_transform_quad(spec, t: float) -> complex:
    """f-hat(t) = integral of f(x) e(t x) dx by QUADPACK's cos/sin-weighted quad, where
    the library's closed form ft goes through spherical Bessel functions and sinc."""
    f, w = c1_density(spec), TAU * t
    re, re_err = quad(f, spec.a, spec.b, weight="cos", wvar=w,
                      limit=400, epsabs=1e-12, epsrel=1e-12)
    im, im_err = quad(f, spec.a, spec.b, weight="sin", wvar=w,
                      limit=400, epsabs=1e-12, epsrel=1e-12)
    assert re_err + im_err <= 1e-10, (spec.label, t, re_err + im_err)
    return complex(re, im)


def tent_overlap(c: float, h: float, lo: float, hi: float) -> float:
    """Integral of max(0, h - |u - c|) over [lo, hi]."""
    a = max(lo - c, -h)
    b = min(hi - c, h)
    if b <= a:
        return 0.0

    def anti(s: float) -> float:
        return h * s + 0.5 * s * s if s <= 0 else h * s - 0.5 * s * s

    return anti(b) - anti(a)


def brute_correlation(mu, r: float) -> float:
    """Correlation integral by direct summation over cell-pair offsets."""
    h = mu.cell_width
    dens = mu.weights / h
    K = len(dens)
    jmax = int(np.ceil(r / h)) + 1
    total = 0.0
    for j in range(-jmax, jmax + 1):
        area = tent_overlap(j * h, h, -r, r)
        if area == 0.0:
            continue
        if j >= 0:
            s = float(np.dot(dens[: K - j], dens[j:]))
        else:
            s = float(np.dot(dens[-j:], dens[: K + j]))
        total += s * area
    return total


def cantor_transform(xi: float, depth: int = 60) -> complex:
    """Transform of the equal-weight base-3 digit-set {0,2} measure via its
    self-similarity product: e(xi/2) * prod_j cos(2 pi xi 3^-j)."""
    phase = np.exp(1j * np.pi * xi)  # e(xi/2)
    prod = 1.0
    for j in range(1, depth + 1):
        prod *= np.cos(TAU * xi / 3.0 ** j)
    return phase * prod


def mc_scaled_sq(mu, b: float, m: int, pairs: int,
                 rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of the scale-averaged
    squared transform, via the pair identity: the average over t in [0,1] of
    e(m b^t (Y - Y')) for independent Y, Y' ~ mu.

    Each pair integral is evaluated in closed form through the sine/cosine
    integrals: int_0^1 e(c b^t) dt = (1/ln b) * [Ci + i Si](c u)|_{u=1}^{b}.
    """
    ys = sample_points(mu, pairs, rng)
    yps = sample_points(mu, pairs, rng)
    c = TAU * m * (ys - yps)
    vals = np.empty(pairs, dtype=np.float64)
    nz = np.abs(c) > 1e-12
    cz = c[nz]
    si_b, ci_b = sici(np.abs(cz) * b)
    si_1, ci_1 = sici(np.abs(cz))
    real = (ci_b - ci_1) / np.log(b)
    vals[nz] = real          # imaginary part pairs off in expectation
    vals[~nz] = 1.0
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(pairs))
    return mean, se


def panel_scaled_sq(mu, params, prescale: float = 1.0, nodes: int = 16,
                    tol: float = 1e-6, max_doublings: int = 6) -> float:
    """integral over t in [0,1] of |F_m(S_{b^t} S_prescale mu)|^2 dt by panel
    Gauss-Legendre on the transform itself.

    `nodes` points per panel; the initial panel count resolves the
    integrand's oscillation (about |m| b ln b per unit support diameter, and
    the prescaled support has diameter `prescale`), then panels double until
    two successive values agree within tol.
    """
    b, m = params.b_scale, params.m
    panels = max(16, math.ceil(4.0 * abs(m) * b * math.log(b) * prescale))
    x_gl, w_gl = leggauss(nodes)

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
    raise OracleQuadratureError(
        "scale-average quadrature did not converge",
        {"panels": panels, "last": prev, "tol": tol, "m": m, "b": b})


def ci(x) -> np.ndarray:
    """Ci at each entry of x by `fourier._ci`, which takes ascending arguments with their
    cos and sin: the entries are sorted, evaluated and put back in place."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, axis=None)
    xs = x.ravel()[order]
    out = np.empty(x.size)
    out[order] = _ci(xs, np.cos(xs), np.sin(xs))
    return out.reshape(x.shape)


def lag_integrals(K: int, s0: float, s1: float) -> np.ndarray:
    """J_D of `hostlab.fourier`'s module docstring for D = 0..K-1, as
    F(s1) - F(s0) with the antiderivative F of the branch that s1 selects, at
    both ends at once.

    The library's former `_lag_integrals`, kept as it was but for Ci, which
    comes from `fourier._ci` (`ci` here): the same formulas on (K, 2) broadcast
    temporaries, so the in-place form must equal it bit for bit."""
    s = np.array([s1, s0])
    if s1 > 1.0:
        # A_c = -cos(cs)/(2s^2) + c sin(cs)/(2s) - c^2 Ci(cs)/2 reads one rounded argument;
        # regrouping the three cosines by trig identities would lose about eps D^2
        d = np.arange(1, K + 1, dtype=np.float64)[:, None]
        x = (2.0 * s) * d
        A = np.vstack((-0.5 / s ** 2,
                       -np.cos(x) / (2.0 * s * s) + d * np.sin(x) / s - 2.0 * d * d * ci(x)))
        return (0.5 * A[:K] - 0.25 * A[1:] - 0.25 * A[np.abs(np.arange(K) - 1)]) @ [1.0, -1.0]
    coef = [1.0]                      # sin^2 s/s^2 = sum_j coef[j] s^(2j), to 1e-17 at s1
    while abs(coef[-1]) * s1 ** (2 * len(coef) - 2) >= 1e-17:
        coef.append(coef[-1] * -4.0 / ((2 * len(coef) + 1) * (2 * len(coef) + 2)))
    # Re exp(ics) (x_n + i y_n) integrates s^n cos(cs); each coef-weighted term is O(1)
    c = 2.0 * np.arange(1, K, dtype=np.float64)[:, None]
    x, y, qx, qy = 0.0, -1.0 / c, 0.0, 0.0
    for n in range(1, 2 * len(coef) - 2):
        x, y = -n * y / c, (n * x - s ** n) / c
        if n % 2:
            qx, qy = qx + coef[(n + 1) // 2] * x, qy + coef[(n + 1) // 2] * y
    lag0 = ci(2.0 * s) - np.sin(s) ** 2 / (2.0 * s * s) - np.sin(2.0 * s) / (2.0 * s)
    F = np.vstack((lag0, ci(c * s) + np.cos(c * s) * qx - np.sin(c * s) * qy))
    return F @ [1.0, -1.0]


def direct_pushforward_transform(gen, past, xdigits, nprime: int, k: int,
                                 b: int, n: int, m: int, depth: int = 6) -> complex:
    """Transform of the n-step xb image of the k-scaled conditional measure
    restricted to the cylinder of x's first n' digits, computed directly on
    the cylinder's absolute position (no time-change schedule involved).

    The multiplier a^k b^n is an integer, so the mod-1 pushforward transform
    at frequency m equals the line transform at m a^k b^n.
    """
    from hostlab.measures import conditional_on_past

    a = gen.base
    prefix = list(xdigits[:nprime])
    K = 0
    for d in prefix:
        K = K * a + d
    nu = conditional_on_past(gen, past.extended_by(prefix), depth) if nprime \
        else conditional_on_past(gen, past, depth)
    h0 = float(a) ** -(nprime + depth)
    xi = m * (a ** k) * (b ** n)
    cells = np.flatnonzero(nu.weights)
    centers = (K * float(a) ** depth + cells + 0.5) * h0
    val = np.dot(nu.weights[cells], np.exp(1j * TAU * xi * centers))
    return complex(val * np.sinc(xi * h0))


def wrapped_transform(mu, scale: float, m: int) -> complex:
    """Transform of the scaled measure wrapped onto [0,1), by explicitly
    splitting every scaled cell at integer boundaries and integrating e_m on
    each wrapped piece."""
    h = mu.cell_width
    total = 0.0 + 0.0j
    for k, wk in enumerate(mu.weights):
        if wk == 0.0:
            continue
        lo = scale * k * h
        hi = scale * (k + 1) * h
        dens = wk / (hi - lo)
        a = lo
        while a < hi - 1e-15:
            b = min(np.floor(a + 1.0 + 1e-12), hi)
            frac_a = a - np.floor(a)
            width = b - a
            # integral of e(m x) over the wrapped piece [frac_a, frac_a+width)
            piece = (np.exp(1j * TAU * m * (frac_a + width)) -
                     np.exp(1j * TAU * m * frac_a)) / (1j * TAU * m)
            total += dens * piece
            a = b
    return total


def digits_to_int(digits, base: int) -> int:
    """Positional value of a digit word (Python ints), by halves down to
    32-digit Horner leaves: the reference for make_point_from_digits."""
    n = len(digits)
    if n <= 32:
        v = 0
        for d in digits:
            v = v * base + d
        return v
    half = n // 2
    return digits_to_int(digits[:half], base) * base ** (n - half) + digits_to_int(digits[half:], base)


def orbit_readouts(num: int, mod: int, b: int, N: int) -> list[int]:
    """floor(2^53 frac(b^n x)) for n = 1..N, x = num/mod, by one exact
    multiply-and-reduce per step; a power-of-2 denominator is read by shifting."""
    bits = mod.bit_length() - 1
    pow2 = (1 << bits) == mod and bits > 60
    out = []
    for _ in range(N):
        num = (num * b) % mod
        out.append(num >> (bits - 53) if pow2 else (num << 53) // mod)
    return out


def markov_digits(gen, n: int, rng: np.random.Generator, start=None) -> np.ndarray:
    """n Markov digits by one binary search per digit: the uniforms first,
    then the stationary start draw, each state clamped to the last state of
    positive probability in its row (in pi for the start draw).  bisect_right
    on Python floats counts the entries <= u, as searchsorted(side="right")."""
    cum = np.cumsum(gen.P, axis=1).tolist()
    last = [int(np.flatnonzero(row)[-1]) for row in gen.P]
    out = np.empty(n, dtype=np.int64)
    us = rng.random(n).tolist()
    if start is None:
        state = bisect.bisect_right(np.cumsum(gen.pi).tolist(), rng.random())
        state = min(state, int(np.flatnonzero(gen.pi)[-1]))
    else:
        state = int(start)
    for i, u in enumerate(us):
        state = min(bisect.bisect_right(cum[state], u), last[state])
        out[i] = state
    return out


def orbit_character_sums(num: int, mod: int, b: int, freqs, checkpoints):
    """Averages of e(m T_b^n x) at each sorted checkpoint, summed step by
    step from the per-step read-outs."""
    cps = sorted(checkpoints)
    taus = [TAU * m for m in freqs]
    sums = [0.0 + 0.0j] * len(freqs)
    out = np.empty((len(cps), len(freqs)), dtype=np.complex128)
    ci = 0
    for n, r in enumerate(orbit_readouts(num, mod, b, cps[-1]), start=1):
        xr = r * 2.0 ** -53
        for i, t in enumerate(taus):
            sums[i] += complex(math.cos(t * xr), math.sin(t * xr))
        if n == cps[ci]:
            out[ci] = [s / n for s in sums]
            ci += 1
    return out


def segment_character_sums(r: np.ndarray, freqs, checkpoints, chunk: int):
    """Averages of e(m r_n 2^-53) at each ascending checkpoint from a read-out
    array r, with one cos and one sin for every pair (m, n), summed over the
    segments the library uses (ends at each checkpoint and each multiple of
    `chunk`): at m = +-1 the library's one-cis-per-point sums equal these
    bit for bit."""
    taus = TAU * np.asarray(freqs, dtype=np.float64)
    out = np.empty((len(checkpoints), len(taus)), dtype=np.complex128)
    total = np.zeros(len(taus), dtype=np.complex128)
    ends = sorted({*checkpoints, *range(chunk, checkpoints[-1], chunk)})
    ci, lo = 0, 0
    for hi in ends:
        theta = np.multiply.outer(taus, r[lo:hi] * 2.0 ** -53)
        total += (np.cos(theta) + 1j * np.sin(theta)).sum(axis=1)
        if hi == checkpoints[ci]:
            out[ci] = total / hi
            ci += 1
        lo = hi
    return out


def cylinder_phases(x, b: int, k: int, m: int, nprime, N: int) -> np.ndarray:
    """frac(m a^k b^n K_n / a^(n')) for n = 1..N, K_n the integer of the first
    n' digits of x, in exact integer arithmetic with one big division per
    step; den and the digit divisor are kept incrementally since n' is
    nondecreasing."""
    a = x.base
    np_max = int(nprime[N])
    num_top = x.numerator // a ** (x.precision - np_max) if np_max else 0
    mod_max = a ** max(np_max, 1)
    phases = np.empty(N, dtype=np.float64)
    bn = 1
    ma_k = m * a ** k
    den = 1                      # a^(n')
    drop = a ** np_max           # a^(np_max - n')
    npr_prev = 0
    for n in range(1, N + 1):
        bn = (bn * b) % mod_max
        npr = int(nprime[n])
        for _ in range(npr - npr_prev):
            den *= a
            drop //= a
        npr_prev = npr
        if npr == 0:
            phases[n - 1] = 0.0
            continue
        K = num_top // drop
        phases[n - 1] = ((ma_k * (bn % den) * K) % den) / den
    return phases


def precision_budget_L(a: int, b: int, N_max: int, guard_digits: int = 64) -> int:
    """PrecisionBudget.plan's L from an 80-bit mpmath ceiling estimate,
    corrected by the same exact comparisons."""
    import mpmath

    with mpmath.workprec(80):
        est = int(mpmath.ceil(N_max * mpmath.log(b) / mpmath.log(a)))
    target = b ** N_max
    while a ** est < target:
        est += 1
    while est > 1 and a ** (est - 1) >= target:
        est -= 1
    return est + guard_digits


def kronecker_tables(a: int, b: int, N: int, float_bits: int = 128):
    """(n'(n), z(n)) for n = 0..N by the per-step route: an exact q*n // p
    for dependent (a, b), else a 2^float_bits-scaled accumulator carried one
    step at a time, raising PrecisionError at the first n whose floor is
    within 2^-100 of an integer."""
    import mpmath

    from hostlab.adic import _primitive_power_base
    from hostlab.errors import PrecisionError

    nprime = np.zeros(N + 1, dtype=np.int64)
    z = np.zeros(N + 1, dtype=np.float64)
    ca, pa = _primitive_power_base(a)
    cb, pb = _primitive_power_base(b)
    if ca == cb:
        for n in range(N + 1):
            nprime[n], rem = divmod(pb * n, pa)
            z[n] = float(rem) / pa
        return nprime, z
    with mpmath.workprec(float_bits + 48):
        alpha_mp = mpmath.log(b) / mpmath.log(a)
        scaled = int(mpmath.floor(alpha_mp * mpmath.mpf(2) ** float_bits))
    one = 1 << float_bits
    guard = 1 << (float_bits - 100)
    acc = whole = 0
    inv = 1.0 / one
    for n in range(1, N + 1):
        acc += scaled
        if acc >= one:
            carry, acc = divmod(acc, one)
            whole += carry
        if acc < guard or one - acc < guard:
            raise PrecisionError(f"floor of alpha*{n} ambiguous at {float_bits} bits")
        nprime[n] = whole
        z[n] = acc * inv
    return nprime, z


def floor_multiples(num: int, den: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """floor(num*n/den) and num*n mod den for n = 0..N, as object arrays of
    exact Python ints (the library's former route)."""
    prod = np.arange(N + 1, dtype=object) * num
    return prod // den, prod % den


def structured_phase_sum(flat: np.ndarray, h: float, base: int,
                         structure: tuple) -> np.ndarray:
    """sum_k w_k e(xi h k) from one complex exp over the (len(xi), base)
    outer product of frequencies and digits per place (the library's former
    route)."""
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


def compare_reference(gen, past, x, b: int, k: int, m: int, N: int, level: int):
    """(orbit_avg, cond_avg, cond_abs_avg, gap) of the orbit-versus-conditional
    comparison by per-step routes: the orbit average summed step by step, the
    conditioning state and the exact cylinder phase found for each n."""
    from hostlab.adic import _int_to_digits, kronecker_schedule, mul_mod1
    from hostlab.fourier import ft_adic_many
    from hostlab.measures import MARKOV, PastWord, conditional_on_past

    a = gen.base
    nprime, z = kronecker_schedule(a, b, N)
    count = max(int(nprime[N]), 1)
    xdig = _int_to_digits(x.numerator // a ** (x.precision - count), a, count).tolist()
    y = mul_mod1(x, a ** k)
    orbit_avg = complex(orbit_character_sums(y.numerator, y.denominator, b,
                                             (m,), (N,))[0, 0])
    state0 = past.symbols[0] if gen.kind == MARKOV else 0
    states = [xdig[nprime[n] - 1] if nprime[n] >= 1 else state0
              for n in range(1, N + 1)]
    xis = m * float(a) ** k * np.power(float(a), z[1:])
    vals = np.empty(N, dtype=np.complex128)
    for s in set(states):
        mu = conditional_on_past(gen, PastWord(a, (s,)) if gen.kind == MARKOV
                                 else past, level)
        idx = np.flatnonzero(np.asarray(states) == s)
        vals[idx] = ft_adic_many(mu, xis[idx])
    vals *= np.exp(TAU * 1j * cylinder_phases(x, b, k, m, nprime, N))
    cond_avg = complex(vals.mean())
    return orbit_avg, cond_avg, float(np.abs(vals).mean()), abs(orbit_avg - cond_avg)


def proof_chain_monte_carlo(gen, k: int, m: int, level: int, samples: int,
                            seed: int) -> tuple[float, float]:
    """(mean, standard error) over sampled pasts of the scale-smoothed squared
    transform of the k-scaled conditional measure: each past is 32 stationary
    symbols from derive_rng(seed, k, m, i), and each term is one
    `scaled_sq_integral` of its own conditional, with no grouping by state."""
    from hostlab.fourier import SmoothingParams, scaled_sq_integral
    from hostlab.measures import conditional_on_past, sample_past
    from hostlab.reports import derive_rng

    a = gen.base
    params = SmoothingParams(b_scale=float(a), m=m, r=1.0)
    vals = np.array([scaled_sq_integral(
        conditional_on_past(gen, sample_past(gen, 32, derive_rng(seed, k, m, i)), level),
        params, prescale=float(a) ** k) for i in range(samples)])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


def product_weights(p, n: int) -> np.ndarray:
    """Level-n weights of i.i.d. digits with law p: the n-fold outer product."""
    w = np.asarray(p, dtype=np.float64)
    for _ in range(n - 1):
        w = np.outer(w, p).ravel()
    return w


def sample_points(mu, count: int, rng: np.random.Generator) -> np.ndarray:
    """count points drawn from the piecewise-uniform measure."""
    p = mu.weights / mu.weights.sum()
    cells = rng.choice(len(p), size=count, p=p)
    return (cells + rng.random(count)) * mu.cell_width


def exp_weyl_bound_check(alpha: float, j: int, N: int) -> tuple[float, float]:
    """(lhs, rhs) with lhs = |sum_{n<=N} e(j n alpha)| and rhs = 1/(2 dist(j alpha, Z)).

    Direct summation against the classical geometric-sum bound for an
    irrational rotation.  Raises if j*alpha is (numerically) an integer.
    """
    if j == 0:
        raise InputError("j must be nonzero")
    if N < 1:
        raise InputError("N must be >= 1")
    beta = j * alpha
    dist = abs(beta - round(beta))
    if dist < 1e-12:
        raise InputError("j*alpha is an integer at working precision")
    ns = np.arange(1, N + 1, dtype=np.float64)
    lhs = abs(np.exp(2j * np.pi * beta * ns).sum())
    return float(lhs), float(1.0 / (2.0 * dist))


def word_indices(digits: np.ndarray, k: int, base: int) -> np.ndarray:
    """`hostlab.ergodic._word_indices` as it was: an int64 matmul of every
    length-k window with the powers of the base."""
    windows = np.lib.stride_tricks.sliding_window_view(digits, k)
    return windows @ (base ** np.arange(k - 1, -1, -1, dtype=np.int64))


def split_index_average(values, k: int):
    """Reassemble the full average from the k residue-class averages.

    Returns (full_mean, recombined_mean, class_means, class_sizes); the two
    means agree up to float association error.
    """
    values = np.asarray(values, dtype=np.float64)
    if k < 1:
        raise InputError("k must be >= 1")
    if len(values) == 0:
        raise InputError("values must be nonempty")
    full = float(values.mean())
    class_means = []
    class_sizes = []
    for p in range(k):
        cls = values[p::k]
        class_sizes.append(len(cls))
        class_means.append(float(cls.mean()) if len(cls) else 0.0)
    recombined = float(np.dot(class_means, class_sizes) / len(values))
    return full, recombined, class_means, class_sizes


def coarsen(mu: AdicMeasure, j: int = 1) -> AdicMeasure:
    """Drop the last j digits (marginalize the finest scales)."""
    if not (0 <= j <= mu.level):
        raise InputError(f"coarsen count {j} outside 0..{mu.level}")
    if j == 0:
        return mu
    w = mu.weights.reshape(-1, mu.base ** j).sum(axis=1)
    return AdicMeasure(base=mu.base, level=mu.level - j, weights=w)


def refine(mu: AdicMeasure, j: int = 1) -> AdicMeasure:
    """Split every cell into a^j equal parts (the piecewise-uniform reading)."""
    if j < 0:
        raise InputError("refine count must be >= 0")
    parts = mu.base ** j
    if len(mu.weights) * parts > MAX_WEIGHT_ENTRIES:
        raise ResourceError("refinement exceeds the weight-vector budget")
    w = np.repeat(mu.weights / parts, parts)
    return AdicMeasure(base=mu.base, level=mu.level + j, weights=w)

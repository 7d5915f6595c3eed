import math

import mpmath
import numpy as np
import pytest

from hostlab import fourier
from hostlab.errors import InputError, ResourceError
from hostlab.fourier import (
    SmoothingParams,
    _lag_integral_vectors,
    _lag_rows,
    _structured_phase_sum,
    c1_bound_check,
    c1_certificate,
    c1_default_battery,
    default_measure_battery,
    ft_adic,
    ft_adic_many,
    quadratic_bump,
    raised_cosine,
    scaled_sq_integral,
    smoothing_certificate,
    smoothing_rhs,
)
from hostlab.measures import (
    AdicMeasure,
    PastWord,
    _lag_weights,
    bernoulli,
    cantor3,
    conditional_on_past,
    cylinder_condition,
    markov,
    realize,
    shift_push,
    uniform,
    word,
)
from oracles import (OracleQuadratureError, c1_density, c1_transform_quad, cantor_transform,
                     lag_integrals, mc_scaled_sq, panel_scaled_sq, structured_phase_sum,
                     wrapped_transform)

TAU = 2.0 * math.pi


def test_ft_uniform_annihilates_characters():
    mu = realize(uniform(2), 8)
    for m in (1, 2, 5, -3):
        assert abs(ft_adic(mu, m)) < 1e-12
    assert abs(ft_adic(mu, 0.0) - 1.0) < 1e-15


def test_ft_total_mass_at_zero():
    mu = realize(cantor3(), 6)
    assert abs(ft_adic(mu, 0.0) - 1.0) < 1e-14


def test_ft_matches_direct_sum():
    rng = np.random.default_rng(3)
    w = rng.random(3 ** 6)
    w /= w.sum()
    mu = AdicMeasure(base=3, level=6, weights=w)
    h = mu.cell_width
    centers = (np.arange(len(w)) + 0.5) * h
    for xi in (0.37, 1.0, 17.25, -4.5, 812.0):
        direct = np.sinc(xi * h) * np.dot(w, np.exp(2j * np.pi * xi * centers))
        assert abs(ft_adic(mu, xi) - direct) < 1e-11


def test_ft_cantor_against_product_formula():
    mu = realize(cantor3(), 12)
    for xi in (1.0, 2.0, 5.0):
        assert abs(ft_adic(mu, xi) - cantor_transform(xi)) < 1e-6


def test_ft_cantor_against_monte_carlo():
    # statistical cross-check on the sampled generator, 4 sigma
    rng = np.random.default_rng(99)
    depth = 30
    digits = rng.choice([0, 2], size=(100_000, depth))
    pows = 3.0 ** -(np.arange(1, depth + 1))
    xs = digits @ pows
    sample_mean = np.exp(2j * np.pi * xs).mean()
    se = np.abs(np.exp(2j * np.pi * xs) - sample_mean).std() / math.sqrt(len(xs))
    val = ft_adic(realize(cantor3(), 12), 1.0)
    assert abs(val - sample_mean) < 4 * se + 1e-6


def test_structured_path_matches_dense_atom_sum():
    from hostlab.measures import markov, bernoulli
    rng = np.random.default_rng(31)
    xis = rng.uniform(-2000, 2000, 200)
    for gen, lvl in ((cantor3(), 8), (markov([[0.9, 0.1], [0.5, 0.5]]), 10),
                     (bernoulli(3, [0.2, 0.5, 0.3]), 7)):
        mu = realize(gen, lvl)
        assert mu.structure is not None
        plain = AdicMeasure(base=mu.base, level=mu.level, weights=mu.weights)
        assert plain.structure is None
        diff = np.abs(ft_adic_many(mu, xis) - ft_adic_many(plain, xis))
        assert np.max(diff) < 1e-11


def _structures(base: int, level: int):
    """(library chain factorization, oracle structure) pairs in `base`: an
    i.i.d. law with a zero digit against the product formula; a chain with
    zero entries; a chain with a digit that no row of P and not the start law
    emits; and one whose start law puts mass on a digit no row of P emits."""
    rng = np.random.default_rng(base)
    p = rng.uniform(0.1, 1.0, base)
    p[base // 2] = 0.0
    p /= p.sum()
    P = rng.uniform(0.1, 1.0, (base, base))
    P[0, -1] = P[-1, 0] = 0.0
    P /= P.sum(axis=1, keepdims=True)
    init = rng.uniform(0.1, 1.0, base)
    init /= init.sum()
    unemitted = P.copy()                # no row emits the last digit
    unemitted[:, 0] += unemitted[:, -1]
    unemitted[:, -1] = 0.0
    cold = init.copy()                  # nor does this start law
    cold[0] += cold[-1]
    cold[-1] = 0.0
    return [((p, np.tile(p, (base, 1))), ("product", p, level)),
            ((init, P), ("chain", init, P, level)),
            ((cold, unemitted), ("chain", cold, unemitted, level)),
            ((init, unemitted), ("chain", init, unemitted, level))]


@pytest.mark.parametrize("level", [1, 2, 20])
@pytest.mark.parametrize("base", [2, 3, 4, 5])
def test_structured_sum_matches_per_digit_exp_oracle(base, level):
    rng = np.random.default_rng(100 * base + level)
    top = float(base) ** level
    flat = np.concatenate(([0.0, -1.0, 1.0, top, -top, -0.5 * top],
                           rng.uniform(-top, top, 40), rng.uniform(-50.0, 50.0, 40)))
    h = float(base) ** -level
    for structure, oracle in _structures(base, level):
        got = _structured_phase_sum(flat, h, base, level, structure)
        ref = structured_phase_sum(flat, h, base, oracle)
        assert np.max(np.abs(got - ref)) < 1e-13


def test_structured_sum_forms_no_phase_for_an_unemitted_digit(monkeypatch):
    # cantor3's middle digit has probability 0 in every row and in pi
    mu = realize(cantor3(), 6)
    cis, shapes = fourier.cis, []

    def counted(theta):
        shapes.append(theta.shape)
        return cis(theta)

    monkeypatch.setattr(fourier, "cis", counted)
    _structured_phase_sum(np.array([1.0, 2.5]), mu.cell_width, 3, 6, mu.structure)
    assert shapes == [(1, 2)] * 6


def test_structured_transform_needs_no_weights():
    # the controls' invariant-measure transform at level 20, and a level-40
    # conditional whose 2^40 weights are over the budget: both are summed from
    # (init, P), and neither builds its weight vector (a built one is kept in
    # the instance dict)
    xis = np.array([1.0, -3.5])
    mu = realize(bernoulli(2, [0.25, 0.75]), 20)
    deep = conditional_on_past(markov([[0.9, 0.1], [0.5, 0.5]]), PastWord(2, (1,)), 40)
    for nu in (mu, deep):
        assert np.all(np.isfinite(ft_adic_many(nu, xis)))
        assert "weights" not in vars(nu)
    with pytest.raises(ResourceError, match="weight-vector budget"):
        deep.weights


def test_structured_transform_at_the_deepest_normal_cell_width():
    # 2^-1022 is the smallest normal float: the transform of Lebesgue measure
    # from 1022 places is int_0^1 e(x/2) dx = 2i/pi
    assert abs(ft_adic(realize(uniform(2), 1022), 0.5) - 2j / math.pi) < 1e-12


def test_conjugate_symmetry():
    mu = realize(cantor3(), 8)
    for xi in (1.0, 2.7, 9.0):
        assert abs(ft_adic(mu, -xi) - np.conj(ft_adic(mu, xi))) < 1e-13


def test_ft_scaled_identity_and_wrap():
    mu = realize(cantor3(), 7)
    # explicit mod-1 wrapping of the scaled cells agrees with F_m(S_t mu) = F(mu, m t)
    for t, m in ((1.7, 1), (3.0 ** 0.4, 2), (5.25, 3)):
        assert abs(ft_adic(mu, m * t) - wrapped_transform(mu, t, m)) < 1e-10


def test_modulus_translation_invariance():
    mu = realize(cantor3(), 8)
    h = mu.cell_width
    centers = (np.arange(len(mu.weights)) + 0.5) * h
    for theta in (0.1, 1 / 3, 0.99):
        for t, m in ((1.0, 1), (2.5, 2)):
            xi = m * t
            translated = np.sinc(xi * h) * np.dot(
                mu.weights, np.exp(2j * np.pi * xi * (centers + theta)))
            assert abs(abs(translated) - abs(ft_adic(mu, xi))) < 1e-12


def test_near_atom_fixed_by_scaling():
    w = np.zeros(2 ** 20)
    w[0] = 1.0
    mu = AdicMeasure(base=2, level=20, weights=w)
    for t, m in ((1.0, 1), (2.0, 3), (7.5, 2)):
        assert abs(ft_adic(mu, m * t) - 1.0) < math.pi * abs(m) * t * mu.cell_width


def test_c1_bound_quadratic_bump():
    lhs, rhs, ok = c1_bound_check(quadratic_bump(), 1.0)
    assert abs(lhs - 3.0 / math.pi ** 2) < 1e-9
    assert abs(rhs - 7.5 / math.pi) < 1e-12
    assert ok


def test_c1_bound_raised_cosine():
    # orthogonality gives |f-hat(1)| = 1/2; constants use sup f = 2
    lhs, rhs, ok = c1_bound_check(raised_cosine(), 1.0)
    assert abs(lhs - 0.5) < 1e-9
    assert abs(rhs - (2.0 + TAU) / math.pi) < 1e-12
    assert ok


def test_c1_bound_high_frequency_and_errors():
    lhs, rhs, ok = c1_bound_check(quadratic_bump(), 100.0)
    assert ok and lhs <= rhs
    assert abs(rhs - 7.5 / (math.pi * 100.0)) < 1e-12
    with pytest.raises(InputError):
        c1_bound_check(quadratic_bump(), 0.0)


def test_c1_battery_unit_mass():
    from scipy.integrate import quad
    for spec in c1_default_battery():
        total, err = quad(c1_density(spec), spec.a, spec.b)
        assert abs(total - 1.0) < 1e-10


@pytest.mark.parametrize("spec", c1_default_battery(), ids=lambda spec: spec.label)
def test_c1_closed_form_matches_quadrature(spec):
    # the default battery's t grid, then off-grid t: tiny, near 1, thirds, negative, large
    ts = [t for base in (1, 2, 5, 10, 100) for t in (base, -base)]
    ts += [1e-8, 1e-3, 0.3, 0.999999, 1 / 3, 0.5, -2.5, 37.5, 1000.0]
    for t in ts:
        lhs, _, _ = c1_bound_check(spec, t)
        assert abs(lhs - abs(c1_transform_quad(spec, t))) < 1e-13, t
        u = t * (spec.b - spec.a)
        assert spec.ft(-u) == spec.ft(u), u
    assert abs(spec.ft(1e-12) - 1.0) < 1e-14
    if spec.label.startswith("raised_cosine"):
        assert abs(spec.ft(1.0)) == abs(spec.ft(-1.0)) == 0.5


@pytest.mark.parametrize("n", [1, 2])
def test_jn_ratio_against_mpmath(n):
    # the reference is taken at the same rounded x = pi u the kernel reads, and the error
    # is relative to max(|j_n(x)/x^n|, (1 + |x|)^-(n+1)/(2n+1)!!), the function's scale:
    # near a zero of j_n no evaluation from a rounded sin and cos keeps relative digits
    switch = 2.0 / math.pi                     # |x| = 2: the series hands over there
    us = [0.0, 1e-12, -1e-12, 1e-6, np.nextafter(switch, 0.0), switch,
          np.nextafter(switch, 1.0), -switch, 999.9, -1e3, 1e3]
    us += [*np.linspace(-5.0, 5.0, 201), *np.geomspace(1e-4, 1e3, 200)]
    with mpmath.workdps(40):
        for u in us:
            x = abs(mpmath.mpf(math.pi * u))
            want = (mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(n + 0.5, x) / x ** n
                    if x else mpmath.mpf(1) / (3, 15)[n - 1])
            scale = max(abs(want), (1 + x) ** -(n + 1) / (3, 15)[n - 1])
            assert abs(fourier._jn_ratio(n, u) - want) <= 2e-15 * scale, (n, u)


def test_c1_certificate_rows():
    rows = c1_certificate(c1_default_battery(), [1, -2, 10])
    assert len(rows) == 12
    assert all(row["ok"] for row in rows)


def test_scaled_sq_near_atom():
    w = np.zeros(2 ** 20)
    w[0] = 1.0
    mu = AdicMeasure(base=2, level=20, weights=w)
    val = scaled_sq_integral(mu, SmoothingParams(b_scale=2.0, m=1, r=0.5))
    assert abs(val - 1.0) < 1e-4


def test_scaled_sq_uniform_bounded_by_rhs():
    mu = realize(uniform(2), 10)
    for r in (0.05, 0.1, 0.2):
        params = SmoothingParams(b_scale=2.0, m=3, r=r)
        lhs = scaled_sq_integral(mu, params)
        rhs = 1.0 / (r * 3 * math.log(2.0)) + (2 * r - r * r)
        assert lhs <= rhs
        assert abs(smoothing_rhs(mu, params) - rhs) < 1e-9


def test_scaled_sq_against_pair_monte_carlo():
    mu = realize(cantor3(), 12)
    lhs = scaled_sq_integral(mu, SmoothingParams(b_scale=2.0, m=1, r=0.1))
    rng = np.random.default_rng(2024)
    est, se = mc_scaled_sq(mu, 2.0, 1, pairs=100_000, rng=rng)
    assert abs(lhs - est) <= 3.0 * se + 2e-3


def test_smoothing_inequality_small_battery():
    # includes base e as a scale base
    rows = smoothing_certificate(
        [("cantor3", realize(cantor3(), 9))],
        ms=[1, -2], bs=[2.0, math.e], rs=[3.0 ** -j for j in (1, 3)])
    assert all(row["ok"] for row in rows)
    assert all(row["lhs"] <= row["rhs"] + 1e-4 for row in rows)


def test_smoothing_certificate_rows_match_per_row_rhs(monkeypatch):
    measures = [("cantor3", realize(cantor3(), 9)), ("uniform2", realize(uniform(2), 10))]
    rs = [3.0 ** -j for j in (1, 3)]
    calls = []

    def counted(w):
        calls.append(id(w))
        return _lag_weights(w)

    # one c_D R(D) per measure serves both the scale averages and every radius
    monkeypatch.setattr(fourier, "_lag_weights", counted)
    rows = smoothing_certificate(measures, ms=[1, -2], bs=[2.0, math.e], rs=rs)
    monkeypatch.undo()
    assert len(rows) == 2 * 2 * 2 * 2
    assert sorted(calls) == sorted(id(mu.weights) for _, mu in measures)
    by_label = dict(measures)
    for row in rows:
        params = SmoothingParams(b_scale=row["b"], m=row["m"], r=row["r"])
        assert row["rhs"] == smoothing_rhs(by_label[row["measure"]], params)
        assert row["margin"] == row["rhs"] - row["lhs"]
        assert row["ok"] == (row["lhs"] <= row["rhs"] + 1e-4)


def test_scaled_sq_quadrature_error_diagnostics():
    # the closed form has no failure path; the panel oracle still reports one
    mu = realize(cantor3(), 6)
    with pytest.raises(OracleQuadratureError) as exc:
        panel_scaled_sq(mu, SmoothingParams(b_scale=2.0, m=1, r=0.5),
                        tol=0.0, max_doublings=1)
    assert "panels" in exc.value.diagnostics


def _unfactorized_measures():
    return [shift_push(realize(markov([[0.9, 0.1], [0.5, 0.5]]), 15), 1),
            cylinder_condition(realize(cantor3(), 10), word(3, [2]))]


def _closed_form_cases(kind):
    if kind == "battery":
        for _, mu in default_measure_battery(20240):
            for m in range(1, 9):
                for b in (2.0, 10.0):
                    yield mu, SmoothingParams(b_scale=b, m=m, r=0.1), 1.0
    elif kind == "cantor3-prescaled":
        for level in (8, 9):
            mu = realize(cantor3(), level)
            for k in (0, 2, 4, 6):
                yield mu, SmoothingParams(b_scale=3.0, m=1, r=0.1), 3.0 ** k
    else:
        for mu in _unfactorized_measures():
            for m in (1, -1, 2, -2):
                yield mu, SmoothingParams(b_scale=2.0, m=m, r=0.1), 1.0


@pytest.mark.parametrize("kind", ["battery", "cantor3-prescaled", "unfactorized"])
def test_scaled_sq_closed_form_matches_panel_oracle(kind):
    for mu, params, prescale in _closed_form_cases(kind):
        got = scaled_sq_integral(mu, params, prescale=prescale)
        want = panel_scaled_sq(mu, params, prescale=prescale)
        assert abs(got - want) <= 1e-10, (mu.base, mu.level, params, prescale, got - want)


def _lag_integral_mp(D, s0, s1):
    """J_D from the three-cosine split at 40 digits, where its cancellation is harmless."""
    def anti(s):
        total = mpmath.mpf(0)
        for coef, c in ((0.5, 2 * D), (-0.25, 2 * D + 2), (-0.25, abs(2 * D - 2))):
            if c == 0:
                total += coef * -1 / (2 * s ** 2)
            else:
                total += coef * (-mpmath.cos(c * s) / (2 * s ** 2) + c * mpmath.sin(c * s) / (2 * s)
                                 - c * c * mpmath.ci(c * s) / 2)
        return total

    with mpmath.workdps(40):
        return anti(mpmath.mpf(s1)) - anti(mpmath.mpf(s0))


@pytest.mark.parametrize("s0,b", [(math.pi * 2.0 ** -14, 2.0), (0.6, 10.0)],
                         ids=["series-branch", "three-cosine-branch"])
def test_lag_integrals_against_mpmath(s0, b):
    # series terms are O(1) each; the three-cosine split loses about eps D / s0
    s1 = b * s0
    eps = np.finfo(np.float64).eps
    got = next(_lag_integral_vectors([np.ones(8001)], [(s0, s1)]))
    with mpmath.workdps(30):
        for D in (0, 1, 1000, 8000):
            want = _lag_integral_mp(D, s0, s1)
            tol = 1e-14 if s1 <= 1.0 else 4.0 * eps * (1.0 + D / s0)
            assert abs(got[D] - float(want)) < tol, (D, got[D], want)
            if s1 <= 1.0 or D <= 1:   # few oscillations: direct quadrature is cheap
                f = lambda s: mpmath.sin(s) ** 2 * mpmath.cos(2 * D * s) / s ** 3
                direct = mpmath.quad(f, mpmath.linspace(s0, s1, 8))
                assert abs(direct - want) < 1e-20, D


def test_ci_against_mpmath_and_sici():
    # every region edge of _ci at +-1 ulp, and the zero of Ci near 0.6165.  Above 4 the
    # error is also bounded beside Ci's scale 1/x: the three-cosine lag rows multiply Ci
    # by x^2, where x^2 Ci(x) cancels to O(x); sici reaches 4.8e-16 there on this grid
    from scipy.special import sici
    with mpmath.workdps(30):
        zero = float(mpmath.findroot(mpmath.ci, 0.6))
    edges = [zero, 4.0, *(edge for edge, *_ in fourier._CI_AUX[:-1])]
    x = [*np.geomspace(1e-4, 1e5, 3500), *np.linspace(4.0, 40.0, 1000), 1e8]
    x += [v for e in edges for v in (np.nextafter(e, 0.0), e, np.nextafter(e, np.inf))]
    x = np.unique(x)
    got = fourier._ci(x, np.cos(x), np.sin(x))
    with mpmath.workdps(30):
        exact = [mpmath.ci(v) for v in x]
        err = np.array([float(mpmath.mpf(g) - c) for g, c in zip(got, exact)])
    assert np.max(np.abs(got - np.array([float(c) for c in exact]))) <= 2e-15
    assert np.max((x * np.abs(err))[x > 4.0]) <= 3e-16
    assert np.max(np.abs(got - sici(x)[1])) <= 1e-15


def _endpoint_rows(measures, ms, bs):
    """(s, support) of each distinct endpoint s = pi |m| h or b pi |m| h of each (base,
    level), s formed as the library does; the support is where some R of it is non-zero."""
    out = []
    for key in dict.fromkeys((mu.base, mu.level) for _, mu in measures):
        mus = [mu for _, mu in measures if (mu.base, mu.level) == key]
        support = np.flatnonzero(np.any([_lag_weights(mu.weights) for mu in mus], axis=0))
        s0s = {math.pi * abs(m) * 1.0 * mus[0].cell_width for m in ms}
        out += [(s, support.tobytes()) for s in {s for s0 in s0s for b in bs for s in (s0, b * s0)}]
    return out


def _count_rows(monkeypatch, calls):
    def counted(s, lags, coefs):
        calls.append((s, lags.tobytes(), tuple(sorted(coefs))))
        return _lag_rows(s, lags, coefs)

    monkeypatch.setattr(fourier, "_lag_rows", counted)


def test_smoothing_certificate_shares_lhs_across_signs_and_radii(monkeypatch):
    measures = [("cantor3", realize(cantor3(), 9)), ("uniform2", realize(uniform(2), 10))]
    ms, bs, rs = [1, -1, -2, 2, 3], [2.0, math.e], [3.0 ** -j for j in (1, 3)]
    calls = []

    # one lag-integral row per distinct endpoint of each (base, level), on its support
    # lags only: both signs of m, every r and every pair that meets at s share it
    _count_rows(monkeypatch, calls)
    rows = smoothing_certificate(measures, ms, bs, rs)
    monkeypatch.undo()
    assert sorted(c[:2] for c in calls) == sorted(_endpoint_rows(measures, ms, bs))
    by_label = dict(measures)
    by_key = {(r["measure"], r["m"], r["b"], r["r"]): r for r in rows}
    assert len(by_key) == len(rows) == 2 * 5 * 2 * 2
    for row in rows:
        params = SmoothingParams(b_scale=row["b"], m=row["m"], r=row["r"])
        assert row["lhs"] == scaled_sq_integral(by_label[row["measure"]], params)
        twin = by_key.get((row["measure"], -row["m"], row["b"], row["r"]))
        if twin is not None:
            assert {k: v for k, v in twin.items() if k != "m"} == \
                {k: v for k, v in row.items() if k != "m"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("K", [1, 2, 3, 729, 16384, 19683])
def test_lag_integrals_equal_the_broadcast_oracle(K):
    # s1 = b s0 on both sides of 1 selects both branches; the battery's s0 = pi |m| h too.
    # All pairs share one pass, so pairs that meet at an endpoint share its row
    cases = [(math.pi * m * 1.0 * h, b) for m in range(1, 9) for h in (2.0 ** -14, 3.0 ** -9)
             for b in (2.0, 10.0)]
    cases += [(0.3, 2.0), (0.45, 2.0), (0.5, 2.0), (0.3, 3.0 + 1e-9), (0.35, 3.0), (0.6, 10.0)]
    assert {b * s0 > 1.0 for s0, b in cases} == {False, True}
    got = list(_lag_integral_vectors([np.ones(K)], [(s0, b * s0) for s0, b in cases]))
    assert len(got) == len(cases)
    for (s0, b), J in zip(cases, got):
        want = lag_integrals(K, s0, b * s0)
        assert J.shape == want.shape == (K,)
        assert np.array_equal(J, want), (K, s0, b)


def test_lag_integral_vectors_equal_the_oracle_on_the_support(monkeypatch):
    # cantor3 and its cylinder have R = 0 on every odd lag; pi 2 h is b s0 of (m = 1, b = 2)
    # and s0 of (m = 2, b = 10), pairs that need different series term counts
    mus = [realize(cantor3(), 6), cylinder_condition(realize(cantor3(), 7), word(3, [2]))]
    assert {(mu.level, mu.cell_width) for mu in mus} == {(6, 3.0 ** -6)}
    lags = [_lag_weights(mu.weights) for mu in mus]
    K, h = 3 ** 6, 3.0 ** -6
    support = np.flatnonzero(np.any(lags, axis=0))
    off = np.setdiff1d(np.arange(K), support)
    assert len(off) > 0 and all(not R[off].any() for R in lags)
    ends = [(math.pi * m * 1.0 * h, b * (math.pi * m * 1.0 * h))
            for m in (1, 2, 40, 150, 400) for b in (2.0, 10.0)]
    assert {s1 > 1.0 for _, s1 in ends} == {False, True}
    calls = []
    _count_rows(monkeypatch, calls)
    got = list(_lag_integral_vectors(lags, ends))
    monkeypatch.undo()
    assert len(got) == len(ends)
    for (s0, s1), J in zip(ends, got):
        want = lag_integrals(K, s0, s1)
        assert np.array_equal(J[support], want[support]), (s0, s1)
        assert np.all(J[off] == 0.0), (s0, s1)
    # one row per distinct endpoint, on the support; the shared one takes both term counts
    assert sorted(s for s, _, _ in calls) == sorted({s for e in ends for s in e})
    assert all(lags_ == support.tobytes() for _, lags_, _ in calls)
    shared = [terms for s, _, terms in calls if s == ends[2][0]]
    assert shared == [terms for s, _, terms in calls if s == ends[0][1]]
    assert len(shared[0]) == 2 and 0 not in shared[0]
    assert any(0 in terms for _, _, terms in calls)


def test_default_battery_certificate_rows_equal_the_per_row_functions(monkeypatch):
    # the CLI's default grid; three base-2 level-14 measures share each row
    measures = default_measure_battery(7)
    ms = [m for mm in range(1, 9) for m in (mm, -mm)]
    bs, rs = [2.0, 10.0], [3.0 ** -j for j in range(1, 7)]
    weight_calls, row_calls = [], []

    def count_weights(w):
        weight_calls.append(id(w))
        return _lag_weights(w)

    monkeypatch.setattr(fourier, "_lag_weights", count_weights)
    _count_rows(monkeypatch, row_calls)
    rows = smoothing_certificate(measures, ms, bs, rs)
    monkeypatch.undo()
    assert sorted(weight_calls) == sorted(id(mu.weights) for _, mu in measures)
    # 19 distinct endpoints per (base, level), not 2 per (|m|, b) group; cantor3's
    # level-9 rows cover only its 9,842 lags with R != 0
    assert sorted(c[:2] for c in row_calls) == sorted(_endpoint_rows(measures, ms, bs))
    assert len(row_calls) == 2 * 19 and len(rows) == 4 * 16 * 2 * 6
    assert sorted(len(np.frombuffer(c[1], dtype=np.int64)) for c in row_calls) == \
        [9842] * 19 + [16384] * 19
    by_label = dict(measures)
    lhs = {}
    for row in rows:
        mu = by_label[row["measure"]]
        params = SmoothingParams(b_scale=row["b"], m=row["m"], r=row["r"])
        key = (row["measure"], abs(row["m"]), row["b"])
        if key not in lhs:
            lhs[key] = scaled_sq_integral(mu, params)
        assert row["lhs"] == lhs[key], row
        assert row["rhs"] == smoothing_rhs(mu, params), row


def test_smoothing_certificate_empty_grids_and_bad_values():
    measures = [("cantor3", realize(cantor3(), 7))]
    assert smoothing_certificate(measures, [], [2.0], [0.5]) == []
    assert smoothing_certificate(measures, [1], [], [0.5]) == []
    assert smoothing_certificate(measures, [1], [2.0], []) == []
    for ms, bs, rs in (([1, 0], [2.0], [0.5]), ([1], [2.0, 1.0], [0.5]),
                       ([1], [2.0], [0.5, 0.0]), ([1], [2.0], [-0.5])):
        with pytest.raises(InputError):
            smoothing_certificate(measures, ms, bs, rs)

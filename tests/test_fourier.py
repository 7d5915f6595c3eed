import math

import mpmath
import numpy as np
import pytest

from hostlab import fourier
from hostlab.errors import InputError, QuadratureError
from hostlab.fourier import (
    SmoothingParams,
    _ft_structured,
    _lag_integrals,
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
    _lag_weights,
    bernoulli,
    cantor3,
    cylinder_condition,
    markov,
    realize,
    shift_push,
    uniform,
    word,
)
from oracles import (cantor_transform, lag_integrals, mc_scaled_sq, panel_scaled_sq,
                     structured_phase_sum, wrapped_transform)

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
    """A product and a chain structure in `base`, each with a zero-probability digit."""
    rng = np.random.default_rng(base)
    p = rng.uniform(0.1, 1.0, base)
    p[base // 2] = 0.0
    P = rng.uniform(0.1, 1.0, (base, base))
    P[0, -1] = P[-1, 0] = 0.0
    P /= P.sum(axis=1, keepdims=True)
    init = rng.uniform(0.1, 1.0, base)
    return (("product", p / p.sum(), level), ("chain", init / init.sum(), P, level))


@pytest.mark.parametrize("level", [1, 2, 20])
@pytest.mark.parametrize("base", [2, 3, 4, 5])
def test_structured_sum_matches_per_digit_exp_oracle(base, level):
    rng = np.random.default_rng(100 * base + level)
    top = float(base) ** level
    flat = np.concatenate(([0.0, -1.0, 1.0, top, -top, -0.5 * top],
                           rng.uniform(-top, top, 40), rng.uniform(-50.0, 50.0, 40)))
    h = float(base) ** -level
    for structure in _structures(base, level):
        got = _structured_phase_sum(flat, h, base, structure)
        ref = structured_phase_sum(flat, h, base, structure)
        assert np.max(np.abs(got - ref)) < 1e-13


def test_structured_transform_needs_no_weights():
    # the controls' invariant-measure transform: same arithmetic, no 2^20 weights
    gen = bernoulli(2, [0.25, 0.75])
    xis = np.array([1.0, -3.5])
    assert np.array_equal(_ft_structured(2, 20, ("product", gen.pi, 20), xis),
                          ft_adic_many(realize(gen, 20), xis))


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
        total, err = quad(spec.f, spec.a, spec.b)
        assert abs(total - 1.0) < 1e-10


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
    with pytest.raises(QuadratureError) as exc:
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
    got = fourier._lag_integrals(8001, s0, s1)
    with mpmath.workdps(30):
        for D in (0, 1, 1000, 8000):
            want = _lag_integral_mp(D, s0, s1)
            tol = 1e-14 if s1 <= 1.0 else 4.0 * eps * (1.0 + D / s0)
            assert abs(got[D] - float(want)) < tol, (D, got[D], want)
            if s1 <= 1.0 or D <= 1:   # few oscillations: direct quadrature is cheap
                f = lambda s: mpmath.sin(s) ** 2 * mpmath.cos(2 * D * s) / s ** 3
                direct = mpmath.quad(f, mpmath.linspace(s0, s1, 8))
                assert abs(direct - want) < 1e-20, D


def _lag_integral_args(measures, ms, bs):
    """(K, s0, b s0) of each distinct (base, level, |m|, b), s0 formed as the library does."""
    keys = {(mu.base, mu.level, abs(m), b) for _, mu in measures for m in ms for b in bs}
    return [(a ** n, s0, b * s0) for a, n, m, b in keys
            for s0 in [math.pi * m * 1.0 * float(a) ** -n]]


def test_smoothing_certificate_shares_lhs_across_signs_and_radii(monkeypatch):
    measures = [("cantor3", realize(cantor3(), 9)), ("uniform2", realize(uniform(2), 10))]
    ms, bs, rs = [1, -1, -2, 2, 3], [2.0, math.e], [3.0 ** -j for j in (1, 3)]
    calls = []

    def counted(K, s0, s1):
        calls.append((K, s0, s1))
        return _lag_integrals(K, s0, s1)

    # one J per (base, level, |m|, b): both signs of m and every r share it
    monkeypatch.setattr(fourier, "_lag_integrals", counted)
    rows = smoothing_certificate(measures, ms, bs, rs)
    monkeypatch.undo()
    assert sorted(calls) == sorted(_lag_integral_args(measures, ms, bs))
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
    # s1 = b s0 on both sides of 1 selects both branches; the battery's s0 = pi |m| h too
    cases = [(math.pi * m * 1.0 * h, b) for m in range(1, 9) for h in (2.0 ** -14, 3.0 ** -9)
             for b in (2.0, 10.0)]
    cases += [(0.3, 2.0), (0.45, 2.0), (0.5, 2.0), (0.3, 3.0 + 1e-9), (0.35, 3.0), (0.6, 10.0)]
    assert {b * s0 > 1.0 for s0, b in cases} == {False, True}
    for s0, b in cases:
        got, want = _lag_integrals(K, s0, b * s0), lag_integrals(K, s0, b * s0)
        assert got.shape == want.shape == (K,)
        assert np.array_equal(got, want), (K, s0, b)


def test_default_battery_certificate_rows_equal_the_per_row_functions(monkeypatch):
    # the CLI's default grid; three base-2 level-14 measures share each J
    measures = default_measure_battery(7)
    ms = [m for mm in range(1, 9) for m in (mm, -mm)]
    bs, rs = [2.0, 10.0], [3.0 ** -j for j in range(1, 7)]
    weight_calls, lag_calls = [], []

    def count_weights(w):
        weight_calls.append(id(w))
        return _lag_weights(w)

    def count_lags(K, s0, s1):
        lag_calls.append((K, s0, s1))
        return _lag_integrals(K, s0, s1)

    monkeypatch.setattr(fourier, "_lag_weights", count_weights)
    monkeypatch.setattr(fourier, "_lag_integrals", count_lags)
    rows = smoothing_certificate(measures, ms, bs, rs)
    monkeypatch.undo()
    assert sorted(weight_calls) == sorted(id(mu.weights) for _, mu in measures)
    assert sorted(lag_calls) == sorted(_lag_integral_args(measures, ms, bs))
    assert len(lag_calls) == 2 * 8 * 2 and len(rows) == 4 * 16 * 2 * 6
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

import math

import mpmath
import numpy as np
import pytest

from hostlab.adic import (
    KroneckerSchedule,
    PrecisionBudget,
    UnitPoint,
    digits_of,
    kronecker_schedule,
    make_point_from_digits,
    mul_mod1,
    multiplicatively_dependent,
    point_from_config,
    point_to_config,
    to_real,
)
from hostlab.errors import InputError, PrecisionError
from oracles import exp_weyl_bound_check


def test_make_point_positional_evaluation():
    x = make_point_from_digits(3, [0, 2, 0])
    assert (x.numerator, x.precision) == (6, 3)
    assert make_point_from_digits(2, [0, 0, 0]).numerator == 0
    x = make_point_from_digits(10, [1, 4, 1, 5, 9])
    assert x.numerator == 14159 and x.denominator == 100000


def test_make_point_rejects_bad_digits():
    with pytest.raises(InputError):
        make_point_from_digits(3, [0, 3])
    with pytest.raises(InputError):
        make_point_from_digits(2, [])


def test_mul_mod1_examples():
    third = make_point_from_digits(3, [1, 0, 0, 0])   # 27/81 = 1/3
    assert mul_mod1(third, 3).numerator == 0
    two_thirds = mul_mod1(third, 2)
    assert two_thirds.numerator * 3 == 2 * two_thirds.denominator
    x = make_point_from_digits(3, [0, 2, 0])          # 6/27
    assert mul_mod1(x, 2).numerator == 12


def test_mul_mod1_rejects_nonpositive():
    x = make_point_from_digits(2, [1])
    for t in (0, -3, 1.5):
        with pytest.raises(InputError):
            mul_mod1(x, t)


def test_to_real_examples():
    half = make_point_from_digits(2, [1])
    assert to_real(half) == 0.5
    x = make_point_from_digits(3, [0, 2, 0])
    assert abs(to_real(x, 53) - 6 / 27) <= 2.0 ** -52
    assert to_real(make_point_from_digits(5, [0, 0])) == 0.0
    with pytest.raises(InputError):
        to_real(half, 0)
    with pytest.raises(InputError):
        to_real(half, 54)


def test_digit_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        base = int(rng.integers(2, 11))
        L = int(rng.integers(1, 80))
        digits = [int(d) for d in rng.integers(0, base, L)]
        x = make_point_from_digits(base, digits)
        assert digits_of(x) == digits
        for j in (1, L // 2 + 1, L):
            assert x.digit(j) == digits[j - 1]


def test_mul_commutes_with_factorization():
    rng = np.random.default_rng(11)
    for _ in range(20):
        base = int(rng.integers(2, 6))
        L = int(rng.integers(3, 40))
        x = make_point_from_digits(base, rng.integers(0, base, L))
        s, t = int(rng.integers(1, 50)), int(rng.integers(1, 50))
        assert mul_mod1(x, s * t) == mul_mod1(mul_mod1(x, s), t)


def test_no_drift_iterated_vs_one_shot():
    budget = PrecisionBudget.plan(3, 2, N_max=200)
    rng = np.random.default_rng(3)
    x0 = make_point_from_digits(3, rng.integers(0, 3, budget.L))
    x = x0
    for _ in range(200):
        x = mul_mod1(x, 2)
    one_shot = (pow(2, 200, x0.denominator) * x0.numerator) % x0.denominator
    assert x.numerator == one_shot
    assert to_real(x) == to_real(UnitPoint(3, budget.L, one_shot))


def test_point_config_roundtrip():
    x = make_point_from_digits(3, [2, 0, 1, 1])
    cfg = point_to_config(x)
    assert cfg["numerator"] == str(x.numerator)
    assert point_from_config(cfg) == x


def test_precision_budget_exact_ceiling():
    budget = PrecisionBudget.plan(3, 2, N_max=1000, guard_digits=64)
    core = budget.L - 64
    assert 3 ** core >= 2 ** 1000 > 3 ** (core - 1)
    # one xb step consumes log_a b digits; budget linear in N_max
    assert PrecisionBudget.plan(3, 2, N_max=2000).L > budget.L


def test_kronecker_schedule_log2_over_log3():
    sched = kronecker_schedule(3, 2, N=1000)
    mpmath.mp.prec = 200
    alpha_ref = mpmath.log(2) / mpmath.log(3)
    assert abs(sched.alpha - float(alpha_ref)) < 1e-15
    # cross-check: 3**alpha == 2 at high precision
    assert abs(mpmath.mpf(3) ** alpha_ref - 2) < mpmath.mpf(2) ** -190
    assert not sched.dependent
    assert sched.nprime(2) == 1
    assert abs(sched.z(2) - (2 * float(alpha_ref) - 1)) < 1e-15
    assert abs(sched.z(2) - 0.2618595) < 1e-6


def test_kronecker_schedule_power_identity():
    # b^n = a^(n' + z_n) to within 2^(1-float_bits) relative error
    sched = kronecker_schedule(3, 2, N=400)
    mpmath.mp.prec = 300
    for n in (1, 7, 113, 400):
        lhs = mpmath.mpf(2) ** n
        rhs = mpmath.mpf(3) ** (sched.nprime(n) + mpmath.mpf(sched.z(n)))
        # z is stored as float64, so the dominant error is 2^-53 * ln(3) * ...
        assert abs(lhs / rhs - 1) < 1e-14


def test_kronecker_schedule_dependent_flag():
    sched = kronecker_schedule(2, 4, N=50)
    assert sched.dependent
    assert sched.alpha == 2.0
    assert np.all(sched.z_table == 0.0)
    assert sched.nprime(7) == 14
    sched = kronecker_schedule(4, 8, N=50)   # alpha = 3/2
    assert sched.dependent
    assert sched.nprime(3) == 4 and sched.z(3) == 0.5
    assert multiplicatively_dependent(4, 8)
    assert not multiplicatively_dependent(6, 12)


def test_kronecker_floor_stability_across_precisions():
    s128 = kronecker_schedule(3, 2, N=2000, float_bits=128)
    s256 = kronecker_schedule(3, 2, N=2000, float_bits=256)
    assert np.array_equal(s128.nprime_table, s256.nprime_table)
    steps = np.diff(s128.nprime_table)
    floor_alpha = math.floor(s128.alpha)
    assert set(np.unique(steps)) <= {floor_alpha, floor_alpha + 1}


def test_kronecker_alpha_gt_one_carries():
    sched = kronecker_schedule(2, 10, N=500)   # alpha = log10/log2 ~ 3.32
    alpha = math.log(10) / math.log(2)
    for n in (1, 2, 3, 499, 500):
        assert sched.nprime(n) == math.floor(alpha * n)


def test_exp_weyl_bound_examples():
    lhs, rhs = exp_weyl_bound_check(0.5, 1, 2)
    assert lhs < 1e-12 and rhs == 1.0
    alpha = math.log(2) / math.log(3)
    lhs, rhs = exp_weyl_bound_check(alpha, 1, 1000)
    assert abs(rhs - 1.3548) < 1e-3
    assert lhs <= rhs + 1e-9
    with pytest.raises(InputError):
        exp_weyl_bound_check(1 / 3, 3, 100)


def test_exp_weyl_matches_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(20):
        alpha = float(rng.uniform(0.01, 0.99))
        j = int(rng.integers(1, 5))
        N = int(rng.integers(2, 3000))
        beta = j * alpha
        if abs(beta - round(beta)) < 1e-6:
            continue
        lhs, rhs = exp_weyl_bound_check(alpha, j, N)
        closed = abs(math.sin(math.pi * N * beta) / math.sin(math.pi * beta))
        assert abs(lhs - closed) < 1e-7 * max(1.0, closed)
        assert lhs <= rhs + 1e-9

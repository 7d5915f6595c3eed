import math

import mpmath
import numpy as np
import pytest

from hostlab.adic import (
    _DIV_CUTOFF,
    KroneckerSchedule,
    PrecisionBudget,
    UnitPoint,
    _big_divmod,
    _digits_per_word,
    _int_to_digits,
    _split_digits,
    digits_of,
    kronecker_schedule,
    make_point_from_digits,
    mul_mod1,
    _floor_multiples,
    multiplicatively_dependent,
    to_real,
)
from hostlab.errors import InputError, PrecisionError
from oracles import digits_to_int, exp_weyl_bound_check, kronecker_tables


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
        make_point_from_digits(3, [0, -1])
    with pytest.raises(InputError):
        make_point_from_digits(2, [])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("word", [
    [1.5, 0.7], [1.0, 0.5], [np.nan], [1.0, np.inf], [-np.inf], ["1"], ["1", "0"],
    [1, "0"], [True, False], [1 + 0j], [None], [[1, 0], [0, 1]], np.array(2),
    np.array([], dtype=np.int64), (), np.array([1.0, np.nan])])
def test_make_point_refuses_words_that_are_not_integer_digits(word):
    with pytest.raises(InputError):
        make_point_from_digits(3, word)


@pytest.mark.filterwarnings("error")
def test_make_point_accepts_integral_floats_and_any_integer_dtype():
    assert make_point_from_digits(3, [1.0, 2.0, -0.0]).numerator == 15
    assert make_point_from_digits(3, np.array([1.0, 2.0])).numerator == 5
    for dtype in (np.int8, np.uint8, np.int32, np.uint32, np.int64, np.uint64):
        assert make_point_from_digits(10, np.array([3, 0, 7], dtype=dtype)).numerator == 307
    assert make_point_from_digits(2 ** 70, [2 ** 62, 5]).numerator == 2 ** 132 + 5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("base", [2, 3, 5, 7, 10, 16, 2 ** 40 + 1])
def test_make_point_matches_digit_oracle(base):
    rng = np.random.default_rng(base % 1000)
    k = _digits_per_word(base)
    for n in sorted({1, k - 1, k, k + 1, 2 * k + 1, 63_157} - {0}):
        for word in (np.zeros(n, dtype=np.int64), np.full(n, base - 1),
                     rng.integers(0, base, n)):
            x = make_point_from_digits(base, word)
            assert x.precision == n
            assert x.numerator == digits_to_int([int(d) for d in word], base)
        if n < 100:
            assert make_point_from_digits(base, word.tolist()) == x


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
def test_pow2_digits_match_word_split(j):
    base = 2 ** j
    rng = np.random.default_rng(j)
    for n in (1, 3, 7, 13, 61, 63, 64, 65, 1001, 20_003):
        top = base ** n - 1
        for value in (0, top, int(rng.integers(0, 2 ** 62)) % (top + 1),
                      int.from_bytes(rng.bytes(n * j // 8 + 1), "big") % (top + 1)):
            got = _int_to_digits(value, base, n)
            assert got.dtype == np.uint64
            assert np.array_equal(got, _split_digits(value, base, n))
        assert _int_to_digits(top, base, n).tolist() == [base - 1] * n


@pytest.mark.filterwarnings("error")
def test_big_divmod_matches_divmod():
    rng = np.random.default_rng(2024)

    def rand(bits):
        return int.from_bytes(rng.bytes(bits // 8 + 1), "big") >> (8 - bits % 8)

    divisors = [3, 2 ** 61 - 1, 2 ** (_DIV_CUTOFF - 1), 2 ** _DIV_CUTOFF, 2 ** 100_000,
                3 ** 1292, 3 ** 1293, 3 ** 63_221, 5 ** 30_000]
    for bits in (_DIV_CUTOFF - 1, _DIV_CUTOFF, _DIV_CUTOFF + 1, 3 * _DIV_CUTOFF + 7, 40_001):
        divisors.append(rand(bits) | 1 << (bits - 1))
    for b in divisors:
        q = rand(2 * b.bit_length() + 53)
        cases = [0, 1, b - 1, b, b + 1, q * b, q * b + b - 1, rand(b.bit_length() - 1),
                 rand(b.bit_length() * 2), rand(b.bit_length() * 3 + 17), b * b - 1]
        for a in cases:
            assert _big_divmod(a, b) == divmod(a, b), (a.bit_length(), b.bit_length())


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


@pytest.mark.parametrize("a,b,N,bits", [
    (3, 2, 8000, 128), (2, 3, 20_000, 128), (2, 10, 500, 128), (3, 2, 100_000, 128),
    (3, 2, 2000, 256), (2, 4, 50, 128), (4, 8, 50, 128)])
def test_kronecker_schedule_matches_step_loop(a, b, N, bits):
    sched = kronecker_schedule(a, b, N, float_bits=bits)
    nprime, z = kronecker_tables(a, b, N, float_bits=bits)
    assert np.array_equal(sched.nprime_table, nprime)
    assert sched.nprime_table.dtype == np.int64
    assert sched.z_table.tobytes() == z.tobytes()


def test_kronecker_ambiguous_floor_names_first_n(monkeypatch):
    # scaled alpha = 2^126 + 1 puts alpha*4 at 4 * 2^-128 past an integer
    monkeypatch.setattr(mpmath, "floor", lambda v: mpmath.mpf(2 ** 126 + 1))
    for build in (kronecker_schedule, kronecker_tables):
        with pytest.raises(PrecisionError, match=r"alpha\*4 ambiguous"):
            build(3, 2, 10)


def test_floor_multiples_exact():
    N = 10_000
    for beta in (math.log(2) / math.log(3), math.log(3) / math.log(2),
                 math.pi, 0.1, 1.0):
        num, den = beta.as_integer_ratio()
        whole, rem = _floor_multiples(num, den, N)
        assert np.array_equal(whole.astype(np.int64),
                              [(num * n) // den for n in range(N + 1)])
        assert rem.tolist() == [(num * n) % den for n in range(N + 1)]


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

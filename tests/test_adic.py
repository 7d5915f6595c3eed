import math

import mpmath
import numpy as np
import pytest

from hostlab.adic import (
    _DIV_CUTOFF,
    ALPHA_BITS,
    PrecisionBudget,
    UnitPoint,
    _big_divmod,
    _digits_per_word,
    _int_to_digits,
    _split_digits,
    kronecker_schedule,
    make_point_from_digits,
    mul_mod1,
    _floor_multiples,
    multiplicatively_dependent,
)
from hostlab.errors import InputError, PrecisionError, ResourceError
from oracles import (digits_to_int, exp_weyl_bound_check, floor_multiples, kronecker_tables,
                     precision_budget_L)


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
@pytest.mark.parametrize("base", [2, 4, 8, 16, 256])
def test_make_point_in_base_two_to_the_j_matches_digit_oracle(base):
    # the bits are packed from bytes: lengths off a byte edge, leading zeros,
    # all-zero and all-top words, and integral float digits
    rng = np.random.default_rng(base)
    for n in (1, 2, 3, 5, 7, 8, 9, 15, 17, 63, 65, 1001, 30_011):
        words = [np.zeros(n, dtype=np.int64), np.full(n, base - 1, dtype=np.uint8),
                 rng.integers(0, base, n)]
        words.append(np.concatenate(([0] * min(n - 1, 9), words[-1][min(n - 1, 9):])))
        for word in words:
            want = digits_to_int([int(d) for d in word], base)
            x = make_point_from_digits(base, word)
            assert (x.precision, x.numerator) == (n, want)
            assert make_point_from_digits(base, word.astype(np.float64)).numerator == want
    for j in (9, 16, 63, 64, 65, 70):        # digits wider than a byte, and past a uint64
        base = 2 ** j
        word = [0, 2 ** min(j, 62) - 1, 1, 0, 5]
        assert make_point_from_digits(base, word).numerator == digits_to_int(word, base)


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


def test_digit_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        base = int(rng.integers(2, 11))
        L = int(rng.integers(1, 80))
        digits = [int(d) for d in rng.integers(0, base, L)]
        x = make_point_from_digits(base, digits)
        assert _int_to_digits(x.numerator, base, L).tolist() == digits


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
    assert x == UnitPoint(3, budget.L, one_shot)


def test_precision_budget_exact_ceiling():
    budget = PrecisionBudget.plan(3, 2, N_max=1000)
    core = budget.L - 64
    assert budget.guard_digits == 64
    assert 3 ** core >= 2 ** 1000 > 3 ** (core - 1)
    # one xb step consumes log_a b digits; budget linear in N_max
    assert PrecisionBudget.plan(3, 2, N_max=2000).L > budget.L


@pytest.mark.parametrize("a, b", [(3, 2), (2, 3), (10, 7), (2 ** 40 + 1, 3)])
@pytest.mark.parametrize("N_max", [1, 2, 53, 1000, 10 ** 5])
@pytest.mark.parametrize("guard", [0, 64])
def test_precision_budget_float_estimate_gives_the_exact_ceiling(a, b, N_max, guard):
    # the plan's core L - 64 is the exact ceiling: the oracle's at guard 0, and at 64 the full L
    plan = PrecisionBudget.plan(a, b, N_max)
    core, target = plan.L - plan.guard_digits, b ** N_max
    assert core >= 1 and a ** core >= target > a ** (core - 1)
    assert core + guard == precision_budget_L(a, b, N_max, guard)


def test_kronecker_schedule_log2_over_log3():
    nprime, z = kronecker_schedule(3, 2, N=1000)
    assert len(nprime) == len(z) == 1001 and nprime[0] == 0 and z[0] == 0.0
    mpmath.mp.prec = 200
    alpha_ref = mpmath.log(2) / mpmath.log(3)
    assert nprime[1] == 0 and abs(z[1] - float(alpha_ref)) < 1e-15
    # cross-check: 3**alpha == 2 at high precision
    assert abs(mpmath.mpf(3) ** alpha_ref - 2) < mpmath.mpf(2) ** -190
    assert nprime[2] == 1
    assert abs(z[2] - (2 * float(alpha_ref) - 1)) < 1e-15
    assert abs(z[2] - 0.2618595) < 1e-6


def test_kronecker_schedule_power_identity():
    # b^n = a^(n' + z_n) to within 2^(1-ALPHA_BITS) relative error
    nprime, z = kronecker_schedule(3, 2, N=400)
    mpmath.mp.prec = 300
    for n in (1, 7, 113, 400):
        lhs = mpmath.mpf(2) ** n
        rhs = mpmath.mpf(3) ** (int(nprime[n]) + mpmath.mpf(z[n]))
        # z is stored as float64, so the dominant error is 2^-53 * ln(3) * ...
        assert abs(lhs / rhs - 1) < 1e-14


def test_kronecker_schedule_dependent_flag():
    nprime, z = kronecker_schedule(2, 4, N=50)   # alpha = 2
    assert nprime[1] == 2
    assert np.all(z == 0.0)
    assert nprime[7] == 14
    nprime, z = kronecker_schedule(4, 8, N=50)   # alpha = 3/2
    assert nprime[3] == 4 and z[3] == 0.5
    assert multiplicatively_dependent(4, 8)
    assert not multiplicatively_dependent(6, 12)


def test_kronecker_floor_stability_across_precisions():
    nprime, _ = kronecker_schedule(3, 2, N=2000)
    assert ALPHA_BITS == 128
    nprime256, _ = kronecker_tables(3, 2, N=2000, float_bits=256)
    assert np.array_equal(nprime, nprime256)
    steps = np.diff(nprime)
    floor_alpha = math.floor(math.log(2) / math.log(3))
    assert set(np.unique(steps)) <= {floor_alpha, floor_alpha + 1}


@pytest.mark.parametrize("a,b,N,bits", [
    (3, 2, 8000, 128), (2, 3, 20_000, 128), (2, 10, 500, 128), (3, 2, 100_000, 128),
    (3, 2, 2000, 256), (2, 4, 50, 128), (4, 8, 50, 128)])
def test_kronecker_schedule_matches_step_loop(a, b, N, bits):
    got_nprime, got_z = kronecker_schedule(a, b, N)
    nprime, z = kronecker_tables(a, b, N, float_bits=bits)
    assert np.array_equal(got_nprime, nprime)
    assert got_nprime.dtype == np.int64
    _assert_z_matches(got_z, z, N, bits)


def _assert_z_matches(got, want, N, bits):
    """The same bytes as the step loop at ALPHA_BITS; at other precisions the
    two alphas differ by under 2^-min(bits, ALPHA_BITS), so each z agrees to
    float rounding plus N times that."""
    if bits == ALPHA_BITS:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(got - want)) <= 2.0 ** -53 + N * 2.0 ** -min(bits, ALPHA_BITS)


def test_kronecker_ambiguous_floor_names_first_n(monkeypatch):
    # scaled alpha = 2^126 + 1 puts alpha*4 at 4 * 2^-128 past an integer
    monkeypatch.setattr(mpmath, "floor", lambda v: mpmath.mpf(2 ** 126 + 1))
    for build in (kronecker_schedule, kronecker_tables):
        with pytest.raises(PrecisionError, match=r"alpha\*4 ambiguous at 128 bits$"):
            build(3, 2, 10)


def test_kronecker_ambiguous_floor_from_below(monkeypatch):
    # scaled alpha = 2^126 - 1 puts alpha*4 at 4 * 2^-128 below an integer
    monkeypatch.setattr(mpmath, "floor", lambda v: mpmath.mpf(2 ** 126 - 1))
    for build in (kronecker_schedule, kronecker_tables):
        with pytest.raises(PrecisionError, match=r"alpha\*4 ambiguous at 128 bits$"):
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


@pytest.mark.parametrize("bits", [110, 128, 130, 256])
@pytest.mark.parametrize("a,b,N", [(3, 2, 8000), (5, 7, 3000)])
def test_kronecker_tables_bytes_at_any_float_bits(a, b, N, bits):
    got_nprime, got_z = kronecker_schedule(a, b, N)
    nprime, z = kronecker_tables(a, b, N, float_bits=bits)
    # z < 2^-10: the remainder's top 64 bits hold fewer than 55 significant bits
    assert np.count_nonzero(z[1:] < 2.0 ** -10) >= 2
    assert got_nprime.tobytes() == nprime.tobytes()
    _assert_z_matches(got_z, z, N, bits)


@pytest.mark.parametrize("num,den,N", [
    (2 ** 40 + 3, 1, 10_000),                     # den = 1: the int64 route
    (10 ** 12 + 39, 3 ** 20, 10_000),             # den not a power of two
    (3 ** 40, 2 ** 53, 10_000),                   # num*N >= 2^64: limbs, 1-d remainder
    (2 ** 64 - 1, 2 ** 64, 1 << 16),              # a full-word remainder
    (3 ** 90 + 1, 2 ** 130, 5000),                # remainder as limbs, s not a multiple of 32
    (5, 2 ** 100, 100),                           # num*N far below den
])
def test_floor_multiples_matches_object_oracle(num, den, N):
    whole, rem = _floor_multiples(num, den, N)
    ref_whole, ref_rem = floor_multiples(num, den, N)
    assert whole.dtype == np.int64 and whole.tolist() == ref_whole.tolist()
    if rem.ndim == 2:
        s = den.bit_length() - 1
        assert len(rem) == -(-s // 32)
        rem = [sum(v << 32 * i for i, v in enumerate(col)) >> (-s % 32) for col in rem.T.tolist()]
    else:
        rem = rem.tolist()
    assert rem == ref_rem.tolist()


def test_floor_multiples_refuses_what_it_cannot_do_exactly():
    with pytest.raises(InputError, match="power of two"):
        _floor_multiples(3 ** 40, 3 ** 20, 10)
    with pytest.raises(ResourceError, match="floors < 2\\^63"):
        _floor_multiples(2 ** 62, 1, 2)


def test_limb_range_refused_before_any_allocation():
    import tracemalloc
    tracemalloc.start()
    try:
        for build in (lambda: _floor_multiples(3 ** 33, 2 ** 53, 2 ** 32),
                      lambda: kronecker_schedule(3, 2, 2 ** 32)):
            with pytest.raises(ResourceError, match="2\\^32"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_kronecker_alpha_gt_one_carries():
    nprime, _ = kronecker_schedule(2, 10, N=500)   # alpha = log10/log2 ~ 3.32
    alpha = math.log(10) / math.log(2)
    for n in (1, 2, 3, 499, 500):
        assert nprime[n] == math.floor(alpha * n)


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

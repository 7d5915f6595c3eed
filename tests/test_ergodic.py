import math
import tracemalloc

import numpy as np
import pytest

from hostlab.errors import InputError, ResourceError
from hostlab.ergodic import (
    DigitFunction,
    _conditional_table,
    _word_indices,
    character_on_digits,
    first_digit_indicator,
    first_digit_sign,
    martingale_avg_experiment,
    operationally_irrational,
    parity_window,
    time_change_joint_experiment,
)
from hostlab.measures import bernoulli, cantor3, markov, realize, sample_digits, uniform
from oracles import exp_weyl_bound_check, split_index_average, word_indices

MARKOV_P = [[0.9, 0.1], [0.5, 0.5]]
LOG23 = math.log(2) / math.log(3)


def test_constant_window_gives_exact_zero():
    f = DigitFunction(base=2, window=2, table=np.full(4, 0.7), label="const")
    vals = martingale_avg_experiment(uniform(2), f, N=500, trials=8, seed=5)
    assert np.max(np.abs(vals)) < 1e-15


def test_iid_sign_window_clt_scale():
    f = first_digit_sign(2)
    vals = martingale_avg_experiment(uniform(2), f, N=10_000, trials=100, seed=11)
    rms = float(np.sqrt(np.mean(vals ** 2)))
    # i.i.d. differences have variance 1/N
    assert 0.005 < rms < 0.02
    assert np.max(np.abs(vals)) < 0.05


def test_markov_window_rms_bound():
    f = parity_window(2, 2)
    vals = martingale_avg_experiment(markov(MARKOV_P), f, N=10_000, trials=60, seed=13)
    rms = float(np.sqrt(np.mean(vals ** 2)))
    assert rms <= 3.0 * f.sup / 100.0


def test_sqrt_law_when_n_quadruples():
    gen, f = markov(MARKOV_P), parity_window(2, 3)
    r1 = martingale_avg_experiment(gen, f, N=2_500, trials=100, seed=17)
    r4 = martingale_avg_experiment(gen, f, N=10_000, trials=100, seed=17)
    ratio = np.sqrt(np.mean(r4 ** 2) / np.mean(r1 ** 2))
    assert 1 / 3 <= ratio <= 0.75


def test_martingale_on_a_digit_set_measure():
    # digit sums over {0, 2} are even: f and its conditional mean are both 1
    vals = martingale_avg_experiment(cantor3(), parity_window(3, 3), N=500, trials=3, seed=1)
    assert np.array_equal(vals, np.zeros(3))


def test_iid_conditional_table_is_the_mean():
    for gen in (bernoulli(3, [0.2, 0.3, 0.5]), uniform(5), cantor3()):
        for f in [first_digit_sign(gen.base)] + [parity_window(gen.base, k) for k in (1, 2, 4)]:
            cond = _conditional_table(gen, f)
            assert np.all(cond == cond[0])
            assert abs(cond[0] - f.integral(gen).real) < 1e-15


@pytest.mark.parametrize("k", [1, 3, 7, 12, 15, 16])
def test_word_indices_equal_the_matmul_oracle(k):
    # Horner over shifted slices and the windowed matmul are exact integer sums;
    # 2^7 - 1 and 2^15 - 1 are the largest words of int8 and int16; 5^15 - 1 needs int64
    for gen, n in ((markov(MARKOV_P), 2003), (cantor3(), 500), (uniform(5), 37)):
        digits = sample_digits(gen, n, np.random.default_rng(k))
        got, want = _word_indices(digits, k, gen.base), word_indices(digits, k, gen.base)
        top = gen.base ** k - 1
        assert got.dtype.kind == "i" and np.iinfo(got.dtype).max >= top, (gen.base, k)
        assert got.itemsize == 1 or np.iinfo(f"i{got.itemsize // 2}").max < top  # the smallest
        assert got.shape == (n - k + 1,)
        assert np.array_equal(got, want), (gen.base, k)


def test_digit_function_keeps_real_tables_real():
    gen = markov(MARKOV_P)
    f = parity_window(2, 2)
    assert f.table.dtype == np.float64 and f.sup == 1.0
    assert f.integral(gen) == complex(np.dot(realize(gen, 2).weights, f.table))
    assert DigitFunction(base=2, window=1, table=[1, -3]).table.dtype == np.float64
    g = first_digit_indicator(2, 1)
    assert g.table.dtype == np.complex128 and g.sup == 1.0
    assert abs(g.integral(gen) - realize(gen, 1).weights[1]) < 1e-15
    with pytest.raises(InputError):
        DigitFunction(base=2, window=2, table=np.ones(3))


def test_split_index_average_exact_cases():
    full, recombined, _, _ = split_index_average(np.full(17, 2.5), 4)
    assert full == recombined == 2.5
    vals = np.array([(-1.0) ** n for n in range(1, 101)])
    full, recombined, class_means, sizes = split_index_average(vals, 2)
    assert sorted(class_means) == [-1.0, 1.0]
    assert full == recombined == 0.0
    rng = np.random.default_rng(23)
    vals = rng.normal(size=1000)
    full, recombined, _, _ = split_index_average(vals, 3)
    assert abs(full - recombined) < 1e-12


def test_time_change_total_mass_row():
    gen = markov(MARKOV_P)
    ones = DigitFunction(base=2, window=1, table=np.ones(2, complex), label="one")
    res = time_change_joint_experiment(LOG23, 1.0, gen, js=[0], gs=[ones],
                                       N=500, M=4, seed=3)
    assert abs(res.averages[0, 0] - 1.0) < 1e-12
    assert abs(res.expected[0, 0] - 1.0) < 1e-12


@pytest.mark.filterwarnings("error")
def test_time_change_z_score_is_nan_only_where_samples_agree():
    # the constant g has no spread, so no z-score; no divide warning either
    gen = markov(MARKOV_P)
    ones = DigitFunction(base=2, window=1, table=np.ones(2, complex), label="one")
    res = time_change_joint_experiment(LOG23, 1.0, gen, js=[0, 1],
                                       gs=[ones, first_digit_indicator(2)], N=500, M=4, seed=3)
    assert np.isnan(res.z_scores[:, 0]).all()
    assert np.isfinite(res.z_scores[:, 1]).all()


def test_time_change_rejects_rational_theta():
    gen = markov(MARKOV_P)
    ones = DigitFunction(base=2, window=1, table=np.ones(2, complex), label="one")
    with pytest.raises(InputError):
        time_change_joint_experiment(0.5, 1.0, gen, [1], [ones], 100, 2, seed=1)
    with pytest.raises(InputError):
        time_change_joint_experiment(LOG23, -1.0, gen, [1], [ones], 100, 2, seed=1)


def test_time_change_needs_two_samples_and_nonempty_sets():
    gen = markov(MARKOV_P)
    ones = DigitFunction(base=2, window=1, table=np.ones(2, complex), label="one")
    for js, gs, M in (([1], [ones], 1), ([], [ones], 2), ([1], [], 2)):
        with pytest.raises(InputError):
            time_change_joint_experiment(LOG23, 1.0, gen, js, gs, 100, M, seed=1)


def test_irrationality_gate():
    assert operationally_irrational(LOG23)
    assert not operationally_irrational(3.0 / 7.0)
    assert not operationally_irrational(0.25)


def test_one_point_system_reduces_to_geometric_sum():
    # g identically 1 makes A(j, g) the pure rotation average, whose modulus
    # matches the closed geometric form used by the rotation oracle
    gen = uniform(2)
    ones = DigitFunction(base=2, window=1, table=np.ones(2, complex), label="one")
    N = 1000
    res = time_change_joint_experiment(LOG23, 1.0, gen, js=[1], gs=[ones],
                                       N=N, M=2, seed=9)
    lhs, rhs = exp_weyl_bound_check(LOG23, 1, N)
    assert abs(abs(res.averages[0, 0]) * N - lhs) < 1e-8
    assert abs(res.averages[0, 0]) <= rhs / N + 1e-12


def test_invariant_marginal_recovered_at_j_zero():
    gen = markov(MARKOV_P)
    g = first_digit_indicator(2, 0)
    res = time_change_joint_experiment(LOG23, LOG23, gen, js=[0, 1], gs=[g],
                                       N=4000, M=60, seed=21)
    dev = res.deviations()
    assert dev[0, 0] <= res.tolerance          # A(0,g) near integral(g)
    assert dev[1, 0] <= res.tolerance          # A(1,g) near 0
    assert abs(res.expected[0, 0] - gen.pi[0]) < 1e-12


@pytest.mark.parametrize("digit", [-1, 2, 5])
def test_indicator_digit_outside_the_base_is_input_error(digit):
    with pytest.raises(InputError, match="outside 0..1"):
        first_digit_indicator(2, digit)


def test_character_table_over_budget_is_refused_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="weight-vector budget"):
            character_on_digits(2, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_character_function_integral_exact():
    gen = bernoulli(2, [0.3, 0.7])
    g = character_on_digits(2, 8, m=1)
    from hostlab.fourier import ft_adic
    from hostlab.measures import realize
    # integral of the truncated character equals the transform of the level-8
    # discretization restricted to cell left endpoints
    mu = realize(gen, 8)
    direct = np.dot(mu.weights, np.exp(2j * np.pi * np.arange(256) / 256))
    assert abs(g.integral(gen) - direct) < 1e-14

import math

import numpy as np
import pytest

from hostlab.adic import PrecisionBudget, kronecker_schedule, make_point_from_digits, mul_mod1
from hostlab.errors import InputError, NullCylinderError, PrecisionError, ResourceError
from hostlab.fourier import SmoothingParams, ft_adic_many, scaled_sq_integral
from hostlab.measures import (
    PastWord,
    bernoulli,
    cantor3,
    conditional_on_past,
    correlation_integral,
    markov,
    realize,
    sample_digits,
    uniform,
)
from hostlab.pipeline import (
    _CHUNK,
    HostExperimentConfig,
    _orbit_readouts,
    host_experiment,
    orbit_vs_conditional_compare,
    proof_chain_quantity,
    weyl_sum,
)
from hostlab.reports import derive_rng
from oracles import (
    compare_reference,
    direct_pushforward_transform,
    orbit_character_sums,
    orbit_readouts,
    proof_chain_monte_carlo,
    segment_character_sums,
)

MARKOV_P = [[0.9, 0.1], [0.5, 0.5]]


def test_weyl_fixed_point_is_one():
    x = make_point_from_digits(2, [0] * 200)
    w = weyl_sum(x, 2, freqs=(1, 2), checkpoints=(10, 50))
    assert w.shape == (2, 2) and np.allclose(w, 1.0)


def test_weyl_period_two_orbit():
    x = make_point_from_digits(3, [1] + [0] * 70)   # exactly 1/3
    w = weyl_sum(x, 2, freqs=(1,), checkpoints=(4, 8))
    assert np.max(np.abs(w - (-0.5))) < 1e-12


def test_weyl_rational_three_cycle():
    # 1/7 in base 2: repeating 001; N divisible by 3 averages the exact cycle
    digits = [0, 0, 1] * 1034
    x = make_point_from_digits(2, digits)
    w = weyl_sum(x, 2, freqs=(1,), checkpoints=(3000,))
    target = (np.exp(2j * np.pi / 7) + np.exp(4j * np.pi / 7) +
              np.exp(8j * np.pi / 7)) / 3
    assert abs(w[0, 0] - target) < 1e-9
    assert abs(target - (-1 + 1j * math.sqrt(7)) / 6) < 1e-12


def test_weyl_budget_enforced():
    x = make_point_from_digits(3, [1, 2, 0, 1])
    with pytest.raises(PrecisionError) as exc:
        weyl_sum(x, 2, freqs=(1,), checkpoints=(1000,))
    assert exc.value.diagnostics == dict(precision=4, budget=PrecisionBudget.plan(3, 2, 1000).L,
                                         N=1000)


def test_compare_budget_enforced():
    x = make_point_from_digits(3, [0, 2, 0, 2])
    with pytest.raises(PrecisionError) as exc:
        orbit_vs_conditional_compare(cantor3(), PastWord(3, (0,)), x, b=2, k=1, m=1, N=100)
    assert exc.value.diagnostics == dict(precision=4, needed=PrecisionBudget.plan(3, 2, 100).L + 1,
                                         N=100, k=1)


def test_weyl_input_validation():
    x = make_point_from_digits(2, [1] * 100)
    with pytest.raises(InputError):
        weyl_sum(x, 2, freqs=(0, 1), checkpoints=(10,))
    with pytest.raises(InputError):
        weyl_sum(x, 2, freqs=(1,), checkpoints=())


def test_weyl_conjugate_symmetry_and_bound():
    rng = np.random.default_rng(8)
    x = make_point_from_digits(3, sample_digits(cantor3(), 800, rng))
    w = weyl_sum(x, 2, freqs=(1, -1, 2), checkpoints=(1000, 100))
    assert np.all(np.abs(w) <= 1.0 + 1e-12)
    assert np.max(np.abs(w[:, 1] - np.conj(w[:, 0]))) < 1e-12
    # rows come back with the checkpoints ascending
    assert np.array_equal(w, weyl_sum(x, 2, freqs=(1, -1, 2), checkpoints=(100, 1000)))


def _budget_point(a, b, N, seed):
    L = PrecisionBudget.plan(a, b, N).L
    return make_point_from_digits(a, np.random.default_rng(seed).integers(0, a, L))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [2, 3, 5])
@pytest.mark.parametrize("b", [2, 3, 4, 5, 6, 10])
def test_orbit_readouts_match_per_step_loop(a, b):
    N = 2 * _CHUNK + 37                 # crosses two phase-segment edges
    x = _budget_point(a, b, N, seed=10 * a + b)
    got = _orbit_readouts(x.numerator, x.denominator, b, N)
    assert np.array_equal(got, orbit_readouts(x.numerator, x.denominator, b, N))


@pytest.mark.filterwarnings("error")
def test_orbit_readouts_edge_cases():
    zero = make_point_from_digits(3, [0] * 80)
    got = _orbit_readouts(0, zero.denominator, 2, 5)
    assert np.array_equal(got, np.zeros(5, dtype=np.uint64))
    for a, b in ((2, 2), (3, 3), (2, 4), (3, 2)):
        x = _budget_point(a, b, 1, seed=a * b)
        got = _orbit_readouts(x.numerator, x.denominator, b, 1)
        assert got.tolist() == orbit_readouts(x.numerator, x.denominator, b, 1)
    w = weyl_sum(zero, 2, freqs=(1, 2), checkpoints=(1, 3))
    assert np.array_equal(w, np.ones((2, 2)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a,b", [(3, 2), (2, 3), (2, 2)])
def test_weyl_averages_match_per_step_loop_across_chunk_boundary(a, b):
    cps = (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 2 * _CHUNK + 1)
    freqs = (1, -1, 2, 3, -37, 64, 99, 1000)     # powers by products: error O(|m| 2^-53)
    x = _budget_point(a, b, cps[-1], seed=a + 7 * b)
    w = weyl_sum(x, b, freqs=freqs, checkpoints=cps)
    want = orbit_character_sums(x.numerator, x.denominator, b, freqs, cps)
    assert np.max(np.abs(w - want)) < 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a,b", [(3, 2), (2, 3)])
def test_weyl_negative_frequency_is_the_exact_conjugate(a, b):
    cps = (_CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 1)
    x = _budget_point(a, b, cps[-1], seed=3 * a + b)
    w = weyl_sum(x, b, freqs=(1, -1, 2, -37, 3, -2, 37), checkpoints=cps)
    for pos, neg in ((0, 1), (2, 5), (6, 3)):
        assert w[:, neg].tobytes() == np.conj(w[:, pos]).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a,b", [(3, 2), (2, 3), (2, 2)])
def test_weyl_unit_frequencies_equal_the_per_pair_segment_sums_bit_for_bit(a, b):
    # one cis per point: at m = +-1 the angle and the pairwise segment sums
    # are those of the per-(m, n) form, so compare orbit averages keep every bit
    cps = (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 5 * _CHUNK + 3)
    x = _budget_point(a, b, cps[-1], seed=5 * a + b)
    freqs = (1, 2, -1, 3)
    w = weyl_sum(x, b, freqs=freqs, checkpoints=cps)
    r = _orbit_readouts(x.numerator, x.denominator, b, cps[-1])
    want = segment_character_sums(r, freqs, cps, _CHUNK)
    assert w[:, [0, 2]].tobytes() == want[:, [0, 2]].tobytes()
    assert np.max(np.abs(w - want)) < 1e-14


def test_weyl_rejects_repeated_checkpoints_and_frequencies():
    x = make_point_from_digits(2, [1, 0] * 150)
    with pytest.raises(InputError):
        weyl_sum(x, 2, freqs=(1,), checkpoints=(100, 100, 200))
    with pytest.raises(InputError):
        weyl_sum(x, 2, freqs=(1, 2, 1), checkpoints=(100,))
    with pytest.raises(InputError):
        HostExperimentConfig(gen=cantor3(), b=2, seed=1, checkpoints=(100, 100))
    with pytest.raises(InputError):
        HostExperimentConfig(gen=cantor3(), b=2, seed=1, freqs=(2, 2))


def test_host_experiment_labels_unsorted_checkpoints():
    kw = dict(gen=cantor3(), b=2, seed=5, samples=2, freqs=(1, 2))
    shuffled = host_experiment(HostExperimentConfig(checkpoints=(2000, 100), **kw))
    ordered = host_experiment(HostExperimentConfig(checkpoints=(100, 2000), **kw))
    assert HostExperimentConfig(checkpoints=(2000, 100), **kw).checkpoints == (100, 2000)
    assert shuffled.W.shape == (2, 2, 2)
    assert shuffled.W.tobytes() == ordered.W.tobytes()


def test_compare_rejects_zero_frequency():
    rng = np.random.default_rng(1)
    x = make_point_from_digits(3, sample_digits(cantor3(), 800, rng))
    with pytest.raises(InputError):
        orbit_vs_conditional_compare(cantor3(), PastWord(3, (0,)), x,
                                     b=2, k=1, m=0, N=50)


def test_compare_lebesgue_collapses():
    # uniform measure: every conditional transform is a sinc tail, so the
    # conditional average is tiny and the gap is essentially the orbit average
    gen = uniform(3)
    rng = np.random.default_rng(4)
    x = make_point_from_digits(3, sample_digits(gen, 1500, rng))
    res = orbit_vs_conditional_compare(gen, PastWord(3, (0,)), x,
                                       b=2, k=2, m=1, N=800)
    tail = 1.0 / (math.pi * 1 * 3 ** 2)
    assert abs(res.cond_avg) <= tail
    assert abs(res.gap - abs(res.orbit_avg)) <= tail


def test_compare_out_of_support_point():
    gen = cantor3()
    x = make_point_from_digits(3, [1] * 1500)
    with pytest.raises(NullCylinderError):
        orbit_vs_conditional_compare(gen, PastWord(3, (0,)), x, b=2, k=1, m=1, N=500)


def test_compare_support_check_reads_the_digits_before_n_prime():
    # n'(N) is 0 at N = 1, 1 at N = 2, 3 and 2 at N = 4 (a = 3, b = 2):
    # digit 1 at the second place leaves the support once n'(N) reaches it
    gen = cantor3()
    x = make_point_from_digits(3, [0, 1] + [2] * 300)
    for N in (1, 3):
        orbit_vs_conditional_compare(gen, PastWord(3, (0,)), x, b=2, k=0, m=1, N=N)
    with pytest.raises(NullCylinderError):
        orbit_vs_conditional_compare(gen, PastWord(3, (0,)), x, b=2, k=0, m=1, N=4)


def test_compare_iid_empty_past_matches_any_past():
    gen = cantor3()
    x = make_point_from_digits(3, sample_digits(gen, 400, np.random.default_rng(5)))
    want = orbit_vs_conditional_compare(gen, PastWord(3, (0,)), x, b=2, k=1, m=1, N=60)
    for symbols in ((), (2,)):
        assert orbit_vs_conditional_compare(gen, PastWord(3, symbols), x,
                                            b=2, k=1, m=1, N=60) == want


def test_compare_cantor_gap_small():
    gen = cantor3()
    rng = np.random.default_rng(12)
    x = make_point_from_digits(3, sample_digits(gen, 6700, rng))
    res = orbit_vs_conditional_compare(gen, PastWord(3, (0, 2, 0)), x,
                                       b=2, k=4, m=1, N=10_000)
    assert res.gap < 0.1
    # the bound chain: the averaged transform dominates its average modulus-wise
    assert abs(res.cond_avg) <= res.cond_abs_avg + 1e-15
    assert abs(res.orbit_avg) <= res.cond_abs_avg + res.gap + 1e-15


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["cantor3", "markov"])
@pytest.mark.parametrize("k", [0, 2, 4])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("N", [1, 1000, 4000])
def test_compare_matches_exact_phase_loop(kind, k, m, N):
    """Every field agrees with the per-step route (exact big-int cylinder
    phases, step-by-step orbit sums); N = 4000 crosses a phase-segment edge."""
    gen, b, past = ((cantor3(), 2, PastWord(3, (0,))) if kind == "cantor3"
                    else (markov(MARKOV_P), 3, PastWord(2, (1,))))
    a = gen.base
    L = PrecisionBudget.plan(a, b, N).L + k
    start = past.symbols[0] if kind == "markov" else None
    rng = np.random.default_rng(100 * k + m)
    x = make_point_from_digits(a, sample_digits(gen, L, rng, start=start))
    level = k + 6
    res = orbit_vs_conditional_compare(gen, past, x, b, k, m, N, level=level)
    want = compare_reference(gen, past, x, b, k, m, N, level)
    got = (res.orbit_avg, res.cond_avg, res.cond_abs_avg, res.gap)
    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12


@pytest.mark.parametrize("kind, k", [("cantor3", 10), ("cantor3", 12), ("markov", 12)])
def test_compare_past_the_weight_budget_matches_the_oracle(kind, k):
    """At compare's default level, k + 6 for cantor3 and k + 9 for the chain,
    cantor3 has 3^16 and 3^18 cells, over the 2^24 weight budget that compare
    once hit.  Every field agrees with the per-step route within the phase
    bound 4 |m| a^(k+1) 2^-53."""
    gen, b, past = ((cantor3(), 2, PastWord(3, (0,))) if kind == "cantor3"
                    else (markov(MARKOV_P), 3, PastWord(2, (1,))))
    a, m, N = gen.base, 1, 300
    level = k + (6 if kind == "cantor3" else 9)
    start = past.symbols[0] if kind == "markov" else None
    x = make_point_from_digits(a, sample_digits(gen, PrecisionBudget.plan(a, b, N).L + k,
                                                np.random.default_rng(k), start=start))
    res = orbit_vs_conditional_compare(gen, past, x, b, k, m, N)
    want = compare_reference(gen, past, x, b, k, m, N, level)
    got = (res.orbit_avg, res.cond_avg, res.cond_abs_avg, res.gap)
    bound = 4 * abs(m) * float(a) ** (k + 1) * 2.0 ** -53
    assert max(abs(g - w) for g, w in zip(got, want)) < bound


@pytest.mark.parametrize("kind", ["cantor3", "markov"])
def test_compare_orbit_avg_is_the_weyl_sum(kind):
    # compare and weyl_sum read one orbit kernel: the orbit average of
    # T_b^n T_a^k x is weyl_sum's W_N(m) at T_a^k x, bit for bit
    gen, b, past = ((cantor3(), 2, PastWord(3, (0,))) if kind == "cantor3"
                    else (markov(MARKOV_P), 3, PastWord(2, (1,))))
    a, k, m, N = gen.base, 2, 3, 2 * _CHUNK + 5
    start = past.symbols[0] if kind == "markov" else None
    x = make_point_from_digits(a, sample_digits(gen, PrecisionBudget.plan(a, b, N).L + k,
                                                np.random.default_rng(17), start=start))
    res = orbit_vs_conditional_compare(gen, past, x, b, k, m, N, level=k + 6)
    assert res.orbit_avg == weyl_sum(mul_mod1(x, a ** k), b, (m,), (N,))[0, 0]


def test_level_over_weight_budget_is_resource_error():
    # compare never builds the conditionals' weights, so a level over the
    # weight budget runs, and its limit is the cell width 3^-level staying a
    # normal float; proof-chain reads the weights and keeps the budget
    gen = cantor3()
    x = make_point_from_digits(3, sample_digits(gen, 200, np.random.default_rng(3)))
    for level in (30, 644):
        res = orbit_vs_conditional_compare(gen, PastWord(3, (0,)), x, b=2, k=0, m=1,
                                           N=50, level=level)
        assert np.isfinite(res.gap)
    with pytest.raises(PrecisionError, match="normal floats"):
        orbit_vs_conditional_compare(gen, PastWord(3, (0,)), x, b=2, k=0, m=1,
                                     N=50, level=645)
    with pytest.raises(ResourceError, match="weight-vector budget"):
        proof_chain_quantity(gen, k=0, m=1, level=30)


def test_compare_markov_empty_past_is_input_error():
    gen = markov(MARKOV_P)
    x = make_point_from_digits(2, sample_digits(gen, 200, np.random.default_rng(4)))
    with pytest.raises(InputError, match="nonempty past"):
        orbit_vs_conditional_compare(gen, PastWord(2, ()), x, b=3, k=0, m=1, N=50)


def test_one_conditional_per_distinct_law(monkeypatch):
    # every past gives cantor3 one conditional law, which compare transforms
    # in one call and proof-chain evaluates once; the chain has one per state
    from hostlab import pipeline
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, wrapper)

    counted("ft_adic_many", ft_adic_many)
    counted("_lag_weights", pipeline._lag_weights)
    for gen, b, past, laws in ((cantor3(), 2, PastWord(3, (0,)), 1),
                               (markov(MARKOV_P), 3, PastWord(2, (1,)), 2)):
        counts.clear()
        x = make_point_from_digits(gen.base, sample_digits(gen, 400, np.random.default_rng(6),
                                                           start=past.symbols[0]))
        orbit_vs_conditional_compare(gen, past, x, b=b, k=1, m=1, N=100)
        proof_chain_quantity(gen, k=2, m=1, level=8)
        assert counts == {"ft_adic_many": laws, "_lag_weights": laws}


def test_lifting_identity_direct_vs_schedule():
    """The n-step pushforward transform equals the scaled conditional
    transform times the exact cylinder phase; moduli agree on their own."""
    b = 2
    for gen, past in ((cantor3(), PastWord(3, (0,))),
                      (markov(MARKOV_P), PastWord(2, (1,)))):
        a = gen.base
        rng = np.random.default_rng(a)
        start = past.symbols[0] if gen.kind == "markov" else None
        xdig = list(sample_digits(gen, 64, rng, start=start))
        nprime, zs = kronecker_schedule(a, b, 30)
        for n in (1, 5, 17, 30):
            for m in (1, 2, 3, 4):
                npr = int(nprime[n])
                z = zs[n]
                direct = direct_pushforward_transform(
                    gen, past, xdig, npr, k=2, b=b, n=n, m=m, depth=6)
                prefix = xdig[:npr]
                mu = conditional_on_past(gen, past.extended_by(prefix), 6) \
                    if npr else conditional_on_past(gen, past, 6)
                xi = m * float(a) ** (2 + z)
                route = complex(ft_adic_many(mu, np.array([xi]))[0])
                K = 0
                for d in prefix:
                    K = K * a + d
                den = a ** npr
                phase = np.exp(2j * np.pi *
                               ((m * a ** 2 * (b ** n % den) * K) % den) / den)
                assert abs(direct - phase * route) < 3e-3
                assert abs(abs(direct) - abs(route)) < 3e-3


def test_proof_chain_uniform_closed_form_bound():
    gen = uniform(3)
    est = proof_chain_quantity(gen, k=2, m=1, level=8)
    a = 3
    assert est.value <= est.rhs
    assert est.rhs <= 1.0 / (a ** 1 * math.log(a)) + 2.0 * a ** -1.0
    assert est.value <= 1.0 + 1e-9


def test_proof_chain_k_zero_matches_plain_integral():
    gen = cantor3()
    est = proof_chain_quantity(gen, k=0, m=1, level=9)
    mu = realize(gen, 9)
    plain = scaled_sq_integral(mu, SmoothingParams(b_scale=3.0, m=1, r=1.0))
    assert abs(est.value - plain) < 1e-9
    assert est.value <= est.rhs + 1e-4


def test_proof_chain_decay_and_refusals():
    gen = cantor3()
    e0 = proof_chain_quantity(gen, k=0, m=1, level=9)
    e4 = proof_chain_quantity(gen, k=4, m=1, level=9)
    assert e4.value < e0.value
    with pytest.raises(InputError):
        proof_chain_quantity(bernoulli(2, [1.0, 0.0]), k=2, m=1, level=8)
    with pytest.raises(InputError):
        proof_chain_quantity(gen, k=0, m=0, level=9)


def test_proof_chain_runs_past_k6():
    gen = cantor3()
    e6, e8 = (proof_chain_quantity(gen, k=k, m=1) for k in (6, 8))
    assert e8.level == 9
    assert e8.value <= e8.rhs + 1e-4
    assert e8.value < e6.value


# a 3-state chain whose state 2 has pi = 0: its row never enters the average
ZERO_PI_P, ZERO_PI = [[0.5, 0.5, 0.0], [0.2, 0.8, 0.0], [0.3, 0.3, 0.4]], [2 / 7, 5 / 7, 0.0]


@pytest.mark.parametrize("gen", [markov(MARKOV_P), markov(ZERO_PI_P, ZERO_PI)],
                         ids=["2-state", "3-state-zero-pi"])
@pytest.mark.parametrize("k", [0, 2, 5])
def test_proof_chain_markov_is_the_exact_past_average(gen, k):
    # value = sum_s pi_s lhs(s) and corr_term = sum_s pi_s corr(s), each
    # conditional built here from the last symbol alone
    a, level = gen.base, 9
    conds = [conditional_on_past(gen, PastWord(a, (s,)), level) for s in range(a)]
    lhs = [scaled_sq_integral(mu, SmoothingParams(b_scale=float(a), m=1, r=1.0),
                              prescale=float(a) ** k) for mu in conds]
    corr = [correlation_integral(mu, float(a) ** (-k / 2.0)) for mu in conds]
    est = proof_chain_quantity(gen, k=k, m=1, level=level)
    assert est.value == pytest.approx(float(np.dot(gen.pi, lhs)), rel=1e-15, abs=0.0)
    assert est.corr_term == pytest.approx(float(np.dot(gen.pi, corr)), rel=1e-15, abs=0.0)
    assert len(set(lhs)) == a               # every state's conditional differs
    assert est.value <= est.rhs + 1e-4


def test_proof_chain_markov_agrees_with_sampled_pasts():
    gen, k, level = markov(MARKOV_P), 2, 9
    mean, se = proof_chain_monte_carlo(gen, k=k, m=1, level=level, samples=400, seed=11)
    est = proof_chain_quantity(gen, k=k, m=1, level=level)
    assert se > 0.0
    assert abs(est.value - mean) <= 4.0 * se


def test_host_experiment_small_run_deterministic():
    cfg = HostExperimentConfig(gen=cantor3(), b=2, seed=42, samples=4,
                               checkpoints=(200, 2000), freqs=(1,))
    rep1 = host_experiment(cfg)
    rep2 = host_experiment(cfg)
    assert rep1.W.tobytes() == rep2.W.tobytes()
    assert not rep1.negative_control
    assert rep1.W.shape == (4, 2, 1)
    assert np.all(np.abs(rep1.W) <= 1.0 + 1e-12)


@pytest.mark.parametrize("gen, b, k", [(cantor3(), 2, 0), (markov(MARKOV_P), 3, 2)],
                         ids=["cantor3-x2", "markov-x3-k2"])
def test_host_experiment_sample_i_is_the_point_from_derive_rng_seed_i(gen, b, k):
    cfg = HostExperimentConfig(gen=gen, b=b, seed=13, samples=3, checkpoints=(500, 50),
                               freqs=(2, -1), k=k)
    W = host_experiment(cfg).W
    assert W.shape == (3, 2, 2)
    L = PrecisionBudget.plan(gen.base, b, 500).L + k
    for i in range(3):
        x = make_point_from_digits(gen.base, sample_digits(gen, L, derive_rng(13, i)))
        if k:
            x = mul_mod1(x, gen.base ** k)
        assert W[i].tobytes() == weyl_sum(x, b, (2, -1), (50, 500)).tobytes()


def test_host_experiment_gates():
    with pytest.raises(InputError):
        host_experiment(HostExperimentConfig(
            gen=bernoulli(2, [1.0, 0.0]), b=3, seed=1, samples=2,
            checkpoints=(100,), freqs=(1,)))
    rep = host_experiment(HostExperimentConfig(
        gen=bernoulli(2, [0.25, 0.75]), b=4, seed=3, samples=2,
        checkpoints=(100,), freqs=(1,)))
    assert rep.negative_control
    with pytest.raises(InputError, match="k = -1"):
        host_experiment(HostExperimentConfig(gen=cantor3(), b=2, seed=1, samples=1,
                                             checkpoints=(100,), k=-1))

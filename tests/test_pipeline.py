import math

import numpy as np
import pytest

from hostlab.adic import PrecisionBudget, kronecker_schedule, make_point_from_digits
from hostlab.errors import InputError, NullCylinderError, PrecisionError, ResourceError
from hostlab.fourier import SmoothingParams, ft_adic_many, scaled_sq_integral
from hostlab.measures import (
    PastWord,
    bernoulli,
    cantor3,
    conditional_on_past,
    markov,
    realize,
    sample_digits,
    uniform,
)
from hostlab.pipeline import (
    _CHUNK,
    HostExperimentConfig,
    _orbit_readout_chunks,
    host_experiment,
    orbit_vs_conditional_compare,
    proof_chain_quantity,
    weyl_sum,
)
from oracles import (
    compare_reference,
    direct_pushforward_transform,
    orbit_character_sums,
    orbit_readouts,
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
    with pytest.raises(PrecisionError):
        weyl_sum(x, 2, freqs=(1,), checkpoints=(1000,))


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
    N = 2 * _CHUNK + 37                 # two carries between blocks
    x = _budget_point(a, b, N, seed=10 * a + b)
    got = np.concatenate(list(_orbit_readout_chunks(x.numerator, x.denominator, b, N)))
    assert np.array_equal(got, orbit_readouts(x.numerator, x.denominator, b, N))


@pytest.mark.filterwarnings("error")
def test_orbit_readouts_edge_cases():
    zero = make_point_from_digits(3, [0] * 80)
    got = np.concatenate(list(_orbit_readout_chunks(0, zero.denominator, 2, 5)))
    assert np.array_equal(got, np.zeros(5, dtype=np.uint64))
    for a, b in ((2, 2), (3, 3), (2, 4), (3, 2)):
        x = _budget_point(a, b, 1, seed=a * b)
        got = np.concatenate(list(_orbit_readout_chunks(x.numerator, x.denominator, b, 1)))
        assert got.tolist() == orbit_readouts(x.numerator, x.denominator, b, 1)
    w = weyl_sum(zero, 2, freqs=(1, 2), checkpoints=(1, 3))
    assert np.array_equal(w, np.ones((2, 2)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a,b", [(3, 2), (2, 3), (2, 2)])
def test_weyl_averages_match_per_step_loop_across_chunk_boundary(a, b):
    cps = (1, _CHUNK - 1, _CHUNK, _CHUNK + 1)
    freqs = (1, -2, 3)
    x = _budget_point(a, b, cps[-1], seed=a + 7 * b)
    w = weyl_sum(x, b, freqs=freqs, checkpoints=cps)
    want = orbit_character_sums(x.numerator, x.denominator, b, freqs, cps)
    assert np.max(np.abs(w - want)) < 1e-12


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
    assert shuffled.rows == ordered.rows
    assert shuffled.medians == ordered.medians


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
    phases, step-by-step orbit sums); N = 4000 crosses a read-out block."""
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


def test_level_over_weight_budget_is_resource_error():
    gen = cantor3()
    x = make_point_from_digits(3, sample_digits(gen, 200, np.random.default_rng(3)))
    with pytest.raises(ResourceError, match="weight-vector budget"):
        orbit_vs_conditional_compare(gen, PastWord(3, (0,)), x, b=2, k=0, m=1,
                                     N=50, level=30)
    with pytest.raises(ResourceError, match="weight-vector budget"):
        proof_chain_quantity(gen, b=2, k=0, m=1, samples=2, level=30, seed=1)


def test_compare_markov_empty_past_is_input_error():
    gen = markov(MARKOV_P)
    x = make_point_from_digits(2, sample_digits(gen, 200, np.random.default_rng(4)))
    with pytest.raises(InputError, match="nonempty past"):
        orbit_vs_conditional_compare(gen, PastWord(2, ()), x, b=3, k=0, m=1, N=50)


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
    est = proof_chain_quantity(gen, b=2, k=2, m=1, samples=4, level=8, seed=5)
    a = 3
    assert est.value <= est.rhs
    assert est.rhs <= 1.0 / (a ** 1 * math.log(a)) + 2.0 * a ** -1.0
    assert est.value <= 1.0 + 1e-9


def test_proof_chain_k_zero_matches_plain_integral():
    gen = cantor3()
    est = proof_chain_quantity(gen, b=2, k=0, m=1, samples=3, level=9, seed=2)
    mu = realize(gen, 9)
    plain = scaled_sq_integral(mu, SmoothingParams(b_scale=3.0, m=1, r=1.0))
    assert abs(est.value - plain) < 1e-9
    assert est.std_error == 0.0            # conditionals ignore the past
    assert est.value <= est.rhs + 1e-4


def test_proof_chain_decay_and_refusals():
    gen = cantor3()
    e0 = proof_chain_quantity(gen, b=2, k=0, m=1, samples=3, level=9, seed=2)
    e4 = proof_chain_quantity(gen, b=2, k=4, m=1, samples=3, level=9, seed=2)
    assert e4.value < e0.value
    with pytest.raises(InputError):
        proof_chain_quantity(bernoulli(2, [1.0, 0.0]), b=3, k=2, m=1,
                             samples=2, level=8, seed=1)
    with pytest.raises(InputError):
        proof_chain_quantity(gen, b=2, k=0, m=0, samples=2, level=9, seed=1)


def test_proof_chain_runs_past_k6():
    gen = cantor3()
    e6, e8 = (proof_chain_quantity(gen, b=2, k=k, m=1, samples=3, seed=2) for k in (6, 8))
    assert e8.level == 9
    assert e8.value <= e8.rhs + 1e-4
    assert e8.value < e6.value


def test_proof_chain_markov_samples_vary():
    gen = markov(MARKOV_P)
    est = proof_chain_quantity(gen, b=3, k=2, m=1, samples=24, level=10, seed=7)
    assert est.value <= est.rhs + 1e-4
    assert est.std_error >= 0.0


def test_host_experiment_small_run_deterministic():
    cfg = HostExperimentConfig(gen=cantor3(), b=2, seed=42, samples=4,
                               checkpoints=(200, 2000), freqs=(1,))
    rep1 = host_experiment(cfg)
    rep2 = host_experiment(cfg)
    assert rep1.rows == rep2.rows
    assert not rep1.negative_control
    assert len(rep1.rows) == 4 * 2 * 1
    assert all(r[5] <= 1.0 + 1e-12 for r in rep1.rows)
    assert rep1.seed_keys == [[42, i] for i in range(4)]


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

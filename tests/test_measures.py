import numpy as np
import pytest

from hostlab.errors import (
    InputError,
    NullCylinderError,
    ResolutionError,
    ResourceError,
)
from hostlab.measures import (
    _SCAN_ENTRIES,
    AdicMeasure,
    PastWord,
    bernoulli,
    cantor3,
    conditional_on_past,
    correlation_integral,
    cylinder_condition,
    entropy,
    equivariance_gap,
    markov,
    realize,
    sample_digits,
    sample_past,
    shift_push,
    uniform,
    verify_equivariance,
    word,
)
from oracles import brute_correlation, coarsen, markov_digits, refine

MARKOV_P = [[0.9, 0.1], [0.5, 0.5]]


def test_realize_uniform_is_lebesgue():
    mu = realize(uniform(2), 3)
    assert np.allclose(mu.weights, 1 / 8)


def test_realize_cantor_cylinders():
    mu = realize(cantor3(), 2)
    expect = np.zeros(9)
    for w in ((0, 0), (0, 2), (2, 0), (2, 2)):
        expect[w[0] * 3 + w[1]] = 0.25
    assert np.array_equal(mu.weights, expect)


def test_realize_markov_hand_value():
    gen = markov(MARKOV_P)
    assert np.allclose(gen.pi, [5 / 6, 1 / 6], atol=1e-12)
    mu = realize(gen, 2)
    assert abs(mu.weights[0] - 0.75) < 1e-12          # word 00: 5/6 * 0.9
    assert abs(mu.weights[1] - 5 / 60) < 1e-12        # word 01: 5/6 * 0.1


def test_realize_budget():
    with pytest.raises(ResourceError):
        realize(uniform(2), 25)


def test_cylinder_condition_self_similarity():
    mu = realize(uniform(2), 5)
    out = cylinder_condition(mu, word(2, [1, 0]))
    assert np.allclose(out.weights, realize(uniform(2), 3).weights)

    cm = realize(cantor3(), 5)
    out = cylinder_condition(cm, word(3, [0]))
    assert np.allclose(out.weights, realize(cantor3(), 4).weights)


def test_cylinder_condition_markov_marginal():
    gen = markov(MARKOV_P)
    out = cylinder_condition(realize(gen, 4), word(2, [0]))
    first = out.weights.reshape(2, -1).sum(axis=1)
    assert np.allclose(first, [0.9, 0.1])


def test_cylinder_condition_null_atom():
    with pytest.raises(NullCylinderError):
        cylinder_condition(realize(cantor3(), 4), word(3, [1]))


def test_conditional_on_past():
    gen = bernoulli(2, [0.3, 0.7])
    past = PastWord(2, (1, 0, 1))
    assert np.allclose(conditional_on_past(gen, past, 3).weights,
                       realize(gen, 3).weights)

    mgen = markov(MARKOV_P)
    out = conditional_on_past(mgen, PastWord(2, (1,)), 1)
    assert np.allclose(out.weights, [0.5, 0.5])
    with pytest.raises(InputError):
        conditional_on_past(mgen, PastWord(2, ()), 2)

    assert np.allclose(conditional_on_past(cantor3(), PastWord(3, (2,)), 2).weights,
                       realize(cantor3(), 2).weights)


def test_shift_push_examples():
    assert np.allclose(shift_push(realize(uniform(2), 3), 1).weights, 0.25)
    assert np.allclose(shift_push(realize(cantor3(), 2), 1).weights,
                       realize(cantor3(), 1).weights)
    point = AdicMeasure(base=2, level=2, weights=[0.0, 1.0, 0.0, 0.0])  # cylinder 01
    pushed = shift_push(point, 1)
    assert np.array_equal(pushed.weights, [0.0, 1.0])
    with pytest.raises(InputError):
        shift_push(point, 3)


def test_invariance_under_shift():
    for gen in (uniform(3), bernoulli(2, [0.3, 0.7]), markov(MARKOV_P), cantor3()):
        hi = realize(gen, 5)
        lo = realize(gen, 4)
        assert np.max(np.abs(shift_push(hi, 1).weights - lo.weights)) < 1e-12


def test_refinement_consistency():
    for gen in (bernoulli(2, [0.3, 0.7]), markov(MARKOV_P), cantor3()):
        hi = realize(gen, 5)
        lo = realize(gen, 4)
        assert np.max(np.abs(coarsen(hi).weights - lo.weights)) < 1e-14


def test_refine_then_coarsen_is_identity():
    rng = np.random.default_rng(2)
    w = rng.random(27)
    w /= w.sum()
    mu = AdicMeasure(base=3, level=3, weights=w)
    back = coarsen(refine(mu, 2), 2)
    assert np.max(np.abs(back.weights - mu.weights)) < 1e-15


def test_entropy_values():
    assert abs(entropy(bernoulli(2, [0.5, 0.5])) - np.log(2)) < 1e-15
    assert entropy(bernoulli(2, [1.0, 0.0])) == 0.0
    assert abs(entropy(cantor3()) - np.log(2)) < 1e-15
    gen = markov(MARKOV_P)
    pi = gen.pi
    hrow = [-(0.9 * np.log(0.9) + 0.1 * np.log(0.1)),
            -(0.5 * np.log(0.5) + 0.5 * np.log(0.5))]
    assert abs(entropy(gen) - (pi[0] * hrow[0] + pi[1] * hrow[1])) < 1e-14


def test_correlation_uniform_closed_form():
    mu = realize(uniform(2), 10)
    for r in (0.05, 0.1, 0.25):
        assert abs(correlation_integral(mu, r) - (2 * r - r * r)) < 1e-12


def test_correlation_point_mass_and_saturation():
    w = np.zeros(81)
    w[17] = 1.0
    mu = AdicMeasure(base=3, level=4, weights=w)
    assert correlation_integral(mu, 1.0) == 1.0
    # a ball wider than the support sees all the mass
    assert abs(correlation_integral(mu, 0.5) - 1.0) < 1e-12


def test_correlation_guard_and_monotonicity():
    mu = realize(cantor3(), 8)
    with pytest.raises(ResolutionError):
        correlation_integral(mu, 16.0 * 3.0 ** -8 * 0.9)
    rs = [0.01, 0.03, 0.1, 0.3, 1.0]
    vals = [correlation_integral(mu, r) for r in rs]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 1.0


def test_correlation_against_brute_force():
    rng = np.random.default_rng(42)
    for base, level in ((2, 7), (3, 5)):
        w = rng.random(base ** level)
        w /= w.sum()
        mu = AdicMeasure(base=base, level=level, weights=w)
        for r in (20 * mu.cell_width, 0.2, 0.7):
            assert abs(correlation_integral(mu, r) - brute_correlation(mu, r)) < 1e-10


def test_correlation_cantor_log_slope():
    # correlation dimension of the digit-set measure: log 2 / log 3
    mu = realize(cantor3(), 10)
    js = np.arange(2, 6)
    vals = [correlation_integral(mu, 3.0 ** -j) for j in js]
    slope = np.polyfit(-js * np.log(3.0), np.log(vals), 1)[0]
    assert abs(slope - np.log(2) / np.log(3)) < 0.05


def test_equivariance_examples():
    gen = bernoulli(2, [0.3, 0.7])
    assert verify_equivariance(gen, PastWord(2, (0, 1)), word(2, [1, 1, 0]), 6)
    mgen = markov(MARKOV_P)
    assert verify_equivariance(mgen, PastWord(2, (0,)), word(2, [1]), 6)
    with pytest.raises(NullCylinderError):
        verify_equivariance(cantor3(), PastWord(3, (0,)), word(3, [1]), 5)


def test_equivariance_gap_is_the_verified_quantity():
    gen, past, w = markov(MARKOV_P), PastWord(2, (1, 0)), word(2, [0, 1])
    lhs = cylinder_condition(conditional_on_past(gen, past, 7), w)
    rhs = conditional_on_past(gen, past.extended_by(w.digits), 5)
    gap = equivariance_gap(gen, past, w, 7)
    assert gap == float(np.max(np.abs(lhs.weights - rhs.weights))) <= 1e-12
    assert verify_equivariance(gen, past, w, 7, tol=gap)
    with pytest.raises(InputError):
        equivariance_gap(gen, past, w, 2)


def test_equivariance_random_battery():
    rng = np.random.default_rng(9)
    gens = [bernoulli(2, [0.3, 0.7]), markov(MARKOV_P), cantor3()]
    for gen in gens:
        for _ in range(30):
            past = sample_past(gen, int(rng.integers(1, 6)), rng)
            wlen = int(rng.integers(1, 4))
            digits = sample_digits(gen, wlen, rng,
                                   start=past.symbols[0] if gen.kind == "markov" else None)
            N = wlen + int(rng.integers(2, 5))
            assert verify_equivariance(gen, past, word(gen.base, digits), N)


def test_disintegration_consistency_three_sigma():
    gen = markov(MARKOV_P)
    rng = np.random.default_rng(1234)
    M, n = 10_000, 3
    target = realize(gen, n).weights
    acc = np.zeros_like(target)
    for _ in range(M):
        past = sample_past(gen, 1, rng)
        acc += conditional_on_past(gen, past, n).weights
    tv = 0.5 * np.abs(acc / M - target).sum()
    mu0 = conditional_on_past(gen, PastWord(2, (0,)), n).weights
    mu1 = conditional_on_past(gen, PastWord(2, (1,)), n).weights
    tv01 = 0.5 * np.abs(mu0 - mu1).sum()
    pi = gen.pi
    bound = 3.0 * np.sqrt(pi[0] * pi[1] / M) * tv01
    assert tv <= bound


def test_sampling_matches_marginals():
    rng = np.random.default_rng(77)
    gen = markov(MARKOV_P)
    digits = sample_digits(gen, 40_000, rng)
    freq = np.bincount(digits, minlength=2) / len(digits)
    assert np.max(np.abs(freq - gen.pi)) < 0.01
    cd = sample_digits(cantor3(), 1000, rng)
    assert set(np.unique(cd)) <= {0, 2}


# One chain per base, each with zero entries, a deterministic row 0 and a
# row 1 that sums to 1 - 5e-13, so its cumsum ends below 1.0.
SHORT = 5e-13
SCAN_CHAINS = {
    2: [[0.0, 1.0], [0.4, 0.6 - SHORT]],
    3: [[0.0, 1.0, 0.0], [0.3, 0.0, 0.7 - SHORT], [0.25, 0.25, 0.5]],
    5: [[0.0, 0.0, 1.0, 0.0, 0.0], [0.2, 0.2, 0.2, 0.2, 0.2 - SHORT],
        [0.5, 0.0, 0.0, 0.0, 0.5], [0.1, 0.2, 0.3, 0.4, 0.0],
        [0.0, 0.25, 0.25, 0.25, 0.25]],
}
TOP = 1.0 - 2.0 ** -53      # the largest double below 1


class TopHeavyRng:
    """A Generator whose every 5th array uniform is TOP: above the end of
    a cumsum row that sums short of 1.0, so the a - 1 clamp is taken."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, size=None):
        u = self._rng.random(size)
        if size is not None:
            u[::5] = TOP
        return u


class ConstRng:
    """Every uniform is `value`."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)


def _scan_sizes():
    for k, r in ((0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (3, 7)):
        label = str(r) if k == 0 else f"{'' if k == 1 else k}c{r:+d}"
        yield pytest.param(k, r, id=f"n={label}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rng_kind", ["generator", "top-heavy"])
@pytest.mark.parametrize("k,r", _scan_sizes())
@pytest.mark.parametrize("a", [2, 3, 5])
def test_markov_scan_matches_loop(a, k, r, rng_kind):
    gen = markov(SCAN_CHAINS[a])
    assert np.cumsum(gen.P, axis=1)[1, -1] < TOP
    n = k * max(1, _SCAN_ENTRIES // a) + r
    make = np.random.default_rng if rng_kind == "generator" else TopHeavyRng
    for start in (None, *range(a)):
        rng, ref_rng = make(100 * a + n), make(100 * a + n)
        got = sample_digits(gen, n, rng, start=start)
        want = markov_digits(gen, n, ref_rng, start=start)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), (start, np.flatnonzero(got != want)[:5])
        assert rng.random() == ref_rng.random()
        if rng_kind == "top-heavy" and start == 1:
            assert got[0] == a - 1      # TOP from the short row: clamped


def test_stationary_start_draw_is_clamped():
    gen0 = markov(MARKOV_P)
    gen = markov(MARKOV_P, pi=gen0.pi * (1 - 1e-13))
    assert np.cumsum(gen.pi)[-1] < 1 - 5e-14
    got = sample_digits(gen, 4, ConstRng(1 - 5e-14))
    assert np.array_equal(got, markov_digits(gen, 4, ConstRng(1 - 5e-14)))
    assert np.array_equal(got, [1, 1, 1, 1])


def test_markov_start_out_of_range_is_input_error():
    gen = markov(MARKOV_P)
    rng = np.random.default_rng(0)
    for start in (-1, 2):
        with pytest.raises(InputError):
            sample_digits(gen, 5, rng, start=start)


def test_generator_validation():
    with pytest.raises(InputError):
        bernoulli(2, [0.6, 0.6])
    with pytest.raises(InputError):
        markov([[0.5, 0.5], [0.7, 0.2]])
    with pytest.raises(InputError):
        markov(MARKOV_P, pi=[0.5, 0.5])
    with pytest.raises(InputError):
        bernoulli(2, [-0.1, 1.1])

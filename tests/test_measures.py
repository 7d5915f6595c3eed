import itertools

import numpy as np
import pytest

from hostlab.errors import (
    InputError,
    NullCylinderError,
    PrecisionError,
    ResolutionError,
    ResourceError,
)
from hostlab.fourier import default_measure_battery
from hostlab.measures import (
    AdicMeasure,
    PastWord,
    _scan,
    bernoulli,
    cantor3,
    conditional_on_past,
    correlation_integral,
    cylinder_condition,
    entropy,
    equivariance_gap,
    ifs_digits,
    markov,
    realize,
    sample_digits,
    sample_past,
    shift_push,
    uniform,
    word,
)
from oracles import brute_correlation, coarsen, markov_digits, product_weights, refine

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
    # the budget binds where the weight vector is built, not at construction
    mu = realize(uniform(2), 25)
    with pytest.raises(ResourceError, match="weight-vector budget"):
        mu.weights


def test_lazy_chain_weights_equal_word_enumeration():
    # w_(d_1 ... d_6) = init[d_1] P[d_1, d_2] ... P[d_5, d_6], multiplied left
    # to right, for the stationary start and a start row of P
    gen = markov([[0.5, 0.3, 0.2], [0.0, 0.6, 0.4], [0.7, 0.0, 0.3]])
    for mu in (realize(gen, 6), conditional_on_past(gen, PastWord(3, (2,)), 6)):
        init, P = mu.structure
        want = []
        for digits in itertools.product(range(3), repeat=6):
            w = init[digits[0]]
            for s, d in zip(digits, digits[1:]):
                w = w * P[s, d]
            want.append(w)
        assert "weights" not in vars(mu)
        assert np.array_equal(mu.weights, want)
        assert mu.weights is mu.weights              # built once, then kept
        assert not mu.weights.flags.writeable


def test_measure_takes_weights_or_structure():
    mu = realize(uniform(2), 2)
    for kwargs in ({}, {"weights": mu.weights, "structure": mu.structure}):
        with pytest.raises(InputError, match="one, not both"):
            AdicMeasure(base=2, level=2, **kwargs)


def test_chain_level_past_the_normal_floats_is_precision_error():
    # a^level > 2^1022 would make the cell width a^-level subnormal
    assert realize(uniform(2), 1022).cell_width == 2.0 ** -1022
    assert conditional_on_past(cantor3(), PastWord(3, (0,)), 644).level == 644
    with pytest.raises(PrecisionError, match="normal floats") as exc:
        realize(uniform(2), 1023)
    assert exc.value.diagnostics == dict(base=2, level=1023)
    with pytest.raises(PrecisionError, match="normal floats"):
        conditional_on_past(cantor3(), PastWord(3, (0,)), 645)     # 3^645 > 2^1022


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


def test_cylinder_condition_full_length_word_is_one_atom():
    # a word as long as the level leaves one cell, of mass exactly 1.0
    mu = realize(markov(MARKOV_P), 4)
    for digits in ([0, 0, 0, 0], [1, 0, 1, 1]):
        out = cylinder_condition(mu, word(2, digits))
        assert out.level == 0 and out.weights.tolist() == [1.0]
    with pytest.raises(NullCylinderError):
        cylinder_condition(realize(cantor3(), 4), word(3, [0, 2, 1, 0]))


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


IID_GENS = [uniform(3), bernoulli(2, [0.3, 0.7]), cantor3()]


@pytest.mark.parametrize("gen", IID_GENS, ids=["uniform3", "bernoulli", "cantor3"])
def test_iid_realize_is_the_outer_product_bit_for_bit(gen):
    for n in (1, 2, 5, 9):
        assert np.array_equal(realize(gen, n).weights, product_weights(gen.pi, n))


@pytest.mark.parametrize("gen", IID_GENS, ids=["uniform3", "bernoulli", "cantor3"])
def test_iid_conditional_ignores_the_past_bit_for_bit(gen):
    want = realize(gen, 6).weights
    for symbols in [()] + [(s,) for s in range(gen.base)]:
        mu = conditional_on_past(gen, PastWord(gen.base, symbols), 6)
        assert np.array_equal(mu.weights, want)


def test_every_generator_is_a_chain():
    # an i.i.d. law is the chain whose rows all equal pi; a digit set is
    # the Bernoulli process with zeros off its digits
    for gen in IID_GENS + [ifs_digits(4, (1, 3), [0.25, 0.75])]:
        assert gen.kind == "bernoulli"
        assert np.array_equal(gen.P, np.tile(gen.pi, (gen.base, 1)))
    assert np.array_equal(cantor3().pi, [0.5, 0.0, 0.5])
    assert np.array_equal(ifs_digits(4, (1, 3), [0.25, 0.75]).pi, [0.0, 0.25, 0.0, 0.75])
    gen = markov(MARKOV_P)
    assert gen.kind == "markov" and np.array_equal(gen.P, MARKOV_P)


def test_iid_base_over_budget_is_resource_error():
    # P holds a rows of pi, so its a**2 entries count against the weight budget
    with pytest.raises(ResourceError, match="weight-vector budget"):
        uniform(4097)


def test_sample_digits_checks_start_for_every_kind():
    for gen in (uniform(2), cantor3(), markov(MARKOV_P)):
        with pytest.raises(InputError, match="start state"):
            sample_digits(gen, 5, np.random.default_rng(1), start=gen.base)
    # i.i.d. digits ignore a valid start
    a = sample_digits(cantor3(), 50, np.random.default_rng(2), start=2)
    assert np.array_equal(a, sample_digits(cantor3(), 50, np.random.default_rng(2)))


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
    with pytest.raises(ResolutionError) as exc:
        correlation_integral(mu, 16.0 * 3.0 ** -8 * 0.9)
    assert exc.value.diagnostics == dict(cell_width=3.0 ** -8, radius=16.0 * 3.0 ** -8 * 0.9,
                                         max_cell_width=3.0 ** -8 * 0.9)
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


def test_correlation_cantor_exact_at_gap_radii():
    # the level-j middle-third gaps are 3^-j wide, so the radius-3^-j ball
    # around a point of a level-j cylinder sees exactly that cylinder's mass
    mu = realize(cantor3(), 9)
    for j in range(1, 7):
        assert abs(correlation_integral(mu, 3.0 ** -j) - 2.0 ** -j) < 1e-15


def test_correlation_lag_sum_against_brute_force():
    mus = [mu for _, mu in default_measure_battery()]
    mus += [shift_push(realize(markov(MARKOV_P), 15), 1),
            cylinder_condition(realize(cantor3(), 10), word(3, [2]))]
    for mu in mus:
        radii = [3.0 ** -j for j in range(1, 40) if mu.cell_width <= 3.0 ** -j / 16]
        assert radii
        for r in radii:
            assert abs(correlation_integral(mu, r) - brute_correlation(mu, r)) < 1e-12


def test_equivariance_examples():
    gen = bernoulli(2, [0.3, 0.7])
    assert equivariance_gap(gen, PastWord(2, (0, 1)), word(2, [1, 1, 0]), 6) <= 1e-12
    mgen = markov(MARKOV_P)
    assert equivariance_gap(mgen, PastWord(2, (0,)), word(2, [1]), 6) <= 1e-12
    with pytest.raises(NullCylinderError):
        equivariance_gap(cantor3(), PastWord(3, (0,)), word(3, [1]), 5)


def test_equivariance_gap_is_the_verified_quantity():
    gen, past, w = markov(MARKOV_P), PastWord(2, (1, 0)), word(2, [0, 1])
    lhs = cylinder_condition(conditional_on_past(gen, past, 7), w)
    rhs = conditional_on_past(gen, past.extended_by(w.digits), 5)
    gap = equivariance_gap(gen, past, w, 7)
    assert gap == float(np.max(np.abs(lhs.weights - rhs.weights))) <= 1e-12
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
            assert equivariance_gap(gen, past, word(gen.base, digits), N) <= 1e-12


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
    4: [[0.0, 0.0, 1.0, 0.0], [0.1, 0.2, 0.3, 0.4 - SHORT],
        [0.5, 0.0, 0.0, 0.5], [0.25, 0.25, 0.5, 0.0]],
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
    # k chunks of the generator's scan length c, plus r
    for k, r in ((0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (3, 7)):
        label = str(r) if k == 0 else f"{'' if k == 1 else k}c{r:+d}"
        yield pytest.param(k, r, id=f"n={label}")
    # a chunk just below, at and above a power of two, where the scan tree grows a level
    for j in (3, 10):
        for e in (-1, 0, 1):
            yield pytest.param(0, 2 ** j + e, id=f"n=2^{j}{e:+d}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rng_kind", ["generator", "top-heavy"])
@pytest.mark.parametrize("k,r", _scan_sizes())
@pytest.mark.parametrize("a", [2, 3, 4, 5])
def test_markov_scan_matches_loop(a, k, r, rng_kind):
    gen = markov(SCAN_CHAINS[a])
    assert np.cumsum(gen.P, axis=1)[1, -1] < TOP
    assert (gen.steps.composition is None) == (a == 5)       # codes up to a = 4, rows above
    n = k * gen.steps.chunk + r
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


def near_cycle(eps):
    """P_eps = (1 - eps) C + (eps/2) (the other two digits), C the cycle 0 -> 1 -> 2 -> 0:
    T_u is constant just for u < eps/2 and u >= 1 - eps/2."""
    C = np.roll(np.eye(3), 1, axis=1)
    return (1 - eps) * C + eps / 2 * (1 - C)


# chains where the scan stops late, never or at once: (P, P(T_u not constant))
STOP_CHAINS = {
    "eps0.03": (near_cycle(0.03), 0.97),
    "eps0.0003": (near_cycle(0.0003), 0.9997),
    "cycle3": (near_cycle(0.0), 1.0),           # permutations only: a full-depth scan
    "all-constant": ([[0.3, 0.7], [0.3, 0.7]], 0.0),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k,r", _scan_sizes())
@pytest.mark.parametrize("name", STOP_CHAINS)
def test_markov_scan_stop_matches_loop(name, k, r):
    P, miss = STOP_CHAINS[name]
    gen = markov(P)
    assert gen.steps.miss == pytest.approx(miss, abs=1e-12)
    n = k * gen.steps.chunk + r
    for start in (None, *range(gen.base)):
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        got = sample_digits(gen, n, rng, start=start)
        want = markov_digits(gen, n, ref_rng, start=start)
        assert np.array_equal(got, want), (start, np.flatnonzero(got != want)[:5])
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("L", [1000, 1024])
@pytest.mark.parametrize("j", [0, 1, 3, 5])
def test_scan_stops_at_the_first_all_constant_level(j, L):
    # base-2 codes: 0 and 3 are constant maps, 1 (swap) and 2 (identity) are not,
    # so one aligned run of 2^j swaps and identities leaves every composite of
    # 2^(j+1) maps constant and none of 2^j maps
    steps = markov(MARKOV_P).steps
    assert steps.value.tolist() == [0, -1, -1, 1]
    rng = np.random.default_rng(j)
    x = 3 * rng.integers(0, 2, L)
    x[3 << j:4 << j] = rng.integers(1, 3, 1 << j)
    blocks = []

    def compose(g, f):
        blocks.append(g.strides[0] // g.itemsize)       # 2d at level d, both sweeps
        return steps.composition.take(g * 4 + f)

    got, full = x.copy(), x.copy()
    _scan(got, compose, steps.value, 0.0)
    up = [2 << i for i in range(j + 1)]
    assert blocks == up + up[::-1]
    blocks.clear()
    _scan(full, compose, steps.value, 1.0)              # miss 1: never tested, the full scan
    assert len(blocks) == 2 * (L.bit_length() - 1)
    assert np.array_equal(got, full)
    prefix = list(itertools.accumulate(x.tolist(), lambda p, c: int(steps.composition[c * 4 + p])))
    assert got.tolist() == prefix


def _step_map(gen, k):
    """Map k of the step table as the list T(0), ..., T(a-1)."""
    a, maps = gen.base, gen.steps.maps
    if gen.steps.composition is None:
        return [int(t) for t in maps[k]]
    return [int(maps[k]) // a ** s % a for s in range(a)]


STEP_CHAINS = {
    **{f"scan{a}": P for a, P in SCAN_CHAINS.items()},
    # 0.5 and 1.0 are breakpoints of several rows; row 1 sums short of 1
    "repeats": [[0.5, 0.25, 0.25], [0.25, 0.25, 0.5 - SHORT], [0.5, 0.5, 0.0]],
}


@pytest.mark.parametrize("P", STEP_CHAINS.values(), ids=STEP_CHAINS.keys())
def test_step_table_equals_the_per_row_rule(P):
    gen = markov(P)
    a, steps = gen.base, gen.steps
    cum = np.cumsum(gen.P, axis=1)
    last = [int(np.flatnonzero(row)[-1]) for row in gen.P]
    assert np.array_equal(steps.breaks, np.unique(cum))
    edges = np.concatenate(([0.0], steps.breaks, [1.0]))
    rng = np.random.default_rng(a)
    miss = 0.0
    for k in range(len(steps.breaks) + 1):
        lo, hi = edges[k], edges[k + 1]
        if lo >= hi:
            continue        # [0, B_0) with B_0 = 0, or [B_last, 1) with B_last = 1
        if steps.composition is not None and len(set(_step_map(gen, k))) > 1:
            miss += hi - lo
        inside = min(rng.uniform(lo, hi), np.nextafter(hi, 0.0))
        for u in (lo, inside):
            assert np.searchsorted(steps.breaks, u, side="right") == k
            want = [min(int(np.searchsorted(cum[s], u, side="right")), last[s])
                    for s in range(a)]
            assert _step_map(gen, k) == want, (k, u)
    if steps.composition is not None:
        size = a ** a
        decode = [[c // a ** s % a for s in range(a)] for c in range(size)]
        for g, f in rng.integers(0, size, (200, 2)):
            assert decode[steps.composition[g * size + f]] == [decode[g][t] for t in decode[f]]
        assert steps.value.tolist() == [m[0] if len(set(m)) == 1 else -1 for m in decode]
    assert steps.miss == pytest.approx(miss if steps.composition is not None else 1.0, abs=1e-12)
    assert np.array_equal(steps.pi_cum, np.cumsum(gen.pi)[:np.flatnonzero(gen.pi)[-1]])


@pytest.mark.parametrize("P", STEP_CHAINS.values(), ids=STEP_CHAINS.keys())
def test_markov_uniform_on_a_break_steps_as_the_loop(P):
    # u = B_k lies in [B_k, B_(k+1)): the step index counts the breaks <= u
    gen = markov(P)
    for u in gen.steps.breaks:
        for start in range(gen.base):
            got = sample_digits(gen, 3, ConstRng(u), start=start)
            assert np.array_equal(got, markov_digits(gen, 3, ConstRng(u), start=start)), (u, start)


def test_oversized_step_table_is_resource_error():
    P = np.random.default_rng(0).random((300, 300)) + 0.5
    with pytest.raises(ResourceError):
        markov(P / P.sum(axis=1, keepdims=True))


def test_stationary_start_draw_is_clamped():
    gen0 = markov(MARKOV_P)
    gen = markov(MARKOV_P, pi=gen0.pi * (1 - 1e-13))
    assert np.cumsum(gen.pi)[-1] < 1 - 5e-14
    got = sample_digits(gen, 4, ConstRng(1 - 5e-14))
    assert np.array_equal(got, markov_digits(gen, 4, ConstRng(1 - 5e-14)))
    assert np.array_equal(got, [1, 1, 1, 1])


def test_markov_samples_stay_on_the_support():
    # row 0 sums short of 1 and ends in a zero: the overflow goes to state 1, not 2
    gen = markov([[0.5, 0.5 - SHORT, 0.0], [0.2, 0.3, 0.5], [0.3, 0.3, 0.4]])
    got = sample_digits(gen, 3, ConstRng(TOP), start=0)
    assert np.array_equal(got, [1, 2, 2])
    assert np.array_equal(got, markov_digits(gen, 3, ConstRng(TOP), start=0))
    # pi sums short of 1 and state 2 has probability 0: the start draw is 1, not 2
    gen = markov([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
                 pi=[0.5, 0.5 - SHORT, 0.0])
    got = sample_digits(gen, 3, ConstRng(TOP))
    assert np.array_equal(got, [1, 1, 1])
    assert np.array_equal(got, markov_digits(gen, 3, ConstRng(TOP)))


def test_nan_probabilities_are_input_errors():
    nan = float("nan")
    for make in (lambda: bernoulli(2, [nan, 0.5]),
                 lambda: markov([[nan, 0.5], [0.5, 0.5]]),
                 lambda: markov(MARKOV_P, pi=[nan, 1.0]),
                 lambda: ifs_digits(3, (0, 2), [nan, 0.5]),
                 lambda: AdicMeasure(base=2, level=1, weights=[nan, 1.0])):
        with pytest.raises(InputError):
            make()


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
    # a digit that is not an integer is refused, not truncated into the digit set
    for digits in ([0, 2.5], [0, float("nan")], [True, 2], ["0", 2]):
        with pytest.raises(InputError, match="must be an integer"):
            ifs_digits(3, digits)
    assert np.array_equal(ifs_digits(3, [0.0, np.int64(2)]).pi, cantor3().pi)


@pytest.mark.parametrize("P", [[[1, 0], [0, 1]], [[1, 0, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]]],
                         ids=["identity", "two-classes"])
def test_markov_without_a_unique_stationary_law_is_input_error(P):
    with pytest.raises(InputError, match="no unique stationary law"):
        markov(P)
    gen = markov(P, pi=[1.0] + [0.0] * (len(P) - 1))      # a given stationary pi is read
    assert np.array_equal(gen.pi, [1.0] + [0.0] * (len(P) - 1))

"""Exact arithmetic on [0,1) with fixed a-adic precision.

A point is stored as an integer numerator over a power of the ambient base,
so multiplication mod 1 is exact.  A whole xb orbit needs no per-step
arithmetic: one recursive big division (`_big_divmod`) gives
floor(2^53 b^N x), and its base-b digits (`_int_to_digits`, read from the
bytes when b = 2^j) give every read-out floor(2^53 frac(b^n x)), n <= N,
exactly; a character e(m .) evaluated on a read-out is within O(m 2^-53) of
its exact value.  The module also provides the time-change schedule
n' = floor(alpha*n), z_n = alpha*n mod 1 for alpha = log b / log a, computed
with a controlled number of bits so every floor is certified unambiguous.

Interval convention: all intervals are half-open [k/a^n, (k+1)/a^n); a point
belongs to the atom whose left endpoint it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

from .errors import InputError, PrecisionError


@lru_cache(maxsize=None)
def _pow(base: int, exp: int) -> int:
    return base ** exp


_DIV_CUTOFF = 2048     # divisor bits below which CPython's own divmod is faster


def _div_2n_by_n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < b * 2^n, as two
    divisions of three halves by b's two (Burnikel-Ziegler).  Each trial
    quotient, from the top halves, is at most 2 too large: b's top bit is set."""
    if n <= _DIV_CUTOFF:
        return divmod(a, b)
    odd = n & 1                               # make n even; b stays normalized
    a, b, n = a << odd, b << odd, n + odd
    h = n >> 1
    mask = (1 << h) - 1
    b1, b0 = b >> h, b & mask
    q, r = 0, a >> n
    for low in ((a >> h) & mask, a & mask):
        qi, ri = (mask, r - mask * b1) if r >> h == b1 else _div_2n_by_n(r, b1, h)
        r = (ri << h | low) - qi * b0
        while r < 0:
            qi, r = qi - 1, r + b
        q = q << h | qi
    return q, r >> odd


def _big_divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for a >= 0 and b > 0, exactly, in the time of a few
    Karatsuba products: a is cut into chunks of b's bit length, each divided
    by recursive 2n/n division (Brent & Zimmermann, Modern Computer
    Arithmetic, 2010, section 1.4.3).  Meant for a at most a few times b's
    size; CPython's own divmod is quadratic there."""
    n = b.bit_length()
    if n <= _DIV_CUTOFF:
        return divmod(a, b)
    mask = (1 << n) - 1
    q = r = 0
    for shift in range(a.bit_length() // n * n, -1, -n):
        qi, r = _div_2n_by_n(r << n | (a >> shift) & mask, b, n)
        q = q << n | qi
    return q, r


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitPoint:
    """x = numerator / base**precision in [0,1), stored exactly."""

    base: int
    precision: int          # number of base-a digits retained (L)
    numerator: int

    def __post_init__(self):
        if self.base < 2:
            raise InputError(f"base must be >= 2, got {self.base}")
        if self.precision < 1:
            raise InputError(f"precision must be >= 1, got {self.precision}")
        if not (0 <= self.numerator < _pow(self.base, self.precision)):
            raise InputError("numerator out of range for given base/precision")

    @property
    def denominator(self) -> int:
        return _pow(self.base, self.precision)

    def digit(self, j: int) -> int:
        """j-th base-a digit, 1-indexed from the most significant."""
        if not (1 <= j <= self.precision):
            raise InputError(f"digit index {j} outside 1..{self.precision}")
        return (self.numerator // _pow(self.base, self.precision - j)) % self.base


def _digits_per_word(base: int) -> int:
    """Largest k >= 1 with base**k < 2**64: the digits one uint64 word holds."""
    return next((k for k in range(64, 1, -1) if base ** k < 1 << 64), 1)


def _int_to_digits(value: int, base: int, length: int) -> np.ndarray:
    """The `length` base-`base` digits of 0 <= value < base**length, most
    significant first, as uint64.  For base 2^j they are the value's bits in
    groups of j, read from its bytes in linear time; else the word split."""
    if base & (base - 1):
        return _split_digits(value, base, length)
    j = base.bit_length() - 1
    raw = np.frombuffer(value.to_bytes(-(-length * j // 8), "big"), np.uint8)
    out = np.zeros(length, dtype=np.uint64)
    for col in np.unpackbits(raw)[-length * j:].reshape(length, j).T:
        out = out << 1 | col
    return out


def _split_digits(value: int, base: int, length: int) -> np.ndarray:
    """Digits in any base: divide and conquer down to machine words, then
    every word is peeled into digits at once."""
    k = _digits_per_word(base)
    words = []

    def split(v: int, n: int) -> None:
        if n <= 1:
            words.append(v)
            return
        lo = n // 2
        hi, rest = divmod(v, _pow(base, lo * k))
        split(hi, n - lo)
        split(rest, lo)

    nwords = max(1, -(-length // k))
    split(value, nwords)
    w = np.array(words, dtype=np.uint64)
    out = np.empty((nwords, k), dtype=np.uint64)
    for j in range(k - 1, -1, -1):
        w, out[:, j] = np.divmod(w, base)
    return out.ravel()[nwords * k - length:]


def make_point_from_digits(base: int, digits) -> UnitPoint:
    """Build the point with the given base-a digit word (most significant
    first): 1-d integers, or floats that are all exactly integral.  Digits
    are packed k to a uint64 word, then adjacent words are joined level by
    level through the cached powers of the base, in near-linear time."""
    d = np.asarray(digits)
    if d.ndim != 1 or not d.size or not (d.dtype.kind in "iu" or d.dtype.kind == "f"
                                         and np.isfinite(d).all() and (d == np.round(d)).all()):
        raise InputError(f"digit word must be a nonempty 1-d sequence of integers, got {d.dtype}")
    if d.min() < 0 or d.max() >= base:
        raise InputError(f"digits out of range [0, {base}): {d.min()}..{d.max()}")
    k = _digits_per_word(base)
    w = np.concatenate((np.zeros(-len(d) % k, np.uint64), d.astype(np.uint64))).reshape(-1, k)
    acc = w[:, 0]
    for col in w[:, 1:].T:
        acc = acc * base + col
    words, e = acc.tolist(), k
    while len(words) > 1:
        radix = _pow(base, e)
        words = [0] * (len(words) & 1) + words
        words = [hi * radix + lo for hi, lo in zip(words[::2], words[1::2])]
        e *= 2
    return UnitPoint(base, len(d), words[0])


def digits_of(x: UnitPoint, count: int | None = None) -> list[int]:
    """First `count` digits of x (all retained digits by default)."""
    count = x.precision if count is None else count
    if not (1 <= count <= x.precision):
        raise InputError(f"count {count} outside 1..{x.precision}")
    head = x.numerator // _pow(x.base, x.precision - count)
    return _int_to_digits(head, x.base, count).tolist()


def mul_mod1(x: UnitPoint, t: int) -> UnitPoint:
    """t*x mod 1 at fixed denominator: numerator' = (t * numerator) mod base**L."""
    if not isinstance(t, int) or t <= 0:
        raise InputError(f"multiplier must be a positive integer, got {t!r}")
    return UnitPoint(x.base, x.precision, (t * x.numerator) % x.denominator)


def to_real(x: UnitPoint, bits: int = 53) -> float:
    """Top `bits` binary digits of x as a float; error < 2^-bits + base^-L."""
    if not (1 <= bits <= 53):
        raise InputError("bits must be in 1..53 (float64 return)")
    q = (x.numerator << bits) // x.denominator
    return q / float(1 << bits)


# ---------------------------------------------------------------------------
# Precision budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrecisionBudget:
    """Retained precision L so that N_max steps of xb keep >= guard_digits digits.

    Each xb step consumes log_a(b) base-a digits of information, so
    L = ceil(N_max * log_a b) + guard_digits.  The ceiling is certified with
    exact integer comparisons (a**(L-guard) >= b**N_max > a**(L-guard-1)).
    """

    a: int
    b: int
    N_max: int
    guard_digits: int
    L: int

    @classmethod
    @lru_cache(maxsize=None)
    def plan(cls, a: int, b: int, N_max: int, guard_digits: int = 64) -> "PrecisionBudget":
        if a < 2 or b < 2:
            raise InputError("a and b must be >= 2")
        if N_max < 1:
            raise InputError("N_max must be >= 1")
        if guard_digits < 0:
            raise InputError("guard_digits must be >= 0")
        with mpmath.workprec(80):
            est = int(mpmath.ceil(N_max * mpmath.log(b) / mpmath.log(a)))
        target = b ** N_max
        # exact adjustment of the ceiling estimate
        while a ** est < target:
            est += 1
        while est > 1 and a ** (est - 1) >= target:
            est -= 1
        return cls(a=a, b=b, N_max=N_max, guard_digits=guard_digits, L=est + guard_digits)


# ---------------------------------------------------------------------------
# Time-change schedule
# ---------------------------------------------------------------------------

def _floor_multiples(num: int, den: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """floor(num*n/den) and num*n mod den for n = 0..N, as object arrays of
    exact Python ints (the one floor routine behind every schedule)."""
    prod = np.arange(N + 1, dtype=object) * num
    return prod // den, prod % den


def _primitive_power_base(n: int) -> tuple[int, int]:
    """Smallest c with c**k == n; returns (c, k)."""
    for k in range(n.bit_length(), 1, -1):
        c = round(n ** (1.0 / k))
        for cand in (c - 1, c, c + 1):
            if cand >= 2 and cand ** k == n:
                return cand, k
    return n, 1


def multiplicatively_dependent(a: int, b: int) -> bool:
    """True iff a and b are both integer powers of a common integer."""
    return _primitive_power_base(a)[0] == _primitive_power_base(b)[0]


@dataclass(frozen=True, eq=False)
class KroneckerSchedule:
    """Tables n'(n) = floor(alpha*n) and z(n) = alpha*n mod 1 for n = 0..N."""

    a: int
    b: int
    N: int
    float_bits: int
    alpha: float
    dependent: bool
    nprime_table: np.ndarray
    z_table: np.ndarray

    def nprime(self, n: int) -> int:
        return int(self.nprime_table[n])

    def z(self, n: int) -> float:
        return float(self.z_table[n])


def kronecker_schedule(a: int, b: int, N: int, float_bits: int = 128) -> KroneckerSchedule:
    """Build the schedule; every floor is certified to at least 2^-100.

    alpha = log b / log a is computed at `float_bits` bits via an integer
    scaling floor(alpha * 2^float_bits), so the residues alpha*n mod 1 are
    exact integer arithmetic on that approximation.  If some alpha*n comes
    within 2^-100 of an integer the schedule aborts rather than guess the
    floor.  Multiplicatively dependent (a, b) make alpha rational: the
    schedule is then computed exactly and flagged (z_n is periodic).
    """
    if a < 2 or b < 2:
        raise InputError("a and b must be >= 2")
    if N < 1:
        raise InputError("N must be >= 1")
    if float_bits < 110:
        raise InputError("float_bits must be >= 110 (floor guard is 2^-100)")

    ca, pa = _primitive_power_base(a)
    cb, pb = _primitive_power_base(b)
    if ca == cb:
        whole, rem = _floor_multiples(pb, pa, N)      # alpha = pb/pa exactly
        return KroneckerSchedule(a=a, b=b, N=N, float_bits=float_bits,
                                 alpha=pb / pa, dependent=True,
                                 nprime_table=whole.astype(np.int64),
                                 z_table=rem.astype(np.float64) / pa)

    with mpmath.workprec(float_bits + 48):
        alpha_mp = mpmath.log(b) / mpmath.log(a)
        scaled = int(mpmath.floor(alpha_mp * mpmath.mpf(2) ** float_bits))
    one = 1 << float_bits
    guard = 1 << (float_bits - 100)
    whole, rem = _floor_multiples(scaled, one, N)
    bad = np.flatnonzero((rem[1:] < guard) | (one - rem[1:] < guard))
    if len(bad):
        raise PrecisionError(
            f"floor of alpha*{int(bad[0]) + 1} ambiguous at {float_bits} bits; "
            "increase float_bits")
    inv = 1.0 / one
    return KroneckerSchedule(a=a, b=b, N=N, float_bits=float_bits,
                             alpha=scaled * inv, dependent=False,
                             nprime_table=whole.astype(np.int64),
                             z_table=rem.astype(np.float64) * inv)

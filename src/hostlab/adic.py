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
Floors come from exact 32-bit limbs of n*num (`_floor_multiples`), z_n and
the guard from the remainder's top 64 bits (rare n exactly); alpha from decimal logs.

Interval convention: all intervals are half-open [k/a^n, (k+1)/a^n); a point
belongs to the atom whose left endpoint it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

from .errors import InputError, PrecisionError, ResourceError


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
    size; CPython's own divmod is quadratic there.  b = 2^s is a shift and a mask."""
    if b & (b - 1) == 0:
        return a >> (b.bit_length() - 1), a & (b - 1)
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
    first): 1-d integers, or floats that are all exactly integral.  For
    base 2^j, j <= 64, each digit is spread into its j bits and the bits are
    packed into the integer's bytes, in linear time (the inverse of
    `_int_to_digits`).  Other bases pack digits k to a uint64 word, then
    join adjacent words level by level through the cached powers of the
    base, in near-linear time."""
    d = np.asarray(digits)
    integral = np.issubdtype(d.dtype, np.integer) or np.issubdtype(d.dtype, np.floating) and (
        np.isfinite(d).all() and (d == np.round(d)).all())
    if d.ndim != 1 or not d.size or not integral:
        raise InputError(f"digit word must be a nonempty 1-d sequence of integers, got {d.dtype}")
    if d.min() < 0 or d.max() >= base:
        raise InputError(f"digits out of range [0, {base}): {d.min()}..{d.max()}")
    j = base.bit_length() - 1
    if not base & (base - 1) and j <= 64:
        bits = np.zeros(-len(d) * j % 8 + len(d) * j, dtype=np.uint8)   # left-padded to bytes
        cols = bits[len(bits) - len(d) * j:].reshape(len(d), j)
        u = d.astype(np.min_scalar_type(base - 1))
        for i in range(j):
            cols[:, j - 1 - i] = u >> i & 1
        return UnitPoint(base, len(d), int.from_bytes(np.packbits(bits).tobytes(), "big"))
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


def mul_mod1(x: UnitPoint, t: int) -> UnitPoint:
    """t*x mod 1 at fixed denominator: numerator' = (t * numerator) mod base**L."""
    if not isinstance(t, int) or t <= 0:
        raise InputError(f"multiplier must be a positive integer, got {t!r}")
    return UnitPoint(x.base, x.precision, (t * x.numerator) % x.denominator)


# ---------------------------------------------------------------------------
# Precision budget
# ---------------------------------------------------------------------------

GUARD_DIGITS = 64


@dataclass(frozen=True)
class PrecisionBudget:
    """Retained precision L so that N_max steps of xb keep >= GUARD_DIGITS digits.

    Each xb step consumes log_a(b) base-a digits of information, so
    L = ceil(N_max * log_a b) + GUARD_DIGITS.  The ceiling is certified with
    exact integer comparisons (a**(L-guard) >= b**N_max > a**(L-guard-1)).
    """

    a: int
    b: int
    N_max: int
    guard_digits: int
    L: int

    @classmethod
    @lru_cache(maxsize=None)
    def plan(cls, a: int, b: int, N_max: int) -> "PrecisionBudget":
        if a < 2 or b < 2:
            raise InputError("a and b must be >= 2")
        if N_max < 1:
            raise InputError("N_max must be >= 1")
        est = math.ceil(N_max * math.log(b) / math.log(a))
        target = b ** N_max
        # exact adjustment of the float estimate, off by at most a few
        while a ** est < target:
            est += 1
        while est > 1 and a ** (est - 1) >= target:
            est -= 1
        return cls(a=a, b=b, N_max=N_max, guard_digits=GUARD_DIGITS, L=est + GUARD_DIGITS)


# ---------------------------------------------------------------------------
# Time-change schedule
# ---------------------------------------------------------------------------

def _floor_multiples(num: int, den: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """floor(num*n/den) (int64) and num*n mod den, n = 0..N: int64 divmod, or for den = 2^s
    32-bit limbs of n*num*2^pad, floor on a limb edge and rem as its low limbs (rem * 2^pad)."""
    if N >= 1 << 32 or num * N // den >= 1 << 63:
        raise ResourceError(f"need N < 2^32 (limb products) and floors < 2^63, got N = {N}",
                            dict(N=N, max_floor=num * N // den))
    if max(num * N, den) < 1 << 63:
        return np.divmod(np.arange(N + 1, dtype=np.int64) * num, den)
    if den & (den - 1):
        raise InputError("den must be a power of two when num*N or den >= 2^63")
    s = den.bit_length() - 1
    j = max(2, -(-s // 32))
    num <<= 32 * j - s
    parts = np.array([num >> 32 * i & 0xFFFFFFFF for i in range(j + 2)], dtype=np.uint64)
    limbs = np.multiply.outer(parts, np.arange(N + 1, dtype=np.uint64))
    for i in range(j + 1):          # limb product + carry < 2^64 for n < 2^32
        limbs[i + 1] += limbs[i] >> 32
        limbs[i] &= 0xFFFFFFFF
    whole = (limbs[j] | limbs[j + 1] << 32).view(np.int64)
    return whole, limbs[:j]


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


ALPHA_BITS = 128      # alpha is carried as floor(alpha * 2^ALPHA_BITS)


@lru_cache(maxsize=None)
def _scaled_alpha(a: int, b: int) -> int:
    """floor(alpha * 2^ALPHA_BITS) from correctly rounded 60-digit decimal logs, once per (a, b)."""
    with localcontext() as ctx:
        ctx.prec = 60
        return int(Decimal(b).ln() / Decimal(a).ln() * (1 << ALPHA_BITS))


def kronecker_schedule(a: int, b: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(n', z) for n = 0..N: n'(n) = floor(alpha*n) (int64) and
    z(n) = alpha*n mod 1 (float64); every floor is certified to 2^-100.

    alpha = log b / log a is carried as floor(alpha * 2^ALPHA_BITS), from
    about ALPHA_BITS + 70 working bits, so the residues alpha*n mod 1 are exact
    integer arithmetic on that approximation.  If some alpha*n comes within
    2^-100 of an integer the schedule aborts rather than guess the floor.
    Multiplicatively dependent (a, b) make alpha rational: the schedule is
    then computed exactly (z is periodic).
    """
    if a < 2 or b < 2:
        raise InputError("a and b must be >= 2")
    if N < 1:
        raise InputError("N must be >= 1")

    ca, pa = _primitive_power_base(a)
    cb, pb = _primitive_power_base(b)
    if ca == cb:
        whole, rem = _floor_multiples(pb, pa, N)      # alpha = pb/pa exactly
        return whole, rem.astype(np.float64) / pa

    one = 1 << ALPHA_BITS
    whole, rem = _floor_multiples(_scaled_alpha(a, b), one, N)     # rem's 32-bit limbs
    top = rem[-1] << 32 | rem[-2]                     # rem's leading 64 bits
    z = (top | (np.bitwise_or.reduce(rem[:-2], axis=0) != 0)).astype(np.float64) * 2.0 ** -64
    # top + sticky round like rem at >= 55 significant bits; else, or near an integer, exactly
    rare = np.flatnonzero((top < 1 << 54) | (top == ~np.uint64(0)))
    for n, limbs in zip(rare.tolist(), rem[:, rare].T.tolist()):
        r = sum(v << 32 * i for i, v in enumerate(limbs))
        if n and min(r, one - r) < 1 << (ALPHA_BITS - 100):
            raise PrecisionError(f"floor of alpha*{n} ambiguous at {ALPHA_BITS} bits",
                                 dict(n=n, alpha_bits=ALPHA_BITS, guard_bits=100))
        z[n] = r / one
    return whole, z

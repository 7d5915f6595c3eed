"""Exact arithmetic on [0,1) with fixed a-adic precision.

A point is stored as an integer numerator over a power of the ambient base,
so multiplication mod 1 is exact.  A whole xb orbit needs no per-step
arithmetic: one big division gives floor(2^53 b^N x), and its base-b digits
(`_int_to_digits`) give every read-out floor(2^53 frac(b^n x)), n <= N,
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


def _digits_to_int(digits, base: int) -> int:
    """Positional value of a digit word, divide-and-conquer (fast for long words)."""
    n = len(digits)
    if n <= 32:
        v = 0
        for d in digits:
            v = v * base + d
        return v
    half = n // 2
    return _digits_to_int(digits[:half], base) * _pow(base, n - half) + _digits_to_int(digits[half:], base)


def _int_to_digits(value: int, base: int, length: int) -> np.ndarray:
    """The `length` base-`base` digits of 0 <= value < base**length, most
    significant first, as uint64: divide and conquer down to machine words,
    then every word is peeled into digits at once."""
    k = 1                                   # digits per uint64 word
    while base ** (k + 1) < 1 << 64:
        k += 1
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
    """Build the point with the given base-a digit word (most significant first)."""
    digits = list(digits)
    if not digits:
        raise InputError("digit word must be nonempty")
    for d in digits:
        if not (0 <= int(d) < base):
            raise InputError(f"digit {d} out of range [0, {base})")
    return UnitPoint(base, len(digits), _digits_to_int([int(d) for d in digits], base))


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


def point_to_config(x: UnitPoint) -> dict:
    """Reproducibility-log form: numerator as a decimal string."""
    return {"base": x.base, "L": x.precision, "numerator": str(x.numerator)}


def point_from_config(cfg: dict) -> UnitPoint:
    return UnitPoint(int(cfg["base"]), int(cfg["L"]), int(cfg["numerator"]))


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

    nprime = np.zeros(N + 1, dtype=np.int64)
    z = np.zeros(N + 1, dtype=np.float64)

    ca, pa = _primitive_power_base(a)
    cb, pb = _primitive_power_base(b)
    if ca == cb:
        # alpha = pb/pa exactly
        q, p = pb, pa
        ns = np.arange(N + 1, dtype=np.int64)
        nprime = (q * ns) // p
        z = ((q * ns) % p).astype(np.float64) / p
        return KroneckerSchedule(a=a, b=b, N=N, float_bits=float_bits,
                                 alpha=q / p, dependent=True,
                                 nprime_table=nprime, z_table=z)

    with mpmath.workprec(float_bits + 48):
        alpha_mp = mpmath.log(b) / mpmath.log(a)
        scaled = int(mpmath.floor(alpha_mp * mpmath.mpf(2) ** float_bits))
    one = 1 << float_bits
    guard = 1 << (float_bits - 100)
    acc = 0            # scaled * n mod 2^float_bits
    whole = 0          # floor(scaled * n / 2^float_bits)
    inv = 1.0 / one
    for n in range(1, N + 1):
        acc += scaled
        if acc >= one:
            carry, acc = divmod(acc, one)
            whole += carry
        if acc < guard or one - acc < guard:
            raise PrecisionError(
                f"floor of alpha*{n} ambiguous at {float_bits} bits; "
                "increase float_bits")
        nprime[n] = whole
        z[n] = acc * inv
    return KroneckerSchedule(a=a, b=b, N=N, float_bits=float_bits,
                             alpha=scaled * inv, dependent=False,
                             nprime_table=nprime, z_table=z)

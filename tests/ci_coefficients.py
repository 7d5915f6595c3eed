"""Generate the coefficient tables of `hostlab.fourier._ci`.

    python tests/ci_coefficients.py

prints `_CI_SERIES` and `_CI_AUX` as `fourier.py` holds them, highest power first.
Ci(x) is summed as gamma + ln x + t sum_k c_k t^(k-1), t = x^2 (DLMF 6.6.6), for
x <= 4, with the exact c_k = (-1)^k / (2k (2k)!) rounded once, as many terms as
x = 4 needs.  Above 4, Ci = f sin x - g cos x with the auxiliary functions f, g
of DLMF 6.2.17-18 (their properties: DLMF 6.5).  x f and x^2 g are fitted by
Chebyshev interpolation (`mpmath.chebyfit`) in u = x - 6 on (4, 8] and in
u = 1/x^2 on (8, 16], (16, 32] and (32, inf).  Each degree is the least whose
float-rounded polynomial keeps its share of the absolute error in x Ci, |error(x f)|
or |error(x^2 g)|/x, below TARGET on a dense grid of the region.  That is Ci's error
relative to its scale 1/x, not its absolute error: `fourier._lag_rows` multiplies
Ci(x) by x^2 where x^2 Ci(x) cancels to O(x), so a bias that is small beside Ci at
x = 4 would dominate there at x = 10^4.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

TARGET = 6e-17
# (lower edge, upper edge, center): u = x - center, or u = 1/x^2 if center is None
REGIONS = ((4, 8, 6), (8, 16, None), (16, 32, None), (32, math.inf, None))


def series_coefficients() -> tuple[float, ...]:
    """c_K, ..., c_1 for the least K whose next term is below TARGET/4 at x = 4; the
    series alternates there, so the first term dropped bounds the error."""
    coefs = [Fraction(-1, 4)]
    while abs(coefs[-1]) * 16 ** len(coefs) >= TARGET / 4:
        k = len(coefs) + 1
        coefs.append(Fraction((-1) ** k, 2 * k * math.factorial(2 * k)))
    return tuple(float(c) for c in coefs[-2::-1])


def aux(x):
    """(x f(x), x^2 g(x)) at an mpf x, from Ci and si = Si - pi/2."""
    ci, si = mpmath.ci(x), mpmath.si(x) - mpmath.pi / 2
    s, c = mpmath.sin(x), mpmath.cos(x)
    return x * (ci * s - si * c), x * x * (-ci * c - si * s)


def fit(which: int, lo, hi, center) -> tuple[float, ...]:
    """Least-degree float coefficients, highest power first, of component `which` of
    aux in the region's variable u."""
    if center is None:
        u_of, x_of = (lambda x: 1 / x ** 2), (lambda u: 1 / mpmath.sqrt(u))
    else:
        u_of, x_of = (lambda x: x - center), (lambda u: u + center)
    interval = sorted(u_of(mpmath.mpf(x)) for x in (lo, hi))
    grid = [interval[0] + (interval[1] - interval[0]) * mpmath.mpf(i) / 400 for i in range(401)]
    want = [(x_of(u), aux(x_of(u))[which]) for u in grid if u > 0 or center is not None]
    for degree in range(4, 40):
        coefs = tuple(float(c) for c in
                      mpmath.chebyfit(lambda u: aux(x_of(u))[which], interval, degree + 1))
        worst = max(abs(mpmath.polyval(coefs, u_of(x)) - v) / x ** which for x, v in want)
        if worst < TARGET:
            return coefs
    raise SystemExit(f"no degree below 40 meets {TARGET} for component {which}")


def literal(values, indent: str) -> str:
    """A tuple literal wrapped at 95 columns."""
    lines, line = [], indent + "("
    for i, v in enumerate(values):
        item = repr(v) + ("," if i < len(values) - 1 else ")")
        if len(line) + len(item) > 94:
            lines.append(line.rstrip())
            line = indent + " "
        line += item + " "
    return "\n".join(lines + [line.rstrip()])


def main() -> None:
    mpmath.mp.dps = 40
    print("_CI_SERIES = " + literal(series_coefficients(), " " * 13).lstrip())
    print("_CI_AUX = (")
    for lo, hi, center in REGIONS:
        f, g = fit(0, lo, hi, center), fit(1, lo, hi, center)
        edge = "math.inf" if hi == math.inf else repr(float(hi))
        mid = "None" if center is None else repr(float(center))
        print(f"    ({edge}, {mid},    # x f of degree {len(f) - 1}, "
              f"x^2 g of degree {len(g) - 1}")
        print(literal(f, " " * 5) + ",")
        print(literal(g, " " * 5) + "),")
    print(")")


if __name__ == "__main__":
    main()

"""High-precision Mittag-Leffler reference values, used to freeze test oracles.

Two independent mpmath evaluations of E_a(x), x <= 0:

- the power series E_a(x) = sum_k x^k / Gamma(a*k + 1) at 250 digits, which
  converges for every argument despite catastrophic cancellation at x << 0
  (the working precision absorbs the ~1e110 intermediate terms at x = -16),
  but whose largest term grows like exp(|x|^(1/a)), so it runs only while
  |x|^(1/a) <= 200;
- the completely monotone branch-cut integral at 60 digits,

      E_a(-y) = (sin(a pi) / (a pi y)) *
                int_0^inf exp(-s^(1/a)) / ((s / y)^2 + 2 (s / y) cos(a pi) + 1) ds,

  split at the integrand's peak s = -y cos(a pi), at y sin(a pi) and at
  that distance either side of the peak (its width, far below 1 near
  a = 1), and at s = 1, where s^(1/a) turns, and cut where s^(1/a) = 1000.

For a = 1/2 the closed form exp(x^2)*erfc(-x) cross-checks both; for a = 1
the series must reproduce exp(x).  The script prints the 8 spot values of
ML_REFERENCE, then the frozen grid ML_GRID of tests/test_kernel.py, E_a(-y)
from the integral for each a, one value per y of GRID_YS, and the largest
relative disagreement of the integral with the series and the closed form
over the grid.  Last come ML_ENDS, the same at the ends of a (END_ALPHAS,
END_YS), checked against the series where it runs and against exp at
a = 1: (E_a(-y) - exp(-y)) / (1 - a) tends to -d/da E_a(-y) at a = 1, so
each value of a near 1 must give quotients within O(1 - a) relative of
those at the a nearest 1.  Run:

    python3 tools/ml_reference.py

and paste the printed values into the tests.  This script never imports the
package under test.
"""

import math

from mpmath import cos, erfc, exp, gamma, mp, mpf, pi, quad, sin, workdps

mp.dps = 250

GRID_ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
GRID_YS = (0.01, 0.3, 0.9, 1.1, 2.0, math.sqrt(10.0), 5.0, 10.0, 16.0, 100.0, 1e4, 1e8)
# the ends of a: the peak narrows to y sin(a pi) as a -> 1, and s^(1/a)
# turns within about a of s = 1 as a -> 0.  The package takes the series
# up to y = 1; y = 0.5 is where the series checks the integral at a = 0.001
END_ALPHAS = (0.001, 1.0 - 1e-6, 1.0 - 1e-8, 1.0 - 1e-12, 1.0 - 1e-15)
END_YS = (0.5, 1.005, 2.0, 10.0, 100.0, 1e4)
SERIES_TERMS = 6000


def ml_series(a, x, kmax=SERIES_TERMS):
    a = mpf(a)
    x = mpf(x)
    total = mpf(0)
    for k in range(kmax):
        term = x**k / gamma(a * k + 1)
        total += term
        if k > 10 and abs(term) < mpf(10) ** (-80) * max(abs(total), mpf(1)):
            return total
    raise RuntimeError("series did not settle for a=%s x=%s" % (a, x))


def series_runs(a, y):
    # the largest term, about exp(y^(1/a)), stays within the working
    # precision, and the terms fall below 1e-80 within SERIES_TERMS
    k = SERIES_TERMS
    return (math.log(y) / a <= math.log(200.0)
            and math.lgamma(a * k + 1) > k * math.log(y) + 80 * math.log(10.0))


def ml_branch_cut(a, y):
    """E_a(-y) from the branch-cut integral at 60 digits; a < 1, y > 0."""
    with workdps(60):
        a = mpf(a)
        y = mpf(y)
        c = cos(pi * a)
        s = sin(pi * a)
        end = mpf(1000) ** a
        peak = -y * c
        breaks = sorted({mpf(0), mpf(1), y * s, peak - y * s, peak, peak + y * s, end})
        breaks = [b for b in breaks if 0 <= b <= end]

        # divided through by y^2, so the integrand is of order one and
        # quad's absolute tolerance holds relative to the result
        def f(u):
            v = u / y
            return exp(-u ** (1 / a)) / ((v + c) ** 2 + s * s)

        return s / (a * pi * y) * quad(f, breaks)


def main():
    cases = [
        (0.5, -1.0),
        (0.5, -4.0),
        (0.5, -16.0),
        (0.75, -1.0),
        (0.75, -5.0),
        (0.75, -16.0),
        (0.25, -2.0),
        (1.0, -2.0),
    ]
    for a, x in cases:
        val = ml_series(a, x)
        print("E_%-4s(%6.1f) = %s" % (a, x, mp.nstr(val, 17)))

    # closed forms as independent checks
    half_16 = exp(mpf(256)) * erfc(mpf(16))
    print("closed form  E_0.5(-16) = %s" % mp.nstr(half_16, 17))
    print("closed form  E_1(-2)    = %s" % mp.nstr(exp(mpf(-2)), 17))
    diff = abs(half_16 - ml_series(0.5, -16.0))
    print("series vs closed form   : %s" % mp.nstr(diff, 3))

    print("ML_GRID = {")
    worst_series = worst_closed = mpf(0)
    for a in GRID_ALPHAS:
        vals = [ml_branch_cut(a, y) for y in GRID_YS]
        print("    %r: (" % (a,))
        for i in range(0, len(vals), 3):
            print("        " + " ".join("%r," % float(v) for v in vals[i:i + 3]))
        print("    ),")
        for y, val in zip(GRID_YS, vals):
            if series_runs(a, y):
                rel = abs(ml_series(a, -y) / val - 1)
                worst_series = max(worst_series, rel)
            if a == 0.5:
                y = mpf(y)
                rel = abs(exp(y * y) * erfc(y) / val - 1)
                worst_closed = max(worst_closed, rel)
    print("}")
    print("grid: integral vs series      : %s" % mp.nstr(worst_series, 3))
    print("grid: integral vs closed form : %s" % mp.nstr(worst_closed, 3))

    print("ML_ENDS = {")
    worst_series = mpf(0)
    quotients = {}
    for a in END_ALPHAS:
        vals = [ml_branch_cut(a, y) for y in END_YS]
        print("    %r: (" % (a,))
        for i in range(0, len(vals), 3):
            print("        " + " ".join("%r," % float(v) for v in vals[i:i + 3]))
        print("    ),")
        for y, val in zip(END_YS, vals):
            if series_runs(a, y):
                worst_series = max(worst_series, abs(ml_series(a, -y) / val - 1))
        if a > 0.5:
            with workdps(60):
                quotients[a] = [(v - exp(-mpf(y))) / (1 - mpf(a)) for y, v in zip(END_YS, vals)]
    print("}")
    print("ends: integral vs series      : %s" % mp.nstr(worst_series, 3))
    nearest = max(quotients)
    for a in sorted(quotients)[:-1]:
        spread = max(abs(q / p - 1) for p, q in zip(quotients[a], quotients[nearest]))
        print("ends: quotients against exp   : %s at a = %r" % (mp.nstr(spread, 3), a))


if __name__ == "__main__":
    main()

"""Quantiles of the ratio of two independent binomial proportions.

``ratio_quantiles(n1, c1, n2, c2, tail)`` gives the ``tail`` and
``1 - tail`` quantiles of R = (X1 / n1) / (X2 / n2) for independent
X1 ~ Binomial(n1, c1 / n1) and X2 ~ Binomial(n2, c2 / n2), with ``math``
alone.  R is conditioned on being defined (not 0/0), and R = inf where only
X2 is 0, ordered above every finite value.  A quantile q is the smallest
atom r = (x1 n2) / (x2 n1) with P(R <= r | defined) >= q, returned as that
one int / int division, correctly rounded.

Each row's pmf is tabulated within 40 nats of its mode by the ratio
recurrence pmf(x + 1) / pmf(x) = (n - x) c / ((x + 1) (n - c)), then
normalized.  P(R <= t) is the sum over x2 >= 1 of pmf2(x2) CDF1(floor(t x2
n1 / n2)): only the x2 whose floor falls inside row 1's table are summed one
by one, those above it add their mass in bulk from suffix sums, and the two
x2 that bound that span are found in integer arithmetic.  Each tail is
solved in s = log t for z(P(R <= t)) = z(q), z a rough normal quantile that
makes the function nearly linear: probes from a normal approximation of
log R bracket it, then regula falsi steps with Anderson and Bjorck's
weights narrow the bracket, with a bisection after two steps that do not
halve it.  Once the
bracket is expected to hold few atoms they are listed, floors in integer
arithmetic, and their masses walked in order from P(R <= the bracket's lower
end) to the first atom that reaches q.  Where atoms are closer than the
float spacing, the bracket ends at two adjacent floats, and P(R <= their
midpoint) decides which one the quantile rounds to.

Stride rule.  A row whose 40-nat window would pass ``MAX_POINTS`` = 2**14
points (a standard deviation sigma above ~885) is tabulated instead at every
s-th count across 18.5 sigma, s the smallest stride that leaves at most
2**14 points, each weighted by its block's mass; there the log pmf is a
degree-7 polynomial in the offset from c, within 1e-11 nats.  Its CDF is read
by linear interpolation between block edges, at the continuous argument
t x2 n1 / n2.  The cost of a quantile is then bounded for every row total.
The sum runs over row 2 unless row 2 is strided and row 1 is not, or both
are and row 1's relative spread is the smaller; then it runs over row 1, for
the quantiles of 1 / R.  The solve stops at the first t found with
P(R <= t) within ``_STRIDED_TOL`` of q, relative to min(q, 1 - q), or
within what the law puts on two float spacings there: t itself if
P(R <= t) >= q, else the next float up.
P(R <= t) is then within 1e-7 + 0.2 / sigma of the exact law's, sigma the
smallest standard deviation of a strided row, so within 2.3e-4.  The second
term, for reading a CDF that steps at integers at a continuous argument,
dominates: ``tests/test_uncertainty.py`` measures 2e-6 to 1e-5 against the
unstrided law, and up to 1.4e-4 where the two lattices of atoms line up, as
at t = 1 for identical rows.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate, compress, repeat
from operator import add, lt, mul, neg, sub

from .uncertainty import _normal_quantile

MAX_POINTS = 2**14  # the most points tabulated per row
_LOG_CUTOFF = -40.0  # log pmf, relative to the mode's, at which a table ends
_SPAN = 18.5  # standard deviations a strided table spans; a 40-nat window spans ~17.9
_WALK_ATOMS = 2048  # a bracket expected to hold this few atoms is walked
_STRIDED_TOL = 1e-8  # by how much of its tail's probability a strided solve may miss q


class _Row:
    """Binomial(n, c / n), 0 < c <= n, tabulated: ``mass[j]`` is the mass of
    count ``lo + j * step`` (of its block, for a stride above 1), ``below[j]``
    that of the points before j and ``above[j]`` that of j onward.  ``mass``
    ends with one 0.0 beyond its ``size`` points, and for a stride above 1
    ``base[j]`` is below[j] - j mass[j], the CDF's intercept in block j."""

    __slots__ = ("n", "c", "lo", "step", "size", "hi", "mass", "below", "above", "base")

    def __init__(self, n: int, c: int):
        self.n, self.c = n, c
        sd = math.sqrt(c * (n - c) / n)
        if c == n:
            self.lo, self.step, mass = n, 1, [1.0]
        elif _SPAN * sd < MAX_POINTS:
            self.lo, self.step, mass = _unit_table(n, c, sd)
        else:
            self.lo, self.step, mass = _strided_table(n, c, sd)
        self.size = len(mass)
        self.hi = self.lo + (self.size - 1) * self.step
        total = math.fsum(mass)
        self.mass = [m / total for m in mass] + [0.0]
        self.below = [0.0, *accumulate(self.mass)]
        self.above = [*accumulate(reversed(self.mass))][::-1]
        if self.step > 1:
            self.base = list(map(sub, self.below, map(mul, range(self.size + 1), self.mass)))

    @property
    def relative_spread(self) -> float:
        """The standard deviation of c / n's estimate, over c / n."""
        return math.sqrt((self.n - self.c) / (self.n * self.c))


def _unit_table(n: int, c: int, sd: float) -> tuple[int, int, list[float]]:
    """pmf(x) / pmf(mode) from the mode out to the 40-nat cutoff, by the
    ratio recurrence, in chunks: past the mode the ratios are below 1, so
    each side's products fall and the cutoff is found by bisection."""
    mode = (n + 1) * c // n
    odds = c / (n - c)
    cutoff = math.exp(_LOG_CUTOFF)
    sides = []
    for direction, room in ((1, n - mode), (-1, mode)):
        room = min(room, MAX_POINTS - 1 - sum(map(len, sides)))
        values, value, x, chunk = [], 1.0, mode, max(64, int(9 * sd))
        while len(values) < room:
            chunk = min(chunk, room - len(values))
            if direction > 0:  # pmf(x + 1) / pmf(x)
                ratios = [(n - k) / (k + 1) * odds for k in range(x, x + chunk)]
            else:  # pmf(x - 1) / pmf(x)
                ratios = [k / (n - k + 1) / odds for k in range(x, x - chunk, -1)]
            products = list(accumulate(ratios, mul, initial=value))[1:]
            end = bisect_left(products, -cutoff, key=neg)
            values += products[:end]
            if end < chunk:
                break
            value, x, chunk = products[-1], x + direction * chunk, 2 * chunk
        sides.append(values)
    up, down = sides
    return mode - len(down), 1, [*reversed(down), 1.0, *up]


def _strided_table(n: int, c: int, sd: float) -> tuple[int, int, list[float]]:
    """exp of log pmf(c + d) - log pmf(c) at d = -h, -h + step, ..., h.

    That log is minus the deviances c phi(d / c) + (n - c) phi(-d / (n - c)),
    phi(u) = (1 + u) log(1 + u) - u, minus half of log(1 + d / c) + log(1 -
    d / (n - c)), with Stirling's corrections, which vary here by less than
    1e-9 nats, dropped.  With sigma above ~885, c and n - c exceed 7.8e5 and
    |d| / c < 9.25 / sqrt(c) < 0.0105, so the power series truncated after
    d**7 is within 1e-11 nats."""
    h = math.ceil(_SPAN / 2 * sd)
    step = -(-(2 * h + 1) // MAX_POINTS)
    low, high = float(c), float(n - c)
    coefficient = [0.0] * 8
    for k in range(1, 8):
        if k >= 2:  # phi(u) = sum over k >= 2 of (-u)**k / (k (k - 1))
            coefficient[k] -= (-1) ** k * (low ** (1 - k) + (-1) ** k * high ** (1 - k)) / (k * (k - 1))
        if k <= 5:
            coefficient[k] -= 0.5 * ((-1) ** (k + 1) * low ** -k - high ** -k) / k
    _, a1, a2, a3, a4, a5, a6, a7 = coefficient
    exp = math.exp
    return c - h, step, [exp(d * (a1 + d * (a2 + d * (a3 + d * (a4 + d * (a5 + d * (a6 + d * a7)))))))
                         for d in map(float, range(-h, h + 1, step))]


class _Ratio:
    """The law of R = (X / x.n) / (Y / y.n) for tabulated rows ``x`` and
    ``y``: the sum runs over y, and x's CDF is read at each of its points."""

    def __init__(self, x: _Row, y: _Row):
        self.x, self.y = x, y
        self.exact = x.step == y.step == 1
        self.first = 1 if y.lo == 0 else 0  # the index of y's first point above 0
        x_zero = x.mass[0] if x.lo == 0 else 0.0
        y_zero = y.mass[0] if y.lo == 0 else 0.0
        self.defined = 1.0 - x_zero * y_zero
        self.finite = y.above[self.first]  # P(R < inf, defined)
        self.at_zero = x_zero * self.finite  # P(R = 0)

    def _start(self, A: int, B: int, k: int) -> int:
        """The index of y's first point with A y >= k B, within [first, size]."""
        y = self.y
        at = -(-k * B // A)
        return min(y.size, max(self.first, -(-(at - y.lo) // y.step)))

    def _span(self, N: int, D: int) -> tuple[int, int, int, int, int]:
        """For t = N / D: the indices [start, end) of the y points whose
        t y x.n / y.n falls inside x's table, B times the offset into the
        table at start, its increase per point, and B."""
        x, y = self.x, self.y
        A, B = N * x.n, D * y.n
        start, end = self._start(A, B, x.lo), self._start(A, B, x.hi)
        return start, end, A * (y.lo + start * y.step) - x.lo * B, A * y.step, B

    def cdf(self, N: int, D: int, exact_floors: bool = False) -> float:
        """P(R <= N / D, R defined); ``exact_floors`` takes every floor in integers."""
        x, y = self.x, self.y
        start, end, offset, slope, B = self._span(N, D)
        if start == end:
            return y.above[end]
        count, below = end - start, x.below
        if exact_floors:
            values = [below[(offset + j * slope) // B + 1] for j in range(count)]
        elif self.exact:
            indices = accumulate(repeat(slope / B, count - 1), initial=offset / B + 1)
            values = map(below.__getitem__, map(int, indices))
        else:  # x's CDF between block edges, at the continuous argument
            first, per = offset / B / x.step + 0.5, slope / B / x.step
            us = list(accumulate(repeat(per, count - 1), initial=first))
            base, mass = x.base, x.mass
            values = [base[k] + u * mass[k] for u, k in zip(us, map(int, us))]
        return sum(map(mul, y.mass[start:end], values)) + y.above[end]

    def quantile(self, q: float, exact_floors: bool = False) -> float:
        """The smallest atom r with P(R <= r | defined) >= q, 0 < q < 1."""
        target = q * self.defined
        if target <= self.at_zero:
            return 0.0
        if target > self.finite:
            return math.inf
        x, y = self.x, self.y
        goal = _normal_quantile(q)

        def z(f: float) -> float:
            return _normal_quantile(min(f / self.defined, 1.0)) - goal

        a = max(x.lo, 1) * y.n / (y.hi * x.n) / 2  # below every positive atom
        b = math.nextafter(x.hi * y.n / (max(y.lo, 1) * x.n), math.inf)  # above every finite one
        fa, fb = self.at_zero, self.finite
        za, zb = z(fa), z(fb)  # the weights shrink these; fa and fb stay true
        # probes: Newton steps from a normal approximation of log R, whose z
        # has slope 1 / spread, each step twice the last, until one lands on each side
        spread = math.hypot(x.relative_spread, y.relative_spread)
        s = math.log(x.c) - math.log(x.n) - math.log(y.c) + math.log(y.n) + goal * spread
        probing, side, widths, bisect, walk_at = True, 0, [math.inf, math.inf], False, _WALK_ATOMS
        while True:
            if self.exact:
                if min((b - a) * x.n / y.n * y.hi * y.size, x.size * y.size) <= walk_at:
                    # a single value may carry an atom of every y point
                    found = self._walk(a, b, target, 8 * walk_at + y.size, exact_floors)
                    if found is None:
                        walk_at /= 8  # more atoms than expected: narrow further
                    elif not math.isnan(found):
                        return found
                    elif not exact_floors:  # a float floor misplaced an atom
                        return self.quantile(q, exact_floors=True)
                    else:  # a rounding put P(R <= a) at q, or (a, b] holds no atom
                        return b
            else:  # within the tolerance, or what the law puts on two float spacings
                tolerance = max(_STRIDED_TOL * min(target, self.defined - target),
                                2 * (fb - fa) / (b - a) * math.ulp(b))
                if fb - target <= tolerance:
                    return b
                if target - fa <= tolerance:
                    return math.nextafter(a, b)
            if probing:
                t = math.exp(min(s, 709.0))
            elif bisect or za == zb:  # z rounds flat in far tails
                t = math.exp((math.log(a) + math.log(b)) / 2)
            else:
                sa, sb = math.log(a), math.log(b)
                t = math.exp(sa + (sb - sa) * za / (za - zb))
            if not a < t < b:
                probing = False
                t = a + (b - a) / 2
                if not a < t < b:
                    found = self._adjacent(a, b, target)
                    if math.isnan(found):
                        return b if exact_floors else self.quantile(q, exact_floors=True)
                    return found
            f = self.cdf(*t.as_integer_ratio(), exact_floors)
            zt = z(f)
            if f >= target:
                if side == 1 and not probing:  # a kept twice: Anderson-Bjorck's factor
                    za *= 1 - zt / zb if zt < zb else 0.5
                b, fb, zb = t, f, zt
                turned, side = side == -1, 1
            else:
                if side == -1 and not probing:
                    zb *= 1 - zt / za if zt > za else 0.5
                a, fa, za = t, f, zt
                turned, side = side == 1, -1
            if probing:
                probing = not turned
                s -= zt * spread
                spread *= 2
            widths.append(math.log(b / a))
            bisect = widths[-1] > widths[-3] / 2

    def _walk(self, a: float, b: float, target: float, cap: float, exact_floors: bool) -> float | None:
        """The quantile, by listing the atoms in (a, b] and walking their
        masses up from P(R <= a); None if there are more than ``cap``, and
        NaN if P(R <= a) already reaches ``target`` or P(R <= b) does not.
        With ``exact_floors`` a walk short of ``target`` falls short by
        roundings only, and returns the last atom walked.

        Each y point from the first with an atom at or below b to the last
        with one above a takes the floors of a and b x's offset in floats;
        where an integer lies within their rounding error of the span
        between them, in integers, and there the atoms are listed."""
        x, y = self.x, self.y
        start_a, end, offset_a, slope_a, Ba = self._span(*a.as_integer_ratio())
        start, _, offset_b, slope_b, Bb = self._span(*b.as_integer_ratio())
        offset_a -= (start_a - start) * slope_a  # now at start, as offset_b is
        count = end - start
        first_a, per_a, first_b, per_b = offset_a / Ba, slope_a / Ba, offset_b / Bb, slope_b / Bb
        # a bound on the rounding of the running sums, in units of x's counts
        error = 1e-15 * count * (abs(first_a) + abs(first_b) + count * (per_a + per_b) + 1.0)
        us = list(accumulate(repeat(per_a, count - 1), initial=first_a))
        vs = accumulate(repeat(per_b, count - 1), initial=first_b)
        floors = list(map(math.floor, us))
        near = list(compress(range(count), map(lt, map(math.floor, map(sub, us, repeat(error))),
                                               map(math.floor, map(add, vs, repeat(error))))))
        if len(near) > cap:
            return None
        atoms = []
        for j in near:
            low = floors[j] = (offset_a + j * slope_a) // Ba
            high = min((offset_b + j * slope_b) // Bb, x.size - 1)
            count_y, mass = y.lo + start + j, y.mass[start + j]
            atoms += [((x.lo + k) * y.n / (count_y * x.n), x.mass[k] * mass)
                      for k in range(max(low, -1) + 1, high + 1)]
            if len(atoms) > cap:
                return None
        below = x.below
        f = sum(map(mul, y.mass[start_a:end], [below[k + 1] for k in floors[start_a - start:]])) + y.above[end]
        if f >= target:
            return math.nan
        atoms.sort()
        for value, mass in atoms:
            f += mass
            if f >= target:
                return value
        return atoms[-1][0] if exact_floors and atoms else math.nan

    def _adjacent(self, a: float, b: float, target: float) -> float:
        """The quantile between adjacent floats a and b: the one it rounds
        to; NaN if P(R <= a) reaches ``target`` or P(R <= b) does not."""
        if not self.exact:
            return b
        (Na, Da), (Nb, Db) = a.as_integer_ratio(), b.as_integer_ratio()
        if not self.cdf(Na, Da, True) < target <= self.cdf(Nb, Db, True):
            return math.nan
        return a if self.cdf(Na * Db + Nb * Da, 2 * Da * Db, True) >= target else b


def ratio_quantiles(n1: int, c1: int, n2: int, c2: int, tail: float) -> tuple[float, float]:
    """The ``tail`` and ``1 - tail`` quantiles of (X1 / n1) / (X2 / n2) given
    it is defined, for independent X1 ~ Binomial(n1, c1 / n1) and
    X2 ~ Binomial(n2, c2 / n2), with 0 < tail < 1/2 and c1, c2 not both 0."""
    if c2 == 0:
        return math.inf, math.inf
    if c1 == 0:
        return 0.0, 0.0
    one, two = _Row(n1, c1), _Row(n2, c2)
    if two.step > 1 and (one.step == 1 or one.relative_spread < two.relative_spread):
        law = _Ratio(two, one)  # the quantiles of 1 / R, inverted
        return tuple(1.0 / law.quantile(q) for q in (1.0 - tail, tail))
    law = _Ratio(one, two)
    return law.quantile(tail), law.quantile(1.0 - tail)

"""Quantiles of the ratio of two independent Beta variables, by quadrature.

``ratio_quantiles`` gives the equal-tailed quantiles of B1 / B2 for
independent B1 ~ Beta(a1, b1) and B2 ~ Beta(a2, b2), with ``math`` alone:
no sampling, so no Monte Carlo error.

Each Beta is handled as the law of v = logit(x), where its log density
a v - (a+b) log(1 + e**v) is concave, with exponential tails, for every
a, b > 0.  A grid is laid out from the mode until the density has fallen
40 nats, with steps set by the local curvature and slope; a step is at
most one unit where the density's shape has unit-scale structure, so
that no a or b makes the node count unbounded.  P(B1 <= t B2) is a sum
over Gauss-Legendre points of the law whose log has the smaller variance,
of the other law's CDF, tabulated on a finer grid by Gauss-Legendre
masses and read by quintic Hermite interpolation of log P or log(1 - P).
Where t B2 reaches 1 inside the summed law, the CDF has a (1 - x)**b edge,
and the points next to it are replaced by a tanh-sinh rule.  Newton's
method in log t, started from a normal approximation of log(B1 / B2) and
kept inside a bisection bracket, solves for each tail probability; an
endpoint beyond the float range is 0 or inf.  The endpoints agree with an
adaptive quadrature of the regularized incomplete beta function to about
1e-6 relative (``tests/test_uncertainty.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .model import DataError
from .uncertainty import _normal_quantile

_DROP = 40.0  # nats below the mode at which the tabulated law's grid ends
_SUM_DROP = 30.0  # and the summed law's
_TABLE_GRID = (3.0, 0.5)  # per_sd, tau of ``_LogitBeta.grid``
_SUM_GRID = (1.0, 1.0)
_NEWTON_TOL = 1e-5  # a last Newton step this short, times sqrt(scale), ends a solve
_GL_X = (-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526)
_GL_W = (0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538)
_MAX_NODES = 2000
_GROWTH = 4.0  # the most a step may exceed the one before it
_LOG_MAX = 710.0  # e**s overflows above ~709.78
_LOG_MIN = -746.0  # and is 0.0 below ~-745.13


def _expm1_minus_x_over_x2(x: float) -> float:
    """(e**x - 1 - x) / x**2, accurate near 0."""
    if abs(x) < 1e-2:
        return 0.5 + x * (1 / 6 + x * (1 / 24 + x * (1 / 120 + x / 720)))
    return (math.expm1(x) - x) / (x * x)


class _LogitBeta:
    """Beta(a, b) as the law of d, the offset of v = logit(x) from its mode.

    Internally a <= b (``flip`` records a swap, under which v is -logit(x)),
    so that the log density's two terms never cancel badly.
    """

    __slots__ = ("flip", "a", "b", "n", "sig", "odds", "kappa", "mode", "wall")

    def __init__(self, a: float, b: float):
        self.flip = a > b
        if self.flip:
            a, b = b, a
        self.a, self.b, self.n = a, b, a + b
        self.sig = a / self.n  # the logistic of the mode, at most 1/2
        self.odds = b / a  # e**-mode, at least 1
        if not self.sig:  # log(a / b) below would be log(0), and so would logdens
            raise DataError(f"no quadrature grid for Beta({a!r}, {b!r}): a / (a + b) is below "
                            "the smallest float")
        if self.odds == math.inf:  # inf e**-d is NaN far out in the tail: the grid would never end
            raise DataError(f"no quadrature grid for Beta({a!r}, {b!r}): b / a is past "
                            "the largest float")
        self.kappa = a * (b / self.n)  # minus the curvature at the mode
        self.mode = math.log(a / b)
        # above this d the factor (1 + e**v)**-(a+b) departs from its
        # left-tail limit by more than 1e-13 nats: its shape has unit-scale
        # structure there
        self.wall = math.log(1e-13 / a)

    def to_d(self, v: float) -> float:
        return (-v if self.flip else v) - self.mode

    def to_v(self, d: float) -> float:
        v = d + self.mode
        return -v if self.flip else v

    def logdens(self, d: float) -> float:
        """The log density at d, less its value at the mode."""
        a, b, n, sig = self.a, self.b, self.n, self.sig
        if d > 700.0:  # where e**d would overflow, and sig e**d is far above 1
            return -b * d - n * math.log(sig + (1.0 - sig) * math.exp(-d))
        if abs(d) > 1.0:
            return a * d - n * math.log1p(sig * math.expm1(d))
        # a d - n log(1 + sig expm1(d)), without the cancellation of its terms
        weight = sig * _expm1_minus_x_over_x2(-sig * d) + (1.0 - sig) * _expm1_minus_x_over_x2(
            (1.0 - sig) * d
        )
        return -n * math.log1p(sig * (1.0 - sig) * d * d * weight)

    def slope(self, d: float) -> float:
        """The derivative of ``logdens``."""
        if d > 1.0:
            return self.a - self.n / (1.0 + self.odds * math.exp(-d))
        e = math.expm1(d)
        return -self.kappa * e / (1.0 + self.sig * e)

    def _step(self, d: float, per_sd: float, tau: float) -> tuple[float, float]:
        """(the grid step at d, the log density at d)."""
        logdens = self.logdens(d)
        d = min(d, 700.0)
        if d > 1.0:
            r = self.odds * math.exp(-d)
            curvature = self.n * r / ((1.0 + r) * (1.0 + r))
            if not math.isfinite(curvature):  # n r past the float range, as for shapes near 1e300
                curvature = self.n / (1.0 + r) * (r / (1.0 + r))
        else:
            e = math.expm1(d)
            q = 1.0 + self.sig * e
            curvature = self.kappa * (e + 1.0) / (q * q)
        # where the density has fallen far, errors weigh little: allow longer steps
        reach = tau * math.exp(min(-logdens, _DROP) / 9.0)
        h = 1.0 / max(per_sd * math.sqrt(curvature), abs(self.slope(d)) / reach, 1e-300)
        return (min(h, 1.0) if d > self.wall else h), logdens

    def grid(self, per_sd: float, tau: float, drop: float) -> list[float]:
        """Nodes from the mode out to where the density has fallen ``drop`` nats.

        A step is at most 1/per_sd of the local standard deviation, moves
        the log density by at most about tau near the mode, is at most
        1 where the density's shape has unit-scale structure, and at
        most ``_GROWTH`` times the step before it.  For a + b >= 1, as in a
        Dirichlet row with an observation, at most about 220 nodes for any
        shapes up to 1e100.
        """
        nodes = [0.0]
        for sign in (1.0, -1.0):
            d = 0.0
            h, logdens = self._step(d, per_sd, tau)
            while logdens > -drop:
                if len(nodes) > _MAX_NODES:  # not reached for shapes up to 1e100
                    raise DataError(f"no quadrature grid for Beta({self.a!r}, {self.b!r})")
                while True:  # halve h until the step at its far end agrees
                    shorter, logdens = self._step(d + sign * h, per_sd, tau)
                    if shorter >= 0.7 * h:
                        break
                    h = max(shorter, 0.5 * h)
                d += sign * h
                nodes.append(d)
                h = min(shorter, _GROWTH * h)
        nodes.sort()
        return nodes

    def pieces(self, nodes: list[float]) -> tuple[list[list[tuple[float, float]]], float, float]:
        """The Gauss-Legendre points (d, weight) of each interval between
        ``nodes``, and the masses below the first node and above the last,
        all relative to the density at the mode."""
        points = []
        for lo, hi in zip(nodes, nodes[1:]):
            half = 0.5 * (hi - lo)
            mid = lo + half
            points.append([
                (mid + half * x, half * w * math.exp(self.logdens(mid + half * x)))
                for x, w in zip(_GL_X, _GL_W)
            ])
        # each tail beyond the grid, taken as exponential with the end slope
        below = math.exp(self.logdens(nodes[0])) / self.slope(nodes[0])
        above = -math.exp(self.logdens(nodes[-1])) / self.slope(nodes[-1])
        return points, below, above


class _Cdf:
    """The CDF of a Beta law's logit, tabulated for interpolation.

    Left of the mode, where the CDF P has an exponential tail, log P is
    interpolated; right of it, log(1 - P).  Each interval holds the quintic
    through both ends' value, slope and curvature.
    """

    def __init__(self, a: float, b: float):
        law = self.law = _LogitBeta(a, b)
        nodes = self.nodes = law.grid(*_TABLE_GRID, _DROP)
        points, below, above = law.pieces(nodes)
        masses = [sum(w for _, w in pts) for pts in points]
        total = below + above + sum(masses)
        cdf, acc = [], below
        for m in [0.0, *masses]:
            acc += m
            cdf.append(acc / total)
        sf, acc = [], above
        for m in [0.0, *reversed(masses)]:
            acc += m
            sf.append(acc / total)
        sf.reverse()
        dens = [math.exp(law.logdens(d)) / total for d in nodes]
        slopes = [law.slope(d) for d in nodes]
        sign = -1.0 if law.flip else 1.0
        self.coefficients = []
        for i in range(len(nodes) - 1):
            h = nodes[i + 1] - nodes[i]
            left = nodes[i + 1] <= 0.0
            ends = []
            for j in (i, i + 1):
                if left:  # y = log P: y' = f/P, y'' = f'/P - (f/P)**2
                    r = dens[j] / cdf[j]
                    ends.append((math.log(cdf[j]), r * h, (r * slopes[j] - r * r) * h * h))
                else:  # y = log(1 - P): y' = -f/S, y'' = -f'/S - (f/S)**2
                    r = dens[j] / sf[j]
                    ends.append((math.log(sf[j]), -r * h, (-r * slopes[j] - r * r) * h * h))
            (y0, d0, s0), (y1, d1, s1) = ends
            rise = y1 - y0
            # in the true orientation y is the log of P(V <= v) or of P(V > v),
            # and dP/dv = +-e**y dy/dd: that sign is folded into the last entry
            of_cdf = left != law.flip
            self.coefficients.append((
                of_cdf, nodes[i], 1.0 / h, y0, d0, 0.5 * s0,
                10 * rise - 6 * d0 - 4 * d1 - 1.5 * s0 + 0.5 * s1,
                -15 * rise + 8 * d0 + 7 * d1 + 1.5 * s0 - s1,
                6 * rise - 3 * d0 - 3 * d1 - 0.5 * s0 + 0.5 * s1,
                sign / h if of_cdf else -sign / h,
            ))

    def expect(self, points: list[tuple[float, float]], s: float, upper: bool) -> tuple[float, float]:
        """Over (log D, weight) points, the weighted sums of P(U <= e**s D),
        or of P(U > e**s D) when ``upper``, and of its derivative in s."""
        nodes, coefficients = self.nodes, self.coefficients
        last = len(coefficients)
        flip, mode = self.law.flip, self.law.mode
        # what U's law puts below the table's first node, and above its last,
        # in the true orientation: 0 or 1 each
        first, beyond = float(upper != flip), float(upper == flip)
        exp, expm1, log = math.exp, math.expm1, math.log
        total = slope = 0.0
        for log_d, w in points:
            l = log_d + s  # noqa: E741
            if l >= 0.0:  # e**s D >= 1 > U
                if not upper:
                    total += w
                continue
            em = expm1(l)
            m = l - log(-em)  # the logit of e**s D
            d = (-m if flip else m) - mode
            i = bisect_right(nodes, d) - 1
            if i < 0:
                total += w * first
            elif i >= last:
                total += w * beyond
            else:
                of_cdf, x0, inv_h, c0, c1, c2, c3, c4, c5, dens_scale = coefficients[i]
                t = (d - x0) * inv_h
                y = c0 + t * (c1 + t * (c2 + t * (c3 + t * (c4 + t * c5))))
                e = exp(y)
                # the derivative of logit(e**s D) in s is -1/em
                slope -= w * e * (c1 + t * (2 * c2 + t * (3 * c3 + t * (4 * c4 + t * 5 * c5)))) * (
                    dens_scale / em
                )
                if of_cdf != upper:
                    total += w * e
                else:
                    total -= w * (expm1(y) if e > 0.5 else e - 1.0)
        return total, slope


def _log_sigmoid(v: float) -> float:
    return -math.log1p(math.exp(-v)) if v > -30.0 else v - math.log1p(math.exp(v))


# a tanh-sinh rule on (-1, 1), as (distance from +1, weight): for the points
# of the summed law next to where e**s D reaches 1, since U's CDF has an edge
# (1 - x)**b there
_TANH_SINH = [
    (2.0 / (1.0 + math.exp(2.0 * phi)), w)
    for u in (k / 8 for k in range(-30, 31))
    for phi in (0.5 * math.pi * math.sinh(u),)
    for w in (0.5 * math.pi * math.cosh(u) / (8 * math.cosh(phi) ** 2),)
    if w > 1e-18
]


class _Ratio:
    """The law of log(U / D) for independent Betas U and D, D the one whose
    log has the smaller variance: P(log(U / D) <= s) = E[P(U <= e**s D)], a
    sum over Gauss-Legendre points of D of U's tabulated CDF."""

    def __init__(self, numerator: tuple[float, float], denominator: tuple[float, float]):
        self.cdf = _Cdf(*numerator)
        law = self.law = _LogitBeta(*denominator)
        nodes = law.grid(*_SUM_GRID, _SUM_DROP)
        points, below, above = law.pieces(nodes)
        self.total = below + above + sum(w for pts in points for _, w in pts)
        # the masses beyond the grid go to its end points
        points[0][0] = (points[0][0][0], points[0][0][1] + below)
        points[-1][-1] = (points[-1][-1][0], points[-1][-1][1] + above)
        # per interval, ascending in D's logit: (low end, [(log D, weight)])
        rows = [
            (
                min(law.to_v(lo), law.to_v(hi)),
                [(_log_sigmoid(law.to_v(d)), w / self.total) for d, w in pts],
            )
            for lo, hi, pts in zip(nodes, nodes[1:], points)
        ]
        if law.flip:
            rows.reverse()
        self.lows = [low for low, _ in rows]
        self.points = [p for _, pts in rows for p in pts]  # interval i's start at 4 i
        # the mass from each interval's low end upward
        self.upward = [0.0] * (len(rows) + 1)
        for i in range(len(rows) - 1, -1, -1):
            self.upward[i] = self.upward[i + 1] + sum(w for _, w in rows[i][1])

    def at(self, s: float, upper: bool) -> tuple[float, float]:
        """(P(log(U/D) <= s), or P(log(U/D) > s) when ``upper``, and the density at s)."""
        end = len(self.lows)
        edge = None
        if s > 0.0:  # e**s D reaches 1 where D's logit is logit(e**-s)
            edge = -s - math.log(-math.expm1(-s))
            inside = bisect_right(self.lows, edge) - 1
            if 0 <= inside < end:
                end = max(inside - 3, 0)
            else:
                edge = None
        total, slope = self.cdf.expect(self.points[: len(_GL_X) * end], s, upper)
        if edge is not None:
            # the intervals from ``end`` on, up to the edge, by tanh-sinh
            law, start = self.law, self.lows[end]
            half = 0.5 * (edge - start)
            near = []
            for distance, w in _TANH_SINH:
                v = edge - half * distance
                near.append((_log_sigmoid(v), half * w * math.exp(law.logdens(law.to_d(v))) / self.total))
            near_sf, near_slope = self.cdf.expect(near, s, True)
            total += near_sf if upper else self.upward[end] - near_sf
            slope += near_slope
        return total, slope

    def quantile(self, q: float, guess: float, scale: float) -> float:
        """The s with P(log(U/D) <= s) = q, or +-inf beyond e**s's float range.

        Newton's method on log P(s) - log q, or above the median on
        log(1 - q) - log(1 - P(s)), which are near linear in an exponential
        tail, kept inside a bracket that falls back to bisection.
        """
        upper = q > 0.5
        target = math.log1p(-q) if upper else math.log(q)
        lo, hi = _LOG_MIN, _LOG_MAX
        lo_seen = hi_seen = False
        s = min(max(guess, lo), hi)
        tolerance = _NEWTON_TOL * min(1.0, math.sqrt(scale))
        for _ in range(200):
            p, slope = self.at(s, upper)
            if p > 0.0:
                gap = (target - math.log(p)) if upper else (math.log(p) - target)
                slope /= p
            else:  # s is far out on the side of the tail that p measures
                gap, slope = (math.inf if upper else -math.inf), math.nan
            if gap < 0:
                lo, lo_seen = s, True
            else:
                hi, hi_seen = s, True
            new = None
            if math.isfinite(gap) and slope > 0 and math.isfinite(slope):
                new = s - gap / slope
                # the error after a Newton step is about step**2 / scale
                if abs(new - s) <= tolerance:
                    return new
                if not lo < new < hi:
                    new = None
            if new is None:
                if lo_seen and hi_seen:
                    new = 0.5 * (lo + hi)
                elif gap < 0:
                    if s >= _LOG_MAX:
                        return math.inf
                    scale *= 2.0
                    new = min(s + scale, _LOG_MAX)
                else:
                    if s <= _LOG_MIN:
                        return -math.inf
                    scale *= 2.0
                    new = max(s - scale, _LOG_MIN)
            if lo_seen and hi_seen and hi - lo <= 1e-12 * max(1.0, abs(s)):
                return new
            s = new
        return s


def _log_beta_moments(a: float, b: float) -> tuple[float, float]:
    """(E log B, Var log B) for B ~ Beta(a, b): digamma(a) - digamma(a+b) and
    trigamma(a) - trigamma(a+b), by recurrence up to 8 then asymptotic series."""
    n = a + b
    x, y = a, n
    mean = var = 0.0
    while x < 8.0:
        mean -= 1.0 / x
        var += 1.0 / (x * x)
        x += 1.0
    while y < 8.0:
        mean += 1.0 / y
        var -= 1.0 / (y * y)
        y += 1.0
    mean -= math.log1p((b + (y - n) - (x - a)) / x)  # log(x / y), with y - x exactly

    def series(z: float) -> tuple[float, float]:
        w = 1.0 / (z * z)
        return (
            -0.5 / z - w * (1 / 12 - w * (1 / 120 - w / 252)),
            1.0 / z + 0.5 * w + w / z * (1 / 6 - w * (1 / 30 - w / 42)),
        )

    (mean_x, var_x), (mean_y, var_y) = series(x), series(y)
    return mean + mean_x - mean_y, max(var + var_x - var_y, 0.0)


def ratio_quantiles(
    same: tuple[float, float], different: tuple[float, float], tail: float
) -> tuple[float, float]:
    """The ``tail`` and ``1 - tail`` quantiles of B1 / B2, for independent
    B1 ~ Beta(*same) and B2 ~ Beta(*different), 0 < tail < 1/2.

    Each pair of shapes has a + b >= 1, as a Dirichlet row with at least
    one observation has, and its shapes between 1e-100 and 1e100 or so.
    """
    mean1, var1 = _log_beta_moments(*same)
    mean2, var2 = _log_beta_moments(*different)
    # the sum runs over the law whose log has the smaller variance; when that
    # is B1, take the quantiles of B2 / B1 and invert them
    swap = var1 < var2
    ratio = _Ratio(different, same) if swap else _Ratio(same, different)
    mean = mean2 - mean1 if swap else mean1 - mean2
    scale = max(math.sqrt(var1 + var2), 1e-300)
    lower, upper = (
        ratio.quantile(q, mean + _normal_quantile(q) * scale, scale) for q in (tail, 1.0 - tail)
    )
    if swap:
        lower, upper = -upper, -lower
    upper = max(upper, lower)  # at a level near 0 both are the median, up to rounding
    return tuple(math.inf if s > 709.78 else math.exp(s) for s in (lower, upper))

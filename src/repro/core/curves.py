"""Service-curve algebra (Sections II and V of the paper).

A *service curve* ``S`` is a non-decreasing function with ``S(0) = 0``: a
session (or class) is guaranteed curve ``S`` if during any backlogged period
starting at ``t1`` it receives at least ``S(t2 - t1)`` service by every
``t2`` (eq. 1 of the paper).  Following Section V, user-facing curves are
**two-piece linear**, described by slope ``m1`` for the first ``d`` time
units and slope ``m2`` afterwards:

* ``m1 > m2`` -- *concave* curve: a burst served quickly, then a long-term
  rate.  Gives low delay decoupled from the rate (priority service).
* ``m1 < m2`` -- *convex* curve: service deferred, then a high rate.
* ``m1 == m2`` -- linear curve: plain rate guarantee (what WFQ/virtual
  clock provide).

:class:`ServiceCurve` is the immutable spec.  :class:`PiecewiseLinearCurve`
is a general non-decreasing piecewise-linear function with exact ``min``,
``sum``, ``shift`` and inverse operations; it serves as the reference
implementation against which the O(1) runtime curves of
:mod:`repro.core.runtime_curves` are property-tested, and as the engine for
admission control (sum of leaf curves <= server curve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError

INFINITY = float("inf")

#: Relative tolerance used when comparing curve values assembled through
#: different float operation orders.
REL_TOL = 1e-9


@dataclass(frozen=True)
class ServiceCurve:
    """Two-piece linear service curve through the origin (Fig. 7).

    ``value(x) = m1 * x`` for ``0 <= x <= d`` and
    ``value(x) = m1 * d + m2 * (x - d)`` for ``x > d``.

    Slopes are in service units per time unit (the library convention is
    bytes per second), ``d`` is in time units.
    """

    m1: float
    d: float
    m2: float

    def __post_init__(self) -> None:
        if self.m1 < 0 or self.m2 < 0:
            raise ConfigurationError("service curve slopes must be non-negative")
        if self.d < 0:
            raise ConfigurationError("service curve break point must be non-negative")
        if not (math.isfinite(self.m1) and math.isfinite(self.d)
                and math.isfinite(self.m2)):
            raise ConfigurationError("service curve parameters must be finite")

    # -- constructors ------------------------------------------------------

    @classmethod
    def linear(cls, rate: float) -> "ServiceCurve":
        """A linear curve: plain bandwidth guarantee of ``rate``."""
        return cls(rate, 0.0, rate)

    @classmethod
    def from_delay(cls, umax: float, dmax: float, rate: float) -> "ServiceCurve":
        """Build the curve of Fig. 7 from the paper's session parameters.

        ``umax`` is the largest unit of work (e.g. maximum packet or frame
        size, in bytes) for which the session requires a delay guarantee,
        ``dmax`` the guaranteed delay for that unit (seconds), and ``rate``
        the session's long-term rate (bytes/second).

        If ``umax / dmax > rate`` the session wants its bursts served faster
        than its average rate: the curve is concave with first slope
        ``umax / dmax`` up to ``x = dmax`` (Fig. 7a).  Otherwise the curve
        is convex with a first segment parallel to the x-axis until
        ``x = dmax - umax / rate`` (Fig. 7b) -- the only convex shape closed
        under the deadline-curve update (Section V).
        """
        if umax <= 0 or dmax <= 0 or rate <= 0:
            raise ConfigurationError("umax, dmax and rate must be positive")
        burst_rate = umax / dmax
        if burst_rate > rate:
            return cls(burst_rate, dmax, rate)
        return cls(0.0, dmax - umax / rate, rate)

    # -- classification ----------------------------------------------------

    @property
    def is_linear(self) -> bool:
        return self.m1 == self.m2 or self.d == 0.0

    @property
    def is_concave(self) -> bool:
        """True when the slope never increases (includes linear curves)."""
        return self.is_linear or self.m1 >= self.m2

    @property
    def is_convex(self) -> bool:
        """True when the slope never decreases (includes linear curves)."""
        return self.is_linear or self.m1 <= self.m2

    @property
    def rate(self) -> float:
        """Long-term (asymptotic) rate of the curve."""
        return self.m2

    @property
    def knee_y(self) -> float:
        """Service amount at the slope change point."""
        return self.m1 * self.d

    # -- evaluation --------------------------------------------------------

    def value(self, x: float) -> float:
        """``S(x)`` for ``x >= 0`` (0 for negative x, matching eq. 1 usage)."""
        if x <= 0:
            return 0.0
        if x <= self.d:
            return self.m1 * x
        return self.m1 * self.d + self.m2 * (x - self.d)

    def inverse(self, y: float) -> float:
        """Smallest ``x`` with ``S(x) >= y`` (``inf`` if never reached)."""
        if y <= 0:
            return 0.0
        knee = self.knee_y
        if y <= knee:
            # m1 > 0 here because knee > 0.
            return y / self.m1
        if self.m2 == 0:
            return INFINITY
        return self.d + (y - knee) / self.m2

    def scaled(self, factor: float) -> "ServiceCurve":
        """Curve with both slopes multiplied by ``factor`` (same break)."""
        if factor < 0:
            raise ConfigurationError("scale factor must be non-negative")
        return ServiceCurve(self.m1 * factor, self.d, self.m2 * factor)

    def to_piecewise(self) -> "PiecewiseLinearCurve":
        """Exact piecewise-linear representation anchored at the origin."""
        if self.is_linear:
            return PiecewiseLinearCurve([(0.0, 0.0)], self.m2)
        return PiecewiseLinearCurve([(0.0, 0.0), (self.d, self.knee_y)], self.m2)

    def __add__(self, other: "ServiceCurve") -> "PiecewiseLinearCurve":
        return self.to_piecewise().sum_with(other.to_piecewise())


class PiecewiseLinearCurve:
    """A non-decreasing piecewise-linear function on ``[x0, inf)``.

    Represented by breakpoints ``[(x0, y0), (x1, y1), ...]`` (strictly
    increasing in x, non-decreasing in y, linear between consecutive points)
    plus the slope beyond the last breakpoint.  All the algebra needed by
    the paper -- pointwise ``min``, pointwise ``sum``, shifting, inverse,
    domination tests -- is implemented exactly, making this the ground truth
    for the runtime curves and the admission-control engine.
    """

    __slots__ = ("points", "final_slope")

    def __init__(self, points: Sequence[Tuple[float, float]], final_slope: float):
        if not points:
            raise ConfigurationError("curve needs at least one breakpoint")
        if final_slope < 0:
            raise ConfigurationError("final slope must be non-negative")
        cleaned: List[Tuple[float, float]] = [
            (float(points[0][0]), float(points[0][1]))
        ]
        for x, y in points[1:]:
            last_x, last_y = cleaned[-1]
            if x < last_x:
                raise ConfigurationError("breakpoints must be x-sorted")
            if x == last_x:
                if abs(y - last_y) > _tol(y, last_y):
                    raise ConfigurationError("duplicate x with different y")
                continue
            if y < last_y - _tol(y, last_y):
                raise ConfigurationError("curve must be non-decreasing")
            cleaned.append((float(x), max(float(y), last_y)))
        self.points: Tuple[Tuple[float, float], ...] = tuple(
            _drop_collinear(cleaned, final_slope)
        )
        self.final_slope = float(final_slope)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, x0: float, y0: float) -> "PiecewiseLinearCurve":
        return cls([(x0, y0)], 0.0)

    @classmethod
    def line(cls, x0: float, y0: float, slope: float) -> "PiecewiseLinearCurve":
        return cls([(x0, y0)], slope)

    @classmethod
    def from_service_curve(
        cls, curve: ServiceCurve, x0: float = 0.0, y0: float = 0.0
    ) -> "PiecewiseLinearCurve":
        """The spec shifted so that it starts at ``(x0, y0)``."""
        return curve.to_piecewise().shifted(x0, y0)

    # -- basic properties ---------------------------------------------------

    @property
    def x_start(self) -> float:
        return self.points[0][0]

    @property
    def y_start(self) -> float:
        return self.points[0][1]

    def slopes(self) -> List[float]:
        """Slope of every segment, left to right (last is final_slope)."""
        result = []
        for (x1, y1), (x2, y2) in zip(self.points, self.points[1:]):
            result.append((y2 - y1) / (x2 - x1))
        result.append(self.final_slope)
        return result

    def is_concave(self) -> bool:
        slopes = self.slopes()
        return all(a >= b - _tol(a, b) for a, b in zip(slopes, slopes[1:]))

    def is_convex(self) -> bool:
        slopes = self.slopes()
        return all(a <= b + _tol(a, b) for a, b in zip(slopes, slopes[1:]))

    # -- evaluation ---------------------------------------------------------

    def value(self, x: float) -> float:
        """Curve value at ``x`` (clamped to the start for ``x < x_start``)."""
        points = self.points
        if x <= points[0][0]:
            return points[0][1]
        last_x, last_y = points[-1]
        if x >= last_x:
            return last_y + self.final_slope * (x - last_x)
        lo, hi = 0, len(points) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if points[mid][0] <= x:
                lo = mid
            else:
                hi = mid
        x1, y1 = points[lo]
        x2, y2 = points[hi]
        return y1 + (y2 - y1) * (x - x1) / (x2 - x1)

    def inverse(self, y: float) -> float:
        """Smallest ``x >= x_start`` with ``value(x) >= y`` (inf if never)."""
        points = self.points
        if y <= points[0][1]:
            return points[0][0]
        last_x, last_y = points[-1]
        if y > last_y:
            if self.final_slope == 0:
                return INFINITY
            return last_x + (y - last_y) / self.final_slope
        lo, hi = 0, len(points) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if points[mid][1] >= y:
                hi = mid
            else:
                lo = mid
        x1, y1 = points[lo]
        x2, y2 = points[hi]
        if y2 == y1:
            return x1
        return x1 + (x2 - x1) * (y - y1) / (y2 - y1)

    # -- algebra ------------------------------------------------------------

    def shifted(self, dx: float, dy: float) -> "PiecewiseLinearCurve":
        return PiecewiseLinearCurve(
            [(x + dx, y + dy) for x, y in self.points], self.final_slope
        )

    def sum_with(self, other: "PiecewiseLinearCurve") -> "PiecewiseLinearCurve":
        """Pointwise sum on the union of the two domains.

        Outside its own domain each curve contributes its clamped start
        value, matching how per-class curves through the origin are summed
        for admission control.
        """
        xs = sorted({x for x, _ in self.points} | {x for x, _ in other.points})
        points = [(x, self.value(x) + other.value(x)) for x in xs]
        return PiecewiseLinearCurve(points, self.final_slope + other.final_slope)

    def min_with(self, other: "PiecewiseLinearCurve") -> "PiecewiseLinearCurve":
        """Exact pointwise minimum (breakpoints at crossings included)."""
        xs = sorted({x for x, _ in self.points} | {x for x, _ in other.points})
        # Insert crossing points between consecutive knots.
        enriched: List[float] = []
        for x1, x2 in zip(xs, xs[1:]):
            enriched.append(x1)
            cross = _segment_crossing(self, other, x1, x2)
            if cross is not None:
                enriched.append(cross)
        enriched.append(xs[-1])
        # A final crossing may exist beyond the last knot.
        tail_cross = _tail_crossing(self, other, xs[-1])
        if tail_cross is not None:
            enriched.append(tail_cross)
        points = [(x, min(self.value(x), other.value(x))) for x in enriched]
        final = min(self.final_slope, other.final_slope)
        # Whoever is lower at (and beyond) the last knot dictates the final
        # slope; with a crossing appended, both agree there.
        x_last = enriched[-1]
        probe = x_last + 1.0
        if self.value(probe) < other.value(probe):
            final = self.final_slope
        elif other.value(probe) < self.value(probe):
            final = other.final_slope
        return PiecewiseLinearCurve(points, final)

    def dominates(self, other: "PiecewiseLinearCurve", rel_tol: float = REL_TOL) -> bool:
        """True when ``self(x) >= other(x)`` for every x in both domains."""
        xs = sorted({x for x, _ in self.points} | {x for x, _ in other.points})
        for x in xs:
            a, b = self.value(x), other.value(x)
            if a < b - _tol(a, b, rel_tol):
                return False
        if self.final_slope < other.final_slope - _tol(
            self.final_slope, other.final_slope, rel_tol
        ):
            return False
        # Beyond the last knot the comparison is between two lines; check a
        # far probe point to catch a late crossing.
        probe = xs[-1] + 1e6
        a, b = self.value(probe), other.value(probe)
        return a >= b - _tol(a, b, max(rel_tol, 1e-7))

    def equals(self, other: "PiecewiseLinearCurve", rel_tol: float = REL_TOL) -> bool:
        return self.dominates(other, rel_tol) and other.dominates(self, rel_tol)

    def __repr__(self) -> str:
        pts = ", ".join(f"({x:g}, {y:g})" for x, y in self.points)
        return f"PiecewiseLinearCurve([{pts}], final_slope={self.final_slope:g})"


def sum_curves(curves: Iterable[PiecewiseLinearCurve]) -> PiecewiseLinearCurve:
    """Pointwise sum of an iterable of curves (at least one required)."""
    iterator = iter(curves)
    try:
        total = next(iterator)
    except StopIteration:
        raise ConfigurationError("sum_curves requires at least one curve") from None
    for curve in iterator:
        total = total.sum_with(curve)
    return total


def is_admissible(
    leaf_curves: Sequence[ServiceCurve], server_rate: float, rel_tol: float = 1e-9
) -> bool:
    """Admissibility condition of Section II.

    SCED (and therefore H-FSC's real-time criterion) can guarantee all
    service curves iff ``sum_i S_i(t) <= R * t`` for all ``t``, where ``R``
    is the (linear) server rate.
    """
    if not leaf_curves:
        return True
    total = sum_curves([c.to_piecewise() for c in leaf_curves])
    server = PiecewiseLinearCurve.line(0.0, 0.0, server_rate)
    return server.dominates(total, rel_tol)


# -- helpers ---------------------------------------------------------------


def _tol(a: float, b: float, rel_tol: float = REL_TOL) -> float:
    return rel_tol * max(1.0, abs(a), abs(b))


def _drop_collinear(
    points: List[Tuple[float, float]], final_slope: float
) -> List[Tuple[float, float]]:
    """Remove interior breakpoints that do not change the slope."""
    if len(points) <= 1:
        return points
    result = [points[0]]
    for i in range(1, len(points)):
        x, y = points[i]
        if i < len(points) - 1:
            nx, ny = points[i + 1]
            slope_out = (ny - y) / (nx - x)
        else:
            slope_out = final_slope
        px, py = result[-1]
        slope_in = (y - py) / (x - px)
        if abs(slope_in - slope_out) <= _tol(slope_in, slope_out):
            continue
        result.append((x, y))
    return result


def _segment_crossing(
    a: PiecewiseLinearCurve, b: PiecewiseLinearCurve, x1: float, x2: float
) -> Optional[float]:
    """Interior x in (x1, x2) where the two (locally linear) curves cross."""
    d1 = a.value(x1) - b.value(x1)
    d2 = a.value(x2) - b.value(x2)
    if d1 == 0.0 or d2 == 0.0 or (d1 > 0) == (d2 > 0):
        return None
    # Linear interpolation of the difference is exact between shared knots.
    return x1 + (x2 - x1) * (-d1) / (d2 - d1)


def _tail_crossing(
    a: PiecewiseLinearCurve, b: PiecewiseLinearCurve, x_last: float
) -> Optional[float]:
    """Crossing beyond the final knot, where both curves are single lines."""
    d0 = a.value(x_last) - b.value(x_last)
    dslope = a.final_slope - b.final_slope
    if d0 == 0.0 or dslope == 0.0 or (d0 > 0) == (dslope > 0):
        return None
    return x_last + (-d0) / dslope

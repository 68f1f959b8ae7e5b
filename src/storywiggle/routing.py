"""Circular-arc routing for the wiggles of a fixed layout.

Across a gap every character either stays flat (a horizontal segment)
or wiggles: it leaves its level on one tangent circular arc and lands
on the next level via a second, externally tangent arc, giving a smooth
S shape.  Tangency ties the gap's horizontal extent to the radii: with
vertical travel dy and radii r1 (leaving) and r2 (landing), the extent
dx obeys dx^2 = 2 (r1 + r2) |dy| - dy^2, and the S is x-monotone iff
r1 + r2 >= |dy|.

All wiggling characters of a gap share one dx, so routing a gap is a
small program over X = dx^2 and the radii.  Separation rows keep the
arcs of vertically close same-direction pairs from touching by pushing
their arc centers together: at equality the two leaving (or landing)
circles are concentric, and concentric same-branch arcs keep at least
their radius difference of vertical distance.  The first stage
minimizes X; the second pins X and minimizes the total separation
slack, so ties break toward concentric arcs.

Substituting r2 = s(X) - r1, with s(X) = (X + dy^2) / (2 |dy|), makes
every row a difference constraint on the leaving radii whose
right-hand side is affine in X.  The bounds r_min <= r1 <= s(X) - r_min
are arcs from and to a ground node; each separation row is an arc
between its pair, running down the step-t levels for rising pairs and
up them for falling ones.  Those arcs form a DAG, so every cycle passes
once through ground and closes along an upper-bound arc, whose slope in
X is -1 / (2 |dy|).  `*_LEFT` rows do not depend on X.  A `*_RIGHT` row
sits on the landing radii, and its tail moves less than its head, so its
slope is negative too.  Every cycle's weight therefore falls as X grows:
some X fits every pair, and no pair is ever dropped.  The least such X
is a maximum cycle ratio, found by Newton's method (Dinkelbach 1967;
Radzik 1992) in a few longest-path passes in level order.  A gap
without pairs needs none: each mover alone asks for
X >= max(dy^2, 4 r_min |dy| - dy^2).  With X fixed, concentricity is an
LP over the paired movers' leaving radii, solved only where pairs are
kept; movers in no pair take balanced radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .instance import Coordination, OrderedStorylineInstance
from .programs import GE, LinearConstraint, ModelError, OptimizationModel, Variable
from .solver import SolveStatus, SolverConfig, solve_model

UP_LEFT = "up_left"
UP_RIGHT = "up_right"
DOWN_LEFT = "down_left"
DOWN_RIGHT = "down_right"

_ZERO_TOL = 1e-9


@dataclass(frozen=True)
class Arc:
    """One circular arc in math coordinates (y up, angles ccw)."""
    center: tuple[float, float]
    radius: float
    start_angle: float
    end_angle: float
    ccw: bool

    def point_at(self, angle: float) -> tuple[float, float]:
        return (self.center[0] + self.radius * math.cos(angle),
                self.center[1] + self.radius * math.sin(angle))


@dataclass(frozen=True)
class WigglePath:
    """A character's curve across one gap: two arcs or a flat segment."""
    start: tuple[float, float]
    end: tuple[float, float]
    arcs: tuple[Arc, Arc] | None
    junction: tuple[float, float] | None

    @property
    def flat(self) -> bool:
        return self.arcs is None


@dataclass(frozen=True)
class RoutedPair:
    """A same-direction close pair plus its separation constraint side."""
    lower: str
    upper: str
    side: str
    sep_start: float
    sep_end: float


@dataclass
class GapRouting:
    """Solved routing for one gap."""
    gap: int
    dx: float
    radii: dict[str, tuple[float, float]]
    wiggling: tuple[str, ...]
    pairs: tuple[RoutedPair, ...]

    @property
    def dropped(self) -> tuple[RoutedPair, ...]:
        """Always empty: the separation system is feasible at a large enough X."""
        return ()


@dataclass
class RoutingPlan:
    gaps: list[GapRouting]

    def report(self) -> dict:
        return {
            "gaps": [
                {
                    "gap": g.gap,
                    "dx": g.dx,
                    "wiggling": list(g.wiggling),
                    "pairs": [
                        {"lower": p.lower, "upper": p.upper, "side": p.side,
                         "sepStart": p.sep_start, "sepEnd": p.sep_end}
                        for p in g.pairs],
                    "dropped": [
                        {"lower": p.lower, "upper": p.upper, "side": p.side}
                        for p in g.dropped],
                    "radii": {c: {"leave": r1, "land": r2}
                              for c, (r1, r2) in sorted(g.radii.items())},
                }
                for g in self.gaps
            ],
            "droppedTotal": sum(len(g.dropped) for g in self.gaps),
        }


def arc_pair(start: tuple[float, float], end: tuple[float, float],
             r_leave: float, r_land: float) -> WigglePath:
    """Build the tangent arc pair from `start` to `end`.

    The radii must satisfy the tangency identity for the points' dx and
    dy; a zero dy collapses to a flat segment.
    """
    dy = end[1] - start[1]
    if abs(dy) <= _ZERO_TOL:
        return WigglePath(start, end, None, None)
    dx = end[0] - start[0]
    ident = 2.0 * (r_leave + r_land) * abs(dy) - dy * dy
    if abs(dx * dx - ident) > 1e-6 * max(1.0, dx * dx):
        raise ValueError(
            f"radii break the tangency identity: dx^2={dx * dx}, "
            f"2(r1+r2)|dy|-dy^2={ident}")
    sign = 1.0 if dy > 0 else -1.0
    c1 = (start[0], start[1] + sign * r_leave)
    c2 = (end[0], end[1] - sign * r_land)
    vec = (c2[0] - c1[0], c2[1] - c1[1])
    dist = math.hypot(*vec)
    junction = (c1[0] + r_leave * vec[0] / dist,
                c1[1] + r_leave * vec[1] / dist)
    theta = math.atan2(vec[1], vec[0])
    if dy > 0:
        first = Arc(c1, r_leave, -math.pi / 2.0, theta, ccw=True)
        second = Arc(c2, r_land, theta + math.pi, math.pi / 2.0, ccw=False)
    else:
        first = Arc(c1, r_leave, math.pi / 2.0, theta, ccw=False)
        second = Arc(c2, r_land, theta - math.pi, -math.pi / 2.0, ccw=True)
    return WigglePath(start, end, (first, second), junction)


def sample_path(path: WigglePath, n: int = 65) -> list[tuple[float, float]]:
    """Polyline along the curve, n points per arc (or segment ends)."""
    if path.arcs is None:
        return [path.start, path.end]
    pts: list[tuple[float, float]] = []
    for arc in path.arcs:
        a0, a1 = arc.start_angle, arc.end_angle
        if arc.ccw and a1 < a0:
            a1 += 2.0 * math.pi
        if not arc.ccw and a1 > a0:
            a1 -= 2.0 * math.pi
        for i in range(n):
            pts.append(arc.point_at(a0 + (a1 - a0) * i / (n - 1)))
    return pts


def path_y_at(path: WigglePath, x: float) -> float:
    """Height of an x-monotone curve at x (clamped to its x range)."""
    x0, x1 = path.start[0], path.end[0]
    if x <= x0:
        return path.start[1]
    if x >= x1:
        return path.end[1]
    if path.arcs is None:
        return path.start[1]
    first, second = path.arcs
    junction_x = path.junction[0] if path.junction else x1
    arc = first if x <= junction_x else second
    cx, cy = arc.center
    inside = max(arc.radius ** 2 - (x - cx) ** 2, 0.0)
    root = math.sqrt(inside)
    rising = path.end[1] > path.start[1]
    if arc is first:
        return cy - root if rising else cy + root
    return cy + root if rising else cy - root


def arc_tangent_angle(arc: Arc, angle: float) -> float:
    """Direction of travel at the given polar angle, in (-pi, pi]."""
    tangent = angle + math.pi / 2.0 if arc.ccw else angle - math.pi / 2.0
    return math.atan2(math.sin(tangent), math.cos(tangent))


def _arc_span(arc: Arc) -> tuple[float, float]:
    """Swept angle range [a0, a1] with a1 unwrapped past a0."""
    a0, a1 = arc.start_angle, arc.end_angle
    if arc.ccw and a1 < a0:
        a1 += 2.0 * math.pi
    if not arc.ccw and a1 > a0:
        a1 -= 2.0 * math.pi
    return (a0, a1) if a0 <= a1 else (a1, a0)


def _ray_hits_arc(p: tuple[float, float], n: tuple[float, float],
                  arc: Arc) -> list[float]:
    ex, ey = p[0] - arc.center[0], p[1] - arc.center[1]
    b = ex * n[0] + ey * n[1]
    c = ex * ex + ey * ey - arc.radius ** 2
    disc = b * b - c
    if disc < 0.0:
        return []
    lo, hi = _arc_span(arc)
    hits = []
    for s in (-b - math.sqrt(disc), -b + math.sqrt(disc)):
        if s <= 1e-9:
            continue
        hx = p[0] + s * n[0] - arc.center[0]
        hy = p[1] + s * n[1] - arc.center[1]
        ang = math.atan2(hy, hx)
        # shift by whole turns into [lo, lo + 2pi) before the range test
        ang += 2.0 * math.pi * math.ceil((lo - ang) / (2.0 * math.pi))
        if ang <= hi + 1e-12:
            hits.append(s)
    return hits


def _ray_hits_segment(p: tuple[float, float], n: tuple[float, float],
                      a: tuple[float, float], b: tuple[float, float],
                      ) -> list[float]:
    dx, dy = b[0] - a[0], b[1] - a[1]
    det = n[0] * (-dy) - n[1] * (-dx)
    if abs(det) < 1e-15:
        return []
    rx, ry = a[0] - p[0], a[1] - p[1]
    s = (rx * (-dy) - ry * (-dx)) / det
    u = (n[0] * ry - n[1] * rx) / det
    return [s] if s > 1e-9 and -1e-12 <= u <= 1.0 + 1e-12 else []


def _cast_normal(p: tuple[float, float], n: tuple[float, float],
                 target: WigglePath) -> float:
    """Length of the normal segment from p to the target curve (inf if none)."""
    hits: list[float] = []
    if target.arcs is None:
        hits += _ray_hits_segment(p, n, target.start, target.end)
    else:
        for arc in target.arcs:
            hits += _ray_hits_arc(p, n, arc)
    return min(hits, default=math.inf)


def _point_and_normal(path: WigglePath, x: float, upward: bool,
                      ) -> tuple[tuple[float, float], tuple[float, float] | None]:
    """Curve point at x and the unit normal on the requested side."""
    y = path_y_at(path, x)
    p = (x, y)
    if path.arcs is None or x <= path.start[0] or x >= path.end[0]:
        return p, (0.0, 1.0 if upward else -1.0)
    first, second = path.arcs
    arc = first if x <= path.junction[0] else second
    ux = (x - arc.center[0]) / arc.radius
    uy = (y - arc.center[1]) / arc.radius
    if abs(uy) < 1e-12:
        return p, None                         # vertical tangent, no side
    if (uy > 0.0) != upward:
        ux, uy = -ux, -uy
    return p, (ux, uy)


def radial_distance_profile(lower: WigglePath, upper: WigglePath,
                            samples: int = 100) -> list[float]:
    """Radial distance between two curves sampled across their shared x run.

    At each position the distance is the shorter of the two directed
    normal segments, lower curve up versus upper curve down; positions
    where neither normal reaches the other curve sample as inf.
    """
    x0 = max(lower.start[0], upper.start[0])
    x1 = min(lower.end[0], upper.end[0])
    values: list[float] = []
    for i in range(samples):
        x = x0 + (x1 - x0) * i / (samples - 1) if samples > 1 else x0
        p_low, n_low = _point_and_normal(lower, x, upward=True)
        p_up, n_up = _point_and_normal(upper, x, upward=False)
        dist = math.inf
        if n_low is not None:
            dist = min(dist, _cast_normal(p_low, n_low, upper))
        if n_up is not None:
            dist = min(dist, _cast_normal(p_up, n_up, lower))
        values.append(dist)
    return values


def is_monotone(values: list[float], tol: float = 1e-6) -> bool:
    """True when the finite subsequence never reverses direction."""
    finite = [v for v in values if math.isfinite(v)]
    rising = all(b - a >= -tol for a, b in zip(finite, finite[1:]))
    falling = all(a - b >= -tol for a, b in zip(finite, finite[1:]))
    return rising or falling


def _movers(inst: OrderedStorylineInstance, coord: Coordination,
            t: int) -> list[tuple[str, float, float]]:
    """Characters of gap t that change level, with both levels."""
    movers = []
    for c in inst.shared_at_gap(t):
        y0, y1 = coord.y(t, c), coord.y(t + 1, c)
        if abs(y1 - y0) > _ZERO_TOL:
            movers.append((c, y0, y1))
    return movers


def classify_pairs(inst: OrderedStorylineInstance, coord: Coordination,
                   t: int) -> list[RoutedPair]:
    """Same-direction wiggling pairs of gap t whose boxes touch.

    Pairs are keyed lower/upper by the step-t level.  Crossing pairs and
    pairs whose y-ranges stay apart need no separation row.  The side
    tells which arcs carry the constraint: the end where the pair is
    closer, where ends within `_ZERO_TOL` of each other tie and go left,
    so rounding in the layout cannot pick the side.
    """
    movers = _movers(inst, coord, t)
    pairs: list[RoutedPair] = []
    for i, (c, cy0, cy1) in enumerate(movers):
        for d, dy0, dy1 in movers[i + 1:]:
            if (cy1 - cy0 > 0) != (dy1 - dy0 > 0):
                continue
            lo, lo0, lo1, hi, hi0, hi1 = (
                (c, cy0, cy1, d, dy0, dy1) if cy0 < dy0
                else (d, dy0, dy1, c, cy0, cy1))
            sep_start = hi0 - lo0
            sep_end = hi1 - lo1
            if sep_start <= _ZERO_TOL or sep_end <= _ZERO_TOL:
                continue
            if min(hi0, hi1) - max(lo0, lo1) > _ZERO_TOL:
                continue
            left = sep_start <= sep_end + _ZERO_TOL
            if cy1 > cy0:
                side = UP_LEFT if left else UP_RIGHT
            else:
                side = DOWN_LEFT if left else DOWN_RIGHT
            pairs.append(RoutedPair(lo, hi, side, sep_start, sep_end))
    return pairs


def separation_arcs(pairs: list[RoutedPair], dy: dict[str, float],
                    ) -> list[tuple[str, str, float, float]]:
    """Each pair's separation row as an arc (tail, head, alpha, beta).

    The arc reads r1_head - r1_tail >= alpha + beta X on the leaving
    radii, after r2 = s(X) - r1 on the landing ones.  Rising pairs run
    from upper to lower, falling pairs from lower to upper.
    """
    arcs = []
    for p in pairs:
        rising = p.side in (UP_LEFT, UP_RIGHT)
        tail, head = (p.upper, p.lower) if rising else (p.lower, p.upper)
        if p.side in (UP_LEFT, DOWN_LEFT):
            arcs.append((tail, head, p.sep_start, 0.0))
        else:
            # r2_tail - r2_head >= sep_end
            ht, hh = abs(dy[tail]), abs(dy[head])
            arcs.append((tail, head, p.sep_end + (hh - ht) / 2.0,
                         1.0 / (2.0 * hh) - 1.0 / (2.0 * ht)))
    return arcs


def _min_extent(t: int, order: list[str], arcs: list[tuple[str, str, float, float]],
                dy: dict[str, float], r_min: float) -> float:
    """Least X = dx^2 at which gap t's leaving radii fit (Newton's method).

    Starts at the least X of the movers taken alone.  Each pass takes
    the longest path from ground over `order`, a topological order of
    the arcs, and closes it back to ground along r1 <= s(X) - r_min.
    The most violated cycle, of weight alpha + beta X, sets
    X = -alpha / beta; a pass that finds no violated cycle, or cannot
    raise X, ends the loop.
    """
    x = max(max(d * d, 4.0 * r_min * abs(d) - d * d) for d in dy.values())
    into: dict[str, list[tuple[str, float, float]]] = {}
    for tail, head, alpha, beta in arcs:
        into.setdefault(head, []).append((tail, alpha, beta))
    while arcs:
        path: dict[str, tuple[float, float, float]] = {}
        worst, cycle = 0.0, None
        for c in order:
            best = (r_min, r_min, 0.0)          # value, alpha, beta from ground
            for tail, alpha, beta in into.get(c, ()):
                v, a, b = path[tail]
                v += alpha + beta * x
                if v > best[0]:
                    best = (v, a + alpha, b + beta)
            path[c] = best
            h = abs(dy[c])
            excess = best[0] + r_min - (x + h * h) / (2.0 * h)
            if excess > worst:
                worst, cycle = excess, (best[1] + r_min - h / 2.0,
                                        best[2] - 1.0 / (2.0 * h))
        if cycle is None:
            break
        alpha, beta = cycle
        if beta >= 0.0:
            raise ModelError(
                f"gap {t} routing has a separation cycle no extent clears")
        x_next = -alpha / beta
        if x_next <= x:
            break
        x = x_next
    return x


def _concentricity_program(t: int, pairs: list[RoutedPair],
                           arcs: list[tuple[str, str, float, float]],
                           spans: dict[str, float], r_min: float,
                           x: float) -> OptimizationModel:
    """Stage 2 of gap t: the paired movers' leaving radii at extent X.

    Each separation row is a difference of two leaving radii, and the
    cost is the sum of their left-hand sides, so the optimum minimizes
    the total separation slack.
    """
    cost: dict[str, float] = {}
    model = OptimizationModel(f"route_gap{t}")
    for p, (tail, head, alpha, beta) in zip(pairs, arcs):
        cost[head] = cost.get(head, 0.0) + 1.0
        cost[tail] = cost.get(tail, 0.0) - 1.0
        model.constraints.append(LinearConstraint(
            f"sep_{p.side}_{p.lower}_{p.upper}",
            ((f"rleave_{head}", 1.0), (f"rleave_{tail}", -1.0)),
            GE, alpha + beta * x))
    for c, coefficient in cost.items():
        # rounding can leave s(X) a hair under 2 r_min
        model.variables.append(Variable(
            f"rleave_{c}", r_min, max(r_min, spans[c] - r_min)))
        model.objective[f"rleave_{c}"] = coefficient
    return model


def route_gap(inst: OrderedStorylineInstance, coord: Coordination, t: int, *,
              r_min: float, config: SolverConfig | None = None) -> GapRouting:
    """Route one gap: minimal extent, then maximal concentricity.

    The extent comes from `_min_extent` with no LP.  Movers in no pair
    take balanced radii; only a gap with pairs solves one LP, for the
    paired movers' radii.
    """
    movers = _movers(inst, coord, t)
    if not movers:
        return GapRouting(t, 0.0, {}, (), ())
    y0 = {c: a for c, a, _ in movers}
    dy = {c: b - a for c, a, b in movers}
    pairs = sorted(classify_pairs(inst, coord, t),
                   key=lambda p: (p.lower, p.upper))
    arcs = separation_arcs(pairs, dy)
    paired = {p.lower for p in pairs} | {p.upper for p in pairs}
    # arcs run down the levels of rising movers and up those of falling ones
    order = sorted((c for c, _, _ in movers if c in paired),
                   key=lambda c: y0[c] if dy[c] < 0 else -y0[c])
    x = _min_extent(t, order, arcs, dy, r_min)
    spans = {c: (x + d * d) / (2.0 * abs(d)) for c, d in dy.items()}
    # nothing else pins the split, so balance the S symmetrically
    radii = {c: (s / 2.0, s / 2.0) for c, s in spans.items()}
    if pairs:
        model = _concentricity_program(t, pairs, arcs, spans, r_min, x)
        result = solve_model(model, config)
        if result.status is not SolveStatus.OPTIMAL:
            raise ModelError(
                f"gap {t} routing stage 2 ended {result.status.value}")
        for c in paired:
            r1 = result.assignment[f"rleave_{c}"]
            radii[c] = (r1, spans[c] - r1)
    return GapRouting(
        gap=t,
        dx=math.sqrt(x),
        radii=radii,
        wiggling=tuple(sorted(dy)),
        pairs=tuple(pairs),
    )


def route_all_gaps(inst: OrderedStorylineInstance, coord: Coordination, *,
                   r_min: float, config: SolverConfig | None = None) -> RoutingPlan:
    return RoutingPlan([route_gap(inst, coord, t, r_min=r_min, config=config)
                        for t in inst.gaps()])


def gap_paths(inst: OrderedStorylineInstance, coord: Coordination,
              routing: GapRouting, x_start: float, x_end: float,
              ) -> dict[str, WigglePath]:
    """Concrete curves for one gap placed at real x positions.

    The arcs live in the centered `dx` window of the gap; flat leads
    connect them to the step positions on both sides.
    """
    t = routing.gap
    paths: dict[str, WigglePath] = {}
    pad = max((x_end - x_start - routing.dx) / 2.0, 0.0)
    for c in inst.shared_at_gap(t):
        y0, y1 = coord.y(t, c), coord.y(t + 1, c)
        if c in routing.radii:
            r1, r2 = routing.radii[c]
            paths[c] = arc_pair((x_start + pad, y0), (x_end - pad, y1), r1, r2)
        else:
            paths[c] = WigglePath((x_start, y0), (x_end, y1), None, None)
    return paths

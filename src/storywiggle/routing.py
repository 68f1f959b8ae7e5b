"""Circular-arc routing for the wiggles of a fixed layout.

Across a gap every character either stays flat (a horizontal segment)
or wiggles: it leaves its level on one tangent circular arc and lands
on the next level via a second, externally tangent arc, giving a smooth
S shape.  Tangency ties the gap's horizontal extent to the radii: with
vertical travel dy and radii r1 (leaving) and r2 (landing), the extent
dx obeys dx^2 = 2 (r1 + r2) |dy| - dy^2, and the S is x-monotone iff
r1 + r2 >= |dy|.

All wiggling characters of a gap share one dx, so routing a gap is a
small LP over X = dx^2 and the radii.  Separation rows keep the arcs of
vertically close same-direction pairs from touching by pushing their
arc centers together: at equality the two leaving (or landing) circles
are concentric, and concentric same-branch arcs keep at least their
radius difference of vertical distance.  A first solve minimizes X; a
second solve pins X and minimizes the total separation slack, so ties
break toward concentric arcs.  If the separation rows are jointly
infeasible the most distant pairs are dropped first, and the dropped
pairs are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .instance import Coordination, OrderedStorylineInstance
from .programs import EQ, GE, LinearConstraint, ModelError, OptimizationModel, Variable
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
    dropped: tuple[RoutedPair, ...]


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


def classify_pairs(inst: OrderedStorylineInstance, coord: Coordination,
                   t: int, zero_tol: float = _ZERO_TOL) -> list[RoutedPair]:
    """Same-direction wiggling pairs of gap t whose boxes touch.

    Pairs are keyed lower/upper by the step-t level.  Crossing pairs and
    pairs whose y-ranges stay apart need no separation row.  The side
    tells which arcs carry the constraint: the end where the pair is
    closer, where ends within `zero_tol` of each other tie and go left,
    so rounding in the layout cannot pick the side.
    """
    shared = inst.shared_at_gap(t)
    movers = []
    for c in shared:
        y0, y1 = coord.y(t, c), coord.y(t + 1, c)
        if abs(y1 - y0) > zero_tol:
            movers.append((c, y0, y1))
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
            if sep_start <= zero_tol or sep_end <= zero_tol:
                continue
            if min(hi0, hi1) - max(lo0, lo1) > zero_tol:
                continue
            left = sep_start <= sep_end + zero_tol
            if cy1 > cy0:
                side = UP_LEFT if left else UP_RIGHT
            else:
                side = DOWN_LEFT if left else DOWN_RIGHT
            pairs.append(RoutedPair(lo, hi, side, sep_start, sep_end))
    return pairs


def build_routing_program(inst: OrderedStorylineInstance, coord: Coordination,
                          t: int, r_min: float,
                          pairs: list[RoutedPair]) -> tuple[OptimizationModel, dict]:
    """LP over X = dx^2 and the wiggling radii of gap t."""
    shared = inst.shared_at_gap(t)
    movers = [(c, coord.y(t + 1, c) - coord.y(t, c)) for c in shared
              if abs(coord.y(t + 1, c) - coord.y(t, c)) > _ZERO_TOL]
    model = OptimizationModel(f"route_gap{t}")
    names: dict[str, tuple[str, str]] = {}
    x_lower = max((dy * dy for _, dy in movers), default=0.0)
    model.variables.append(Variable("X", x_lower, math.inf))
    model.objective = {"X": 1.0}
    for c, dy in movers:
        r1 = f"rleave_{c}"
        r2 = f"rland_{c}"
        names[c] = (r1, r2)
        model.variables.append(Variable(r1, r_min, math.inf))
        model.variables.append(Variable(r2, r_min, math.inf))
        model.constraints.append(LinearConstraint(
            f"ident_{c}",
            ((r1, 2.0 * abs(dy)), (r2, 2.0 * abs(dy)), ("X", -1.0)),
            EQ, dy * dy))
    for p in pairs:
        lo1, lo2 = names[p.lower]
        hi1, hi2 = names[p.upper]
        if p.side == UP_LEFT:
            coeffs, rhs = ((lo1, 1.0), (hi1, -1.0)), p.sep_start
        elif p.side == UP_RIGHT:
            coeffs, rhs = ((hi2, 1.0), (lo2, -1.0)), p.sep_end
        elif p.side == DOWN_LEFT:
            coeffs, rhs = ((hi1, 1.0), (lo1, -1.0)), p.sep_start
        else:
            coeffs, rhs = ((lo2, 1.0), (hi2, -1.0)), p.sep_end
        model.constraints.append(LinearConstraint(
            f"sep_{p.side}_{p.lower}_{p.upper}", coeffs, GE, rhs))
    return model, names


def route_gap(inst: OrderedStorylineInstance, coord: Coordination, t: int, *,
              r_min: float, config: SolverConfig | None = None) -> GapRouting:
    """Route one gap: minimal extent, then maximal concentricity.

    Infeasible separation systems shed their most distant pairs first
    until the remainder fits; the shed pairs come back in `dropped`.
    A gap where nothing wiggles needs no LP: both would find X = 0.
    """
    if all(abs(coord.y(t + 1, c) - coord.y(t, c)) <= _ZERO_TOL
           for c in inst.shared_at_gap(t)):
        return GapRouting(t, 0.0, {}, (), (), ())
    pairs = classify_pairs(inst, coord, t)
    keep = sorted(pairs, key=lambda p: (min(p.sep_start, p.sep_end),
                                        p.lower, p.upper))
    dropped: list[RoutedPair] = []
    while True:
        model, names = build_routing_program(inst, coord, t, r_min, keep)
        stage1 = solve_model(model, config)
        if stage1.status is SolveStatus.OPTIMAL:
            break
        if not keep:
            raise ModelError(
                f"gap {t} routing infeasible with no separation rows")
        dropped.append(keep.pop())
    x_star = stage1.assignment["X"]
    model.variables[0] = Variable("X", x_star, x_star)
    slack_obj: dict[str, float] = {}
    for row in model.constraints:
        if row.name.startswith("sep_"):
            for var, coefficient in row.coeffs:
                slack_obj[var] = slack_obj.get(var, 0.0) + coefficient
    model.objective = slack_obj
    stage2 = solve_model(model, config)
    if stage2.status is not SolveStatus.OPTIMAL:
        raise ModelError(f"gap {t} routing stage 2 ended {stage2.status.value}")
    assignment = stage2.assignment
    constrained = {p.lower for p in keep} | {p.upper for p in keep}
    radii = {}
    for c, (r1, r2) in names.items():
        if c in constrained:
            radii[c] = (assignment[r1], assignment[r2])
        else:
            # nothing pins the split, so balance the S symmetrically
            half = (assignment[r1] + assignment[r2]) / 2.0
            radii[c] = (half, half)
    return GapRouting(
        gap=t,
        dx=math.sqrt(max(x_star, 0.0)),
        radii=radii,
        wiggling=tuple(sorted(names)),
        pairs=tuple(keep),
        dropped=tuple(dropped),
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

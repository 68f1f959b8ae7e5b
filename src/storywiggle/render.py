"""Deterministic SVG rendering of routed layouts.

Geometry is computed in world units (the y units of the coordination)
and scaled once while writing.  The y axis flips at output time only,
which turns the math-ccw arcs into sweep-flag-1 SVG arcs.  All numbers
are written with a fixed number of decimals so equal inputs produce
byte-equal documents.
"""

from __future__ import annotations

from .instance import Coordination, OrderedStorylineInstance
from .routing import RoutingPlan, WigglePath, gap_paths

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")
UNIT_SCALE = 40.0           # pixels per world unit
GAP_PADDING = 20.0          # flat lead on each side of a gap, pixels
STROKE_WIDTH = 2.0
MEETING_BAR_WIDTH = 6.0
MARGIN = 30.0
DECIMALS = 3
FONT_SIZE = 12.0
MEETING_FILL = "#d4d4d4"
BACKGROUND = "#ffffff"


def compute_x_positions(inst: OrderedStorylineInstance,
                        plan: RoutingPlan) -> list[float]:
    """World x of each step; index 0 is step 1."""
    pad = GAP_PADDING / UNIT_SCALE
    xs = [0.0]
    for g in plan.gaps:
        xs.append(xs[-1] + (g.dx + 2.0 * pad))
    return xs


def character_colors(inst: OrderedStorylineInstance) -> dict[str, str]:
    """Palette assignment, shared within declared groups."""
    colors: dict[str, str] = {}
    by_group: dict[str, str] = {}
    slot = 0
    for c in inst.characters:
        group = inst.groups.get(c)
        if group is not None and group in by_group:
            colors[c] = by_group[group]
            continue
        color = PALETTE[slot % len(PALETTE)]
        slot += 1
        colors[c] = color
        if group is not None:
            by_group[group] = color
    return colors


def render_svg(inst: OrderedStorylineInstance, coord: Coordination,
               plan: RoutingPlan, title: str | None = None) -> str:
    """Standalone SVG document for a routed layout."""
    xs = compute_x_positions(inst, plan)
    y_min, y_max = coord.min_y(), coord.max_y()

    def fmt(v: float) -> str:
        s = f"{v:.{DECIMALS}f}"
        return "0." + "0" * DECIMALS if s == "-0." + "0" * DECIMALS else s

    def sx(x: float) -> float:
        return MARGIN + x * UNIT_SCALE

    def sy(y: float) -> float:
        return MARGIN + (y_max - y) * UNIT_SCALE

    width = 2.0 * MARGIN + (xs[-1] if xs else 0.0) * UNIT_SCALE
    height = 2.0 * MARGIN + (y_max - y_min) * UNIT_SCALE
    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(width)}" '
        f'height="{fmt(height)}" viewBox="0 0 {fmt(width)} {fmt(height)}">')
    if title:
        out.append(f"  <title>{_escape(title)}</title>")
    out.append(f'  <rect width="100%" height="100%" fill="{BACKGROUND}"/>')

    out.append('  <g class="meetings">')
    for t in range(1, inst.time_steps + 1):
        for m in inst.meetings_at(t):
            ys = [coord.y(t, c) for c in m.members]
            top = sy(max(ys) + 0.35)
            bottom = sy(min(ys) - 0.35)
            out.append(
                f'    <rect x="{fmt(sx(xs[t - 1]) - MEETING_BAR_WIDTH / 2.0)}" '
                f'y="{fmt(top)}" width="{fmt(MEETING_BAR_WIDTH)}" '
                f'height="{fmt(bottom - top)}" fill="{MEETING_FILL}" rx="2"/>')
    out.append("  </g>")

    paths_by_gap: list[dict[str, WigglePath]] = []
    for g in plan.gaps:
        paths_by_gap.append(
            gap_paths(inst, coord, g, xs[g.gap - 1], xs[g.gap]))

    colors = character_colors(inst)
    out.append('  <g class="characters" fill="none" '
               f'stroke-width="{fmt(STROKE_WIDTH)}" '
               'stroke-linecap="round" stroke-linejoin="round">')
    for c in inst.characters:
        lo, hi = inst.activity[c]
        d: list[str] = [f"M {fmt(sx(xs[lo - 1]))} {fmt(sy(coord.y(lo, c)))}"]
        for t in range(lo, min(hi, inst.time_steps)):
            path = paths_by_gap[t - 1].get(c)
            if path is None:
                continue
            if path.flat:
                d.append(f"L {fmt(sx(path.end[0]))} {fmt(sy(path.end[1]))}")
                continue
            d.append(f"L {fmt(sx(path.start[0]))} {fmt(sy(path.start[1]))}")
            first, second = path.arcs
            jx, jy = path.junction
            for arc, ex, ey in ((first, jx, jy), (second, *path.end)):
                sweep = 1 if arc.ccw else 0
                r = fmt(arc.radius * UNIT_SCALE)
                d.append(f"A {r} {r} 0 0 {sweep} {fmt(sx(ex))} {fmt(sy(ey))}")
            d.append(f"L {fmt(sx(xs[t]))} {fmt(sy(path.end[1]))}")
        out.append(f'    <path stroke="{colors[c]}" d="{" ".join(d)}"/>')
    out.append("  </g>")

    out.append('  <g class="labels" font-family="sans-serif" '
               f'font-size="{fmt(FONT_SIZE)}">')
    for c in inst.characters:
        lo = inst.activity[c][0]
        x = sx(xs[lo - 1]) - 6.0
        y = sy(coord.y(lo, c)) + FONT_SIZE / 3.0
        out.append(f'    <text x="{fmt(x)}" y="{fmt(y)}" text-anchor="end" '
                   f'fill="{colors[c]}">{_escape(c)}</text>')
    out.append("  </g>")

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))

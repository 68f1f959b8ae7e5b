"""SVG output: structure, colors, scaling, determinism."""

import json
import re

import pytest

from storywiggle import render
from storywiggle.instance import (Coordination, load_instance,
                                  minimal_stack_coordination, parse_instance)
from storywiggle.render import character_colors, compute_x_positions, render_svg
from storywiggle.routing import route_all_gaps

CROSSING = json.dumps({
    "characters": [
        {"id": "a", "activeFrom": 1, "activeTo": 2},
        {"id": "b", "activeFrom": 1, "activeTo": 2},
    ],
    "meetings": [],
    "orderings": [["a", "b"], ["b", "a"]],
    "params": {"delta": 1.0, "deltaBar": 1.0},
})


def crossing_scene():
    inst, params = parse_instance(CROSSING)
    coord = Coordination({(1, "a"): 0.0, (1, "b"): 1.0,
                          (2, "a"): 2.0, (2, "b"): 1.0})
    plan = route_all_gaps(inst, coord, r_min=0.5)
    return inst, coord, plan


def demo_scene():
    inst, params = load_instance("instances/demo.json")
    coord = minimal_stack_coordination(inst, params)
    plan = route_all_gaps(inst, coord, r_min=0.5)
    return inst, coord, plan


class TestDocumentStructure:
    def test_skeleton(self):
        inst, coord, plan = crossing_scene()
        svg = render_svg(inst, coord, plan)
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert svg.endswith("</svg>\n")
        assert '<g class="meetings">' in svg
        assert '<g class="characters"' in svg
        assert '<g class="labels"' in svg
        assert svg.count("<text") == 2
        assert svg.count("<path ") == 2
        assert "A " in svg                     # the mover bends on arcs

    def test_title_escaped_and_optional(self):
        inst, coord, plan = crossing_scene()
        svg = render_svg(inst, coord, plan, title='a<b & "c"')
        assert "<title>a&lt;b &amp; &quot;c&quot;</title>" in svg
        assert "<title>" not in render_svg(inst, coord, plan)

    def test_meetings_draw_bars(self):
        inst, coord, plan = demo_scene()
        svg = render_svg(inst, coord, plan)
        bars = re.findall(r'<rect [^>]*fill="#d4d4d4"', svg)
        assert len(bars) == len(inst.meetings)

    def test_fixed_decimals_and_no_negative_zero(self):
        inst, coord, plan = demo_scene()
        svg = render_svg(inst, coord, plan)
        for token in re.findall(r'[xy]="(-?\d+\.\d+)"', svg):
            assert len(token.split(".")[1]) == 3
        assert "-0.000" not in svg

    def test_malformed_numbers_absent(self):
        inst, coord, plan = crossing_scene()
        svg = render_svg(inst, coord, plan)
        assert "nan" not in svg and "inf" not in svg
        assert re.search(r'd="M \d+\.\d\d\d ', svg)


class TestColors:
    def test_groups_share_colors(self):
        inst, _, _ = demo_scene()
        colors = character_colors(inst)
        assert colors["alice"] == colors["bob"]        # same declared group
        assert colors["carol"] == colors["dan"]
        assert colors["alice"] != colors["carol"]

    def test_ungrouped_characters_get_distinct_colors(self):
        inst, _ = parse_instance(CROSSING)
        colors = character_colors(inst)
        assert colors["a"] != colors["b"]

    def test_stroke_colors_appear_in_svg(self):
        inst, coord, plan = crossing_scene()
        svg = render_svg(inst, coord, plan)
        for color in character_colors(inst).values():
            assert f'stroke="{color}"' in svg


class TestGeometryPlacement:
    def test_x_positions_accumulate_gap_windows(self):
        inst, coord, plan = crossing_scene()
        xs = compute_x_positions(inst, plan)
        pad = render.GAP_PADDING / render.UNIT_SCALE
        assert xs[0] == 0.0
        assert xs[1] == pytest.approx(plan.gaps[0].dx + 2.0 * pad)

    def test_canvas_covers_the_layout(self):
        inst, coord, plan = demo_scene()
        svg = render_svg(inst, coord, plan)
        m = re.search(r'width="([\d.]+)" height="([\d.]+)"', svg)
        xs = compute_x_positions(inst, plan)
        span = coord.max_y() - coord.min_y()
        assert float(m.group(1)) == pytest.approx(
            2.0 * render.MARGIN + xs[-1] * render.UNIT_SCALE, abs=1e-3)
        assert float(m.group(2)) == pytest.approx(
            2.0 * render.MARGIN + span * render.UNIT_SCALE, abs=1e-3)


class TestDeterminism:
    def test_byte_equal_across_runs(self):
        first = render_svg(*demo_scene())
        second = render_svg(*demo_scene())
        assert first == second

"""Arc routing: tangency geometry, separation LPs, radial profiles."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storywiggle import routing as routing_mod
from storywiggle.generate import generate_instance
from storywiggle.instance import Coordination, parse_instance
from storywiggle.oracle import oracle_optimum
from storywiggle.programs import ModelError
from storywiggle.routing import (DOWN_LEFT, UP_LEFT, UP_RIGHT, GapRouting,
                                 arc_pair,
                                 arc_tangent_angle, classify_pairs, gap_paths,
                                 is_monotone, path_y_at,
                                 radial_distance_profile, route_all_gaps,
                                 route_gap, sample_path)
from storywiggle.solver import SolveResult, SolveStatus


def two_step(levels1, levels2):
    """Two-step instance plus coordination straight from level maps."""
    chars = sorted(levels1)
    inst, _ = parse_instance(json.dumps({
        "characters": [{"id": c, "activeFrom": 1, "activeTo": 2}
                       for c in chars],
        "meetings": [],
        "orderings": [sorted(chars, key=lambda c: levels1[c]),
                      sorted(chars, key=lambda c: levels2[c])],
        "params": {"delta": 1.0, "deltaBar": 1.0},
    }))
    values = {(1, c): float(v) for c, v in levels1.items()}
    values.update({(2, c): float(v) for c, v in levels2.items()})
    return inst, Coordination(values)


def angle_diff(a, b):
    return abs(math.atan2(math.sin(a - b), math.cos(a - b)))


def identity_dx(dy, r1, r2):
    return math.sqrt(2.0 * (r1 + r2) * abs(dy) - dy * dy)


class TestArcPair:
    def test_zero_dy_is_flat(self):
        p = arc_pair((0.0, 1.0), (3.0, 1.0), 1.0, 1.0)
        assert p.flat and p.arcs is None and p.junction is None

    def test_bad_radii_rejected(self):
        with pytest.raises(ValueError, match="tangency"):
            arc_pair((0.0, 0.0), (5.0, 1.0), 0.5, 0.5)

    def test_arcs_meet_their_endpoints(self):
        dy, r1, r2 = 1.0, 1.5, 0.5
        p = arc_pair((0.0, 0.0), (identity_dx(dy, r1, r2), dy), r1, r2)
        first, second = p.arcs
        assert first.point_at(first.start_angle) == pytest.approx(p.start)
        assert first.point_at(first.end_angle) == pytest.approx(p.junction)
        assert second.point_at(second.start_angle) == pytest.approx(p.junction)
        assert second.point_at(second.end_angle) == pytest.approx(p.end)

    def test_junction_is_smooth_and_ends_are_horizontal(self):
        for dy, r1, r2 in ((1.0, 1.0, 1.0), (-2.0, 1.5, 2.0), (0.5, 0.3, 0.4)):
            p = arc_pair((0.0, 0.0), (identity_dx(dy, r1, r2), dy), r1, r2)
            first, second = p.arcs
            assert angle_diff(arc_tangent_angle(first, first.start_angle),
                              0.0) < 1e-12
            assert angle_diff(arc_tangent_angle(second, second.end_angle),
                              0.0) < 1e-12
            assert angle_diff(
                arc_tangent_angle(first, first.end_angle),
                arc_tangent_angle(second, second.start_angle)) < 1e-9

    def test_path_y_at_matches_samples(self):
        p = arc_pair((0.0, 0.0), (identity_dx(-2.0, 1.5, 2.0), -2.0),
                     1.5, 2.0)
        for x, y in sample_path(p, n=33):
            assert path_y_at(p, x) == pytest.approx(y, abs=1e-9)
        assert path_y_at(p, -5.0) == 0.0      # clamped outside the range
        assert path_y_at(p, 99.0) == -2.0


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000_000))
def test_random_triples_stay_smooth_and_monotone(seed):
    rng = random.Random(seed)
    dy = rng.uniform(-3.0, 3.0)
    if abs(dy) < 1e-3:
        dy = 1e-3 if dy >= 0 else -1e-3
    # each radius at least |dy|/2 keeps the sum x-monotone
    r1 = rng.uniform(abs(dy) / 2.0, 3.0 * abs(dy))
    r2 = rng.uniform(abs(dy) / 2.0, 3.0 * abs(dy))
    p = arc_pair((0.0, 0.0), (identity_dx(dy, r1, r2), dy), r1, r2)
    first, second = p.arcs
    assert angle_diff(arc_tangent_angle(first, first.end_angle),
                      arc_tangent_angle(second, second.start_angle)) < 1e-9
    pts = sample_path(p, n=65)
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    assert all(b - a >= -1e-9 for a, b in zip(xs, xs[1:]))
    sign = 1.0 if dy > 0 else -1.0
    assert all(sign * (b - a) >= -1e-9 for a, b in zip(ys, ys[1:]))


class TestClassifyPairs:
    def test_translate_pair(self):
        inst, coord = two_step({"a": 0, "b": 1}, {"a": 1, "b": 2})
        (p,) = classify_pairs(inst, coord, 1)
        assert (p.lower, p.upper, p.side) == ("a", "b", UP_LEFT)
        assert (p.sep_start, p.sep_end) == (1.0, 1.0)

    def test_opposite_directions_skipped(self):
        inst, coord = two_step({"a": 0, "b": 1}, {"a": 2, "b": 0})
        assert classify_pairs(inst, coord, 1) == []

    def test_distant_boxes_skipped(self):
        inst, coord = two_step({"a": 0, "b": 5}, {"a": 1, "b": 6})
        assert classify_pairs(inst, coord, 1) == []

    def test_flat_characters_skipped(self):
        inst, coord = two_step({"a": 0, "b": 1}, {"a": 0, "b": 2})
        assert classify_pairs(inst, coord, 1) == []

    def test_side_picks_the_tighter_end(self):
        inst, coord = two_step({"a": 0, "b": 2}, {"a": 4, "b": 5})
        (p,) = classify_pairs(inst, coord, 1)
        assert p.side == UP_RIGHT                  # end gap 1 vs start gap 2
        assert (p.sep_start, p.sep_end) == (2.0, 1.0)

    def test_rounding_tie_goes_left(self):
        inst, coord = two_step({"a": 0.0, "b": 1.0},
                               {"a": 2.0, "b": 3.0 - 1e-15})
        (p,) = classify_pairs(inst, coord, 1)
        assert p.sep_end < p.sep_start
        assert p.side == UP_LEFT

    def test_falling_pair(self):
        inst, coord = two_step({"a": 4, "b": 5}, {"a": 0, "b": 2})
        (p,) = classify_pairs(inst, coord, 1)
        assert (p.lower, p.upper, p.side) == ("a", "b", DOWN_LEFT)


class TestRouteGap:
    def test_single_mover_closed_form(self):
        # 2 (2 rmin) |dy| - dy^2 when that beats the monotonicity floor
        inst, coord = two_step({"a": 0}, {"a": 1})
        g = route_gap(inst, coord, 1, r_min=1.0)
        assert g.dx == pytest.approx(math.sqrt(3.0))
        assert g.radii["a"] == (pytest.approx(1.0), pytest.approx(1.0))

    def test_single_mover_monotonicity_floor(self):
        # small rmin: dx bottoms out at |dy| and the radii grow to fit
        inst, coord = two_step({"a": 0}, {"a": 2})
        g = route_gap(inst, coord, 1, r_min=0.25)
        assert g.dx == pytest.approx(2.0)
        r1, r2 = g.radii["a"]
        assert r1 + r2 == pytest.approx(2.0)

    def test_translate_pair_goes_concentric(self):
        inst, coord = two_step({"a": 0, "b": 1}, {"a": 1, "b": 2})
        g = route_gap(inst, coord, 1, r_min=0.5)
        assert g.dx == pytest.approx(math.sqrt(3.0))
        assert g.radii["a"] == (pytest.approx(1.5), pytest.approx(0.5))
        assert g.radii["b"] == (pytest.approx(0.5), pytest.approx(1.5))
        assert g.wiggling == ("a", "b") and g.dropped == ()

    def test_concentric_pair_keeps_constant_radial_distance(self):
        inst, coord = two_step({"a": 0, "b": 1}, {"a": 1, "b": 2})
        g = route_gap(inst, coord, 1, r_min=0.5)
        paths = gap_paths(inst, coord, g, 0.0, g.dx + 2.0)
        profile = radial_distance_profile(paths["a"], paths["b"])
        assert all(math.isfinite(v) for v in profile)
        assert all(v == pytest.approx(1.0, abs=1e-9) for v in profile)
        assert is_monotone(profile)

    def test_infeasible_separation_drops_the_pair(self, monkeypatch):
        real = routing_mod.solve_model

        def fake(model, config=None, **kw):
            if any(r.name.startswith("sep_") for r in model.constraints):
                return SolveResult(SolveStatus.INFEASIBLE, None, None,
                                   None, None, None, None)
            return real(model, config, **kw)

        monkeypatch.setattr(routing_mod, "solve_model", fake)
        inst, coord = two_step({"a": 0, "b": 1}, {"a": 1, "b": 2})
        g = route_gap(inst, coord, 1, r_min=0.5)
        assert len(g.dropped) == 1 and g.pairs == ()
        assert g.dx == pytest.approx(1.0)

    def test_hopeless_gap_raises(self, monkeypatch):
        def never(model, config=None, **kw):
            return SolveResult(SolveStatus.INFEASIBLE, None, None,
                               None, None, None, None)

        monkeypatch.setattr(routing_mod, "solve_model", never)
        inst, coord = two_step({"a": 0}, {"a": 1})
        with pytest.raises(ModelError, match="no separation rows"):
            route_gap(inst, coord, 1, r_min=0.5)

    def test_gap_without_movers_solves_nothing(self, monkeypatch):
        def unused(model, config=None, **kw):
            raise AssertionError("no LP is needed")

        monkeypatch.setattr(routing_mod, "solve_model", unused)
        inst, coord = two_step({"a": 0, "b": 3}, {"a": 0, "b": 3})
        assert route_gap(inst, coord, 1, r_min=0.5) == GapRouting(
            1, 0.0, {}, (), (), ())

    def test_gap_paths_pad_and_flats(self):
        inst, coord = two_step({"a": 0, "b": 3}, {"a": 1, "b": 3})
        g = route_gap(inst, coord, 1, r_min=0.5)
        paths = gap_paths(inst, coord, g, 10.0, 14.0)
        assert paths["b"].flat
        assert paths["b"].start == (10.0, 3.0)
        pad = (4.0 - g.dx) / 2.0
        assert paths["a"].start == (pytest.approx(10.0 + pad), 0.0)
        assert paths["a"].end == (pytest.approx(14.0 - pad), 1.0)

    def test_report_shape(self):
        inst, coord = two_step({"a": 0, "b": 1}, {"a": 1, "b": 2})
        report = route_all_gaps(inst, coord, r_min=0.5).report()
        assert report["droppedTotal"] == 0
        (gap,) = report["gaps"]
        assert gap["gap"] == 1 and gap["wiggling"] == ["a", "b"]
        assert gap["radii"]["a"] == {
            "leave": pytest.approx(1.5), "land": pytest.approx(0.5)}
        (pair,) = gap["pairs"]
        assert pair["lower"] == "a" and pair["side"] == UP_LEFT


class TestIsMonotone:
    def test_directions(self):
        assert is_monotone([1.0, 2.0, 3.0])
        assert is_monotone([3.0, 2.0, 1.0])
        assert is_monotone([1.0, 1.0, 1.0])
        assert not is_monotone([1.0, 2.0, 1.0])

    def test_infinities_are_ignored(self):
        assert is_monotone([1.0, math.inf, 2.0])
        assert not is_monotone([1.0, math.inf, 2.0, 1.5])

    def test_tolerance_absorbs_noise(self):
        assert is_monotone([1.0, 1.0 - 1e-8, 1.1])
        assert not is_monotone([1.0, 0.5, 1.1])


def test_routed_layout_pairs_stay_radially_monotone():
    for seed in range(8):
        inst, params = generate_instance(4, 3, seed=seed, meeting_prob=0.5)
        coord = oracle_optimum(inst, params, "lwh").coordination
        for g in route_all_gaps(inst, coord, r_min=0.5).gaps:
            width = max(g.dx, 1.0) + 0.2
            paths = gap_paths(inst, coord, g, 0.0, width)
            for p in g.pairs:
                profile = radial_distance_profile(paths[p.lower],
                                                  paths[p.upper])
                assert is_monotone(profile), (seed, g.gap, p)

"""Arc routing: tangency geometry, extents, separation, radial profiles."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storywiggle import routing as routing_mod
from storywiggle import simplex
from storywiggle.generate import generate_instance
from storywiggle.instance import Coordination, parse_instance
from storywiggle.oracle import oracle_optimum
from storywiggle.programs import (EQ, GE, LinearConstraint, OptimizationModel,
                                  Variable, build_lwh_program,
                                  extract_coordination)
from storywiggle.routing import (DOWN_LEFT, DOWN_RIGHT, UP_LEFT, UP_RIGHT,
                                 GapRouting, arc_pair, arc_tangent_angle,
                                 classify_pairs, gap_paths, is_monotone,
                                 path_y_at, radial_distance_profile,
                                 route_all_gaps, route_gap, sample_path,
                                 separation_arcs)
from storywiggle.solver import solve_model


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

    def test_gap_without_movers_solves_nothing(self, monkeypatch):
        def unused(model, config=None, **kw):
            raise AssertionError("no LP is needed")

        monkeypatch.setattr(routing_mod, "solve_model", unused)
        inst, coord = two_step({"a": 0, "b": 3}, {"a": 0, "b": 3})
        assert route_gap(inst, coord, 1, r_min=0.5) == GapRouting(
            1, 0.0, {}, (), ())
        # movers without pairs: one rises, the other falls
        inst, coord = two_step({"a": 0, "b": 4}, {"a": 1, "b": 2})
        g = route_gap(inst, coord, 1, r_min=0.5)
        assert g.pairs == () and g.wiggling == ("a", "b")
        # X = dx^2 is the largest dy^2 or 4 r_min |dy| - dy^2: b's dy^2
        assert g.dx == pytest.approx(2.0)
        assert g.radii["a"] == (pytest.approx(1.25), pytest.approx(1.25))
        assert g.radii["b"] == (pytest.approx(1.0), pytest.approx(1.0))

    def test_pairs_list_in_name_order(self):
        # (b, c) is closer than (a, b) by 1e-15, which used to list it first
        inst, coord = two_step({"a": 0.0, "b": 1.0, "c": 2.0 - 1e-15},
                               {"a": 1.0, "b": 2.0, "c": 3.0})
        pairs = classify_pairs(inst, coord, 1)
        closest = min(pairs, key=lambda p: min(p.sep_start, p.sep_end))
        assert (closest.lower, closest.upper) == ("b", "c")
        g = route_gap(inst, coord, 1, r_min=0.5)
        assert [(p.lower, p.upper) for p in g.pairs] == [("a", "b"),
                                                         ("b", "c")]

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

    def test_ids_that_join_alike_name_distinct_rows(self):
        # (a, b_c) and (a_b, c) once both named their row sep_up_left_a_b_c
        ids = ["a", "b_c", "a_b", "c"]
        inst, _ = parse_instance(json.dumps({
            "characters": [{"id": c, "activeFrom": 1, "activeTo": 2}
                           for c in ids],
            "meetings": [], "orderings": [ids, ids],
            "params": {"delta": 1.0, "deltaBar": 1.0}}))
        coord = Coordination({(t, c): float(k + 2 * (t - 1))
                              for k, c in enumerate(ids) for t in (1, 2)})
        (g,) = route_all_gaps(inst, coord, r_min=0.5).gaps
        assert len(g.pairs) == 5
        assert g.dx == pytest.approx(math.sqrt(12.0))    # as with ids a, b, d, c


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


def reference_routing(inst, coord, t, r_min):
    """Both stages of gap t as LPs over X = dx^2, r1 and r2, by the simplex.

    This is the model `route_gap` solved before the extent became a
    longest path.  Returns X and each mover's (r1, r2), or None when
    the separation rows admit no X.
    """
    movers = [(c, coord.y(t + 1, c) - coord.y(t, c))
              for c in inst.shared_at_gap(t)
              if abs(coord.y(t + 1, c) - coord.y(t, c)) > 1e-9]
    model = OptimizationModel("reference")
    model.variables.append(
        Variable("X", max(dy * dy for _, dy in movers), math.inf))
    model.objective = {"X": 1.0}
    for c, dy in movers:
        model.variables.append(Variable(f"r1_{c}", r_min, math.inf))
        model.variables.append(Variable(f"r2_{c}", r_min, math.inf))
        model.constraints.append(LinearConstraint(
            f"ident_{c}", ((f"r1_{c}", 2.0 * abs(dy)),
                           (f"r2_{c}", 2.0 * abs(dy)), ("X", -1.0)),
            EQ, dy * dy))
    slack_cost: dict[str, float] = {}
    for p in classify_pairs(inst, coord, t):
        lo1, lo2, hi1, hi2 = (f"r1_{p.lower}", f"r2_{p.lower}",
                              f"r1_{p.upper}", f"r2_{p.upper}")
        coeffs, rhs = {
            UP_LEFT: (((lo1, 1.0), (hi1, -1.0)), p.sep_start),
            UP_RIGHT: (((hi2, 1.0), (lo2, -1.0)), p.sep_end),
            DOWN_LEFT: (((hi1, 1.0), (lo1, -1.0)), p.sep_start),
            DOWN_RIGHT: (((lo2, 1.0), (hi2, -1.0)), p.sep_end)}[p.side]
        model.constraints.append(LinearConstraint(
            f"sep_{p.lower}_{p.upper}", coeffs, GE, rhs))
        for var, coefficient in coeffs:
            slack_cost[var] = slack_cost.get(var, 0.0) + coefficient
    stage1 = simplex.solve_lp(model)
    if stage1.status != "optimal":
        return None
    x = stage1.x["X"]
    model.variables[0] = Variable("X", x, x)
    model.objective = slack_cost
    stage2 = simplex.solve_lp(model)
    assert stage2.status == "optimal"
    return x, {c: (stage2.x[f"r1_{c}"], stage2.x[f"r2_{c}"]) for c, _ in movers}


def separation_slacks(pairs, radii):
    """Each pair's separation row, left-hand side minus right-hand side."""
    slacks = []
    for p in pairs:
        (lo1, lo2), (hi1, hi2) = radii[p.lower], radii[p.upper]
        slacks.append({UP_LEFT: lo1 - hi1 - p.sep_start,
                       UP_RIGHT: hi2 - lo2 - p.sep_end,
                       DOWN_LEFT: hi1 - lo1 - p.sep_start,
                       DOWN_RIGHT: lo2 - hi2 - p.sep_end}[p.side])
    return slacks


def assert_matches_reference(inst, coord, t, r_min):
    """`route_gap` against `reference_routing` on gap t; True if it has pairs."""
    g = route_gap(inst, coord, t, r_min=r_min)
    if not g.wiggling:
        return False
    ref = reference_routing(inst, coord, t, r_min)
    assert ref is not None, "the reference LP keeps every pair"
    x_ref, radii_ref = ref
    assert abs(g.dx - math.sqrt(x_ref)) <= 1e-12 * math.sqrt(x_ref)
    assert set(g.pairs) == set(classify_pairs(inst, coord, t))
    slacks = separation_slacks(g.pairs, g.radii)
    assert min(slacks, default=0.0) >= -1e-9
    total, total_ref = sum(slacks), sum(separation_slacks(g.pairs, radii_ref))
    assert abs(total - total_ref) <= 1e-9 * max(1.0, abs(total_ref))
    for c, (r1, r2) in g.radii.items():
        dy = coord.y(t + 1, c) - coord.y(t, c)
        assert min(r1, r2) >= r_min - 1e-9
        ident = 2.0 * (r1 + r2) * abs(dy) - dy * dy
        assert abs(ident - g.dx ** 2) <= 1e-9 * max(1.0, g.dx ** 2)
    return bool(g.pairs)


def mixed_gap(rng):
    """One gap of 2-7 characters moving up, down or not at all."""
    n = rng.randint(2, 7)
    step = rng.choice([0.5, 1.0])
    y0 = sorted(rng.sample(range(3 * n), n))
    levels1 = {f"c{i}": step * v for i, v in enumerate(y0)}
    levels2 = {c: v if rng.random() < 0.2 else step * rng.randint(0, 3 * n)
               + rng.choice([0.0, 0.0, rng.uniform(-0.3, 0.3)])
               for c, v in levels1.items()}
    return two_step(levels1, levels2), rng.uniform(0.1, 1.5)


class TestExtentAgainstTheLP:
    def test_seed7_ladder_gaps(self):
        paired = 0
        for n, steps in ((10, 10), (15, 15), (20, 20), (25, 30)):
            inst, params = generate_instance(n, steps, seed=7,
                                             meeting_prob=0.5)
            model, index = build_lwh_program(inst, params)
            coord = extract_coordination(index, solve_model(model).x)
            for t in inst.gaps():
                paired += assert_matches_reference(inst, coord, t,
                                                   params.delta / 2.0)
        assert paired >= 30

    def test_acceptance_fans(self):
        # the same-direction fans of acceptance item 7
        rng = random.Random(707)
        paired = 0
        for _ in range(20):
            n = rng.randint(3, 5)
            l1, l2 = {}, {}
            y1 = y2 = 0.0
            for i in range(n):
                y1 += rng.uniform(0.8, 1.6) if i else 0.0
                y2 += rng.uniform(0.1, 2.0) if i else rng.uniform(0.4, 2.5)
                l1[f"c{i}"] = y1
                l2[f"c{i}"] = y2
            inst, coord = two_step(l1, l2)
            paired += assert_matches_reference(inst, coord, 1, 0.5)
        assert paired >= 10

    def test_random_mixed_gaps(self):
        rng = random.Random(1313)
        paired = 0
        for _ in range(300):
            (inst, coord), r_min = mixed_gap(rng)
            paired += assert_matches_reference(inst, coord, 1, r_min)
        assert paired >= 100


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000_000))
def test_separation_arcs_never_gain_with_the_extent(seed):
    # every cycle closes through ground along an arc with beta < 0, so
    # beta <= 0 on every separation arc makes each cycle clear at large X
    (inst, coord), _ = mixed_gap(random.Random(seed))
    pairs = classify_pairs(inst, coord, 1)
    dy = {c: coord.y(2, c) - coord.y(1, c) for c in inst.characters}
    for p, (_, _, _, beta) in zip(pairs, separation_arcs(pairs, dy)):
        assert beta <= 0.0
        if p.side in (UP_RIGHT, DOWN_RIGHT):
            assert beta < 0.0

"""Flat-set algorithms against exhaustive subset search."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import max_flat_subset_exhaustive
from storywiggle.generate import generate_instance
from storywiggle.instance import (NicenessParams, compute_metrics, is_nice,
                                  is_valid, parse_instance)
from storywiggle.oracle import oracle_optimum
from storywiggle.wigglefree import (always_active, compute_span_tables,
                                    max_wiggle_free_set, unrestricted_wc_min,
                                    _lcs)

CROSSING = json.dumps({
    "characters": [
        {"id": "a", "activeFrom": 1, "activeTo": 2},
        {"id": "b", "activeFrom": 1, "activeTo": 2},
    ],
    "meetings": [],
    "orderings": [["a", "b"], ["b", "a"]],
    "params": {"delta": 1.0, "deltaBar": 1.0},
})

PINCHED = json.dumps({
    "characters": [
        {"id": "a", "activeFrom": 1, "activeTo": 2},
        {"id": "b", "activeFrom": 1, "activeTo": 2},
        {"id": "u", "activeFrom": 2, "activeTo": 2},
        {"id": "v", "activeFrom": 2, "activeTo": 2},
    ],
    "meetings": [{"t": 1, "members": ["a", "b"]}],
    "orderings": [["a", "b"], ["a", "u", "v", "b"]],
    "params": {"delta": 1.0, "deltaBar": 1.0},
})

PARALLEL = json.dumps({
    "characters": [
        {"id": "a", "activeFrom": 1, "activeTo": 3},
        {"id": "b", "activeFrom": 1, "activeTo": 3},
        {"id": "c", "activeFrom": 1, "activeTo": 3},
    ],
    "meetings": [],
    "orderings": [["a", "b", "c"], ["a", "b", "c"], ["a", "b", "c"]],
    "params": {"delta": 1.0, "deltaBar": 1.0},
})


class TestSpanTables:
    def test_parallel_pairs_are_open_above(self):
        inst, params = parse_instance(PARALLEL)
        spans = compute_span_tables(inst, params)
        assert spans[("a", "b")] == (1.0, float("inf"))
        assert spans[("a", "c")] == (2.0, float("inf"))

    def test_crossing_pair_absent(self):
        inst, params = parse_instance(CROSSING)
        assert compute_span_tables(inst, params) == {}

    def test_pinched_pair_inverts(self):
        # meeting pins the distance to 1, the crowd below needs 3
        inst, params = parse_instance(PINCHED)
        spans = compute_span_tables(inst, params)
        assert spans[("a", "b")] == (3.0, 1.0)

    def test_meeting_tightens_both_ends(self):
        inst, params = parse_instance(json.dumps({
            "characters": [
                {"id": "a", "activeFrom": 1, "activeTo": 2},
                {"id": "b", "activeFrom": 1, "activeTo": 2},
            ],
            "meetings": [{"t": 1, "members": ["a", "b"]},
                         {"t": 2, "members": ["a", "b"]}],
            "orderings": [["a", "b"], ["a", "b"]],
            "params": {"delta": 2.0, "deltaBar": 1.0},
        }))
        spans = compute_span_tables(inst, params)
        assert spans[("a", "b")] == (2.0, 2.0)

    def test_only_always_active_characters_appear(self):
        inst, params = parse_instance(PINCHED)
        spans = compute_span_tables(inst, params)
        assert set(spans) == {("a", "b")}
        assert always_active(inst) == ("a", "b")


class TestMaxWiggleFreeSet:
    def test_parallel_keeps_everyone(self):
        inst, params = parse_instance(PARALLEL)
        r = max_wiggle_free_set(inst, params)
        assert r.size == 3 and set(r.subset) == {"a", "b", "c"}
        assert is_nice(inst, r.coordination, params)

    def test_crossing_keeps_one(self):
        inst, params = parse_instance(CROSSING)
        r = max_wiggle_free_set(inst, params)
        assert r.size == 1

    def test_subset_is_actually_flat(self):
        inst, params = parse_instance(PARALLEL)
        r = max_wiggle_free_set(inst, params)
        for c in r.subset:
            levels = {r.coordination.y(t, c)
                      for t in range(1, inst.time_steps + 1)}
            assert len(levels) == 1

    def test_empty_instance(self):
        inst, params = parse_instance(json.dumps({
            "characters": [], "meetings": [], "orderings": [],
            "params": {"delta": 1.0, "deltaBar": 1.0}}))
        assert max_wiggle_free_set(inst, params).size == 0


def two_step_wc(inst, params):
    """Two steps: shared characters that cannot all be kept flat."""
    shared = [c for c in inst.characters if inst.activity[c] == (1, 2)]
    return len(shared) - max_wiggle_free_set(inst, params).size


class TestTwoStepClosedForm:
    def test_crossing(self):
        inst, params = parse_instance(CROSSING)
        assert two_step_wc(inst, params) == 1

    def test_pinched(self):
        inst, params = parse_instance(PINCHED)
        assert two_step_wc(inst, params) == 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_matches_oracle_on_two_steps(self, seed):
        inst, params = generate_instance(4, 2, seed=seed, all_active=True,
                                         meeting_prob=0.5)
        assert two_step_wc(inst, params) == int(
            oracle_optimum(inst, params, "wc").value)


class TestLcs:
    def test_textbook(self):
        assert _lcs(list("abcbdab"), list("bdcaba")) in (
            list("bcba"), list("bdab"), list("bcab"))
        assert len(_lcs(list("abcbdab"), list("bdcaba"))) == 4

    def test_disjoint(self):
        assert _lcs(["x"], ["y"]) == []

    def test_identical(self):
        assert _lcs(["p", "q"], ["p", "q"]) == ["p", "q"]


class TestUnrestricted:
    def test_crossing_needs_one_wiggle(self):
        inst, _ = parse_instance(CROSSING)
        w = unrestricted_wc_min(inst)
        assert w.wiggles == 1 and w.per_gap == (1,)
        assert is_valid(inst, w.coordination)

    def test_pinched_goes_flat(self):
        # dropping niceness lets the crowd squeeze inside the meeting gap
        inst, _ = parse_instance(PINCHED)
        w = unrestricted_wc_min(inst)
        assert w.wiggles == 0 and w.per_gap == (0,)
        assert is_valid(inst, w.coordination)

    def test_pinched_is_a_strict_witness(self):
        inst, params = parse_instance(PINCHED)
        nice = int(oracle_optimum(inst, params, "wc").value)
        assert unrestricted_wc_min(inst).wiggles < nice

    def test_witness_counts_its_own_wiggles(self):
        inst, params = generate_instance(5, 4, seed=11, meeting_prob=0.5)
        w = unrestricted_wc_min(inst)
        measured = []
        for t in inst.gaps():
            measured.append(sum(
                w.coordination.y(t, c) != w.coordination.y(t + 1, c)
                for c in inst.shared_at_gap(t)))
        assert tuple(measured) == w.per_gap
        assert sum(measured) == w.wiggles
        assert is_valid(inst, w.coordination)

    def test_witness_height_is_bounded_by_active_pairs(self):
        inst, _ = generate_instance(25, 30, seed=7, meeting_prob=0.5)
        w = unrestricted_wc_min(inst)
        assert is_valid(inst, w.coordination)
        assert compute_metrics(inst, w.coordination).wiggle_count == w.wiggles
        assert max(y for _, y in w.coordination.items()) <= inst.total_active()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_lower_bounds_the_nice_optimum(self, seed):
        inst, params = generate_instance(3, 3, seed=seed, meeting_prob=0.5)
        unrestricted = unrestricted_wc_min(inst)
        assert is_valid(inst, unrestricted.coordination)
        assert max((y for _, y in unrestricted.coordination.items()),
                   default=0.0) <= inst.total_active()
        assert unrestricted.wiggles <= oracle_optimum(inst, params, "wc").value


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000),
       chars=st.integers(2, 4), steps=st.integers(2, 3))
def test_matches_exhaustive_subset_search(seed, chars, steps):
    inst, params = generate_instance(chars, steps, seed=seed,
                                     all_active=True, meeting_prob=0.5)
    assert max_wiggle_free_set(inst, params).size == \
        max_flat_subset_exhaustive(inst, params)

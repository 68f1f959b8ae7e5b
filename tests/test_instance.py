"""Domain types, parsing, validation, and the three wiggle metrics."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storywiggle.generate import generate_instance
from storywiggle.instance import (Coordination, InstanceFormatError,
                                  InstanceValidationError, Meeting,
                                  NicenessParams, OrderedStorylineInstance,
                                  centered_stack_coordination, compute_metrics,
                                  instance_to_dict, is_nice, is_valid,
                                  minimal_stack_coordination, neighbor_sets,
                                  parse_instance, validate_instance)

CROSSING = {
    "characters": [{"id": "a", "activeFrom": 1, "activeTo": 2},
                   {"id": "b", "activeFrom": 1, "activeTo": 2}],
    "meetings": [],
    "orderings": [["a", "b"], ["b", "a"]],
    "params": {"delta": 1, "deltaBar": 1},
}


def make(doc):
    return parse_instance(json.dumps(doc))


class TestParsing:
    def test_crossing_pair_roundtrip(self):
        inst, params = make(CROSSING)
        assert inst.characters == ("a", "b")
        assert inst.time_steps == 2
        assert params == NicenessParams(1.0, 1.0)
        again, params2 = make(instance_to_dict(inst, params))
        assert again == inst and params2 == params

    def test_default_params(self):
        doc = dict(CROSSING)
        doc.pop("params")
        _, params = make(doc)
        assert params == NicenessParams(1.0, 1.0)

    def test_missing_field_is_located(self):
        doc = {"characters": [{"id": "a", "activeTo": 2}], "orderings": []}
        with pytest.raises(InstanceFormatError, match=r"characters\[0\].*activeFrom"):
            make(doc)

    def test_bool_is_not_a_number(self):
        doc = json.loads(json.dumps(CROSSING))
        doc["characters"][0]["activeFrom"] = True
        with pytest.raises(InstanceFormatError, match="activeFrom"):
            make(doc)

    def test_json_error_carries_location(self):
        with pytest.raises(InstanceFormatError, match=r"line \d+, column \d+"):
            parse_instance('{"characters": [')

    def test_bad_params_rejected(self):
        doc = json.loads(json.dumps(CROSSING))
        doc["params"]["delta"] = 0
        with pytest.raises(ValueError):
            make(doc)
        doc["params"]["delta"] = -1.0
        with pytest.raises(ValueError):
            make(doc)


class TestValidation:
    def test_ordering_must_list_exactly_the_active(self):
        doc = json.loads(json.dumps(CROSSING))
        doc["orderings"][1] = ["b"]
        with pytest.raises(InstanceValidationError):
            make(doc)

    def test_meeting_members_consecutive(self):
        doc = {
            "characters": [{"id": c, "activeFrom": 1, "activeTo": 1}
                           for c in "abc"],
            "meetings": [{"t": 1, "members": ["a", "c"]}],
            "orderings": [["a", "b", "c"]],
        }
        with pytest.raises(InstanceValidationError, match="consecutive"):
            make(doc)

    def test_meetings_in_one_step_disjoint(self):
        doc = {
            "characters": [{"id": c, "activeFrom": 1, "activeTo": 1}
                           for c in "abc"],
            "meetings": [{"t": 1, "members": ["a", "b"]},
                         {"t": 1, "members": ["b", "c"]}],
            "orderings": [["a", "b", "c"]],
        }
        with pytest.raises(InstanceValidationError, match="two meetings"):
            make(doc)

    def test_meeting_member_must_be_active(self):
        doc = json.loads(json.dumps(CROSSING))
        doc["meetings"] = [{"t": 1, "members": ["a", "zz"]}]
        with pytest.raises(InstanceValidationError):
            make(doc)

    def test_empty_instance_is_legal(self):
        inst = OrderedStorylineInstance((), 0, (), {}, {}, ())
        validate_instance(inst)
        metrics = compute_metrics(inst, Coordination({}))
        assert metrics.wiggle_count == 0
        assert metrics.linear_wiggle_height == 0.0
        assert metrics.total_height == 0.0


class TestNicenessAndMetrics:
    def test_crossing_pair_hand_metrics(self):
        inst, params = make(CROSSING)
        coord = Coordination({(1, "a"): 0.0, (1, "b"): 1.0,
                              (2, "a"): 2.0, (2, "b"): 1.0})
        assert is_valid(inst, coord)
        assert is_nice(inst, coord, params).ok
        m = compute_metrics(inst, coord)
        assert m.wiggle_count == 1
        assert m.linear_wiggle_height == 2.0
        assert m.quadratic_wiggle_height == 4.0
        assert m.total_height == 2.0
        assert m.as_report() == {"wiggleCount": 1, "linearWiggleHeight": 2.0,
                                 "quadraticWiggleHeight": 4.0,
                                 "totalHeight": 2.0}

    def test_wrong_order_is_invalid(self):
        inst, params = make(CROSSING)
        coord = Coordination({(1, "a"): 0.0, (1, "b"): 1.0,
                              (2, "a"): 0.0, (2, "b"): 1.0})
        assert not is_valid(inst, coord)
        assert not is_nice(inst, coord, params).ok

    def test_meeting_spacing_must_be_exact(self):
        doc = {
            "characters": [{"id": "a", "activeFrom": 1, "activeTo": 1},
                           {"id": "b", "activeFrom": 1, "activeTo": 1}],
            "meetings": [{"t": 1, "members": ["a", "b"]}],
            "orderings": [["a", "b"]],
        }
        inst, params = make(doc)
        good = Coordination({(1, "a"): 0.0, (1, "b"): 1.0})
        wide = Coordination({(1, "a"): 0.0, (1, "b"): 1.5})
        assert is_nice(inst, good, params).ok
        report = is_nice(inst, wide, params)
        assert not report.ok and "meet" in report.violations[0]

    def test_zero_tol_squashes_noise(self):
        inst, params = make(CROSSING)
        coord = Coordination({(1, "a"): 0.0, (1, "b"): 1.0,
                              (2, "a"): 1.0 + 5e-10, (2, "b"): 1e-10})
        m = compute_metrics(inst, coord)
        assert m.wiggle_count == 2        # the real crossing moves stay

    def test_neighbor_sets_split(self):
        doc = {
            "characters": [{"id": c, "activeFrom": 1, "activeTo": 1}
                           for c in "abcd"],
            "meetings": [{"t": 1, "members": ["b", "c"]}],
            "orderings": [["a", "b", "c", "d"]],
        }
        inst, _ = make(doc)
        sets = neighbor_sets(inst, 1)
        assert sets.meeting_pairs == (("b", "c"),)
        assert sets.free_pairs == (("a", "b"), ("c", "d"))


class TestStackings:
    def test_minimal_stack_is_nice(self):
        doc = {
            "characters": [{"id": c, "activeFrom": 1, "activeTo": 2}
                           for c in "abc"],
            "meetings": [{"t": 2, "members": ["a", "b"]}],
            "orderings": [["a", "b", "c"], ["a", "b", "c"]],
            "params": {"delta": 1, "deltaBar": 2},
        }
        inst, params = make(doc)
        coord = minimal_stack_coordination(inst, params)
        assert is_nice(inst, coord, params).ok
        assert coord.y(1, "a") == 0.0
        assert coord.y(1, "c") == 4.0           # two free gaps of 2
        assert coord.y(2, "c") == 3.0           # meeting gap 1, free gap 2

    def test_centered_stack_spans_minimum_height(self):
        inst, params = make(CROSSING)
        coord = centered_stack_coordination(inst, params)
        assert is_nice(inst, coord, params).ok
        assert coord.min_y() == 0.0
        assert compute_metrics(inst, coord).total_height == 1.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), chars=st.integers(1, 6),
       steps=st.integers(1, 6))
def test_generated_instances_round_trip_and_stack_nicely(seed, chars, steps):
    inst, params = generate_instance(chars, steps, seed=seed)
    validate_instance(inst)
    again, params2 = make(instance_to_dict(inst, params))
    assert again == inst and params2 == params
    for coord in (minimal_stack_coordination(inst, params),
                  centered_stack_coordination(inst, params)):
        assert is_valid(inst, coord)
        assert is_nice(inst, coord, params).ok
        assert coord.min_y() >= -1e-12
        m = compute_metrics(inst, coord)
        assert m.wiggle_count >= 0
        assert m.linear_wiggle_height >= 0.0
        assert m.quadratic_wiggle_height >= 0.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_metric_relations(seed):
    inst, params = generate_instance(4, 4, seed=seed)
    coord = minimal_stack_coordination(inst, params)
    m = compute_metrics(inst, coord)
    # each moving gap contributes at least delta_bar-free movement only
    # when it moves at all, so LWH bounds WC from above at unit spacing
    assert m.linear_wiggle_height >= 0.0
    assert m.quadratic_wiggle_height <= m.linear_wiggle_height ** 2 + 1e-9
    if m.wiggle_count == 0:
        assert m.linear_wiggle_height == 0.0
        assert m.quadratic_wiggle_height == 0.0

"""Dynamic-programming oracle against plain enumeration."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_optimum
import storywiggle
from storywiggle.generate import generate_instance
from storywiggle.instance import (NicenessParams, compute_metrics, is_nice,
                                  parse_instance)
from storywiggle.oracle import OracleLimitError, oracle_optimum
from storywiggle.programs import big_y

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


class TestHandValues:
    def test_crossing_pair(self):
        inst, params = parse_instance(CROSSING)
        assert oracle_optimum(inst, params, "wc").value == 1.0
        assert oracle_optimum(inst, params, "lwh").value == 2.0
        assert oracle_optimum(inst, params, "qwh").value == 2.0

    def test_pinched_pair(self):
        inst, params = parse_instance(PINCHED)
        assert oracle_optimum(inst, params, "wc").value == 1.0

    def test_witness_is_nice_and_scores_its_value(self):
        inst, params = parse_instance(CROSSING)
        for objective, key in (("wc", "wiggleCount"),
                               ("lwh", "linearWiggleHeight"),
                               ("qwh", "quadraticWiggleHeight")):
            r = oracle_optimum(inst, params, objective)
            assert is_nice(inst, r.coordination, params)
            report = compute_metrics(inst, r.coordination).as_report()
            assert report[key] == pytest.approx(r.value)

    def test_rejects_unknown_objective(self):
        inst, params = parse_instance(CROSSING)
        with pytest.raises(ValueError, match="objective"):
            oracle_optimum(inst, params, "height")

    def test_rejects_fractional_params(self):
        inst, _ = parse_instance(CROSSING)
        with pytest.raises(ValueError, match="integral"):
            oracle_optimum(inst, NicenessParams(0.5, 1.0), "wc")

    def test_cap_below_minimal_span(self):
        inst, params = parse_instance(PINCHED)
        with pytest.raises(ValueError, match="cap"):
            oracle_optimum(inst, params, "wc", cap=1)

    def test_state_limit(self):
        inst, params = parse_instance(CROSSING)
        with pytest.raises(OracleLimitError, match="states"):
            oracle_optimum(inst, params, "wc", state_limit=1)

    def test_state_limit_is_checked_before_enumerating(self):
        # one step of this instance has about 5e19 states; building them
        # before the check would run out of time or memory
        code = "\n".join([
            "import resource",
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))",
            "from storywiggle.generate import generate_instance",
            "from storywiggle.oracle import OracleLimitError, oracle_optimum",
            "inst, params = generate_instance(25, 30, seed=7, meeting_prob=0.5)",
            "try:",
            "    oracle_optimum(inst, params, 'lwh')",
            "except OracleLimitError as e:",
            "    print(e)",
        ])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(storywiggle.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "states (limit" in proc.stdout

    def test_empty_instance(self):
        inst, params = parse_instance(json.dumps({
            "characters": [], "meetings": [], "orderings": [],
            "params": {"delta": 1.0, "deltaBar": 1.0}}))
        assert oracle_optimum(inst, params, "lwh").value == 0.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000),
       objective=st.sampled_from(["wc", "lwh", "qwh"]))
def test_matches_plain_enumeration(seed, objective):
    inst, params = generate_instance(3, 3, seed=seed, meeting_prob=0.5)
    cap = max(int(big_y(inst, params)) - 1, 0)
    expected, _ = brute_force_optimum(inst, params, objective, cap)
    got = oracle_optimum(inst, params, objective, cap=cap)
    assert got.value == pytest.approx(expected, abs=1e-9)
    assert is_nice(inst, got.coordination, params)

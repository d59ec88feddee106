"""The benchmark's own tests: ``python3 -m pytest perfbench/selftest.py -q``.

Named outside pytest's ``test_*.py`` pattern on purpose: the repo's test
suite collects from the root, and these spawn ``repro-ft`` processes.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import tracing
import workloads
from workloads import ROOT, WORKLOADS, CliRunner, Outcome

#: Tiny sizes for smoke runs; seed 1 so the default-seed digest check is off.
TINY_TRIALS = {"survival_knee": 16, "lifetime_uniform": 16}
SEED = 1


def tiny(name: str):
    wl = WORKLOADS[name]
    if isinstance(wl, workloads.ServeWorkload):
        return dataclasses.replace(wl, requests=20)
    return dataclasses.replace(wl, trials=TINY_TRIALS[name], dispatch_trials=8)


# -- self-time arithmetic ---------------------------------------------------------


def test_self_times_on_hand_built_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 5.0, 9.0, 0),
        ("d", 5.0, 7.0, 3),
        ("d", 6.0, 8.0, 3),   # overlaps its sibling: covered time counts once
    ]
    st = tracing.self_times(spans)
    assert st["root"] == (3.0, 1)
    assert st["a"] == (2.0, 1)
    assert st["b"] == (1.0, 1)
    assert st["c"] == (1.0, 1)
    assert st["d"] == (4.0, 2)


def test_self_times_of_nested_spans_sum_to_root():
    spans = [("root", 0.0, 8.0, -1), ("x", 0.5, 3.0, 0), ("y", 1.0, 2.0, 1),
             ("x", 4.0, 7.5, 0), ("y", 4.0, 7.5, 3)]
    st = tracing.self_times(spans)
    assert sum(s for s, _ in st.values()) == pytest.approx(8.0)
    assert st["y"] == (pytest.approx(4.5), 2)
    assert st["x"][0] == pytest.approx(1.5)


def test_wrapper_records_spans_counts_and_within():
    tracer = tracing.Tracer()
    inner = tracing._wrap(tracer, tracing.Patch("m", "f", "inner", within="outer"),
                          lambda x: x + 1)
    outer = tracing._wrap(tracer, tracing.Patch("m", "g", "outer",
                                                after=lambda t, a, r: t.count("n", r)),
                          lambda x: inner(x) * 2)
    counted = tracing._wrap(tracer, tracing.Patch("m", "h", None, count="calls"), lambda: 0)
    assert outer(1) == 4
    assert inner(1) == 2  # outside "outer": a pass-through, no span
    counted()
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner"]
    assert tracer.spans[1][3] == 0
    assert tracer.counters == {"n": 4, "calls": 1}
    assert not tracer.stack


# -- the catalogue and BENCHMARK.json agree -----------------------------------------


def test_benchmark_json_matches_catalogue():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    cat = workloads.CATALOGUE
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in bench["end_to_end"]] == \
        [{k: m[k] for k in ("name", "unit", "better")} for m in cat["end_to_end"]]
    assert bench["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")}
                                  for m in cat["per_layer"]]
    for span in tracing.SPAN_NAMES:
        assert f"{span}_s" in workloads.PER_LAYER, span
    for m in cat["per_layer"]:
        assert set(m["moves"]) <= set(workloads.END_TO_END), m["name"]
        assert set(m["workloads"]) <= set(WORKLOADS) | {"all"}, m["name"]


# -- tiny-size smoke of each workload runner ---------------------------------------


@pytest.mark.parametrize("name", list(TINY_TRIALS))
def test_cli_workload_smoke(name, tmp_path):
    outcome = Outcome()
    runner = CliRunner(tiny(name), SEED, tmp_path, outcome)
    for _ in range(2):
        runner.untraced()
    assert outcome.problems == []
    assert (outcome.attempted, outcome.failed) == (2, 0)
    metrics = runner.end_to_end()
    assert set(metrics) == set(workloads.END_TO_END)
    assert all(v > 0 for v in metrics.values())
    assert outcome.host["auto_tier"] in outcome.host["available_tiers"]


def test_serve_workload_smoke(tmp_path):
    wl = tiny("serve_mixed")
    session = workloads.serve_session(wl, SEED, tmp_path, "s0", traced=False)
    assert session.problems == []
    assert len(session.latencies) == wl.requests
    metrics = workloads.serve_end_to_end([session, session])
    assert set(metrics) == set(workloads.END_TO_END)
    assert all(v > 0 for v in metrics.values())


def test_cli_check_fails_loudly_on_lost_trials():
    doc = {"format": "repro-experiment-v1", "spec": {"grid": [{}], "trials": 4},
           "points": [{"fault_spec": {}, "result": {"trials": 4,
                                                    "categories": {"ok": 2, "no-frame": 1}}}]}
    problems = workloads.check_result_json(WORKLOADS["survival_knee"], doc)
    assert problems and "do not sum to 4" in problems[0]


def test_serve_check_fails_loudly_on_broken_conservation():
    reply = {"offered": 5, "delivered": 3, "timed_out": 1}
    assert "offered 5" in workloads.check_reply("traffic", {}, reply)
    assert workloads.check_reply("traffic", {}, {**reply, "dropped": 1}) == ""


# -- tracing never changes the result ------------------------------------------------


def test_traced_output_is_byte_identical_to_untraced(tmp_path):
    outcome = Outcome()
    runner = CliRunner(tiny("survival_knee"), SEED, tmp_path, outcome)
    runner.untraced()
    res, trace = runner.traced(0)
    assert outcome.problems == [], outcome.problems
    assert (tmp_path / "traced0.json").read_bytes() == (tmp_path / "out0.json").read_bytes()
    metrics = workloads.layer_metrics(trace, res.wall_s, Outcome())
    for key in ("fastpath.bn_batch.sample_s", "fastpath.bn_batch.classify_s",
                "api.adapters.fallback_s", "api.other_s", "setup.import_s"):
        assert metrics[key] > 0, key
    assert metrics["fastpath.bn_batch.fallback_trials"] > 0
    assert metrics["api.experiment.chunks"] == 2

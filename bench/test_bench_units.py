"""Unit tests of the benchmark's pure functions and a lint of its manifest.

No server, no profiling: runs in well under a second.
"""

import json
import os
import re

import pytest

from bench import catalogue
from bench.compare import compare_records, verdict
from bench.spans import SpanRecorder, covered_seconds, self_times
from bench.stats import percentile, quartile_spread, summarize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# --------------------------------------------------------------------------- #
# stats
# --------------------------------------------------------------------------- #
def test_percentile_interpolates_between_ranks():
    values = [40.0, 10.0, 30.0, 20.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 50) == 25.0
    assert percentile(values, 100) == 40.0
    assert percentile([7.0], 95) == 7.0
    assert percentile(list(range(101)), 95) == 95.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_summarize_reports_min_of_r_beside_quartiles():
    summary = summarize([3.0, 1.0, 2.0, 5.0, 4.0])
    assert summary == {"n": 5, "min": 1.0, "q1": 2.0, "median": 3.0,
                       "q3": 4.0, "max": 5.0}
    with pytest.raises(ValueError):
        summarize([])


def test_quartile_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    # statistics.quantiles(n=4) -> 2, 4, 6
    assert quartile_spread(values) == pytest.approx(1.0)
    assert quartile_spread([5.0, 5.0, 5.0]) == 0.0
    assert quartile_spread([5.0]) == 0.0


# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #
def test_covered_seconds_unions_overlapping_children():
    assert covered_seconds(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0)]) == 4.0
    assert covered_seconds(0.0, 10.0, [(-5.0, 2.0), (8.0, 20.0)]) == 4.0
    assert covered_seconds(0.0, 10.0, []) == 0.0


def test_self_time_is_duration_minus_child_cover():
    spans = [
        ("root", 0.0, 10.0, None, "t"),
        ("child", 1.0, 4.0, 0, "t"),
        ("child", 3.0, 6.0, 0, "t"),      # overlaps its sibling
        ("leaf", 1.5, 2.0, 1, "t"),
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(5.0)     # 10 - union(1..6)
    assert own["child"] == pytest.approx(5.5)    # (3 - 0.5) + 3
    assert own["leaf"] == pytest.approx(0.5)


def test_recorder_nests_by_with_structure_and_inherits_trace_id():
    recorder = SpanRecorder()
    with recorder.span("outer", "pass0") as outer:
        with recorder.span("inner") as inner:
            assert recorder.current == inner
        synthetic = recorder.add("task", 0.0, 0.0, recorder.current)
    assert recorder.current is None
    assert recorder.spans[inner][3] == outer
    assert recorder.spans[inner][4] == "pass0"
    assert recorder.spans[synthetic][3] == outer
    assert all(end >= start for _, start, end, _, _ in recorder.spans)
    assert set(recorder.totals()) == {"outer", "inner", "task"}


# --------------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------------- #
def test_verdict_ok_and_regressed():
    assert verdict([10.0, 10.1, 9.9], [10.4, 10.5, 10.3], "lower", 0.10) \
        == ("ok", pytest.approx(0.04))
    assert verdict([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "lower",
                   0.10)[0] == "regressed"
    # higher-is-better: a drop is the worsening
    assert verdict([100.0], [80.0], "higher", 0.10)[0] == "regressed"
    assert verdict([100.0], [120.0], "higher", 0.10)[0] == "ok"


def test_verdict_unresolved_needs_noise_and_interleaving():
    noisy_a = [8.0, 10.0, 12.0, 9.0, 11.0]
    # B's median is 20 % worse, but A's own runs spread wider than the
    # bound and the two sets interleave.
    assert verdict(noisy_a, [12.0, 9.5, 12.5, 11.5, 13.0], "lower",
                   0.10)[0] == "unresolved"
    # Equally noisy, yet every run of B is worse than every run of A.
    assert verdict(noisy_a, [13.0, 15.0, 17.0, 14.0, 16.0], "lower",
                   0.10)[0] == "regressed"
    # ... or better: separated sets resolve in B's favour.
    assert verdict(noisy_a, [4.0, 5.0, 6.0, 4.5, 5.5], "lower",
                   0.10)[0] == "ok"


def test_compare_records_rows_carry_base_and_bound():
    def record(train):
        return {"workloads": {"offline_fanout": {"end_to_end": {
            "train_s": train, "select_rps": [40.0]}}}}

    rows = compare_records(record([4.0, 4.1]), record([6.0, 6.1]))
    by_metric = {row["metric"]: row for row in rows}
    assert set(by_metric) == {"train_s", "select_rps"}
    train = by_metric["train_s"]
    assert train["verdict"] == "regressed"
    assert train["a"] == pytest.approx(4.05) and train["b"] == pytest.approx(6.05)
    assert train["bound"] == dict(
        (name, bound) for name, _, _, bound, _ in catalogue.END_TO_END)["train_s"]
    assert by_metric["select_rps"]["verdict"] == "ok"


# --------------------------------------------------------------------------- #
# manifest lint
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_manifest_is_rendered_from_the_catalogue(manifest):
    assert manifest == catalogue.manifest()


def test_manifest_meets_the_driver_contract(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["bench"]
    assert manifest["command"] == ["python3", "bench/run.py"]
    assert isinstance(manifest["run_seconds"], int)
    assert 1 <= manifest["run_seconds"] <= 60
    # 4 + 22 x workloads runs must end within 3420 s
    runs = 4 + 22 * len(manifest["workloads"])
    assert runs * (manifest["run_seconds"] + 8) <= 3420

    assert len(manifest["workloads"]) == 4
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]

    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    every = manifest["workloads"] + manifest["end_to_end"] \
        + manifest["per_layer"]
    names = [entry["name"] for entry in every]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")

    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in manifest["end_to_end"])


def test_every_layer_metric_names_what_it_should_move():
    end_to_end = {name for name, _, _, _, _ in catalogue.END_TO_END}
    workloads = {spec.name for spec in catalogue.WORKLOADS}
    moved = set()
    for name, _, _, moves in catalogue.PER_LAYER:
        assert isinstance(moves, tuple), name
        for target in moves:
            metric, _, workload = target.partition("@")
            assert metric in end_to_end, (name, target)
            assert workload in workloads, (name, target)
            moved.add(metric)
    # Every timed end-to-end metric has at least one layer pointing at it.
    assert moved >= end_to_end - {"peak_rss_mb"}


def test_workload_specs_are_consistent():
    for spec in catalogue.WORKLOADS:
        assert spec.focus in catalogue.WINDOW_SHARE
        assert spec.traffic in ("warm", "cold")
        assert all(1 <= combination <= 9 for _, _, combination in spec.corpus)
        assert spec.store_graphs >= 2

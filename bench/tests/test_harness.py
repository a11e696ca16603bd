"""Metric computation in the harness, against the names BENCHMARK.json gives."""

from bench import load_spec
from bench.harness import end_to_end, print_report, summary_line
from bench.trace import Tracer


def _pass(ops):
    return {"peak_rss_mb": 100.0, "wall_s": 2.0, "traced": False, "ops": ops}


def test_metric_names_are_the_ones_benchmark_json_lists():
    spec = load_spec()
    ok = _pass([["a", 0.5, None, "d1"], ["b", 1.5, None, "d2"]])
    assert set(end_to_end([ok], [0.3, 0.2, 0.4])) == {m["name"] for m in spec["end_to_end"]}
    layers = set(Tracer().layer_metrics()) | {"bench.trace_overhead"}
    assert layers == {m["name"] for m in spec["per_layer"]}


def test_timings_are_medians_of_per_pass_values():
    fast = _pass([["a", 1.0, None, "d1"], ["b", 3.0, None, "d2"]])
    slow = _pass([["a", 1.0, None, "d1"], ["b", 5.0, None, "d2"]])
    medium = _pass([["a", 2.0, None, "d1"], ["b", 4.0, None, "d2"]])
    metrics = end_to_end([fast, slow, medium], [0.3])
    # per-pass medians 2000, 3000, 3000; all six ops pooled would give 2500
    assert metrics["op_p50_ms"] == 3000.0
    assert metrics["pass_s"] == 6.0


def test_a_run_whose_ops_all_failed_reports_its_errors_and_no_metrics(capsys):
    failed = _pass([["edit0", 4.0, "edit0: incremental mode 'cold'", "d"]] * 2)
    assert end_to_end([failed, failed], [0.3, 0.3]) == {}

    result = {
        "workload": "edit_session", "seed": 0, "trace": 0, "passes": [failed], "setups": [0.3],
        "correct": False, "attempted": 2, "failed": 2, "metrics": {},
    }
    print_report(result)
    assert "(2/2 ops failed)" in capsys.readouterr().out
    assert summary_line(result) == {"correct": False, "attempted": 2, "failed": 2, "metrics": {}}

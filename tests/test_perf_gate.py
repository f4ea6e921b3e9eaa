"""The CI timing gate's verdict (``tools/perf_gate.py``) on canned runs."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "tools" / "perf_gate.py")
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BASELINE = {"setup_s": 1.0, "jobs_per_s": 500.0, "latency_p50_ms": 1.0,
            "latency_p99_ms": 10.0, "proved_frac": 0.998,
            "ii_over_mii": 1.1, "peak_rss_mb": 50.0}


def run(failed=5, correct=True, exit=0, **values):
    metrics = {k: {"value": v, "unit": "-"}
               for k, v in {**BASELINE, **values}.items()}
    return {"exit": exit, "result": {"correct": correct, "attempted": 1000,
                                     "failed": failed, "metrics": metrics}}


def verdict(base, head):
    return perf_gate.workload_verdict("w", END_TO_END, base, head)


def line_for(lines, metric):
    [line] = [ln for ln in lines if f": {metric} " in ln]
    return line


def test_identical_runs_pass():
    lines, failed = verdict([run()] * 5, [run()] * 5)
    assert not failed
    assert all(line.endswith(" ok") for line in lines)
    assert len(lines) == len(END_TO_END)


def test_worse_beyond_bound_with_every_head_run_worse_fails():
    base = [run(latency_p99_ms=v) for v in (9.5, 10.0, 10.2, 9.8, 10.1)]
    head = [run(latency_p99_ms=v) for v in (13.0, 13.5, 14.0, 13.2, 12.9)]
    lines, failed = verdict(base, head)
    assert failed
    assert line_for(lines, "latency_p99_ms").endswith(" FAIL")


def test_same_median_gap_with_overlapping_runs_is_unresolved():
    base = [run(latency_p99_ms=v) for v in (9.5, 10.0, 10.2, 9.8, 14.0)]
    head = [run(latency_p99_ms=v) for v in (13.0, 13.5, 9.0, 13.2, 12.9)]
    lines, failed = verdict(base, head)
    assert not failed
    assert line_for(lines, "latency_p99_ms").endswith(" unresolved")


def test_higher_is_better_metric_fails_when_it_falls():
    base = [run(jobs_per_s=v) for v in (500, 510, 490, 505, 495)]
    head = [run(jobs_per_s=v) for v in (300, 310, 290, 305, 295)]
    lines, failed = verdict(base, head)
    assert failed
    assert line_for(lines, "jobs_per_s").endswith(" FAIL")
    # the same metric rising is never a regression
    lines, failed = verdict(head, base)
    assert not failed
    assert line_for(lines, "jobs_per_s").endswith(" ok")


def test_rise_in_failed_share_fails():
    lines, failed = verdict([run(failed=5)] * 5,
                            [run(failed=5)] * 4 + [run(failed=6)])
    assert failed
    assert "failed/attempted rose" in lines[0]
    _, failed = verdict([run(failed=6)] * 5, [run(failed=5)] * 5)
    assert not failed


@pytest.mark.parametrize("bad", [run(correct=False, exit=1),
                                 run(exit=3),
                                 {"exit": 1, "result": None}])
def test_incorrect_or_crashed_head_run_fails(bad):
    lines, failed = verdict([run()] * 5, [run()] * 4 + [bad])
    assert failed
    assert lines == ["w: FAIL head run(s) [4] exited non-zero or were "
                     "not correct"]


def test_unmeasurable_base_run_fails_loudly():
    lines, failed = verdict([{"exit": None, "result": None}] + [run()] * 4,
                            [run()] * 5)
    assert failed
    assert lines == ["w: FAIL base run(s) [0] could not be measured"]


def test_correct_run_missing_a_field_fails_without_a_crash():
    no_p99 = run()
    del no_p99["result"]["metrics"]["latency_p99_ms"]
    no_failed = run()
    del no_failed["result"]["failed"]
    no_attempted = run()
    del no_attempted["result"]["attempted"]
    lines, failed = verdict([run()] * 4 + [no_attempted],
                            [run()] * 3 + [no_p99, no_failed])
    assert failed
    assert lines == ["w: FAIL head run 3 missing metrics.latency_p99_ms",
                     "w: FAIL head run 4 missing failed",
                     "w: FAIL base run 4 missing attempted"]


def test_gate_takes_one_checkout_path(capsys, tmp_path):
    assert perf_gate.main([]) == 2
    assert perf_gate.main([str(tmp_path / "missing")]) == 2
    assert "usage" in capsys.readouterr().err

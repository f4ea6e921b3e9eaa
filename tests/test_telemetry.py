"""Unit tests for the benchmark perf-telemetry layer (benchmarks/telemetry.py)."""

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "benchmarks"))
import telemetry  # noqa: E402


@pytest.fixture()
def bench_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    return tmp_path


def test_write_bench_json_shape(bench_dir):
    path = telemetry.write_bench_json(
        "demo", 1.23456, corpus_size=190, metrics={"hit_rate": 0.9})
    assert path == bench_dir / "BENCH_demo.json"
    rec = json.loads(path.read_text())
    assert rec["name"] == "demo"
    assert rec["wall_s"] == 1.2346
    assert rec["corpus_size"] == 190
    assert rec["metrics"] == {"hit_rate": 0.9}
    assert rec["schema"] == telemetry.SCHEMA_VERSION
    assert "timestamp" in rec
    prov = rec["provenance"]
    assert set(prov) == {"git_sha", "host", "python"}
    assert len(prov["host"]) == 12
    assert prov["python"].count(".") == 2


def test_provenance_git_sha_env_override(bench_dir, monkeypatch):
    monkeypatch.setattr(telemetry, "_PROVENANCE", None)
    monkeypatch.setenv("REPRO_GIT_SHA", "cafe123")
    assert telemetry.provenance()["git_sha"] == "cafe123"
    monkeypatch.setattr(telemetry, "_PROVENANCE", None)


def _baseline(tmp_path, benches):
    p = tmp_path / "baseline.json"
    p.write_text(json.dumps({"schema": 1, "benches": benches}))
    return p


def test_check_passes_within_tolerance(bench_dir, tmp_path):
    r = telemetry.write_bench_json("fast", 1.0)
    base = _baseline(tmp_path, {"fast": {"wall_s": 0.9}})
    report, failures = telemetry.check_against_baseline(
        [r], telemetry.load_baseline(base), tolerance=1.3)
    assert not failures
    assert any("ok" in line for line in report)


def test_check_fails_beyond_tolerance(bench_dir, tmp_path):
    r = telemetry.write_bench_json("slow", 2.0)
    base = _baseline(tmp_path, {"slow": {"wall_s": 1.0}})
    _report, failures = telemetry.check_against_baseline(
        [r], telemetry.load_baseline(base), tolerance=1.3)
    assert len(failures) == 1
    assert "REGRESSION" in failures[0]


def test_check_per_entry_tolerance_overrides(bench_dir, tmp_path):
    r = telemetry.write_bench_json("loose", 2.0)
    base = _baseline(tmp_path, {"loose": {"wall_s": 1.0, "tolerance": 2.5}})
    _report, failures = telemetry.check_against_baseline(
        [r], telemetry.load_baseline(base), tolerance=1.3)
    assert not failures


def test_unbaselined_record_reports_but_never_fails(bench_dir, tmp_path):
    r = telemetry.write_bench_json("newbench", 99.0)
    base = _baseline(tmp_path, {})
    report, failures = telemetry.check_against_baseline(
        [r], telemetry.load_baseline(base))
    assert not failures
    assert any("no baseline entry" in line for line in report)


def test_update_folds_records_and_keeps_others(bench_dir, tmp_path):
    r = telemetry.write_bench_json("fresh", 3.0)
    base = _baseline(tmp_path, {"old": {"wall_s": 7.0}})
    data = telemetry.update_baseline([r], base)
    assert data["benches"]["fresh"]["wall_s"] == 3.0
    assert data["benches"]["old"]["wall_s"] == 7.0
    # persisted
    assert json.loads(base.read_text())["benches"]["fresh"]["wall_s"] == 3.0


def test_cli_check_exit_codes(bench_dir, tmp_path, capsys):
    r = telemetry.write_bench_json("cli", 1.0)
    good = _baseline(tmp_path, {"cli": {"wall_s": 1.0}})
    assert telemetry.main(
        ["check", str(r), "--baseline", str(good)]) == 0
    bad = _baseline(tmp_path, {"cli": {"wall_s": 0.1}})
    assert telemetry.main(
        ["check", str(r), "--baseline", str(bad)]) == 1
    capsys.readouterr()


def test_real_baseline_is_wellformed():
    base = telemetry.load_baseline(telemetry.DEFAULT_BASELINE)
    assert "fig6_partition" in base["benches"]
    assert "scheduler_compare" in base["benches"]
    for entry in base["benches"].values():
        assert entry["wall_s"] > 0

"""Tests for the repro-vliw command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_corpus_command(capsys):
    code, out, _ = run_cli(capsys, "--sample", "20", "corpus")
    assert code == 0
    assert "loops" in out


def test_schedule_command(capsys):
    code, out, _ = run_cli(capsys, "schedule", "daxpy")
    assert code == 0
    assert "II=" in out
    assert "simulated" in out


def test_schedule_clustered(capsys):
    code, out, _ = run_cli(capsys, "schedule", "dot", "--clusters", "4",
                           "--unroll", "2")
    assert code == 0
    assert "private" in out


def test_schedule_unknown_kernel(capsys):
    code, _, err = run_cli(capsys, "schedule", "nope")
    assert code == 2
    assert "unknown kernel" in err


def test_schedule_list_enumerates_kernels(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--list")
    assert code == 0
    assert "daxpy" in out and "ops" in out


def test_schedule_missing_kernel_hints_at_list(capsys):
    code, _, err = run_cli(capsys, "schedule")
    assert code == 2
    assert "--list" in err


def test_schedule_with_sms_scheduler(capsys):
    code, out, _ = run_cli(capsys, "schedule", "daxpy",
                           "--scheduler", "sms")
    assert code == 0
    assert "II=" in out
    assert "simulated" in out


def test_experiment_fig3(capsys):
    code, out, _ = run_cli(capsys, "--sample", "8", "experiment", "fig3")
    assert code == 0
    assert "Fig. 3" in out


def test_experiment_unknown(capsys):
    code, _, err = run_cli(capsys, "--sample", "8", "experiment", "nope")
    assert code == 2
    assert "unknown experiment" in err


def test_experiment_list_enumerates_experiments(capsys):
    from repro.analysis.experiments import EXPERIMENTS

    code, out, _ = run_cli(capsys, "experiment", "--list")
    assert code == 0
    for exp_id in ("fig3", "fig9", "e6b", "sc", "pc", "s2"):
        assert exp_id in out
    # one line per row of the experiment table, in its order
    assert [line.split()[0] for line in out.splitlines()] == \
        list(EXPERIMENTS)
    assert len(EXPERIMENTS) == 16


def test_experiment_help_names_every_id(capsys):
    from repro.analysis.experiments import EXPERIMENTS

    with pytest.raises(SystemExit):
        main(["experiment", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert f"one of: {', '.join(EXPERIMENTS)}" in out


def test_cli_import_leaves_the_drivers_unloaded():
    """The ``serve`` daemon runs through the CLI: neither importing it
    nor building its parser may load the experiment drivers."""
    import subprocess
    import sys

    code = ("import sys, repro.cli; repro.cli.build_parser(); "
            "assert 'repro.analysis.experiments' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_experiment_missing_id_hints_at_list(capsys):
    code, _, err = run_cli(capsys, "experiment")
    assert code == 2
    assert "--list" in err


def test_experiment_with_sms_scheduler(capsys):
    code, out, _ = run_cli(capsys, "--sample", "8", "--no-cache",
                           "experiment", "fig3", "--scheduler", "sms")
    assert code == 0
    assert "Fig. 3" in out


def test_experiment_scheduler_compare(capsys):
    code, out, _ = run_cli(capsys, "--sample", "8", "--no-cache",
                           "experiment", "sc")
    assert code == 0
    assert "scheduler comparison" in out
    assert "ims" in out and "sms" in out


#: the engine listings, byte for byte: table order, default first
SCHEDULERS_LISTING = (
    "ims    iterative modulo scheduling (Rau 1996): height priority, "
    "forced placement with eviction/backtracking  (default)\n"
    "sms    swing modulo scheduling (Llosa et al. 1996): criticality "
    "ordering, bidirectional lifetime-minimising placement, no "
    "backtracking\n")
PARTITIONERS_LISTING = (
    "affinity       most scheduled DATA neighbours first, then earliest "
    "slot, then lightest load (paper default)  (default)\n"
    "agglomerative  two-phase: affinity-weighted agglomerative "
    "pre-assignment under ResMII balance, slot search with clusters "
    "pinned\n"
    "balance        least-loaded cluster first, then earliest slot\n"
    "first          earliest slot, lowest cluster index (naive "
    "baseline)\n"
    "random         uniformly random feasible candidate (seeded)\n")


def test_schedulers_subcommand(capsys):
    code, out, _ = run_cli(capsys, "schedulers")
    assert code == 0
    assert out == SCHEDULERS_LISTING


def test_partitioners_subcommand(capsys):
    code, out, _ = run_cli(capsys, "partitioners")
    assert code == 0
    assert out == PARTITIONERS_LISTING


def test_schedule_clustered_with_partitioner(capsys):
    code, out, _ = run_cli(capsys, "schedule", "dot", "--clusters", "4",
                           "--unroll", "2",
                           "--partitioner", "agglomerative")
    assert code == 0
    assert "II=" in out and "simulated" in out


def test_unknown_partitioner_rejected_before_compiling(capsys):
    """A typo'd engine name must die in argument parsing, listing the
    registered names, instead of surfacing as an error mid-sweep."""
    with pytest.raises(SystemExit):
        main(["schedule", "dot", "--clusters", "4",
              "--partitioner", "bogus"])
    err = capsys.readouterr().err
    assert "bogus" in err
    assert "affinity" in err and "agglomerative" in err


def test_unknown_scheduler_rejected_before_compiling(capsys):
    with pytest.raises(SystemExit):
        main(["schedule", "daxpy", "--scheduler", "bogus"])
    err = capsys.readouterr().err
    assert "ims" in err and "sms" in err


def test_experiment_partitioner_compare(capsys):
    code, out, _ = run_cli(capsys, "--sample", "6", "--no-cache",
                           "experiment", "pc")
    assert code == 0
    assert "partitioner comparison" in out
    assert "affinity" in out and "agglomerative" in out


def test_experiment_fig6_with_partitioner(capsys):
    code, out, _ = run_cli(capsys, "--sample", "6", "--no-cache",
                           "experiment", "fig6",
                           "--partitioner", "agglomerative")
    assert code == 0
    assert "Fig. 6" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_experiment_s1(capsys):
    code, out, _ = run_cli(capsys, "--sample", "6", "experiment", "s1")
    assert code == 0
    assert "register pressure" in out


def test_experiment_e6b(capsys):
    code, out, _ = run_cli(capsys, "--sample", "6", "experiment", "e6b")
    assert code == 0
    assert "spill" in out


def test_schedule_asm_listing(capsys):
    code, out, _ = run_cli(capsys, "schedule", "daxpy", "--asm")
    assert code == 0
    assert "; kernel II=" in out


def test_experiment_parallel_output_identical(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    code, serial, _ = run_cli(capsys, "--sample", "8", "--cache-dir", cache,
                              "experiment", "fig3")
    assert code == 0
    code, parallel, _ = run_cli(capsys, "--sample", "8", "--jobs", "2",
                                "--cache-dir", cache, "experiment", "fig3")
    assert code == 0
    assert parallel == serial
    code, uncached, _ = run_cli(capsys, "--sample", "8", "--no-cache",
                                "experiment", "fig3")
    assert code == 0
    assert uncached == serial


def test_cache_subcommand_reports_and_clears(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    run_cli(capsys, "--sample", "6", "--cache-dir", cache,
            "experiment", "fig3")
    code, out, _ = run_cli(capsys, "--cache-dir", cache, "cache")
    assert code == 0
    assert "results" in out
    code, out, _ = run_cli(capsys, "--cache-dir", cache, "cache", "clear")
    assert code == 0
    assert "cleared" in out
    code, out, _ = run_cli(capsys, "--cache-dir", cache, "cache")
    assert "0 results" in out


def test_cache_stats_gc_and_migrate_actions(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    run_cli(capsys, "--sample", "6", "--cache-dir", cache,
            "experiment", "fig3")
    code, out, _ = run_cli(capsys, "--cache-dir", cache, "cache", "stats")
    assert code == 0
    assert "[sharded]" in out
    assert "shard occupancy" in out
    code, out, _ = run_cli(capsys, "--cache-dir", cache,
                           "cache", "gc", "--max-bytes", "1")
    assert code == 0
    assert "evicted" in out
    code, out, _ = run_cli(capsys, "--cache-dir", cache, "cache", "stats")
    assert "0 results" in out
    # the retired spellings are usage errors
    for argv in (["cache", "--clear"], ["cache", "migrate"]):
        with pytest.raises(SystemExit) as exc:
            main(["--cache-dir", cache, *argv])
        assert exc.value.code == 2
    capsys.readouterr()


def test_cache_gc_on_legacy_layout(capsys, tmp_path):
    from repro.runner import ShardedResultCache, execute_job
    from repro.runner.job import CompileJob
    from repro.machine.presets import qrf_machine
    from repro.workloads.kernels import kernel

    cache_dir = tmp_path / "cache"
    cache = ShardedResultCache(cache_dir)
    result = execute_job(CompileJob(kernel("daxpy"), qrf_machine(4)))
    cache.put(result)
    cache.put(result)  # duplicate line the gc can fold away
    code, out, _ = run_cli(capsys, "--cache-dir", str(cache_dir),
                           "cache", "stats")
    assert code == 0 and "[sharded]" in out and "1 results" in out
    before = cache.total_bytes()
    code, out, _ = run_cli(capsys, "--cache-dir", str(cache_dir),
                           "cache", "gc")
    assert code == 0 and "0 evicted" in out
    assert f"{before} -> {before // 2} bytes" in out
    code, out, _ = run_cli(capsys, "--cache-dir", str(cache_dir),
                           "cache", "stats")
    assert "[sharded]" in out and "1 results" in out


def test_submit_against_thread_server(capsys, tmp_path):
    from repro.runner import ShardedResultCache
    from repro.service import SweepService, start_in_thread

    handle = start_in_thread(
        SweepService(ShardedResultCache(tmp_path / "cache"), n_workers=1))
    try:
        port = str(handle.port)
        code, out, _ = run_cli(capsys, "submit", "daxpy", "dot",
                               "--port", port)
        assert code == 0
        assert "compiled" in out and "II=" in out
        metrics_file = tmp_path / "metrics.json"
        code, out, _ = run_cli(capsys, "submit", "daxpy", "dot",
                               "--port", port, "--expect-cached",
                               "--metrics-out", str(metrics_file))
        assert code == 0
        assert "cached" in out
        import json
        metrics = json.loads(metrics_file.read_text())
        assert metrics["service"]["served_from_cache"] >= 2
    finally:
        handle.stop()


# ---------------------------------------------------------------------------
# retired II search flag
# ---------------------------------------------------------------------------

def test_unknown_ii_search_rejected(capsys):
    """``--ii-search`` is gone: every subcommand that took it now
    rejects it as an unrecognised argument."""
    for argv in (["schedule", "daxpy"], ["trace", "daxpy"],
                 ["experiment", "fig3"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--ii-search", "linear"])
        assert "unrecognized arguments: --ii-search" \
            in capsys.readouterr().err


# ---------------------------------------------------------------------------
# trace subcommand
# ---------------------------------------------------------------------------

@pytest.fixture()
def untraced():
    """Restore the tracing default after a command that enables it
    in-process (`trace`, `schedule --trace`)."""
    from repro.obs import trace as tr
    was_enabled = tr.tracing_enabled()
    yield
    tr.reset_tracing()
    if not was_enabled:
        tr.disable_tracing()


def _coverage_pct(out):
    import re

    m = re.search(r"\((\d+(?:\.\d+)?)% covered\)", out)
    assert m, out
    return float(m.group(1))


def test_trace_command_breakdown_covers_wall(capsys, untraced):
    code, out, _ = run_cli(capsys, "trace", "fir4")
    assert code == 0
    assert "pipeline.schedule" in out
    assert "sched.ii_accepted" in out
    assert _coverage_pct(out) >= 90.0          # stage sum within 10%


def test_trace_clustered_counts_partition_rounds(capsys, untraced):
    code, out, _ = run_cli(capsys, "trace", "dot", "--clusters", "2")
    assert code == 0
    assert "partition.placements" in out


def test_schedule_trace_flag_appends_breakdown(capsys, untraced):
    code, out, _ = run_cli(capsys, "schedule", "daxpy", "--trace")
    assert code == 0
    assert "simulated" in out                  # normal dump still there
    assert "pipeline.schedule" in out
    assert _coverage_pct(out) >= 90.0


def test_trace_unknown_kernel(capsys):
    code, _, err = run_cli(capsys, "trace", "nope")
    assert code == 2
    assert "unknown kernel" in err


def test_faults_flag_arms_the_global_plan(capsys):
    from repro import faults

    try:
        code, out, _ = run_cli(capsys, "--faults",
                               "seed=7;cache.put=torn:0.5", "schedulers")
        assert code == 0
        plan = faults.active_plan()
        assert plan is not None and plan.seed == 7
    finally:
        faults.disable_faults()


def test_bad_faults_spec_is_a_usage_error(capsys):
    from repro import faults

    code, _, err = run_cli(capsys, "--faults", "bogus.site=raise:1",
                           "schedulers")
    assert code == 2
    assert "bad --faults spec" in err
    assert not faults.faults_enabled()


def test_supervision_flags_reach_the_runner_config():
    from repro.cli import _runner

    args = build_parser().parse_args(
        ["--jobs", "2", "--no-cache", "--job-deadline", "0",
         "--retries", "3", "corpus"])
    config = _runner(args)
    assert config.job_deadline_s is None          # 0 disables
    assert config.max_retries == 3
    args = build_parser().parse_args(["--no-cache", "corpus"])
    config = _runner(args)
    assert config.job_deadline_s == 120.0
    assert config.max_retries == 1

"""The verifier is wired through the pipeline and the CLI."""

import pytest

from repro.cli import main
from repro.machine.presets import clustered_machine, qrf_machine
from repro.runner.job import CompileJob, PipelineOptions
from repro.runner.pipeline import compile_loop, execute_job
from repro.workloads.kernels import kernel


def test_compile_loop_verify_flag_proves_the_schedule():
    compiled = compile_loop(kernel("cmul"), clustered_machine(4),
                            verify=True)
    assert not compiled.outcome.failed


@pytest.mark.parametrize("machine", [qrf_machine(4), clustered_machine(4)],
                         ids=lambda m: m.name)
def test_compile_loop_proves_the_allocation_it_ships(monkeypatch, machine):
    """The verifier checks the packing the pipeline ships, not one of
    its own: a corrupted allocation fails ``verify=True``."""
    from repro.runner import pipeline
    from repro.verify import VerificationError, ViolationKind

    real = pipeline.allocate_for_schedule

    def corrupted(sched, machine=None):
        usage = real(sched, machine)
        alloc = max(usage.by_location.values(), key=lambda a: a.n_queues)
        alloc.queues[0] = alloc.queues[0][1:]   # lose one lifetime
        return usage

    monkeypatch.setattr(pipeline, "allocate_for_schedule", corrupted)
    with pytest.raises(VerificationError) as info:
        compile_loop(kernel("cmul"), machine, verify=True)
    assert info.value.verdict.kinds() == {ViolationKind.QUEUE_ALLOCATION}


def test_pipeline_options_thread_verify_through_jobs():
    opts = PipelineOptions(verify=True)
    assert opts.compile_kwargs()["verify"] is True
    result = execute_job(CompileJob(kernel("daxpy"), qrf_machine(8),
                                    opts))
    assert not result.outcome.failed


def test_verify_participates_in_the_job_key():
    ddg, m = kernel("daxpy"), qrf_machine(8)
    assert (CompileJob(ddg, m, PipelineOptions(verify=True)).key
            != CompileJob(ddg, m, PipelineOptions()).key)


def test_cli_verify_proves_one_kernel(capsys):
    assert main(["verify", "daxpy", "--mutations", "1"]) == 0
    out = capsys.readouterr().out
    assert "schedules proved" in out and "corruptions rejected" in out


def test_cli_verify_unknown_kernel_is_usage_error(capsys):
    assert main(["verify", "nope"]) == 2
    assert "unknown kernel" in capsys.readouterr().err


def test_cli_verify_json_output(capsys):
    import json

    assert main(["verify", "dot", "--json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert docs and all(doc["ok"] for doc in docs)


@pytest.mark.parametrize("kwargs,match", [
    ({"scheduler": "bogus"}, "unknown scheduler 'bogus'"),
    ({"partitioner": "bogus"}, "unknown partitioner 'bogus'"),
])
def test_compile_loop_rejects_engine_typos_upfront(kwargs, match):
    with pytest.raises(KeyError, match=match):
        compile_loop(kernel("daxpy"), qrf_machine(4), **kwargs)


def test_compile_loop_rejects_ii_search_typos_upfront():
    """The II search mode is no longer a pipeline option."""
    with pytest.raises(TypeError, match="ii_search"):
        compile_loop(kernel("daxpy"), qrf_machine(4), ii_search="adaptive")

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

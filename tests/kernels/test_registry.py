"""One kernel path: no backend registry, env variable or CLI selector.

``repro.kernels`` used to pick between a Python and a NumPy backend
through ``REPRO_KERNELS``, a global ``--kernels`` flag and a ``kernels``
subcommand.  There is one implementation now; these tests pin that the
old selectors select nothing and that the remaining surface -- the
constant :func:`repro.kernels.active_name` and the ``/healthz`` field --
still reports it.
"""

import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro import kernels
from repro.cli import main as cli_main

_SRC = str(pathlib.Path(kernels.__file__).resolve().parents[1])
_PRIMITIVES = ("cycle_tester", "heights", "earliest_starts",
               "zero_heights", "dependence_clean", "capacity_clean")


def _run(code, env_value):
    """Run *code* in a fresh interpreter with ``REPRO_KERNELS`` set."""
    env = dict(os.environ, PYTHONPATH=_SRC, REPRO_KERNELS=env_value)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_python_backend_always_available():
    assert kernels.active_name() == "python"
    for name in _PRIMITIVES:
        assert inspect.isfunction(getattr(kernels, name)), name


def test_active_initialises_from_env():
    """A stale ``REPRO_KERNELS=numpy`` neither changes the reported
    implementation nor pulls NumPy into a scheduling process."""
    out = _run("import sys; import repro.kernels as k; "
               "import repro.sched, repro.runner; "
               "print(k.active_name(), 'numpy' in sys.modules)", "numpy")
    assert out == "python False"


def test_backend_info_shape(tmp_path):
    """``/healthz`` keeps its ``kernels`` field, now the constant."""
    import http.client

    from repro.runner import ShardedResultCache
    from repro.service import SweepService, start_in_thread

    handle = start_in_thread(
        SweepService(ShardedResultCache(tmp_path / "cache"), n_workers=1))
    try:
        conn = http.client.HTTPConnection(handle.host, handle.port,
                                          timeout=60)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            health = json.loads(response.read())
        finally:
            conn.close()
    finally:
        handle.stop()
    assert response.status == 200
    assert health["kernels"] == kernels.active_name() == "python"


def test_check_kernels_is_clean():
    """``repro.kernels`` is one plain module of functions: no class, no
    registry, and nothing under the package reads ``REPRO_KERNELS``."""
    assert pathlib.Path(kernels.__file__).name == "kernels.py"
    assert not [name for name, obj in vars(kernels).items()
                if inspect.isclass(obj)
                and obj.__module__ == kernels.__name__]
    root = pathlib.Path(kernels.__file__).parent
    readers = [str(p.relative_to(root)) for p in sorted(root.rglob("*.py"))
               if "REPRO_KERNELS" in p.read_text()]
    assert not readers


def test_cli_kernels_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["kernels"])
    assert exc.value.code == 2
    assert "invalid choice: 'kernels'" in capsys.readouterr().err


def test_cli_kernels_flag_selects_backend(capsys):
    """The global ``--kernels`` flag is gone: even the one valid backend
    name is an unrecognised argument, not a selection."""
    with pytest.raises(SystemExit) as exc:
        cli_main(["--kernels=python", "schedulers"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --kernels" in capsys.readouterr().err


def test_cli_rejects_unknown_backend():
    with pytest.raises(SystemExit) as exc:
        cli_main(["--kernels=fortran", "schedulers"])
    assert exc.value.code == 2


def test_cli_explicit_unavailable_backend_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--kernels=numpy", "schedulers"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --kernels" in capsys.readouterr().err


def test_backend_never_enters_job_fingerprints():
    """The same job hashes to the same cache key whatever a stale
    ``REPRO_KERNELS`` says (cache correctness)."""
    code = ("from repro.ir.copyins import insert_copies; "
            "from repro.machine.presets import qrf_machine; "
            "from repro.runner.fingerprint import job_key; "
            "from repro.workloads.kernels import kernel; "
            "print(job_key(insert_copies(kernel('daxpy')).ddg, "
            "qrf_machine(4), {'scheduler': 'ims'}))")
    keys = {_run(code, value) for value in ("python", "numpy")}
    assert len(keys) == 1

"""The README's public API surface must exist and work as documented."""

import ast
import importlib
import pathlib
import typing

import pytest

import repro


def test_version():
    assert repro.__version__


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_snippet():
    # the exact flow the package docstring/README shows
    result = repro.run_pipeline(repro.daxpy_example(),
                                repro.qrf_machine(4), iterations=16)
    assert result.schedule.ii == 2
    text = result.schedule.render()
    assert "II=2" in text


def test_clustered_flow():
    ddg = repro.unroll(repro.daxpy_example(), 4)
    work = repro.insert_copies(ddg).ddg
    sched = repro.partitioned_schedule(work, repro.clustered_machine(4))
    usage = repro.allocate_for_schedule(sched, repro.clustered_machine(4))
    rep = repro.simulate(sched, usage, iterations=12)
    assert rep.reads_checked > 0


def test_mii_exports():
    assert repro.mii(repro.daxpy_example(), repro.qrf_machine(4)) == 2


@pytest.mark.parametrize("module", ["repro.runner", "repro.ir"])
def test_annotations_resolve(module):
    """Every exported callable's annotations name importable types (mypy
    checks them statically; this catches names only mypy would see)."""
    mod = importlib.import_module(module)
    for name in mod.__all__:
        obj = getattr(mod, name)
        if callable(obj):
            typing.get_type_hints(obj)


def _importers_of(banned: str) -> list[str]:
    """Package modules (relative paths) that import *banned*."""
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == banned for n in names):
                offenders.append(str(path.relative_to(root)))
    return offenders


def test_no_module_imports_networkx():
    """The IR is self-contained: no module of the package imports
    networkx (it is not a dependency)."""
    assert not _importers_of("networkx")


def test_no_module_imports_numpy():
    """The kernels are plain Python loops: no module of the package
    imports NumPy (it is not a dependency)."""
    assert not _importers_of("numpy")

"""Documentation consistency checks.

Docs promising modules, kernels, CLI commands or experiments that do not
exist is the most common way reproduction repos rot; these tests pin the
cross-references.
"""

import pathlib
import re

import repro
from repro.workloads.kernels import KERNELS

ROOT = pathlib.Path(__file__).parent.parent


def _read(name: str) -> str:
    return (ROOT / name).read_text()


def test_design_md_module_references_exist():
    text = _read("DESIGN.md")
    for mod in re.findall(r"`(?:repro/)?((?:ir|machine|sched|regalloc|"
                          r"codegen|sim|workloads|analysis)/\w+\.py)`",
                          text):
        assert (ROOT / "src" / "repro" / mod).exists(), mod


def _design_experiment_rows():
    """``(CLI id, driver, shape check)`` per row of DESIGN's §4 table."""
    return re.findall(r"^\| [^|]+ \| `(\w+)` \| [^|]+ \| `(\w+)` \| "
                      r"`(\w+)` \|$", _read("DESIGN.md"), re.MULTILINE)


def test_design_md_shape_checks_exist():
    from repro.analysis.experiments import EXPERIMENTS

    rows = _design_experiment_rows()
    assert sorted(exp_id for exp_id, _, _ in rows) == sorted(EXPERIMENTS)
    shapes = (ROOT / "tests" / "paper" / "test_paper_shapes.py").read_text()
    for _, _, shape in rows:
        assert re.search(rf"^def {shape}\(", shapes, re.MULTILINE), shape


def test_design_md_drivers_exist():
    from repro.analysis import experiments

    rows = _design_experiment_rows()
    assert rows
    for exp_id, driver, _ in rows:
        assert callable(getattr(experiments, driver, None)), driver
        assert experiments.EXPERIMENTS[exp_id].driver.__name__ == driver


def test_readme_examples_exist():
    text = _read("README.md")
    for example in re.findall(r"`(\w+\.py)` \|", text):
        assert (ROOT / "examples" / example).exists(), example


def test_readme_kernel_count_accurate():
    text = _read("README.md")
    m = re.search(r"(\d+) hand-written classic kernels", text)
    assert m, "README must state the kernel count"
    assert int(m.group(1)) == len(KERNELS)


def test_readme_quickstart_symbols_exist():
    for symbol in ("daxpy_example", "qrf_machine", "run_pipeline",
                   "LoopBuilder", "clustered_machine"):
        assert hasattr(repro, symbol), symbol


def test_every_public_module_has_docstring():
    import importlib
    import pkgutil

    packages = ["repro", "repro.ir", "repro.machine", "repro.sched",
                "repro.regalloc", "repro.codegen", "repro.sim",
                "repro.workloads", "repro.analysis", "repro.runner",
                "repro.service", "repro.obs"]
    for pkg_name in packages:
        pkg = importlib.import_module(pkg_name)
        assert pkg.__doc__, pkg_name
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                mod = importlib.import_module(f"{pkg_name}.{info.name}")
                assert mod.__doc__, mod.__name__

"""The project lint framework: rules fire on the idioms they police,
stay silent on the disciplined variants, and the baseline diff admits
exactly the debt it recorded (DESIGN §5.9)."""

import subprocess
import sys
import textwrap
from repro.analysis.lint import (ALL_RULES, Finding, load_baseline,
                                 new_findings, run_lint, write_baseline)
from repro.analysis.lint.cli import main as lint_main
from repro.analysis.lint.rules import (BareExceptRule, HotLoopAllocRule,
                                       NondeterminismRule, ShardLockRule,
                                       TracerDisciplineRule, UntypedDefRule)


def _lint_source(tmp_path, source, *, rule, rel="src/repro/x.py"):
    """Run one rule over one synthetic file laid out under a fake repo."""
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return run_lint(tmp_path, rules=[rule], paths=[rel])


# ------------------------------------------------------------------ rules

class TestHotLoopAlloc:
    def test_fires_on_comprehension_in_placement_loop(self, tmp_path):
        found = _lint_source(tmp_path, """
            def try_at_ii(ops):
                for op in ops:
                    xs = [o for o in ops]
                return xs
        """, rule=HotLoopAllocRule())
        assert [f.rule for f in found] == ["R001-hot-loop-alloc"]

    def test_silent_outside_hot_functions(self, tmp_path):
        found = _lint_source(tmp_path, """
            def anything_else(ops):
                for op in ops:
                    xs = [o for o in ops]
                return xs
        """, rule=HotLoopAllocRule())
        assert found == []

    def test_silent_on_hoisted_allocation(self, tmp_path):
        found = _lint_source(tmp_path, """
            def first_free(ops):
                xs = []
                for op in ops:
                    xs.append(op)
                return xs
        """, rule=HotLoopAllocRule())
        assert found == []


class TestNondeterminism:
    def test_wall_clock_on_fingerprinted_path(self, tmp_path):
        found = _lint_source(tmp_path, """
            import time
            def stamp():
                return time.time()
        """, rule=NondeterminismRule(), rel="src/repro/sched/x.py")
        assert [f.rule for f in found] == ["R002-nondeterminism"]

    def test_unseeded_and_module_level_random(self, tmp_path):
        found = _lint_source(tmp_path, """
            import random
            def draw():
                return random.Random(), random.randint(0, 9)
        """, rule=NondeterminismRule(), rel="src/repro/ir/x.py")
        assert len(found) == 2

    def test_seeded_rng_and_perf_counter_are_fine(self, tmp_path):
        found = _lint_source(tmp_path, """
            import random, time
            def draw(seed):
                t0 = time.perf_counter()
                return random.Random(seed).random(), t0
        """, rule=NondeterminismRule(), rel="src/repro/sched/x.py")
        assert found == []

    def test_out_of_scope_path_is_ignored(self, tmp_path):
        found = _lint_source(tmp_path, """
            import time
            def stamp():
                return time.time()
        """, rule=NondeterminismRule(), rel="src/repro/obs/x.py")
        assert found == []


class TestShardLock:
    REL = "src/repro/runner/cache.py"

    def test_unlocked_shard_write_fires(self, tmp_path):
        found = _lint_source(tmp_path, """
            class ShardedResultCache:
                def write(self, path, line):
                    with open(path, "a") as fh:
                        fh.write(line)
        """, rule=ShardLockRule(), rel=self.REL)
        assert [f.rule for f in found] == ["R003-shard-lock"]

    def test_locked_write_is_fine_even_nested(self, tmp_path):
        found = _lint_source(tmp_path, """
            class ShardedResultCache:
                def write(self, shard, line):
                    with self._shard_lock(shard):
                        if line:
                            with open(shard, "a") as fh:
                                fh.write(line)
        """, rule=ShardLockRule(), rel=self.REL)
        assert found == []

    def test_reads_never_fire(self, tmp_path):
        found = _lint_source(tmp_path, """
            class ShardedResultCache:
                def read(self, path):
                    with open(path) as fh:
                        return fh.read()
        """, rule=ShardLockRule(), rel=self.REL)
        assert found == []


class TestBareExcept:
    def test_fires(self, tmp_path):
        found = _lint_source(tmp_path, """
            def f():
                try:
                    return 1
                except:
                    return 0
        """, rule=BareExceptRule())
        assert [f.rule for f in found] == ["R004-bare-except"]

    def test_typed_handler_is_fine(self, tmp_path):
        found = _lint_source(tmp_path, """
            def f():
                try:
                    return 1
                except ValueError:
                    return 0
        """, rule=BareExceptRule())
        assert found == []


class TestTracerDiscipline:
    def test_direct_singleton_access_fires(self, tmp_path):
        found = _lint_source(tmp_path, """
            from repro.obs import trace
            def f(x):
                trace._TRACER.record("stage", x)
        """, rule=TracerDisciplineRule())
        assert [f.rule for f in found] == ["R005-tracer-discipline"]

    def test_trace_module_itself_is_exempt(self, tmp_path):
        found = _lint_source(tmp_path, """
            _TRACER = object()
        """, rule=TracerDisciplineRule(), rel="src/repro/obs/trace.py")
        assert found == []


class TestUntypedDef:
    REL = "src/repro/runner/x.py"

    def test_unannotated_param_and_return(self, tmp_path):
        found = _lint_source(tmp_path, """
            def f(x):
                return x
            def g(y: int):
                return y
        """, rule=UntypedDefRule(), rel=self.REL)
        assert len(found) == 2
        assert "unannotated parameter(s) x" in found[0].message
        assert "missing return annotation" in found[1].message

    def test_mypy_conventions(self, tmp_path):
        found = _lint_source(tmp_path, """
            class C:
                def __init__(self, n: int):
                    self.n = n
                def m(self, k: int) -> int:
                    return self.n + k
        """, rule=UntypedDefRule(), rel=self.REL)
        assert found == []

    def test_untyped_packages_are_out_of_scope(self, tmp_path):
        found = _lint_source(tmp_path, """
            def f(x):
                return x
        """, rule=UntypedDefRule(), rel="src/repro/analysis/x.py")
        assert found == []


def test_parse_error_becomes_a_finding(tmp_path):
    found = _lint_source(tmp_path, "def broken(:\n",
                         rule=BareExceptRule())
    assert [f.rule for f in found] == ["parse-error"]


# --------------------------------------------------------------- baseline

def _finding(snippet, rule="R00X", path="src/repro/x.py", line=1):
    return Finding(rule=rule, path=path, line=line, message="m",
                   snippet=snippet)


class TestBaseline:
    def test_fingerprint_is_line_drift_stable(self):
        a = _finding("xs = [1]", line=10)
        b = _finding("xs = [1]", line=99)
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != _finding("ys = [1]").fingerprint

    def test_round_trip_and_diff(self, tmp_path):
        old = [_finding("a"), _finding("b")]
        path = tmp_path / "baseline.json"
        write_baseline(path, old)
        baseline = load_baseline(path)
        assert new_findings(old, baseline) == []
        fresh = new_findings([*old, _finding("c")], baseline)
        assert [f.snippet for f in fresh] == ["c"]

    def test_counts_admit_exactly_the_recorded_occurrences(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [_finding("dup"), _finding("dup")])
        baseline = load_baseline(path)
        assert new_findings([_finding("dup")] * 2, baseline) == []
        assert len(new_findings([_finding("dup")] * 3, baseline)) == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == {}


# ------------------------------------------------------------------- gate

def _repo_root():
    import repro
    import pathlib
    return pathlib.Path(repro.__file__).resolve().parents[2]


def test_repo_is_clean_against_committed_baseline():
    """The gate CI enforces: the tree as committed has no new findings."""
    root = _repo_root()
    baseline = load_baseline(root / "tools" / "lint-baseline.json")
    fresh = new_findings(run_lint(root), baseline)
    assert fresh == [], "\n".join(f.describe() for f in fresh)


def test_cli_exit_codes(tmp_path):
    root = _repo_root()
    assert lint_main(["--root", str(root)]) == 0
    assert lint_main(["--list-rules"]) == 0
    # a tree carrying one known R001 finding: new against an empty
    # baseline, and accepted once the baseline records it
    debt = tmp_path / "debt"
    _lint_source(debt, """
        def try_at_ii(ops):
            for op in ops:
                xs = [o for o in ops]
            return xs
    """, rule=HotLoopAllocRule())
    assert lint_main(["--root", str(debt), "--baseline", ""]) == 1
    assert lint_main(["--root", str(debt), "--update-baseline"]) == 0
    assert lint_main(["--root", str(debt)]) == 0
    assert lint_main(["--root", str(tmp_path)]) == 2  # no src/ tree

def test_rule_catalogue_is_well_formed():
    names = [r.name for r in ALL_RULES]
    assert len(names) == len(set(names))
    assert all(r.name and r.description for r in ALL_RULES)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", "--list-rules"],
        capture_output=True, text=True, cwd=_repo_root())
    assert proc.returncode == 0
    assert "R001-hot-loop-alloc" in proc.stdout

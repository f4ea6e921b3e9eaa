"""The project rule catalogue (DESIGN §5.9).

Each rule encodes one discipline this codebase actually relies on; the
docstrings say *why*, because a rule nobody can justify gets deleted at
the first false positive.  Rules are pure AST walks -- no imports of the
checked code -- so the linter can never be broken by the bug it is
trying to catch.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from .core import Finding, Rule

#: the packed schedulers' placement loops: the per-candidate hot path
#: that earlier perf PRs rewrote onto preallocated arenas
HOT_FUNCTIONS = frozenset({
    "try_schedule_at_ii",   # ims.py
    "try_sms_at_ii",        # sms.py
    "try_at_ii",            # partitioners
    "first_free",           # mrt.py slot search
})

#: compile paths whose behaviour is captured by the job fingerprint:
#: wall-clock or unseeded randomness here silently breaks cache identity
DETERMINISTIC_PREFIXES = (
    "src/repro/ir/",
    "src/repro/sched/",
    "src/repro/regalloc/",
    "src/repro/machine/",
    "src/repro/workloads/",
    "src/repro/verify/",
    "src/repro/runner/fingerprint.py",
)

#: packages the strict typing gate covers (mirrors mypy.ini)
TYPED_PREFIXES = (
    "src/repro/ir/",
    "src/repro/sched/",
    "src/repro/runner/",
    "src/repro/service/",
    "src/repro/faults/",
    "src/repro/verify/",
    "src/repro/regalloc/",
)


def _in_loop_allocations(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Allocation expressions lexically inside for/while loops."""
    alloc_nodes = (ast.Dict, ast.List, ast.Set, ast.ListComp,
                   ast.DictComp, ast.SetComp)
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.For, ast.While)):
                for inner in ast.walk(node):
                    if isinstance(inner, alloc_nodes):
                        yield inner


class HotLoopAllocRule(Rule):
    """R001: no dict/list/set allocation inside the placement loops.

    ``try_schedule_at_ii`` and the slot searches run per candidate slot
    per II attempt; the arena refactors moved their state onto
    preallocated arrays, and a stray literal or comprehension inside the
    loop quietly reintroduces per-iteration garbage.
    """

    name = "R001-hot-loop-alloc"
    description = ("no dict/list/set literals or comprehensions inside "
                   "loops of the scheduler placement hot path")

    def check(self, tree: ast.AST, source_lines: Sequence[str],
              path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in HOT_FUNCTIONS):
                seen: set[int] = set()
                for alloc in _in_loop_allocations(node.body):
                    if id(alloc) in seen:
                        continue
                    seen.add(id(alloc))
                    yield self.finding(
                        path, alloc,
                        f"allocation inside the {node.name} placement "
                        f"loop (hoist it or use the arena)",
                        source_lines)


class NondeterminismRule(Rule):
    """R002: no wall-clock or unseeded randomness on fingerprinted paths.

    The result cache equates jobs by a content hash of (ddg, machine,
    options); anything the compile path reads from the clock or a global
    RNG is invisible to that hash, so two "identical" jobs could produce
    different records.  ``time.perf_counter`` (durations, never
    identity) and seeded ``random.Random(seed)`` instances are fine.
    """

    name = "R002-nondeterminism"
    description = ("no time.time/datetime.now/unseeded randomness in "
                   "deterministic fingerprinted compile paths")

    _WALL_CLOCK = {("time", "time"), ("time", "time_ns")}
    _DATETIME_ATTRS = {"now", "utcnow", "today"}
    _RANDOM_MODULES = {"random", "_random"}

    def applies_to(self, path: str) -> bool:
        return path.startswith(DETERMINISTIC_PREFIXES)

    def check(self, tree: ast.AST, source_lines: Sequence[str],
              path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            base_name = base.id if isinstance(base, ast.Name) else None
            if (base_name, func.attr) in self._WALL_CLOCK:
                yield self.finding(path, node,
                                   "wall-clock read on a fingerprinted "
                                   "path (use time.perf_counter for "
                                   "durations)", source_lines)
            elif (func.attr in self._DATETIME_ATTRS
                  and "datetime" in ast.dump(base)):
                yield self.finding(path, node,
                                   "datetime read on a fingerprinted "
                                   "path", source_lines)
            elif base_name in self._RANDOM_MODULES:
                if func.attr == "SystemRandom":
                    yield self.finding(path, node,
                                       "OS-entropy randomness on a "
                                       "fingerprinted path", source_lines)
                elif func.attr == "Random":
                    if not node.args and not node.keywords:
                        yield self.finding(
                            path, node,
                            "unseeded random.Random() on a "
                            "fingerprinted path (pass a seed)",
                            source_lines)
                else:
                    yield self.finding(
                        path, node,
                        f"module-level random.{func.attr}() uses the "
                        f"global unseeded RNG (use a seeded "
                        f"random.Random instance)", source_lines)


def _is_write_call(node: ast.Call) -> bool:
    """open()/Path.open() with a writing mode, or Path.write_text/bytes."""
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text",
                                                         "write_bytes"):
        return True
    opens = (isinstance(func, ast.Name) and func.id == "open") or \
        (isinstance(func, ast.Attribute) and func.attr == "open")
    if not opens:
        return False
    mode = None
    if len(node.args) >= (2 if isinstance(func, ast.Name) else 1):
        mode = node.args[1 if isinstance(func, ast.Name) else 0]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    return (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            and any(c in mode.value for c in "wa+x"))


def _takes_shard_lock(item: ast.withitem) -> bool:
    expr = item.context_expr
    return (isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "_shard_lock")


class ShardLockRule(Rule):
    """R003: every shard write of ``ShardedResultCache`` holds its flock.

    The sharded store is written concurrently by worker pools and the
    daemon; a write outside ``with self._shard_lock(shard):`` interleaves
    half-lines into the JSONL shard, which the loader then counts as
    corruption.  The in-memory ``_mutex`` is not enough -- it serialises
    one process, not the fleet.
    """

    name = "R003-shard-lock"
    description = ("writes to cache shards must happen under "
                   "`with self._shard_lock(...)`")

    def applies_to(self, path: str) -> bool:
        return path == "src/repro/runner/cache.py"

    def check(self, tree: ast.AST, source_lines: Sequence[str],
              path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef)
                    and node.name == "ShardedResultCache"):
                yield from self._visit(node, False, path, source_lines)

    def _visit(self, node: ast.AST, locked: bool, path: str,
               source_lines: Sequence[str]) -> Iterator[Finding]:
        if isinstance(node, ast.With):
            locked = locked or any(_takes_shard_lock(i)
                                   for i in node.items)
        if (not locked and isinstance(node, ast.Call)
                and _is_write_call(node)):
            yield self.finding(path, node,
                               "shard write outside `with "
                               "self._shard_lock(...)`", source_lines)
        for child in ast.iter_child_nodes(node):
            yield from self._visit(child, locked, path, source_lines)


class BareExceptRule(Rule):
    """R004: no bare ``except:`` anywhere in the package.

    A bare except swallows ``KeyboardInterrupt``/``SystemExit`` -- in the
    asyncio daemon that turns Ctrl-C into a hung service, and everywhere
    else it hides the exception type the handler actually expected.
    """

    name = "R004-bare-except"
    description = "handlers must name an exception type"

    def check(self, tree: ast.AST, source_lines: Sequence[str],
              path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(path, node,
                                   "bare `except:` (name the exception "
                                   "type, or `except Exception` at the "
                                   "service boundary)", source_lines)


class TracerDisciplineRule(Rule):
    """R005: tracer call sites go through the shared no-op span pattern.

    ``repro.obs.trace`` exports ``span()``/``job_capture()`` wrappers
    whose disabled path is a cached no-op; touching the ``_TRACER``
    singleton directly bypasses that (and the overhead accounting the
    perf observatory relies on), so only ``obs/trace.py`` itself may
    reference it.
    """

    name = "R005-tracer-discipline"
    description = ("only repro.obs.trace may touch the _TRACER "
                   "singleton; call sites use span()/job_capture()")

    def applies_to(self, path: str) -> bool:
        return path != "src/repro/obs/trace.py"

    def check(self, tree: ast.AST, source_lines: Sequence[str],
              path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            name = None
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            if name == "_TRACER":
                yield self.finding(path, node,
                                   "direct _TRACER access (use the "
                                   "span()/job_capture() wrappers)",
                                   source_lines)


class UntypedDefRule(Rule):
    """R006: defs in the strictly-typed packages carry annotations.

    CI runs ``mypy --strict`` over these packages, but mypy is not in
    the local toolchain; this rule is the self-contained approximation
    that keeps annotation coverage honest between CI runs.  ``self``/
    ``cls`` and ``__init__`` return types follow mypy's conventions.
    """

    name = "R006-untyped-def"
    description = ("functions in ir/, sched/, runner/, service/ must "
                   "annotate every parameter and the return type")

    def applies_to(self, path: str) -> bool:
        return path.startswith(TYPED_PREFIXES)

    def check(self, tree: ast.AST, source_lines: Sequence[str],
              path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = (args.posonlyargs + args.args + args.kwonlyargs
                      + ([args.vararg] if args.vararg else [])
                      + ([args.kwarg] if args.kwarg else []))
            missing = [a.arg for a in params
                       if a.annotation is None
                       and a.arg not in ("self", "cls")]
            wants_return = node.returns is None and node.name != "__init__"
            if missing:
                yield self.finding(
                    path, node,
                    f"def {node.name}: unannotated parameter(s) "
                    f"{', '.join(missing)}", source_lines)
            elif wants_return:
                yield self.finding(
                    path, node,
                    f"def {node.name}: missing return annotation",
                    source_lines)


#: the registry the runner, CLI and CI job iterate
ALL_RULES: tuple[Rule, ...] = (
    HotLoopAllocRule(),
    NondeterminismRule(),
    ShardLockRule(),
    BareExceptRule(),
    TracerDisciplineRule(),
    UntypedDefRule(),
)

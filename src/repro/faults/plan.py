"""The fault plan: spec parsing, deterministic draws, injection helpers.

Everything here is parent- and worker-side at once: the module-global
plan is installed either by :func:`enable_faults` (tests, the CLI
``--faults`` flag) or from the ``REPRO_FAULTS`` environment variable at
import time (the daemon smoke jobs, spawned worker processes on
platforms without ``fork``).
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.obs.trace import trace_count

#: Environment variable carrying a plan spec (see :func:`FaultPlan.from_spec`).
FAULTS_ENV = "REPRO_FAULTS"

#: The injection-site catalogue: site name -> kinds it understands.
#: ``raise`` throws :class:`FaultError`, ``crash`` hard-kills the worker
#: process (``os._exit``), ``hang`` / ``slow`` sleep for ``arg`` seconds
#: (watchdog fodder vs. jitter), ``torn`` truncates a write payload.
SITES: dict[str, tuple[str, ...]] = {
    "pool.worker": ("crash", "hang", "slow"),      # worker task entry
    "job.execute": ("raise", "slow"),              # inside execute_job
    "cache.get": ("raise",),                       # cache lookup I/O
    "cache.put": ("raise", "torn"),                # cache store I/O
    "service.batch": ("raise",),                   # batch dispatch
    "daemon.request": ("raise",),                  # HTTP request handling
}

#: Exit status of a ``crash``-killed worker (distinctive in pool logs).
CRASH_EXIT_STATUS = 70

_DEFAULT_HANG_S = 30.0
_DEFAULT_SLOW_S = 0.05


class FaultError(RuntimeError):
    """An injected fault (the ``raise`` kind) -- never a real failure."""

    def __init__(self, site: str, token: str) -> None:
        super().__init__(f"injected fault at {site} (token {token[:16]})")
        self.site = site
        self.token = token


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault kind at one site: fire with ``rate`` probability.

    ``arg`` parameterises the kind (sleep seconds for ``hang``/``slow``,
    unused otherwise).
    """

    kind: str
    rate: float
    arg: Optional[float] = None

    def render(self) -> str:
        if self.arg is None:
            return f"{self.kind}:{self.rate:g}"
        return f"{self.kind}:{self.rate:g}:{self.arg:g}"


def _draw_unit(seed: int, site: str, kind: str, token: str) -> float:
    """Uniform [0, 1) draw, a pure function of its arguments."""
    digest = hashlib.sha256(
        f"{seed}|{site}|{kind}|{token}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


class FaultPlan:
    """A seeded set of armed injection sites plus fired-fault counters."""

    def __init__(self, seed: int = 0,
                 sites: Optional[dict[str, tuple[FaultSpec, ...]]] = None,
                 ledger: Optional[str] = None) -> None:
        self.seed = seed
        self.sites: dict[str, tuple[FaultSpec, ...]] = {}
        self.ledger = ledger
        self._mutex = threading.Lock()
        self._fired: dict[str, int] = {}
        for site, specs in (sites or {}).items():
            kinds = SITES.get(site)
            if kinds is None:
                raise ValueError(f"unknown fault site {site!r}; known: "
                                 f"{', '.join(sorted(SITES))}")
            for spec in specs:
                if spec.kind not in kinds:
                    raise ValueError(
                        f"site {site!r} does not understand kind "
                        f"{spec.kind!r}; it understands: "
                        f"{', '.join(kinds)}")
                if not 0.0 <= spec.rate <= 1.0:
                    raise ValueError(f"fault rate must be in [0, 1], "
                                     f"not {spec.rate!r}")
            self.sites[site] = tuple(specs)

    # -------------------------------------------------------------- spec

    @classmethod
    def from_spec(cls, text: str) -> "FaultPlan":
        """Parse ``seed=7;site=kind:rate[:arg],...;ledger=/path``."""
        seed = 0
        ledger: Optional[str] = None
        sites: dict[str, tuple[FaultSpec, ...]] = {}
        for clause in text.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            name, sep, value = clause.partition("=")
            name = name.strip()
            if not sep:
                raise ValueError(f"bad fault clause {clause!r}; "
                                 f"expected name=value")
            if name == "seed":
                try:
                    seed = int(value)
                except ValueError:
                    raise ValueError(
                        f"fault seed must be an int, not {value!r}"
                    ) from None
                continue
            if name == "ledger":
                ledger = value.strip()
                continue
            specs: list[FaultSpec] = []
            for part in value.split(","):
                fields = part.strip().split(":")
                if len(fields) not in (2, 3):
                    raise ValueError(
                        f"bad fault spec {part!r} for site {name!r}; "
                        f"expected kind:rate[:arg]")
                try:
                    rate = float(fields[1])
                    arg = float(fields[2]) if len(fields) == 3 else None
                except ValueError:
                    raise ValueError(
                        f"bad numeric field in fault spec {part!r}"
                    ) from None
                specs.append(FaultSpec(fields[0], rate, arg))
            sites[name] = tuple(specs)
        return cls(seed=seed, sites=sites, ledger=ledger)

    def spec(self) -> str:
        """Round-trippable spec text (what ``REPRO_FAULTS`` carries)."""
        clauses = [f"seed={self.seed}"]
        for site in sorted(self.sites):
            armed = ",".join(s.render() for s in self.sites[site])
            clauses.append(f"{site}={armed}")
        if self.ledger:
            clauses.append(f"ledger={self.ledger}")
        return ";".join(clauses)

    # -------------------------------------------------------------- draws

    def draw(self, site: str, token: str) -> Optional[FaultSpec]:
        """The armed fault that fires at *site* for *token*, if any.

        Deterministic: a pure function of ``(seed, site, kind, token)``,
        independent of call order, thread or process.  Fired faults are
        counted (per ``site.kind``) for ``/metrics``.
        """
        for spec in self.sites.get(site, ()):
            if _draw_unit(self.seed, site, spec.kind, token) < spec.rate:
                with self._mutex:
                    name = f"{site}.{spec.kind}"
                    self._fired[name] = self._fired.get(name, 0) + 1
                return spec
        return None

    def counters(self) -> dict[str, int]:
        with self._mutex:
            return dict(self._fired)


# ---------------------------------------------------------------------------
# the process-global plan
# ---------------------------------------------------------------------------

_PLAN: Optional[FaultPlan] = None


def enable_faults(plan: "FaultPlan | str") -> FaultPlan:
    """Install *plan* (an instance or a spec string) process-globally.

    Also mirrors the spec into ``REPRO_FAULTS`` so worker processes
    started under non-``fork`` methods see the same plan.
    """
    global _PLAN
    if isinstance(plan, str):
        plan = FaultPlan.from_spec(plan)
    _PLAN = plan
    os.environ[FAULTS_ENV] = plan.spec()
    return plan


def disable_faults() -> None:
    """Remove the global plan; every site reverts to a cheap no-op."""
    global _PLAN
    _PLAN = None
    os.environ.pop(FAULTS_ENV, None)


def faults_enabled() -> bool:
    return _PLAN is not None


def active_plan() -> Optional[FaultPlan]:
    return _PLAN


def fault_counters() -> dict[str, int]:
    """Fired-fault counters of the active plan (empty when disabled)."""
    return {} if _PLAN is None else _PLAN.counters()


# ---------------------------------------------------------------------------
# injection helpers (the only calls production code makes)
# ---------------------------------------------------------------------------

def fault_point(site: str, token: str) -> Optional[str]:
    """Maybe inject a control-flow fault at *site* for *token*.

    No-op (one ``is None`` test) when injection is disabled.  Returns
    the fired kind for callers that want to log it; ``raise`` raises
    :class:`FaultError`, ``crash`` never returns.
    """
    plan = _PLAN
    if plan is None:
        return None
    spec = plan.draw(site, token)
    if spec is None:
        return None
    trace_count(f"faults.{site}.{spec.kind}")
    if spec.kind == "raise":
        raise FaultError(site, token)
    if spec.kind == "crash":
        os._exit(CRASH_EXIT_STATUS)
    if spec.kind == "hang":
        time.sleep(spec.arg if spec.arg is not None else _DEFAULT_HANG_S)
    elif spec.kind == "slow":
        time.sleep(spec.arg if spec.arg is not None else _DEFAULT_SLOW_S)
    return spec.kind


def torn_payload(site: str, token: str, payload: str) -> str:
    """Maybe truncate a write *payload* (the ``torn`` kind) at *site*.

    Models a writer dying mid-``write``: the returned text is cut inside
    its final record and does not end on a line boundary, which is
    exactly the corruption the cache loaders must isolate and count.
    """
    plan = _PLAN
    if plan is None:
        return payload
    spec = plan.draw(site, token)
    if spec is None or spec.kind != "torn":
        return payload
    trace_count(f"faults.{site}.torn")
    cut = max(1, (2 * len(payload)) // 3)
    torn = payload[:cut].rstrip("\n")
    return torn or payload[:1]


def on_job_execute(key: str) -> None:
    """Record one execution attempt of job *key* in the plan's ledger.

    The ledger is an append-only line-per-attempt file shared by every
    process in the storm (``O_APPEND`` keeps short writes atomic on
    POSIX); the chaos suite reads it back to prove no job ran more than
    ``1 + retries`` times.  No-op without a plan or a ledger path.
    """
    plan = _PLAN
    if plan is None or not plan.ledger:
        return
    try:
        fd = os.open(plan.ledger,
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, (key + "\n").encode("ascii"))
        finally:
            os.close(fd)
    except OSError:  # a lost ledger line must never fail a sweep
        pass


def read_ledger(path: str) -> dict[str, int]:
    """Execution-attempt counts per job key from a ledger file."""
    counts: dict[str, int] = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                key = line.strip()
                if key:
                    counts[key] = counts.get(key, 0) + 1
    except OSError:
        pass
    return counts


# arm from the environment at import: the daemon CI job exports
# REPRO_FAULTS before starting the process, and spawned (non-fork)
# workers re-import this module with the variable inherited
_spec = os.environ.get(FAULTS_ENV)
if _spec:
    try:
        _PLAN = FaultPlan.from_spec(_spec)
    except ValueError as exc:  # pragma: no cover - operator typo
        raise SystemExit(f"repro-vliw: bad {FAULTS_ENV} spec: {exc}")
del _spec

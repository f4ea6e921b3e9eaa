"""The II search driver: adaptive == linear, and every edge case.

The acceptance bar of the adaptive driver is *bit-identical schedules*:
whatever walk finds an II, the probe at that II is deterministic, so the
only way the walks can diverge is by choosing different IIs.  The corpus
parity test at the bottom pins that they never do.
"""

import pytest

import repro.sched.ims
import repro.sched.partition
import repro.sched.strategies.sms

from repro.ir.copyins import insert_copies
from repro.machine.presets import clustered_machine, qrf_machine
from repro.sched.iisearch import NEAR_WINDOW, search_ii
from repro.sched.ims import ImsConfig, modulo_schedule
from repro.sched.partition import PartitionConfig, partitioned_schedule
from repro.sched.partitioners import PARTITIONERS
from repro.sched.schedule import SchedulingError
from repro.sched.strategies import SCHEDULERS
from repro.workloads.kernels import KERNELS, kernel


def make_probe(feasible_from, limit=None, log=None):
    """Probe feasible at every II >= *feasible_from* (monotone)."""
    def probe(ii):
        if log is not None:
            log.append(ii)
        if feasible_from is not None and ii >= feasible_from:
            return f"sched@{ii}"
        return None
    return probe


def force_linear_walk(monkeypatch):
    """Make every engine module's ``search_ii`` take the linear walk.

    ``functools.partial(search_ii, linear=True)`` would not do: the
    partitioned driver passes ``linear=`` itself, which a partial's
    keyword gives way to.  Returns the list of forced calls."""
    calls = []

    def linear_search_ii(*args, **kwargs):
        calls.append(args[1:3])
        return search_ii(*args, **{**kwargs, "linear": True})

    for module in (repro.sched.ims, repro.sched.strategies.sms,
                   repro.sched.partition):
        monkeypatch.setattr(module, "search_ii", linear_search_ii)
    return calls


class TestSearchDriver:
    def test_default_mode_is_adaptive(self):
        """Without ``linear=True`` a far-feasible loop is bracketed, not
        walked II by II."""
        log = []
        assert search_ii(make_probe(40, log=log), 1, 100) \
            == (40, "sched@40")
        assert len(log) < 40 - 1

    def test_mii_feasible_means_single_probe(self):
        """MII already feasible: exactly one probe, both walks."""
        for linear in (True, False):
            log = []
            assert search_ii(make_probe(4, log=log), 4, 50,
                             linear=linear) == (4, "sched@4")
            assert log == [4]

    def test_near_window_is_probe_identical_to_linear(self):
        """Within the near-MII window the adaptive probe sequence IS the
        linear walk -- same probes, same order."""
        for gap in range(NEAR_WINDOW + 1):
            lin, ada = [], []
            first = 5
            r_lin = search_ii(make_probe(first + gap, log=lin),
                              first, 60, linear=True)
            r_ada = search_ii(make_probe(first + gap, log=ada),
                              first, 60)
            assert r_lin == r_ada == (first + gap, f"sched@{first + gap}")
            assert lin == ada

    def test_far_feasible_probes_logarithmically(self):
        log = []
        first, target, limit = 3, 200, 400
        got = search_ii(make_probe(target, log=log), first, limit)
        assert got == (200, "sched@200")
        # the linear walk would probe 198 IIs; bracketing stays small
        assert len(log) < 25

    def test_adaptive_matches_linear_on_monotone_probes(self):
        for first in (1, 4):
            for target_gap in (0, 1, 2, 3, 5, 9, 17, 40):
                lin = search_ii(make_probe(first + target_gap), first, 200,
                                linear=True)
                ada = search_ii(make_probe(first + target_gap), first, 200)
                assert lin == ada

    def test_infeasible_range_returns_none(self):
        for linear in (True, False):
            assert search_ii(make_probe(None), 2, 40, linear=linear) is None
            # feasible only beyond the limit
            assert search_ii(make_probe(50), 2, 40, linear=linear) is None

    def test_empty_range_returns_none(self):
        assert search_ii(make_probe(1), 5, 4) is None

    def test_limit_probed_before_giving_up(self):
        """Overshoot clamps to the limit, so a loop feasible exactly at
        the limit is still found."""
        log = []
        assert search_ii(make_probe(40, log=log), 2, 40) \
            == (40, "sched@40")
        assert 40 in log

    def test_budget_exhaustion_falls_back_to_linear(self):
        """With probe_budget exhausted mid-bisection the remaining
        bracket is walked linearly from below -- the answer is still the
        minimal feasible II."""
        log = []
        got = search_ii(make_probe(100, log=log), 1, 1000,
                        probe_budget=8)
        assert got == (100, "sched@100")
        # the fallback scan runs upward: the probes after the bracket
        # phase are a strictly increasing run ending at 100
        tail = log[log.index(max(log)) + 1:]
        assert tail == sorted(tail)
        assert tail[-1] == 100

    def test_budget_exhaustion_keeps_known_feasible_when_scan_fails(self):
        """A non-monotone probe set: the linear fallback finds nothing
        below the bracketed feasible II, which is then returned."""
        def probe(ii):
            return "ok" if ii >= 64 else None

        got = search_ii(probe, 1, 1000, probe_budget=4)
        assert got is not None
        assert probe(got[0]) == "ok"
        assert got[0] == 64


class TestEngineEdgeCases:
    def test_infeasible_loop_hits_max_ii(self, monkeypatch):
        """A kernel on a machine lacking its FU mix cannot schedule; the
        adaptive driver must exhaust [MII, max_ii] and raise, exactly
        like the linear walk."""
        from repro.machine.presets import narrow_test_machine

        work = insert_copies(kernel("wide8")).ddg
        cfg = ImsConfig(max_ii=4)
        with pytest.raises(SchedulingError, match="II <= 4"):
            modulo_schedule(work, narrow_test_machine(), config=cfg)
        force_linear_walk(monkeypatch)
        with pytest.raises(SchedulingError, match="II <= 4"):
            modulo_schedule(work, narrow_test_machine(), config=cfg)

    def test_mii_feasible_loop_probes_once(self):
        work = insert_copies(kernel("daxpy")).ddg
        sched = modulo_schedule(work, qrf_machine(12))
        assert sched.stats.iis_tried == 1           # zero extra probes
        assert sched.ii == sched.stats.mii

    def test_partitioned_infeasible_raises_at_limit(self):
        work = insert_copies(kernel("dot")).ddg
        cfg = PartitionConfig(max_ii=1)
        cm = clustered_machine(4)
        try:
            s = partitioned_schedule(work, cm, config=cfg)
            assert s.ii <= 1                         # genuinely fits
        except SchedulingError as exc:
            assert "II <= 1" in str(exc)


class TestCorpusParity:
    """Acceptance: the linear walk and the adaptive default produce
    identical schedules over the full kernel corpus, every engine."""

    @pytest.mark.parametrize("scheduler", tuple(SCHEDULERS))
    def test_schedulers_identical_across_modes(self, scheduler,
                                               monkeypatch):
        m = qrf_machine(12)
        works = [insert_copies(kernel(name)).ddg for name in sorted(KERNELS)]
        adaptive = [SCHEDULERS[scheduler].schedule(w, m) for w in works]
        calls = force_linear_walk(monkeypatch)
        linear = [SCHEDULERS[scheduler].schedule(w, m) for w in works]
        assert len(calls) == len(works) == 30
        for work, a, b in zip(works, adaptive, linear):
            assert (a.ii, a.sigma) == (b.ii, b.sigma), \
                f"{scheduler}/{work.name} diverges between II walks"

    @pytest.mark.parametrize("partitioner", tuple(PARTITIONERS))
    def test_partitioners_identical_across_modes(self, partitioner,
                                                 monkeypatch):
        cm = clustered_machine(4)
        cfg = PartitionConfig(partitioner=partitioner)
        works = [insert_copies(kernel(name)).ddg for name in sorted(KERNELS)]
        adaptive = [partitioned_schedule(w, cm, config=cfg) for w in works]
        calls = force_linear_walk(monkeypatch)
        linear = [partitioned_schedule(w, cm, config=cfg) for w in works]
        assert len(calls) == len(works) == 30
        for work, a, b in zip(works, adaptive, linear):
            assert (a.ii, a.sigma, a.cluster_of) \
                == (b.ii, b.sigma, b.cluster_of), \
                f"{partitioner}/{work.name} diverges between II walks"


def test_stochastic_engines_pin_the_linear_walk():
    """The `random` engine consumes one seeded stream across probes, so
    probe outcomes depend on probe order; the II driver keeps it on the
    sequential walk (every deterministic engine stays adaptive)."""
    from repro.sched.partitioners import PARTITIONERS

    for name, engine in PARTITIONERS.items():
        assert engine.stochastic == (name == "random"), name


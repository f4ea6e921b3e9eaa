"""The paper's shapes: every experiment in the table, untimed.

Each experiment of :data:`repro.analysis.experiments.EXPERIMENTS` runs
once per session on ``bench_corpus()`` (160 synthetic loops plus the 30
named kernels), all of them through one shared result cache, and then:

* ``test_paper_shape`` asserts the shape of its figure, reading the
  cells of the experiment's :class:`~repro.analysis.experiments.Table`
  (``result.rows[label][key]``, or ``result.column(key)[label]``);
* ``test_table_matches_golden`` compares the table's ``render()`` with
  ``data/<id>.txt``, which is exactly what ``repro-vliw experiment
  <id>`` prints.  A change that moves a table on purpose regenerates the
  file and says so::

      PYTHONPATH=src python -m repro.cli --no-cache experiment <id> \\
          > tests/paper/data/<id>.txt

Select the suite alone with ``pytest -m paper_shapes``.
"""

import pathlib

import pytest

from repro.analysis.experiments import EXPERIMENTS, fig8_ipc
from repro.runner import RunnerConfig, ShardedResultCache
from repro.workloads.corpus import bench_corpus

pytestmark = pytest.mark.paper_shapes

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def loops():
    return bench_corpus()


@pytest.fixture(scope="session")
def shared_runner(tmp_path_factory):
    """One serial runner whose cache every experiment shares: a job
    compiled for one figure is replayed for the next."""
    return RunnerConfig(cache=ShardedResultCache(
        tmp_path_factory.mktemp("paper-shapes-cache")))


@pytest.fixture(scope="session")
def experiment_result(loops, shared_runner):
    """exp_id -> the experiment's result, computed once per session."""
    memo = {}

    def result(exp_id):
        if exp_id not in memo:
            memo[exp_id] = EXPERIMENTS[exp_id].run(loops, shared_runner)
        return memo[exp_id]
    return result


# -- one shape check per experiment -----------------------------------------

def fig3_shape(result, loops, runner):
    for machine, row in result.rows.items():
        # cumulative by construction
        assert row[4] <= row[8] <= row[16] <= row[32], machine
        # paper shape: 32 queues cover (nearly) everything
        assert row[32] >= 0.95, machine
        # and 4 queues are nowhere near enough on their own
        assert row[4] < row[32], machine


def sec2_shape(result, loops, runner):
    same_ii = result.column("same_ii")
    for machine, row in result.rows.items():
        # large majority keeps the II on every machine
        assert row["same_ii"] >= 0.70, machine
        # of the loops that change, the typical increase is one cycle
        assert row["ii_increase_by_1"] >= 0.5, machine
    # narrow machines absorb copies best (big II -> plenty of slack)
    assert same_ii["queu-4fu"] >= same_ii["queu-12fu"] - 0.02


def fig4_shape(result, loops, runner):
    names = list(result.rows)
    gt1 = result.column("speedup_gt1")
    # monotone benefit with machine width (4 -> 6 -> 12 FUs)
    assert gt1[names[0]] <= gt1[names[1]] <= gt1[names[2]] + 0.02
    # the widest machine sees a substantial fraction of winners
    assert gt1[names[2]] >= 0.30
    # unrolling never hurts (fallback keeps the rolled loop)
    for machine in names:
        assert result.rows[machine]["min_speedup"] >= 1.0 - 1e-9
    # Section 3: >= 90% of loops within 32 queues even after unrolling
    for machine in names:
        assert result.rows[machine]["queues_le_32"] >= 0.9


def fig6_shape(result, loops, runner):
    same_ii = result.column("same_ii")
    mean_increase = result.column("mean_increase")
    # paper shape: degradation as the ring grows
    assert same_ii[4] >= same_ii[5] >= same_ii[6]
    # 4 clusters nearly always match the single-cluster II
    assert same_ii[4] >= 0.85
    # 6 clusters lose a substantial fraction (paper: down to 52%)
    assert same_ii[6] <= same_ii[4]
    # increases are small
    for n in (4, 5, 6):
        if mean_increase[n]:
            assert mean_increase[n] <= 3.0


def sec4_shape(result, loops, runner):
    for n in (4, 5, 6):
        # the 8+8+8 budget covers the vast majority of loops
        assert result.rows[n]["fits_budget"] >= 0.8, n
        # and a private file of 10 queues covers 95% of loops
        assert result.rows[n]["p95_private"] <= 10, n
        # ring pressure stays low (communication is the minority of
        # lifetimes under the affinity partitioner)
        assert result.rows[n]["p95_ring"] <= 8, n


def fig8_shape(result, loops, runner):
    static = result.column("static_single")
    dynamic = result.column("dynamic_single")
    clustered = result.column("static_clustered")
    # growth with machine width, per series
    assert static[18] > static[4]
    assert dynamic[18] > dynamic[4]
    # dynamic accounts for prologue/epilogue: never above static
    for n in result.rows:
        assert dynamic[n] <= static[n] + 1e-9
    # clustered points exist exactly at 12/15/18 and do not beat the
    # unconstrained machine
    assert sorted(clustered) == [12, 15, 18]
    for n in (12, 15, 18):
        assert clustered[n] <= static[n] + 1e-9


def fig9_shape(result, loops, runner):
    static = result.column("static_single")
    dynamic = result.column("dynamic_single")
    assert static[18] > static[4]
    for n in result.rows:
        assert dynamic[n] <= static[n] + 1e-9

    # the resource-constrained population uses the machine at least as
    # well as the full corpus at the widest point
    full = fig8_ipc(loops, fus=(18,), clustered_counts=(), runner=runner)
    assert static[18] >= full.rows[18]["static_single"] - 1e-9


def a1_shape(result, loops, runner):
    same_ii = result.column("same_ii")
    mean_queues = result.column("mean_queues")
    assert set(same_ii) == {"chain", "balanced", "slack"}
    # finding: with realistic fan-outs (mostly 2-3 consumers) the tree
    # shape barely matters -- all strategies land within a couple of
    # points of each other; the slack-aware tree must not be *worse*
    # than the naive chain beyond noise
    assert same_ii["slack"] >= same_ii["chain"] - 0.03
    assert same_ii["slack"] >= same_ii["balanced"] - 0.03
    # and never needs more queues on average than the chain beyond noise
    assert mean_queues["slack"] <= mean_queues["chain"] + 1.0


def a2_shape(result, loops, runner):
    from repro.sched.partitioners import available_partitioners

    same = result.column("same_ii")
    assert set(same) == set(available_partitioners())
    # finding: once forced placement + deadlock aging are in place, the
    # cluster-choice policy matters surprisingly little (all strategies
    # land within a few points) -- the backtracking machinery, not the
    # greedy choice, carries the result.  Affinity must stay within noise
    # of the best.
    best = max(same.values())
    assert same["affinity"] >= best - 0.06
    # and every strategy produces a usable partitioner
    for strat, frac in same.items():
        assert frac >= 0.5, strat


def a3_shape(result, loops, runner):
    for n in (5, 6):
        # moves never hurt: the scheduler keeps the strict schedule when
        # it is at least as good
        row = result.rows[n]
        assert row["with_moves"] >= row["without_moves"] - 1e-9


def a4_shape(result, loops, runner):
    same = result.rows          # same[xlat][n_clusters]
    for n in (4, 6):
        # more latency can only hurt (same or worse), and the decline is
        # graceful, not a cliff
        assert same[0][n] >= same[1][n] - 1e-9
        assert same[0][n] >= same[2][n] - 1e-9
        assert same[1][n] >= same[2][n] - 0.05
        assert same[2][n] >= same[0][n] - 0.35
    # the cluster-count ordering from Fig. 6 survives added latency
    for xlat in (0, 1, 2):
        assert same[xlat][4] >= same[xlat][6]


def s1_shape(result, loops, runner):
    for name, row in result.rows.items():
        # the ordering MaxLive <= rotating <= MVE must hold machine-wide
        assert row["mean_max_live"] <= row["mean_rotating"] + 1e-9
        assert row["mean_rotating"] <= row["mean_mve_regs"] + 2.0
        # a static RF needs kernel replication; wider machines more so
        assert row["mean_mve_unroll"] >= 1.0
        assert row["p95_queues"] >= 1
    unroll = list(result.column("mean_mve_unroll").values())
    assert unroll[-1] >= unroll[0]


def s2_shape(result, loops, runner):
    for n_fus, row in result.rows.items():
        mono, flat, clustered = row["costs"]
        # the paper's exact number at 12 FUs
        if n_fus == 12:
            assert mono.ports == 36
        # the QRF access path never slows down with machine width; the
        # monolithic RF does
        assert clustered.relative_delay < mono.relative_delay
        # area per storage cell: ports^2 kills the monolithic design
        assert (clustered.area / clustered.storage_cells
                < mono.area / mono.storage_cells)
    # and the monolithic delay diverges with width
    widths = sorted(result.rows)
    assert result.rows[widths[-1]]["costs"][0].relative_delay > \
        result.rows[widths[0]]["costs"][0].relative_delay


def e6b_shape(result, loops, runner):
    frac = result.column("no_spill_fraction")
    spills = result.column("mean_spills")
    # more hardware -> fewer spills, monotonically
    assert frac[(4, 8)] <= frac[(8, 8)] <= frac[(16, 16)] <= frac[(32, 16)]
    # the Fig. 3 claim in spill terms: 32 queues eliminate spilling
    assert frac[(32, 16)] >= 0.99
    # and the mean spill count mirrors it
    assert spills[(32, 16)] <= spills[(4, 8)]


def _axes(result):
    """The two label axes of a comparison's ``(x, engine)`` rows, each
    in first-seen order."""
    return (list(dict.fromkeys(x for x, _ in result.rows)),
            list(dict.fromkeys(engine for _, engine in result.rows)))


def sc_shape(result, loops, runner):
    machines, schedulers = _axes(result)
    assert set(schedulers) >= {"ims", "sms"}
    assert len(machines) >= 3
    for m in machines:
        ims, sms = result.rows[m, "ims"], result.rows[m, "sms"]
        assert ims["n_failed"] == 0 and sms["n_failed"] == 0
        # acceptance criterion: SMS keeps (nearly) all of IMS's MII hits
        assert sms["mii_match"] >= 0.8, m
        # near-backtrack-free search
        assert sms["mean_evictions"] == 0.0
        assert sms["mean_attempts"] <= ims["mean_attempts"] + 1e-9, m
        # lifetime-minimising placement: no extra register pressure
        assert sms["mean_max_live"] <= ims["mean_max_live"] + 0.5, m


def pc_shape(result, loops, runner):
    from repro.sched.partitioners import available_partitioners

    cluster_counts, partitioners = _axes(result)
    assert set(partitioners) == set(available_partitioners())
    assert partitioners[0] == "affinity"  # the baseline stays first

    for n in cluster_counts:
        for p in partitioners:
            row = result.rows[n, p]
            # every engine schedules the (schedulable) corpus
            assert row["n_ok"] > 0
            assert row["n_failed"] == 0
            # II never beats MII; excess stays small on the bench corpus
            assert row["mean_ii_excess"] >= 0.0
            assert row["mean_ii_excess"] <= 3.0
        # locality: affinity-guided engines move fewer values across the
        # ring than the load-only baseline
        inter = {p: result.rows[n, p]["mean_inter_cluster"]
                 for p in partitioners}
        assert inter["affinity"] <= inter["balance"] + 1e-9
        assert inter["agglomerative"] <= inter["balance"] + 1e-9

    # the two-phase pre-assignment holds II quality at the hardest ring
    worst = max(cluster_counts)
    assert (result.rows[worst, "agglomerative"]["mii_rate"]
            >= result.rows[worst, "affinity"]["mii_rate"] - 0.05)


SHAPES = {
    "fig3": fig3_shape, "sec2": sec2_shape, "fig4": fig4_shape,
    "fig6": fig6_shape, "sec4": sec4_shape, "fig8": fig8_shape,
    "fig9": fig9_shape, "a1": a1_shape, "a2": a2_shape, "a3": a3_shape,
    "a4": a4_shape, "s1": s1_shape, "s2": s2_shape, "e6b": e6b_shape,
    "sc": sc_shape, "pc": pc_shape,
}


def test_every_experiment_has_a_shape_and_a_golden_table():
    assert list(SHAPES) == list(EXPERIMENTS)
    assert sorted(p.stem for p in DATA.glob("*.txt")) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_paper_shape(exp_id, experiment_result, loops, shared_runner):
    SHAPES[exp_id](experiment_result(exp_id), loops, shared_runner)


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_table_matches_golden(exp_id, experiment_result):
    golden = (DATA / f"{exp_id}.txt").read_text()
    assert experiment_result(exp_id).render() + "\n" == golden

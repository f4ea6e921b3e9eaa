"""JSON job specs: parsing, validation, memoisation, fingerprints."""

import threading
import time

import pytest

from repro.machine.cluster import ClusteredMachine
from repro.machine.machine import RfKind
from repro.runner import CompileJob, PipelineOptions
from repro.runner import job as job_mod
from repro.runner.fingerprint import ddg_signature
from repro.service import (JobSpecError, kernel_job_spec, parse_job,
                           parse_jobs, parse_loop, parse_machine,
                           parse_options)
from repro.service import jobspec
from repro.workloads.kernels import kernel
from repro.workloads.synth import SynthConfig, generate_corpus


def test_kernel_spec_matches_library_fingerprint(qrf4):
    job = parse_job({"loop": {"kernel": "daxpy"},
                     "machine": {"kind": "qrf", "n_fus": 4}})
    direct = CompileJob(kernel("daxpy"), qrf4)
    assert job.key == direct.key


def test_loops_are_memoised_by_spec():
    a = parse_loop({"kernel": "dot"})
    b = parse_loop({"kernel": "dot"})
    assert a is b           # one DDG carries the front-end memo


def test_synth_spec_is_deterministic():
    spec = {"synth": {"seed": 11, "index": 3}}
    a, b = parse_loop(spec), parse_loop(dict(spec))
    assert a is b
    other = parse_loop({"synth": {"seed": 11, "index": 4}})
    assert other is not a


def test_machine_kinds():
    qrf = parse_machine({"kind": "qrf", "n_fus": 6})
    assert qrf.rf_kind is RfKind.QUEUE
    crf = parse_machine({"kind": "crf", "n_fus": 6})
    assert crf.rf_kind is RfKind.CONVENTIONAL
    ring = parse_machine({"kind": "clustered", "n_clusters": 4})
    assert isinstance(ring, ClusteredMachine)
    assert ring.n_clusters == 4


def test_default_machine_is_qrf4():
    job = parse_job({"loop": {"kernel": "daxpy"}})
    assert job.machine.name == "queu-4fu"


def test_options_round_trip():
    opts = parse_options({"scheduler": "sms", "do_unroll": True,
                          "extras": ["sched_stats"]})
    assert opts == PipelineOptions(scheduler="sms", do_unroll=True,
                                   extras=("sched_stats",))
    assert parse_options(None) == PipelineOptions()


@pytest.mark.parametrize("bad", [
    {"loop": {"kernel": "no-such-kernel"}},
    {"loop": {}},
    {"loop": {"kernel": "daxpy", "typo": 1}},
    {"loop": {"synth": {"seed": 1, "index": -1}}},
    {"loop": {"synth": {"bogus_field": 3}}},
    {"loop": {"synth": {"index": 1258}}},            # default corpus size
    {"loop": {"synth": {"index": 100_000_000}}},
    {"loop": {"synth": {"n_loops": 10, "index": 10}}},
    {"loop": {"synth": {"n_loops": jobspec.MAX_SYNTH_LOOPS + 1}}},
    {"loop": {"synth": {"n_loops": 0}}},
    {"loop": {"synth": {"n_loops": True}}},
    {"loop": {"synth": {"min_ops": 4.5, "max_ops": 4.5}}},   # float count
    {"loop": {"synth": {"size_mu": 1000}}},                  # exp overflow
    {"loop": {"synth": {"recent_bias": 10 ** 400}}},
    {"loop": {"synth": {"recent_bias": 10 ** 9, "n_loops": 1}}},
    {"loop": {"synth": {"size_mu": float("nan")}}},
    {"loop": {"synth": {"n_loops": 1, "min_ops": 200_000,
                        "max_ops": 200_000}}},
    {"loop": {"synth": {"max_ops": jobspec.MAX_SYNTH_OPS + 1}}},
    {"loop": {"synth": {"min_ops": 10, "max_ops": 5}}},
    {"loop": {"synth": {"min_ops": 0}}},
    {"loop": {"synth": {"load_fraction": 1e9}}},
    {"loop": {"synth": {"seed": "abc"}}},
    {"loop": {"synth": {"arith_mix": []}}},
    {"loop": {"synth": {"max_distance": 1, "p_long_distance": 1.0,
                        "p_recurrence": 1.0, "n_loops": 50,
                        "index": 49}}},
    {"loop": {"kernel": "daxpy"}, "machine": {"kind": "tpu"}},
    {"loop": {"kernel": "daxpy"}, "machine": {"kind": "qrf", "n_fus": 0}},
    {"loop": {"kernel": "daxpy"},
     "machine": {"kind": "clustered", "n_clusters": 1}},
    {"loop": {"kernel": "daxpy"}, "options": {"bogus": True}},
    {"loop": {"kernel": "daxpy"}, "options": {"extras": [3]}},
    {"loop": {"kernel": "daxpy"}, "stray": 1},
    "not an object",
    42,
])
def test_malformed_specs_raise(bad):
    with pytest.raises(JobSpecError):
        parse_job(bad)


def test_parse_jobs_single_and_batch():
    single = parse_jobs({"loop": {"kernel": "daxpy"}})
    assert len(single) == 1
    batch = parse_jobs({"jobs": [{"loop": {"kernel": "daxpy"}},
                                 {"loop": {"kernel": "dot"}}]})
    assert [j.ddg.name for j in batch] == ["daxpy", "dot"]
    with pytest.raises(JobSpecError):
        parse_jobs({"jobs": []})


def test_parse_jobs_keys_only_the_engine_that_runs():
    """A batch naming an engine its machine ignores dedupes onto the
    default job; the engine that runs still splits the key."""
    ring = {"kind": "clustered", "n_clusters": 4}
    flat = {"kind": "qrf", "n_fus": 12}

    def keys(machine, *options):
        return [j.key for j in parse_jobs(
            {"jobs": [{"loop": {"kernel": "daxpy"}, "machine": machine,
                       "options": o} for o in options]})]

    ignored = keys(ring, {}, {"scheduler": "sms"})
    assert ignored[0] == ignored[1]
    ignored = keys(flat, {}, {"partitioner": "random"},
                   {"use_moves": True})
    assert len(set(ignored)) == 1
    assert len(set(keys(ring, {}, {"partitioner": "random"},
                        {"use_moves": True}))) == 3
    assert len(set(keys(flat, {}, {"scheduler": "sms"}))) == 2


def test_kernel_job_spec_builder():
    spec = kernel_job_spec("fir4", n_clusters=4,
                           options={"partitioner": "agglomerative"})
    job = parse_job(spec)
    assert job.ddg.name == "fir4"
    assert isinstance(job.machine, ClusteredMachine)
    assert job.options.partitioner == "agglomerative"


@pytest.mark.parametrize("field,expect", [
    ("scheduler", "unknown scheduler 'bogus'; available:"),
    ("partitioner", "unknown partitioner 'bogus'; available:"),
    # the II search mode is no longer an option: an unknown field
    ("ii_search", "unknown option fields"),
])
def test_engine_name_typos_are_spec_errors(field, expect):
    """A typo'd engine name is rejected at the request boundary (HTTP
    400) with the registry-listing message, never a worker-side 500;
    so is a retired engine field."""
    with pytest.raises(JobSpecError) as exc:
        parse_job({"loop": {"kernel": "daxpy"},
                   "options": {field: "bogus"}})
    assert expect in str(exc.value)


# ---------------------------------------------------------------------------
# job-spec memo
# ---------------------------------------------------------------------------

@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty job, loop and synth-stream memos for one test."""
    monkeypatch.setattr(jobspec, "_JOB_MEMO", {})
    monkeypatch.setattr(jobspec, "_LOOP_MEMO", {})
    monkeypatch.setattr(jobspec, "_SYNTH_STREAMS", {})


def test_reordered_spec_shares_job_and_key(fresh_memos):
    a = parse_job({"loop": {"kernel": "daxpy"},
                   "machine": {"kind": "clustered", "n_clusters": 4},
                   "options": {"verify": True, "scheduler": "sms"}})
    b = parse_job({"options": {"scheduler": "sms", "verify": True},
                   "machine": {"n_clusters": 4, "kind": "clustered"},
                   "loop": {"kernel": "daxpy"}})
    assert a is b
    assert a.key == b.key


def test_job_key_runs_once_per_distinct_spec(fresh_memos, monkeypatch):
    calls = []
    real = job_mod.job_key

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(job_mod, "job_key", counted)
    specs = [{"loop": {"kernel": name},
              "machine": {"kind": "qrf", "n_fus": n}}
             for name in ("daxpy", "dot") for n in (4, 8)]
    keys = [parse_job(dict(spec)).key for _ in range(5) for spec in specs]
    assert len(calls) == len(specs)
    assert keys == [parse_job(spec).key for spec in specs] * 5
    fresh = CompileJob(kernel("dot"), parse_machine({"n_fus": 8}))
    assert fresh.key == keys[3]


def test_malformed_spec_raises_on_every_repeat(fresh_memos):
    bad = {"loop": {"kernel": "no-such-kernel"}}
    messages = []
    for _ in range(3):
        with pytest.raises(JobSpecError) as exc:
            parse_job(bad)
        messages.append(str(exc.value))
    assert len(set(messages)) == 1
    assert jobspec._JOB_MEMO == {} and jobspec._LOOP_MEMO == {}


def test_job_memo_is_bounded(fresh_memos, monkeypatch):
    monkeypatch.setattr(jobspec, "MAX_MEMO_SPECS", 3)
    for n in range(1, 8):
        parse_job({"loop": {"kernel": "daxpy"},
                   "machine": {"kind": "qrf", "n_fus": n}})
        assert len(jobspec._JOB_MEMO) <= 3


# ---------------------------------------------------------------------------
# resumable synth stream
# ---------------------------------------------------------------------------

SMALL = SynthConfig(n_loops=200, seed=5)
OTHER = SynthConfig(n_loops=150, seed=8)


@pytest.fixture(scope="module")
def corpora():
    return {cfg: [ddg_signature(d) for d in generate_corpus(cfg)]
            for cfg in (SMALL, OTHER)}


@pytest.mark.parametrize("order", [
    [0, 1, 2, 63, 64, 65, 127, 128, 199],            # ascending
    [199, 150, 128, 127, 64, 63, 1, 0],              # descending
    [70, 70, 5, 5, 199, 199, 70],                    # repeated
])
def test_synth_stream_matches_corpus(fresh_memos, corpora, order):
    for i in order:
        assert ddg_signature(jobspec._synth_loop(SMALL, i)) == \
            corpora[SMALL][i]


def test_synth_streams_interleave_per_config(fresh_memos, corpora):
    for i, j in [(10, 140), (130, 3), (64, 64), (199, 149), (0, 65)]:
        assert ddg_signature(jobspec._synth_loop(SMALL, i)) == \
            corpora[SMALL][i]
        assert ddg_signature(jobspec._synth_loop(OTHER, j)) == \
            corpora[OTHER][j]


def test_synth_stream_from_two_threads(fresh_memos, corpora):
    plans = [(SMALL, [150, 3, 99, 64, 199, 0]),
             (SMALL, [7, 180, 63, 128, 1]),
             (OTHER, [149, 2, 77, 64])]
    failures = []

    def run(cfg, order):
        for i in order:
            if ddg_signature(jobspec._synth_loop(cfg, i)) != \
                    corpora[cfg][i]:
                failures.append((cfg.seed, i))

    threads = [threading.Thread(target=run, args=plan) for plan in plans]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert failures == []


def test_synth_spec_matches_fresh_replay(fresh_memos):
    import random
    from repro.workloads.synth import generate_loop

    cfg = SynthConfig(seed=11)
    rng = random.Random(cfg.seed)
    fresh = [generate_loop(rng, cfg, i) for i in range(131)]
    for i in (130, 4, 65, 64):
        got = parse_loop({"synth": {"seed": 11, "index": i}})
        assert ddg_signature(got) == ddg_signature(fresh[i])


@pytest.fixture
def counted_phases(monkeypatch):
    """Count the stream's ``draw_loop`` and ``build_loop`` calls."""
    calls = {"draw": [], "build": []}
    draw, build = jobspec.draw_loop, jobspec.build_loop

    def counted_draw(rng, cfg, index):
        calls["draw"].append(index)
        return draw(rng, cfg, index)

    def counted_build(loop_draw):
        calls["build"].append(loop_draw.name)
        return build(loop_draw)

    monkeypatch.setattr(jobspec, "draw_loop", counted_draw)
    monkeypatch.setattr(jobspec, "build_loop", counted_build)
    return calls


def _graph_doc(ddg):
    return (ddg.name, ddg.trip_count,
            [(o.op_id, o.opcode, o.name, o.latency)
             for o in ddg.operations], ddg.edge_rows())


@pytest.fixture(scope="module")
def small_corpus():
    return [_graph_doc(d) for d in generate_corpus(SMALL)]


@pytest.mark.parametrize("plan", [
    # (index asked for, the draws it takes): past the cursor the draws
    # run on from the cursor, behind it from the checkpoint at or below
    [(150, range(0, 151)), (3, range(0, 4)), (199, range(151, 200)),
     (64, range(64, 65)), (130, range(128, 131))],
    [(5, range(0, 6)), (5, range(0, 6)), (6, range(6, 7)),
     (63, range(7, 64)), (0, range(0, 1))],
    # requests behind the cursor never move it back: 199 resumes from
    # the checkpoint at 192, not from where the 133 request stopped
    [(199, range(0, 200)), (133, range(128, 134)), (64, range(64, 65)),
     (63, range(0, 64)), (199, range(192, 200))],
])
def test_synth_stream_builds_only_the_loop_asked_for(
        fresh_memos, counted_phases, small_corpus, plan):
    for index, draws in plan:
        del counted_phases["draw"][:], counted_phases["build"][:]
        got = jobspec._synth_loop(SMALL, index)
        assert _graph_doc(got) == small_corpus[index]
        assert counted_phases["draw"] == list(draws)
        assert counted_phases["build"] == [f"synth-{index:04d}"]


def test_bad_knob_in_a_skipped_loop_still_raises(fresh_memos,
                                                 counted_phases):
    """Skipped loops are only drawn, but the draws are where a knob the
    generator cannot follow fails: loop 0 overflows its operand weights
    on the way to loop 5, so loop 5 is never built."""
    spec = {"synth": {"recent_bias": 1e9, "index": 5}}
    for _ in range(2):
        with pytest.raises(JobSpecError, match="bad synth config"):
            parse_loop(spec)
        assert counted_phases["draw"][-1] == 0
        assert counted_phases["build"] == []
        assert jobspec._SYNTH_STREAMS == {}
        assert jobspec._LOOP_MEMO == {}


def test_out_of_range_synth_index_is_rejected_fast(fresh_memos):
    t0 = time.perf_counter()
    with pytest.raises(JobSpecError, match="outside"):
        parse_job({"loop": {"synth": {"index": 100_000_000}}})
    assert time.perf_counter() - t0 < 1.0
    assert jobspec._SYNTH_STREAMS == {}

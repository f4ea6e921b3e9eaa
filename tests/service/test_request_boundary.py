"""The daemon's request boundary and hit path.

Raw ``POST /jobs`` bodies are decoded once into a hashable form that
keys the job memo; option and machine fields are type-checked against
their annotations; a cache hit is one shared, immutable result, served
from the wire memo by identity with nothing rebuilt or re-encoded.
"""

import asyncio
import collections
import copy
import dataclasses
import http.client
import json
import re
import socket
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir.copyins import COPY_STRATEGIES
from repro.runner import cache as cache_mod
from repro.runner import fingerprint as fingerprint_mod
from repro.runner import pool as pool_mod
from repro.runner.cache import ShardedResultCache
from repro.runner.executor import _pool_context, execute_job
from repro.runner.job import CompileJob, JobResult, PipelineOptions
from repro.runner.pipeline import EXTRA_EXTRACTORS
from repro.service import JobSpecError, parse_job, parse_jobs, parse_loop
from repro.service import daemon as daemon_mod
from repro.service import engine as engine_mod
from repro.service import jobspec
from repro.service.daemon import start_in_thread
from repro.service.engine import SweepService


def _spec(name="daxpy", n_fus=4, options=None):
    spec = {"loop": {"kernel": name},
            "machine": {"kind": "qrf", "n_fus": n_fus}}
    if options is not None:
        spec["options"] = options
    return spec


def _body(obj) -> bytes:
    return json.dumps(obj).encode()


@pytest.fixture
def fresh_memos(monkeypatch):
    monkeypatch.setattr(jobspec, "_JOB_MEMO", {})
    monkeypatch.setattr(jobspec, "_LOOP_MEMO", {})
    monkeypatch.setattr(jobspec, "_MACHINE_MEMO", {})
    monkeypatch.setattr(jobspec, "_SYNTH_STREAMS", {})


# ---------------------------------------------------------------------------
# typed fields
# ---------------------------------------------------------------------------

#: specs that are well-formed JSON but mistyped: each must be refused
#: at the boundary, never compiled into a failed job or a bogus machine
MISTYPED = [
    ({"scheduler": ["ims"]}, None, "option 'scheduler' must be a string"),
    ({"partitioner": {"name": "affinity"}}, None, "must be a string"),
    ({"unroll_factor": "3"}, None, "must be an int or null, not str"),
    ({"unroll_factor": True}, None, "must be an int or null, not bool"),
    ({"unroll_factor": 3.0}, None, "must be an int or null, not float"),
    ({"verify": "no"}, None, "option 'verify' must be a bool, not str"),
    ({"verify": 1}, None, "must be a bool, not int"),
    ({"extras": "sched_stats"}, None, "must be a list, each a string"),
    ({"extras": [["sched_stats"]]}, None, "must be a list, each a string"),
    (None, {"kind": "qrf", "n_fus": True}, "'n_fus' must be an int, not"),
    (None, {"kind": "crf", "n_fus": 4.0}, "'n_fus' must be an int"),
    (None, {"kind": "clustered", "n_clusters": "4"}, "must be an int"),
    (None, {"kind": "clustered", "allow_moves": "yes"},
     "'allow_moves' must be a bool"),
    (None, {"kind": ["qrf"]}, "unknown machine kind"),
    (None, {"kind": "qrf", "n_clusters": 4}, "unknown machine spec fields"),
]


@pytest.mark.parametrize("options,machine,expect", MISTYPED)
def test_mistyped_fields_are_spec_errors(options, machine, expect):
    spec = _spec(options=options)
    if machine is not None:
        spec["machine"] = machine
    for parse in (parse_job, lambda s: parse_jobs(_body(s))[0]):
        with pytest.raises(JobSpecError, match=expect):
            parse(spec)


def test_every_option_annotation_has_a_json_reading():
    """The option checks are derived from ``PipelineOptions``' field
    annotations: every field's default passes its own check."""
    defaults = dataclasses.asdict(PipelineOptions())
    defaults["extras"] = list(defaults["extras"])
    for name, hint in jobspec._OPTION_TYPES.items():
        assert jobspec._has_type(defaults[name], hint), name
    assert set(jobspec._OPTION_TYPES) == set(defaults)


def test_non_string_kernel_name_is_a_spec_error():
    with pytest.raises(JobSpecError, match="'kernel' must be a string"):
        parse_jobs(_body({"loop": {"kernel": ["daxpy"]}}))


#: well-typed option values naming no copy strategy or extras extractor:
#: each must be a spec error, never a job that compiles into a failure
UNKNOWN_NAMES = [
    ({"copy_strategy": "bogus"}, "unknown copy strategy 'bogus'"),
    ({"extras": ["bogus"]}, "unknown extras spec 'bogus'"),
    ({"extras": ["sched_stats", "bogus:8x16"]},
     "unknown extras spec 'bogus:8x16'"),
]


@pytest.mark.parametrize("options,expect", UNKNOWN_NAMES)
def test_unknown_copy_strategy_or_extras_is_a_spec_error(options, expect):
    for parse in (parse_job, lambda s: parse_jobs(_body(s))[0]):
        with pytest.raises(JobSpecError, match=re.escape(expect)):
            parse(_spec(options=options))


def test_every_copy_strategy_and_extras_name_parses():
    extras = [f"{name}:8x16" if name == "spills" else name
              for name in EXTRA_EXTRACTORS]
    for strategy in COPY_STRATEGIES:
        job = parse_job(_spec(options={"copy_strategy": strategy,
                                       "extras": extras}))
        assert job.options.copy_strategy == strategy
        assert job.options.extras == tuple(extras)


# ---------------------------------------------------------------------------
# the decoded body as memo key
# ---------------------------------------------------------------------------

def test_memo_keeps_json_types_apart(fresh_memos):
    """1, 1.0 and true are equal Python values; a memo hit across them
    would pass a mistyped spec that repeats a valid one."""
    good = _spec(n_fus=1, options={"verify": True})
    job = parse_jobs(_body(good))[0]
    assert parse_jobs(_body(good))[0] is job
    for machine, options in (({"kind": "qrf", "n_fus": True}, True),
                             ({"kind": "qrf", "n_fus": 1.0}, True),
                             ({"kind": "qrf", "n_fus": 1}, 1),
                             ({"kind": "qrf", "n_fus": 1}, 1.0)):
        bad = {"loop": good["loop"], "machine": machine,
               "options": {"verify": options}}
        with pytest.raises(JobSpecError):
            parse_jobs(_body(bad))


def test_body_and_dict_parses_share_one_job_key(fresh_memos):
    specs = [_spec("daxpy"),
             _spec("dot", 8, {"extras": ["sched_stats"], "verify": True}),
             {"loop": {"synth": {"index": 3, "n_loops": 8}},
              "machine": {"kind": "clustered", "n_clusters": 5}}]
    from_body = parse_jobs(_body({"jobs": specs}))
    assert [j.key for j in from_body] == \
        [parse_job(dict(s)).key for s in specs]
    again = parse_jobs(_body({"jobs": specs}))
    assert all(a is b for a, b in zip(again, from_body))   # arrays too


def test_duplicate_keys_take_the_last_value(fresh_memos):
    body = (b'{"loop": {"kernel": "dot"}, "loop": {"kernel": "daxpy"},'
            b' "machine": {"n_fus": true, "n_fus": 6}}')
    [job] = parse_jobs(body)
    assert job.key == parse_job(_spec("daxpy", 6)).key


@pytest.mark.parametrize("body,expect", [
    (b'{"loop": {"kernel": "daxpy"}, "machine": {"n_fus": 1'
     + b"0" * 5000 + b"}}", "integer is too long"),
    (b"[" * 5000 + b"]" * 5000, "nests too deeply"),
    (b'{"jobs": ' * 3000 + b"1" + b"}" * 3000, "nests too deeply"),
    (b"\xff\xfe{}", "not JSON"),
    (b'{"loop": {"kernel": "daxpy"}} trailing', "not JSON"),
    (b"42", "request spec must be a JSON object, not int"),
    (b'{"jobs": [1.5]}', "job spec must be a JSON object, not float"),
])
def test_hostile_bodies_are_spec_errors(body, expect):
    with pytest.raises(JobSpecError, match=expect):
        parse_jobs(body)


# ---------------------------------------------------------------------------
# bounded memos
# ---------------------------------------------------------------------------

def test_every_memo_stays_under_its_cap(fresh_memos):
    """3,000 distinct synth specs (and 400 distinct machines) leave
    every daemon-side memo at or under its stated cap."""
    peak = collections.Counter()
    for k in range(3000):
        parse_jobs(_body({"loop": {"synth": {"seed": k, "n_loops": 1}},
                          "machine": {"n_fus": 1 + k % 400}}))
        for name in ("_JOB_MEMO", "_LOOP_MEMO", "_MACHINE_MEMO",
                     "_SYNTH_STREAMS"):
            peak[name] = max(peak[name], len(getattr(jobspec, name)))
    assert peak["_JOB_MEMO"] <= jobspec.MAX_MEMO_SPECS
    assert 0 < peak["_LOOP_MEMO"] <= jobspec.MAX_MEMO_LOOPS < 3000
    assert 0 < peak["_MACHINE_MEMO"] <= jobspec.MAX_MEMO_MACHINES < 400
    assert peak["_SYNTH_STREAMS"] <= jobspec.MAX_SYNTH_STREAMS


def test_pool_tables_key_loops_by_content():
    """A loop dropped from the loop memo and built again is a new
    object with the old content: the pool reuses its table entry and
    its workers instead of restarting."""
    session = pool_mod.PoolSession(2, _pool_context)
    try:
        results = {}
        jobs = [CompileJob(parse_loop({"kernel": "fir4"}), m)
                for m in (jobspec.parse_machine({"n_fus": 4}),
                          jobspec.parse_machine({"n_fus": 6}))]
        session.run(jobs, results.__setitem__, lambda job: 1.0)
        rebuilt = CompileJob(jobspec.KERNELS["fir4"](), jobs[0].machine)
        assert rebuilt.ddg is not jobs[0].ddg
        session.run([rebuilt], results.__setitem__, lambda job: 1.0)
        counters = session.counters()
    finally:
        session.close()
    assert counters["ddgs"] == 1 and counters["machines"] == 2
    assert counters["spawns"] == 1 and counters["reuses"] == 1
    assert results[0] == execute_job(rebuilt)


def test_shared_hit_memo_is_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_mod, "MAX_SHARED_HITS", 2)
    cache = ShardedResultCache(tmp_path / "cache")
    results = [execute_job(parse_job(_spec(name)))
               for name in ("daxpy", "dot", "fir4", "vadd")]
    cache.put_many(results)
    for result in results * 2:
        assert cache.get(result.key) == result
        assert len(cache._hits) <= 2


# ---------------------------------------------------------------------------
# the hit path
# ---------------------------------------------------------------------------

def test_a_hit_is_shared_until_its_record_is_replaced(tmp_path):
    cache = ShardedResultCache(tmp_path / "cache")
    fresh = execute_job(parse_job(_spec("dot")))
    cache.put(fresh)
    hit = cache.get(fresh.key)
    assert hit == fresh and hit.cached
    assert cache.get(fresh.key) is hit and cache.peek(fresh.key) is hit
    cache.put(dataclasses.replace(fresh, wall_s=fresh.wall_s + 1.0))
    replaced = cache.get(fresh.key)
    assert replaced is not hit
    assert replaced.wall_s == pytest.approx(hit.wall_s + 1.0)


def test_a_stored_record_keeps_its_own_extras(tmp_path):
    """Storing copies the extras once; editing the compiled result
    afterwards changes neither the record nor any hit on it."""
    cache = ShardedResultCache(tmp_path / "cache")
    fresh = execute_job(parse_job(_spec("dot",
                                        options={"extras": ["sched_stats"]})))
    cache.put(fresh)
    attempts = fresh.extras["sched_stats"]["attempts"]
    fresh.extras["sched_stats"]["attempts"] = -1
    fresh.extras["later"] = True
    hit = cache.get(fresh.key)
    assert "later" not in hit.extras
    assert hit.extras["sched_stats"]["attempts"] == attempts


def test_all_hit_request_builds_and_encodes_nothing(tmp_path, monkeypatch):
    """Once a request's results are cached and served once, repeating it
    rebuilds no result, re-encodes no spec and no wire record."""
    service = SweepService(ShardedResultCache(tmp_path / "cache"),
                           n_workers=1)
    http = daemon_mod._Http(service)
    body = _body({"jobs": [_spec("daxpy"),
                           _spec("dot", 8, {"extras": ["sched_stats"]}),
                           _spec("daxpy")]})
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    async def scenario():
        await service.start()
        answers = [await http._route("POST", "/jobs", body)
                   for _ in range(2)]            # compile, first hits
        with monkeypatch.context() as m:
            from_record = JobResult.from_record.__func__
            m.setattr(JobResult, "from_record",
                      classmethod(counted("from_record", from_record)))
            for module in (jobspec, fingerprint_mod):
                m.setattr(module, "canonical_json",
                          counted("canonical_json", module.canonical_json))
            m.setattr(engine_mod, "_encode_wire",
                      counted("_encode_wire", engine_mod._encode_wire))
            answers.append(await http._route("POST", "/jobs", body))
        await service.stop()
        return answers

    compiled, first_hit, repeat = asyncio.run(scenario())
    assert calls == {}
    assert repeat[0] == 200 and repeat == first_hit
    assert [r["cached"] for r in json.loads(repeat[1])["results"]] == \
        [True, True, True]
    assert service.c_compiled == 2


def test_mutating_a_hit_changes_no_later_answer(tmp_path):
    """A hit is shared, so it refuses every write -- its fields, its
    outcome and its extras at any depth; a deep copy is the caller's
    own.  Either way the next answer is byte for byte the last one."""
    service = SweepService(ShardedResultCache(tmp_path / "cache"),
                           n_workers=1)
    http = daemon_mod._Http(service)
    spec = _spec("fir4", options={"extras": ["sched_stats"]})
    body = _body(spec)

    async def scenario():
        await service.start()
        await http._route("POST", "/jobs", body)       # compile
        before = await http._route("POST", "/jobs", body)
        [hit] = await service.submit(parse_jobs(body))
        assert hit.cached and hit.extras["sched_stats"]
        writes = [
            lambda: setattr(hit, "wall_s", 9.0),
            lambda: setattr(hit, "extras", {}),
            lambda: setattr(hit.outcome, "ii", 99),
            lambda: hit.extras.__setitem__("sched_stats", None),
            lambda: hit.extras.pop("sched_stats"),
            lambda: hit.extras.clear(),
            lambda: hit.extras["sched_stats"].update(attempts=-1),
            lambda: hit.extras["sched_stats"].setdefault("x", 1),
        ]
        for write in writes:
            with pytest.raises((dataclasses.FrozenInstanceError,
                                TypeError)):
                write()
        mine = copy.deepcopy(hit)
        mine.extras["sched_stats"]["attempts"] = -1
        mine.extras["mine"] = True
        edited = dataclasses.replace(hit, wall_s=123.0)
        after = await http._route("POST", "/jobs", body)
        [again] = await service.submit(parse_jobs(body))
        await service.stop()
        return before, after, hit, again, edited

    before, after, hit, again, edited = asyncio.run(scenario())
    assert after == before
    assert again is hit and "mine" not in hit.extras
    assert edited.wall_s == 123.0 and hit.wall_s != 123.0


# ---------------------------------------------------------------------------
# over HTTP
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    cache = ShardedResultCache(tmp_path_factory.mktemp("boundary"))
    handle = start_in_thread(SweepService(cache, n_workers=1))
    yield handle
    handle.stop()


def _post(handle, body: bytes) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=60)
    try:
        conn.request("POST", "/jobs", body,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _healthy(handle) -> bool:
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=60)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status == 200
    finally:
        conn.close()


@pytest.mark.parametrize("options,machine,expect", MISTYPED[:4])
def test_http_mistyped_option_is_a_400(daemon, options, machine, expect):
    status, body = _post(daemon, _body(_spec(options=options)))
    assert status == 400 and expect in json.loads(body)["error"]
    assert _healthy(daemon)


@pytest.mark.parametrize("options,expect", UNKNOWN_NAMES)
def test_http_unknown_copy_strategy_or_extras_is_a_400(daemon, options,
                                                       expect):
    status, body = _post(daemon, _body(_spec(options=options)))
    assert status == 400 and expect in json.loads(body)["error"]
    assert _healthy(daemon)


def test_http_head_split_over_many_writes(daemon):
    """The head is read in one call however the client writes it, and
    a pipelined second request on the same connection is answered."""
    body = _body(_spec("dot"))
    request = (b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: %d"
               b"\r\n\r\n" % len(body)) + body
    with socket.create_connection(daemon.address, timeout=60) as sock:
        for i in range(0, 40, 7):
            sock.sendall(request[i:i + 7])
            time.sleep(0.01)
        sock.sendall(request[42:] + request + b"GET /healthz HTTP/1.1"
                     b"\r\nConnection: close\r\n\r\n")
        reply = b"".join(iter(lambda: sock.recv(65536), b""))
    assert reply.count(b"HTTP/1.1 200 OK") == 3


# -------------------------------------------------- arbitrary JSON bodies

def _num(text):
    return ("num", text)


def _render(node) -> str:
    """JSON text of a generated tree (objects keep duplicate keys)."""
    if isinstance(node, tuple) and node[0] == "num":
        return node[1]
    if isinstance(node, tuple) and node[0] == "obj":
        return "{" + ", ".join(f"{json.dumps(k)}: {_render(v)}"
                               for k, v in node[1]) + "}"
    if isinstance(node, tuple) and node[0] == "arr":
        return "[" + ", ".join(_render(v) for v in node[1]) + "]"
    return json.dumps(node)


_NAMES = sorted({"loop", "machine", "options", "jobs", "kernel", "synth",
                 "index", "seed", "n_loops", "kind", "n_fus", "n_clusters",
                 "allow_moves", *jobspec._OPTION_TYPES})
_keys = st.sampled_from(_NAMES) | st.text(max_size=4)
_leaves = st.one_of(
    st.none(), st.booleans(),
    st.integers(-3, 8).map(lambda n: _num(str(n))),
    st.integers(4400, 6000).map(lambda n: _num("9" * n)),   # over int()'s
    st.floats(allow_nan=True).map(lambda x: _num(json.dumps(x))),
    st.sampled_from(["daxpy", "dot", "qrf", "crf", "clustered", "ims",
                     "sms", "affinity", "sched_stats", "slack"]),
    st.text(max_size=6))


def _object_of(fields):
    return st.lists(fields, max_size=4).map(lambda pairs: ("obj", pairs))


_trees = st.recursive(
    _leaves,
    lambda children: (st.lists(children, max_size=4).map(
        lambda items: ("arr", items))
        | _object_of(st.tuples(_keys, children))),
    max_leaves=10)


def _field(name, values):
    return st.tuples(st.just(name), values)


#: values of the right type for some field, mostly
_typed = st.one_of(
    st.booleans(), st.none(),
    st.integers(1, 6).map(lambda n: _num(str(n))),
    st.sampled_from(["ims", "sms", "affinity", "slack", "qrf"]),
    st.lists(st.sampled_from(["sched_stats", "cluster_stats"]),
             max_size=2).map(lambda items: ("arr", items)))


def _option(name):
    """*name* with a value of its own type, of another, or any tree."""
    right = {"scheduler": st.sampled_from(["ims", "sms"]),
             "partitioner": st.sampled_from(["affinity", "bogus"]),
             "copy_strategy": st.just("slack"),
             "extras": st.just(("arr", ["sched_stats"])),
             "unroll_factor": st.none() | st.integers(1, 4).map(
                 lambda n: _num(str(n)))}.get(name, st.booleans())
    return _field(name, st.one_of(right, right, _typed, _trees))


_kernels = st.sampled_from(["daxpy", "dot", "fir4"]).map(
    lambda k: ("obj", [("kernel", k)]))
_machines = st.sampled_from([
    ("obj", [("kind", "qrf"), ("n_fus", _num("4"))]),
    ("obj", [("kind", "crf"), ("n_fus", _num("2"))]),
    ("obj", [("kind", "clustered"), ("n_clusters", _num("3")),
             ("allow_moves", True)])])

#: bodies shaped like a job spec, with arbitrary values in its fields
_spec_bodies = st.builds(
    lambda loop, machine, options: ("obj", [("loop", loop),
                                            ("machine", machine),
                                            ("options", options)]),
    _kernels,
    st.one_of(_machines, _machines, _object_of(
        _field("kind", st.sampled_from(["qrf", "crf", "clustered"]))
        | _field("n_fus", _typed | _leaves)
        | _field("n_clusters", _typed | _leaves)
        | _field("allow_moves", _typed))),
    _object_of(st.sampled_from(sorted(jobspec._OPTION_TYPES)).flatmap(
        _option)))

_bodies = st.one_of(
    _trees.map(_render).map(str.encode),
    _spec_bodies.map(_render).map(str.encode),
    _spec_bodies.map(_render).map(str.encode),
    st.integers(900, 5000).map(lambda n: b"[" * n + b"]" * n),
    st.binary(max_size=40))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(body=_bodies)
def test_http_any_body_gets_an_answer(daemon, body):
    """Any body gets a 200 or a 4xx with a JSON error; the connection
    is never dropped, and no 200 carries a job that failed on a value
    of the wrong type."""
    status, reply = _post(daemon, body)
    answer = json.loads(reply)
    if status == 200:
        for record in answer["results"]:
            error = record["outcome"]["error"] or ""
            assert not error.startswith(("TypeError", "AttributeError")), \
                error
    else:
        assert 400 <= status < 500 and isinstance(answer["error"], str)

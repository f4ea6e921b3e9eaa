"""Workload definitions: every job list is a pure function of the seed.

The benchmark's three workloads draw their inputs here.  Nothing in this
module times anything; it only builds the loops, machines and job specs
the program receives, so the same seed always yields the same jobs and
a different seed a different list (``test_perfbench.py`` checks both).

Sizes are constants, not functions of measured speed: every run of a
workload attempts exactly the same jobs, however fast the box is.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

#: The paper corpus size (``repro.workloads.synth.SynthConfig.n_loops``).
CORPUS_SIZE = 1258

#: Share of the corpus each sweep compiles.  A large share keeps the
#: heavy-tailed per-loop cost from making one seed's list much dearer
#: than another's; the sample is stratified by body size so every seed
#: gets the same size mix.
SWEEP_FRACTION = 0.9

#: The paper's Sec. 4 ring machines (Fig. 6).
RING_CLUSTERS = (4, 5, 6)

#: Queue-register-file widths for the unrolled sweep, spread over the
#: 4..18-FU axis of Figs. 8-9.
UNROLL_WIDTHS = (4, 10, 16)

#: service-replay population: machines every named kernel is offered on
SERVICE_QRF_WIDTHS = (4, 8, 12, 16)
SERVICE_RING_CLUSTERS = (4, 5, 6)

#: Synthetic-loop specs in the service population, one near the middle
#: of each equal slice of the corpus index range, so the O(index)
#: generator replay of ``{"synth": {"index": i}}`` specs is paid across
#: the range.  The seed moves each index by at most SYNTH_JITTER, which
#: keeps the replay cost nearly the same for every seed.
SERVICE_SYNTH_SPECS = 3
SYNTH_JITTER = 20

#: Requests per service round, and the 1..N job specs each one carries.
SERVICE_REQUESTS = 5000
SERVICE_MAX_BATCH = 6

#: Popularity skew of the service population (Zipf exponent).
SERVICE_ZIPF = 1.1

#: Distinct jobs of the population checked against a serial ``run_jobs``.
SERVICE_CHECK_SAMPLE = 12

WORKLOADS = ("ring-sweep", "unroll-sweep", "service-replay")


def _rng(seed: int, salt: str) -> random.Random:
    digest = hashlib.sha256(f"{salt}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sample_indices(sizes: list[int], n: int, seed: int) -> list[int]:
    """*n* corpus indices, one per stratum of the body-size order.

    Strata are consecutive runs of the indices sorted by (size, index);
    the seed picks one member of each and then shuffles the picks.
    """
    n = max(1, min(n, len(sizes)))
    order = sorted(range(len(sizes)), key=lambda i: (sizes[i], i))
    rng = _rng(seed, "sweep-sample")
    picks = []
    for s in range(n):
        lo = s * len(order) // n
        hi = max(lo + 1, (s + 1) * len(order) // n)
        picks.append(order[rng.randrange(lo, hi)])
    rng.shuffle(picks)
    return picks


def sweep_loop_count(scale: float = 1.0) -> int:
    """Loops per sweep at *scale* (1.0 = the benchmark's size)."""
    return max(1, round(CORPUS_SIZE * SWEEP_FRACTION * scale))


def sweep_machines(workload: str) -> list:
    from repro.machine.presets import clustered_machine, qrf_machine

    if workload == "ring-sweep":
        return [clustered_machine(n) for n in RING_CLUSTERS]
    if workload == "unroll-sweep":
        return [qrf_machine(n) for n in UNROLL_WIDTHS]
    raise ValueError(f"not a sweep workload: {workload!r}")


def sweep_options(workload: str):
    from repro.runner import PipelineOptions

    if workload == "ring-sweep":
        return PipelineOptions(verify=True)
    return PipelineOptions(verify=True, do_unroll=True)


def sweep_jobs(workload: str, seed: int, loops: list, *,
               scale: float = 1.0) -> list:
    """The sweep's job list: sampled loops x machines, loop-major.

    *loops* is the paper corpus (``generate_corpus()``); each sampled
    loop is compiled on every machine of the workload in turn, so the
    program's per-loop front-end memo is reused across the machines.
    """
    from repro.runner import CompileJob

    machines = sweep_machines(workload)
    options = sweep_options(workload)
    picks = sample_indices([ddg.n_ops for ddg in loops],
                           sweep_loop_count(scale), seed)
    return [CompileJob(loops[i], m, options)
            for i in picks for m in machines]


# --------------------------------------------------------------- service

@dataclass(frozen=True)
class ServicePlan:
    """The service-replay inputs: a population and the request list."""

    population: list      # distinct job specs (JSON-shaped dicts)
    requests: list        # each a list of population indices
    check: list           # population indices cross-checked serially

    def bodies(self) -> list[bytes]:
        """Pre-serialised ``POST /jobs`` bodies, one per request."""
        return [json.dumps({"jobs": [self.population[p] for p in req]},
                           sort_keys=True).encode()
                for req in self.requests]


def service_plan(seed: int, kernel_names: list[str], *,
                 scale: float = 1.0) -> ServicePlan:
    """Population of named-kernel and synth specs on QRF and ring
    machines, and a skewed request list drawn from it."""
    rng = _rng(seed, "service")
    loop_specs = [{"kernel": name} for name in sorted(kernel_names)]
    for s in range(SERVICE_SYNTH_SPECS):
        centre = (2 * s + 1) * CORPUS_SIZE // (2 * SERVICE_SYNTH_SPECS)
        index = centre + rng.randint(-SYNTH_JITTER, SYNTH_JITTER)
        loop_specs.append({"synth": {"index": index}})
    machine_specs = (
        [{"kind": "qrf", "n_fus": n} for n in SERVICE_QRF_WIDTHS]
        + [{"kind": "clustered", "n_clusters": n}
           for n in SERVICE_RING_CLUSTERS])
    population = [{"loop": loop, "machine": machine,
                   "options": {"verify": True}}
                  for loop in loop_specs for machine in machine_specs]
    rank = list(range(len(population)))
    rng.shuffle(rank)
    weights = [0.0] * len(population)
    for r, p in enumerate(rank):
        weights[p] = 1.0 / (r + 1) ** SERVICE_ZIPF
    n_requests = max(1, round(SERVICE_REQUESTS * scale))
    requests = [rng.choices(range(len(population)), weights,
                            k=rng.randint(1, SERVICE_MAX_BATCH))
                for _ in range(n_requests)]
    requested = sorted({p for req in requests for p in req})
    check = sorted(rng.sample(requested,
                              min(SERVICE_CHECK_SAMPLE, len(requested))))
    return ServicePlan(population=population, requests=requests,
                       check=check)

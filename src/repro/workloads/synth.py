"""Synthetic Perfect-Club-like corpus generator.

The paper evaluates on 1258 innermost loops extracted from the Perfect Club
benchmark [2].  That suite is not redistributable and its loop extraction
pipeline (ICTINEO) is long gone, so -- per the substitution policy in
DESIGN.md §2 -- we generate a *synthetic corpus* whose structural
distributions mimic what published studies of scientific FP loops report
(Rau'96, Llosa et al.'94/'96 use the same corpus family):

* body sizes: heavy-tailed, most loops 5-20 ops, a tail to ~64;
* op mix: roughly 25-40 % memory ops, the rest split between add-class and
  mul-class arithmetic;
* 30-40 % of loops carry at least one recurrence (accumulators dominate,
  a few longer/deeper recurrences);
* moderate fan-out: most values have one consumer, a minority 2-4;
* heavy-tailed trip counts (a few loops dominate execution time -- the
  effect the paper calls out in its dynamic-IPC discussion).

Generation is seeded and fully deterministic: ``generate_corpus()`` always
returns the same 1258 loops.

A loop is made in two phases.  :func:`draw_loop` makes every rng draw,
in a fixed order, into plain lists (opcodes, names and edge-table rows);
it is the only place the generator draws.  :func:`build_loop` turns the
lists into a validated :class:`~repro.ir.ddg.Ddg`.  Loop *i* depends on
the draws of loops 0..i-1 alone, so a reader that needs one loop of a
seeded stream (the service's synth specs) draws the loops before it and
builds only that one.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

from repro.ir.ddg import DATA_CODE, KIND_CODE, Ddg, DepKind, Row, keyed_rows
from repro.ir.operations import Opcode, Operation
from repro.ir.validate import validate_ddg

#: weights of arithmetic opcodes (memory handled separately)
DEFAULT_ARITH_MIX: dict[Opcode, float] = {
    Opcode.ADD: 0.38,
    Opcode.SUB: 0.12,
    Opcode.MUL: 0.26,
    Opcode.FMUL: 0.12,
    Opcode.CMP: 0.05,
    Opcode.SHIFT: 0.04,
    Opcode.DIV: 0.03,
}


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the generator (defaults calibrated per module docstring)."""

    n_loops: int = 1258
    seed: int = 19980330          # IPPS/SPDP 1998, Orlando

    # body size: lognormal, clipped
    min_ops: int = 4
    max_ops: int = 64
    size_mu: float = 2.45         # exp(mu) ~ 11.6 ops median
    size_sigma: float = 0.55

    # structure
    load_fraction: float = 0.24   # of the body, before stores
    store_fraction: float = 0.08
    p_binary: float = 0.6         # arith op takes 2 operands (else 1)
    recent_bias: float = 2.0      # operand choice biased to recent values
    p_reuse_operand: float = 0.18 # chance to reuse an already-consumed value

    # recurrences
    p_recurrence: float = 0.38    # >= 1 recurrence in the loop
    p_extra_recurrence: float = 0.30
    p_long_distance: float = 0.25 # recurrence distance > 1
    max_distance: int = 4
    p_mem_recurrence: float = 0.10

    p_pure_accumulator: float = 0.80  # recurrence value is live-out only
    p_self_recurrence: float = 0.75   # accumulator vs deeper circuit

    # dangling values
    p_store_dangling: float = 0.35

    # trip counts: lognormal, clipped
    trip_mu: float = 4.2          # exp(4.2) ~ 67 median iterations
    trip_sigma: float = 1.4
    min_trip: int = 4
    max_trip: int = 50_000

    arith_mix: tuple[tuple[Opcode, float], ...] = field(
        default_factory=lambda: tuple(DEFAULT_ARITH_MIX.items()))


def _sample_clipped_lognormal(rng: random.Random, mu: float, sigma: float,
                              lo: int, hi: int) -> int:
    val = int(round(math.exp(rng.gauss(mu, sigma))))
    return max(lo, min(hi, val))


class _RecencyWeights:
    """The operand weights ``(i + 1) ** bias`` of one ``recent_bias``:
    their running sums, and their total per operand count.

    A weighted pick over *n* operands takes the first index whose
    running sum reaches ``r``, a bisection over ``cum[:n]``.  Both
    numbers are the ones a linear scan computes, so the pick is the
    same: the running sums start from ``0.0`` like the scan's
    accumulator, and a total is ``sum`` over the same weights (which on
    Python 3.12+ sums floats with compensation, so it is not always the
    last running sum).  Tables only grow, and a grown table replaces the
    old one whole, so a reader never sees a half-grown list.
    """

    __slots__ = ("bias", "cum", "totals")

    def __init__(self, bias: float) -> None:
        self.bias = bias
        self.cum: list[float] = []
        self.totals: dict[int, float] = {}

    def lookup(self, n: int) -> tuple[list[float], float]:
        """``(cum, total)`` for *n* operands; ``len(cum) >= n``."""
        cum = self.cum
        total = self.totals.get(n)
        if total is None or len(cum) < n:
            weights = [(i + 1) ** self.bias for i in range(n)]
            total = self.totals[n] = sum(weights)
            if len(cum) < n:
                cum = self.cum = list(accumulate(weights, initial=0.0))[1:]
        return cum, total


@functools.lru_cache(maxsize=16, typed=True)
def _recency_weights(bias: float) -> _RecencyWeights:
    return _RecencyWeights(bias)


@functools.lru_cache(maxsize=16)
def _mix_table(mix: tuple[tuple[Opcode, float], ...]
               ) -> tuple[list[Opcode], list[float], float]:
    """``(opcodes, running sums, total)`` of an opcode mix, summed the
    way :class:`_RecencyWeights` sums operand weights."""
    weights = [w for _op, w in mix]
    return ([op for op, _w in mix],
            list(accumulate(weights, initial=0.0))[1:], sum(weights))


def _pick_operand(rng: random.Random, producers: list[int],
                  cfg: SynthConfig) -> int:
    """Choose a producer, biased towards recently created values (models
    expression locality); occasionally an older one (models reuse and
    creates fan-out)."""
    n = len(producers)
    if n == 1:
        return producers[0]
    if rng.random() < cfg.p_reuse_operand:
        return producers[rng.randrange(n)]
    # weight ~ (position+1)^bias
    cum, total = _recency_weights(cfg.recent_bias).lookup(n)
    i = bisect_left(cum, rng.random() * total, 0, n)
    return producers[i if i < n else -1]


def _weighted_opcode(rng: random.Random,
                     table: tuple[list[Opcode], list[float], float]
                     ) -> Opcode:
    """Draw an opcode from a :func:`_mix_table`."""
    opcodes, cum, total = table
    i = bisect_left(cum, rng.random() * total)
    return opcodes[i if i < len(opcodes) else -1]


class LoopDraw(NamedTuple):
    """The draws of one synthetic loop, before any graph is built.

    ``ops[i]`` is op *i*'s ``(opcode, name)``; ``rows`` holds the
    dependences as ``(src, dst, seq, latency, distance, kind code)``
    edge-table rows, where ``seq`` is the edge's arrival order (the
    order :func:`~repro.ir.ddg.keyed_rows` numbers parallel edges by).
    """

    name: str
    trip_count: int
    ops: list[tuple[Opcode, str]]
    rows: list[Row]


def draw_loop(rng: random.Random, cfg: SynthConfig,
              index: int) -> LoopDraw:
    """Every rng draw of one loop, in generation order.

    The structure the choices depend on (which values are consumed yet,
    a value's producers, the LOAD ids) is read from the lists drawn so
    far.  Skipping a loop of a seeded stream costs exactly this call.
    """
    n_target = _sample_clipped_lognormal(
        rng, cfg.size_mu, cfg.size_sigma, cfg.min_ops, cfg.max_ops)
    trip = _sample_clipped_lognormal(
        rng, cfg.trip_mu, cfg.trip_sigma, cfg.min_trip, cfg.max_trip)

    n_loads = max(1, round(n_target * cfg.load_fraction))
    n_stores = max(1, round(n_target * cfg.store_fraction))
    n_arith = max(1, n_target - n_loads - n_stores)

    ops: list[tuple[Opcode, str]] = []
    rows: list[Row] = []
    consumed: set[int] = set()      # sources of the DATA edges so far
    preds: dict[int, list[int]] = {}  # arith op -> its DATA sources

    def add_op(opcode: Opcode, name: str) -> int:
        ops.append((opcode, name))
        return len(ops) - 1

    def depend(src: int, dst: int, distance: int = 0,
               kind: int = DATA_CODE) -> None:
        latency = ops[src][0].default_latency if kind == DATA_CODE else 1
        rows.append((src, dst, len(rows), latency, distance, kind))
        if kind == DATA_CODE:
            consumed.add(src)
            if dst in preds:
                preds[dst].append(src)

    producers = [add_op(Opcode.LOAD, f"ld{i}") for i in range(n_loads)]

    mix = _mix_table(cfg.arith_mix)
    arith_ids: list[int] = []
    for i in range(n_arith):
        opcode = _weighted_opcode(rng, mix)
        op = add_op(opcode, f"{opcode.mnemonic}{i}")
        preds[op] = []
        n_operands = 2 if rng.random() < cfg.p_binary else 1
        chosen = {_pick_operand(rng, producers, cfg)
                  for _ in range(n_operands)}
        for src in sorted(chosen):
            depend(src, op)
        producers.append(op)
        arith_ids.append(op)

    # recurrences come *before* store placement: real reductions are
    # usually live-out only (the accumulator is not written back every
    # iteration), so recurrence tails prefer values nothing consumes yet --
    # their only consumer becomes the carried edge, and copy insertion
    # never has to lengthen the recurrence circuit.
    if arith_ids and rng.random() < cfg.p_recurrence:
        n_rec = 1
        while (rng.random() < cfg.p_extra_recurrence
               and n_rec < 1 + len(arith_ids) // 6):
            n_rec += 1
        for _ in range(n_rec):
            free_tails = [a for a in arith_ids if a not in consumed]
            if free_tails and rng.random() < cfg.p_pure_accumulator:
                tail = free_tails[rng.randrange(len(free_tails))]
            else:
                tail = arith_ids[rng.randrange(len(arith_ids))]
            # close onto the op itself (accumulator) or onto one of its
            # ancestors (deeper recurrence circuit); simple accumulators
            # dominate real scientific loops.  The ancestors are listed
            # in edge-table order: by source, one entry per edge.
            if rng.random() < cfg.p_self_recurrence:
                head = tail
            else:
                ancestors = sorted(preds[tail])
                head = (ancestors[rng.randrange(len(ancestors))]
                        if ancestors else tail)
            dist = 1
            if rng.random() < cfg.p_long_distance:
                dist = rng.randint(2, cfg.max_distance)
            depend(tail, head, dist)

    # stores: prefer values not yet consumed (computation results get
    # written back)
    dangling = [p for p in producers if p not in consumed]
    store_ids: list[int] = []
    for i in range(n_stores):
        pool = dangling if dangling else producers
        src = pool.pop(rng.randrange(len(pool))) if pool is dangling \
            else _pick_operand(rng, producers, cfg)
        st = add_op(Opcode.STORE, f"st{i}")
        depend(src, st)
        store_ids.append(st)

    # leftover dangling values: write them back or feed a later consumer
    leftover = [p for p in producers if p not in consumed]
    extra = 0
    for p in leftover:
        if rng.random() < cfg.p_store_dangling or not store_ids:
            st = add_op(Opcode.STORE, f"stx{extra}")
            depend(p, st)
            store_ids.append(st)
            extra += 1
        else:
            # feed an existing store as an extra operand (address value)
            depend(p, store_ids[rng.randrange(len(store_ids))])

    # occasional memory recurrence (store -> load ordering); the loads
    # are ops 0..n_loads-1
    if store_ids and rng.random() < cfg.p_mem_recurrence:
        st = store_ids[rng.randrange(len(store_ids))]
        ld = rng.randrange(n_loads)
        depend(st, ld, rng.randint(1, 2), KIND_CODE[DepKind.MEM])

    return LoopDraw(f"synth-{index:04d}", trip, ops, rows)


def build_loop(draw: LoopDraw) -> Ddg:
    """The validated graph of one drawn loop (sorts ``draw.rows``)."""
    ops = [Operation(i, opcode, name)
           for i, (opcode, name) in enumerate(draw.ops)]
    ddg = Ddg.from_table(draw.name, draw.trip_count, ops,
                         keyed_rows(draw.rows))
    validate_ddg(ddg)
    return ddg


def generate_loop(rng: random.Random, cfg: SynthConfig,
                  index: int) -> Ddg:
    """One synthetic innermost loop (deterministic given rng state)."""
    return build_loop(draw_loop(rng, cfg, index))


def generate_corpus(cfg: SynthConfig | None = None) -> list[Ddg]:
    """The deterministic corpus: ``cfg.n_loops`` loops from ``cfg.seed``."""
    cfg = cfg or SynthConfig()
    rng = random.Random(cfg.seed)
    return [generate_loop(rng, cfg, i) for i in range(cfg.n_loops)]

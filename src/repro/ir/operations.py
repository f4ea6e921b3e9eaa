"""Operation model for innermost-loop bodies.

The paper's machine executes four classes of operations, one per functional
unit type (Fig. 5a):

* ``L/S``  -- memory loads and stores,
* ``ADD``  -- additions, subtractions, comparisons and other 1-ALU ops,
* ``MUL``  -- multiplications, divisions and other long-latency arithmetic,
* ``COPY`` -- the dedicated copy unit introduced in Section 2 (one queue
  read, two queue writes),

plus ``MOVE`` for the future-work inter-cluster transfer extension evaluated
by ablation A3.

An :class:`Operation` is a node of the data-dependence graph: it has an
opcode, a latency (cycles until its result is available), and bookkeeping
about where it came from (unroll copy index, the fan-out tree that created a
copy op, ...).  Operations are value-producing unless their opcode is a
store/sink.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional


class FuType(enum.Enum):
    """Functional-unit classes of the paper's cluster (Fig. 5a)."""

    LS = "L/S"
    ADD = "ADD"
    MUL = "MUL"
    COPY = "COPY"
    MOVE = "MOVE"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FuType.{self.name}"


class Opcode(enum.Enum):
    """Abstract opcodes, grouped by the functional unit that executes them.

    The scheduler only cares about (fu_type, latency, produces_value); the
    simulator additionally interprets loads/stores/copies as token movement.
    Latencies follow the early-90s VLIW conventions used by Rau's and Llosa's
    papers (single-cycle ALU, 2-cycle loads, 2-cycle multiplies, long
    divides); they can be overridden per machine via a latency map.
    """

    LOAD = ("load", FuType.LS, 2, True)
    STORE = ("store", FuType.LS, 1, False)
    ADD = ("add", FuType.ADD, 1, True)
    SUB = ("sub", FuType.ADD, 1, True)
    CMP = ("cmp", FuType.ADD, 1, True)
    SHIFT = ("shift", FuType.ADD, 1, True)
    MUL = ("mul", FuType.MUL, 2, True)
    FMUL = ("fmul", FuType.MUL, 3, True)
    DIV = ("div", FuType.MUL, 8, True)
    COPY = ("copy", FuType.COPY, 1, True)
    MOVE = ("move", FuType.MOVE, 1, True)

    def __init__(self, mnemonic: str, fu_type: FuType, latency: int,
                 produces_value: bool) -> None:
        self.mnemonic = mnemonic
        self.fu_type = fu_type
        self.default_latency = latency
        self.produces_value = produces_value

    @classmethod
    def from_mnemonic(cls, name: str) -> "Opcode":
        """Look an opcode up by its mnemonic (``"add"``, ``"load"``, ...)."""
        for op in cls:
            if op.mnemonic == name:
                return op
        raise KeyError(f"unknown opcode mnemonic: {name!r}")


#: Opcodes that the synthetic workload generator may emit (no COPY/MOVE --
#: those are inserted by the compiler, never present in source DDGs).
SOURCE_OPCODES = (
    Opcode.LOAD, Opcode.STORE, Opcode.ADD, Opcode.SUB, Opcode.CMP,
    Opcode.SHIFT, Opcode.MUL, Opcode.FMUL, Opcode.DIV,
)


_set = object.__setattr__


@dataclass(frozen=True)
class Operation:
    """A single operation of a loop body.

    Parameters
    ----------
    op_id:
        Unique id within its :class:`~repro.ir.ddg.Ddg`.  Ids are dense
        integers assigned by the graph; transforms (unrolling, copy
        insertion) allocate fresh ids.
    opcode:
        The abstract opcode.
    name:
        Optional human-readable label (kept through transforms, with
        suffixes like ``".u2"`` for unroll copy 2 or ``".cp0"`` for an
        inserted copy).
    latency:
        Result latency in cycles; defaults to the opcode's default latency.
        Must be >= 1 for value producers (a 0-latency producer would need a
        same-cycle read-after-write across FUs, which the machine model does
        not implement).
    unroll_index:
        Which unroll copy (0-based) this op belongs to; 0 for non-unrolled
        code.
    origin:
        Id of the source op this one was derived from (unroll replication or
        copy insertion); ``None`` for original ops.
    """

    op_id: int
    opcode: Opcode
    name: str = ""
    latency: int = -1  # -1 -> use opcode default (fixed in __post_init__)
    unroll_index: int = 0
    origin: Optional[int] = None

    def __post_init__(self) -> None:
        if self.latency < 0:
            object.__setattr__(self, "latency", self.opcode.default_latency)
        if self.latency < 1 and self.opcode.produces_value:
            raise ValueError(
                f"op {self.name or self.op_id}: producer latency must be >= 1,"
                f" got {self.latency}"
            )
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        if not self.name:
            object.__setattr__(
                self, "name", f"{self.opcode.mnemonic}{self.op_id}"
            )

    # -- convenience ------------------------------------------------------

    @property
    def fu_type(self) -> FuType:
        """Functional unit class that executes this op."""
        return self.opcode.fu_type

    @property
    def produces_value(self) -> bool:
        """True if the op writes a result value (into a register/queue)."""
        return self.opcode.produces_value

    @property
    def is_copy(self) -> bool:
        return self.opcode is Opcode.COPY

    @property
    def is_move(self) -> bool:
        return self.opcode is Opcode.MOVE

    @property
    def is_memory(self) -> bool:
        return self.opcode in (Opcode.LOAD, Opcode.STORE)

    def renamed(self, name: str) -> "Operation":
        """Return a copy of this op with a different display name."""
        return replace(self, name=name)

    def with_id(self, op_id: int, *, origin: Optional[int] = None,
                unroll_index: Optional[int] = None,
                name: Optional[str] = None) -> "Operation":
        """Return a copy with a fresh id (used by graph transforms).

        ``origin`` defaults to this op's id.  The graph transforms derive
        every unrolled op and every copy this way, so the copy is built
        field by field without re-validation: none of the fields that
        may change takes part in it."""
        new = object.__new__(Operation)
        _set(new, "op_id", op_id)
        _set(new, "opcode", self.opcode)
        _set(new, "name", self.name if name is None else name)
        _set(new, "latency", self.latency)
        _set(new, "unroll_index",
             self.unroll_index if unroll_index is None else unroll_index)
        _set(new, "origin", self.op_id if origin is None else origin)
        return new

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}<{self.opcode.mnemonic}@{self.fu_type.value}>"


@dataclass(frozen=True)
class LatencyModel:
    """Per-machine override of opcode latencies.

    The paper never publishes its latency table; the defaults above follow
    the conventions of Rau (IMS, 1996) and Llosa et al.  A machine model may
    carry a :class:`LatencyModel` to re-time a DDG before scheduling.
    """

    overrides: dict[Opcode, int] = field(default_factory=dict)

    def latency_of(self, opcode: Opcode) -> int:
        return self.overrides.get(opcode, opcode.default_latency)

    def retime(self, op: Operation) -> Operation:
        """Return *op* with this model's latency applied."""
        lat = self.latency_of(op.opcode)
        if lat == op.latency:
            return op
        return replace(op, latency=lat)


#: Latency model matching the defaults (useful as an explicit sentinel).
DEFAULT_LATENCIES = LatencyModel()

#: A uniform single-cycle model, handy in tests where timing must be trivial.
UNIT_LATENCIES = LatencyModel(
    overrides={op: 1 for op in Opcode if op.produces_value}
    | {Opcode.STORE: 1}
)

"""Static schedule verification (translation validation for schedules).

The paper's partitioned modulo schedules are defined by algebraic
invariants -- dependence inequalities modulo II, per-cluster resource
capacity, ring adjacency of value crossings, queue occupancy bounds --
that can be *proved* for a concrete ``(ddg, machine, schedule)`` triple
without replaying the loop.  :func:`verify_schedule` is that proof: an
independent checker that re-derives every inequality from the schedule's
raw ``sigma`` / ``cluster_of`` maps and emits a structured
:class:`Verdict` naming the first violated one.

Unlike :meth:`repro.sched.schedule.ModuloSchedule.validate` (a scheduler
self-audit) and :mod:`repro.sim.reference` (dynamic replay), the
verifier shares no state with the engines: it walks the public DDG edge
objects, recomputes pool capacities from the machine description, and
re-implements the Q-compatibility test locally, so a bug in the packed
scheduling core cannot silently vouch for itself.  It proves the queue
allocation that ships with a schedule (``usage=``) rather than one of
its own.

The seeded mutation corpus (:func:`mutation_corpus`) is the verifier's
own test: corrupt a proved schedule in a known way and the verdict must
name the matching invariant.
"""

from .verdict import (Verdict, VerificationError, Violation,
                      ViolationKind)
from .verifier import INVARIANT_FAMILIES, verify_schedule
from .mutate import AppliedMutation, MUTATORS, mutation_corpus

__all__ = [
    "AppliedMutation",
    "INVARIANT_FAMILIES",
    "MUTATORS",
    "Verdict",
    "VerificationError",
    "Violation",
    "ViolationKind",
    "mutation_corpus",
    "verify_schedule",
]

"""Job results as plain-data records."""

import dataclasses
import typing
from typing import Optional

from repro.analysis.metrics import LoopOutcome
from repro.runner import compile_loop
from repro.runner.job import JobResult
from repro.workloads.kernels import kernel

#: field types a shallow copy may share between a result and its record
SCALARS = {str, int, float, bool, Optional[int], Optional[str],
           Optional[float], Optional[bool]}


def test_loop_outcome_fields_are_scalars():
    """to_record copies outcome fields flat; a container-valued field
    would be shared with the record instead of copied."""
    hints = typing.get_type_hints(LoopOutcome)
    for f in dataclasses.fields(LoopOutcome):
        assert hints[f.name] in SCALARS, (f.name, hints[f.name])


def test_record_outcome_matches_asdict(qrf4):
    outcomes = [compile_loop(kernel("daxpy"), qrf4).outcome,
                LoopOutcome("x", "m", 1, 1, 1, 0, 0, 0, 0, 0, 0, 1,
                            failed=True, error="TypeError: boom")]
    for outcome in outcomes:
        result = JobResult(key="k" * 64, outcome=outcome,
                           extras={"a": [1]}, wall_s=0.1234567)
        record = result.to_record()
        assert record["outcome"] == dataclasses.asdict(outcome)
        assert list(record["outcome"]) == \
            list(dataclasses.asdict(outcome))
        assert JobResult.from_record(record, cached=False) == result

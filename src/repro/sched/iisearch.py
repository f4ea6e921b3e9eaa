"""The shared II search driver: linear walk or adaptive bracketing.

Every engine answers the same question per loop: the smallest initiation
interval, from MII up to a limit, at which one attempt succeeds.  The
historical walk probes ``MII, MII+1, MII+2, ...`` -- and since a *failed*
attempt is the expensive kind (IMS and the partitioners burn their whole
placement budget before giving up), a loop whose first feasible II sits
far above MII pays for every infeasible probe in between.

:func:`search_ii` centralises the walk for every scheduler and
partitioner.  Two walks:

* linear (``linear=True``) -- the historical walk, kept as the
  stochastic engines' walk.
* adaptive (the default) -- three phases:

  1. **Near-MII window**: probe ``first_ii .. first_ii + near_window``
     linearly.  The paper's own observation (Fig. 6: II increases are
     "typically of one cycle only") makes this the common case, and over
     the window the probe sequence is *identical* to the linear walk --
     same probes, same order, same returned schedule -- which is what
     keeps the golden fixtures bit-for-bit unchanged.
  2. **Geometric overshoot**: past the window, double the step until an
     II is feasible (or the limit proves infeasible).
  3. **Bisection** down to the smallest feasible II inside the bracket,
     budget-aware: each probe spends one unit of ``probe_budget``, and
     exhausting it mid-bisection falls back to a linear scan of the
     remaining bracket from below -- the conservative walk the bracket
     was trying to avoid, never a worse answer.

Adaptive search assumes feasibility is monotone in II above the near-MII
window (the standard modulo-scheduling assumption; the regression suite
checks linear == adaptive over the full kernel corpus).  Probes are
deterministic functions of ``(loop, machine, II)``, so whichever walk
finds an II produces the identical schedule at that II.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, TypeVar

from repro.obs import trace as _trace

T = TypeVar("T")

#: Linear probes above ``first_ii`` before overshooting.  Covers the
#: paper's "increases of one cycle only" regime probe-for-probe
#: identically to the linear walk.
NEAR_WINDOW = 2

#: Bisection probe allowance; hitting it falls back to the linear scan.
DEFAULT_PROBE_BUDGET = 32


def _traced_probe(probe: Callable[[int], Optional[T]],
                  ) -> Callable[[int], Optional[T]]:
    """Instrument one II attempt per call: span + accept/reject counts."""
    def run(ii: int) -> Optional[T]:
        t0 = time.perf_counter()
        result = probe(ii)
        _trace.trace_time("sched.ii_attempt",
                          time.perf_counter() - t0)
        _trace.trace_count("sched.ii_accepted" if result is not None
                           else "sched.ii_rejected")
        return result
    return run


def search_ii(probe: Callable[[int], Optional[T]],
              first_ii: int, limit: int, *,
              linear: bool = False,
              near_window: int = NEAR_WINDOW,
              probe_budget: int = DEFAULT_PROBE_BUDGET,
              ) -> Optional[tuple[int, T]]:
    """Find the smallest feasible II in ``[first_ii, limit]``.

    *probe* runs one attempt at a fixed II and returns the engine's
    result object (sigma / partition state) or ``None`` on failure; it is
    called at most once per II.  Returns ``(ii, result)`` for the chosen
    II or ``None`` when the range is exhausted (``limit < first_ii``
    included).  ``linear=True`` probes every II from *first_ii* up.
    """
    if limit < first_ii:
        return None
    if _trace.tracing_enabled():
        # wrap outside the walk so the disabled path costs one flag test
        # per *search*, never per probe
        probe = _traced_probe(probe)

    if linear:
        for ii in range(first_ii, limit + 1):
            result = probe(ii)
            if result is not None:
                return ii, result
        return None

    # ---- adaptive: near-MII window, identical to the linear walk -------
    window_top = min(first_ii + near_window, limit)
    for ii in range(first_ii, window_top + 1):
        result = probe(ii)
        if result is not None:
            return ii, result
    if window_top == limit:
        return None

    # ---- geometric overshoot: bracket the first feasible II ------------
    lo = window_top                    # highest II known infeasible
    step = 1
    hi = None                          # lowest II known feasible
    found: Optional[T] = None
    while hi is None:
        cand = min(lo + step, limit)
        result = probe(cand)
        probe_budget -= 1
        if result is not None:
            hi, found = cand, result
        elif cand == limit:
            return None
        else:
            lo = cand
            step *= 2

    # ---- bisection down to the smallest feasible II ---------------------
    while hi - lo > 1:
        if probe_budget <= 0:
            # budget exhausted mid-bisection: finish with the linear walk
            # over the remaining bracket, scanning from below so the
            # answer is never above what bisection would have chosen
            for ii in range(lo + 1, hi):
                result = probe(ii)
                if result is not None:
                    return ii, result
            return hi, found
        mid = (lo + hi) // 2
        result = probe(mid)
        probe_budget -= 1
        if result is not None:
            hi, found = mid, result
        else:
            lo = mid
    return hi, found

"""Naive reference scorer, independent of the package under test.

A plain-list move-to-front stack and eager rate filters: every event
decays every IIR rate, and FIR rates are recounted over the window.
Both cost O(alphabet) or O(window) per event, so they only run on a
prefix of each workload. They check the package's stack depths exactly
and its generation costs within ``LTM_TOLERANCE``, whatever data
structure a later version uses behind the same API.
"""

from __future__ import annotations

import math
from collections import deque

LTM_TOLERANCE = 1e-6


def reference_scores(symbols, estimator="iir", alpha=0.999, window=10000,
                     capacity=None):
    """Yield (novelty, c_stm, c_ltm) per symbol with the default epsilon."""
    stack: list[str] = []
    rates: dict[str, float] = {}
    recent: deque[str] = deque(maxlen=window)
    seen: set[str] = set()
    for events_seen, sym in enumerate(symbols):
        if estimator == "iir":
            w = rates.get(sym, 0.0)
        else:
            w = recent.count(sym) / window
        floor = 1.0 / max(events_seen + len(seen), 1)
        c_ltm = math.log2(1.0 / max(w, floor))

        if sym in stack:
            position = stack.index(sym) + 1
            stack.remove(sym)
            yield False, math.log2(position), c_ltm
        else:
            yield True, math.inf, c_ltm
        stack.insert(0, sym)
        if capacity is not None and len(stack) > capacity:
            stack.pop()

        if estimator == "iir":
            for key in rates:
                rates[key] *= alpha
            rates[sym] = rates.get(sym, 0.0) + (1.0 - alpha)
        else:
            recent.append(sym)
        seen.add(sym)


def mismatches(records, config) -> list[str]:
    """Compare trace records with the reference under an EngineConfig's
    estimator, alpha, window and capacity; return the differences."""
    expected = reference_scores((r.symbol for r in records), config.estimator,
                                config.alpha, config.window, config.capacity)
    problems = []
    for record, (novelty, c_stm, c_ltm) in zip(records, expected):
        if record.novelty != novelty or record.c_stm != c_stm:
            problems.append(
                f"t={record.t}: novelty/c_stm {record.novelty}/{record.c_stm}, "
                f"reference {novelty}/{c_stm}"
            )
        elif abs(record.c_ltm - c_ltm) > LTM_TOLERANCE:
            problems.append(
                f"t={record.t}: c_ltm {record.c_ltm!r}, reference {c_ltm!r}"
            )
        if len(problems) >= 5:
            break
    return problems

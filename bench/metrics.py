"""Statistics the benchmark reports: the tail-percentile rule and span
arithmetic (self time, inclusive time per target, per-layer totals)."""

from __future__ import annotations

import math
from collections import defaultdict

import tracing

MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    """Highest percentile with at least MIN_BEYOND of ``n`` samples beyond it.

    That is the nearest-rank percentile of the (MIN_BEYOND + 1)-th largest
    sample, 100 (n - MIN_BEYOND) / n.  With fewer than 2 MIN_BEYOND samples it
    would fall below the median, which is taken instead.  ``n`` is the number
    of distinct requests in a workload, so the percentile is fixed per
    workload.
    """
    return max(100.0 * (n - MIN_BEYOND) / n, 50.0)


def nearest_rank_index(n: int, p: float) -> int:
    """Index in ascending order of the nearest-rank p-th percentile of n samples."""
    return max(math.ceil(round(p * n / 100.0, 9)) - 1, 0)


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[nearest_rank_index(len(ordered), p)]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    ``spans[i]`` is ``(name, start, end, parent, outermost)`` with parent -1
    for a root.  Children are clipped to the parent and their overlaps merged.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class LayerTotals:
    """Per-layer and per-target sums over the traced requests of a run."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)  # span name or layer -> calls
        self.inclusive = defaultdict(float)  # span name -> outermost-call seconds
        self.self_s = defaultdict(float)  # span name or layer -> self seconds
        self.mul_terms = 0
        self.cache = defaultdict(lambda: [0, 0])  # cache name -> [hits, misses]
        self.absent: set[str] = set()
        self.worst_self_sum_error = 0.0  # max |sum of self times - request time|

    def add_request(self, spans, mul_terms: int, cache_stats: dict, absent) -> tuple[dict, dict]:
        """Fold in one request; return its own per-layer self times and
        per-target inclusive times."""
        selfs = self_times(spans)
        per_layer, per_target = defaultdict(float), defaultdict(float)
        for span, own in zip(spans, selfs):
            name = tracing.NAMES[span[0]]
            layer = tracing.layer_of(name)
            self.calls[name] += 1
            self.calls[layer] += 1
            self.self_s[name] += own
            self.self_s[layer] += own
            per_layer[layer] += own
            if span[4]:
                self.inclusive[name] += span[2] - span[1]
                per_target[name] += span[2] - span[1]
        request_s = spans[0][2] - spans[0][1]
        self.worst_self_sum_error = max(
            self.worst_self_sum_error, abs(sum(per_layer.values()) - request_s)
        )
        self.mul_terms += mul_terms
        for name, (hits, misses) in cache_stats.items():
            self.cache[name][0] += hits
            self.cache[name][1] += misses
        self.absent.update(absent)
        return dict(per_layer), dict(per_target)

    def hit_ratio(self, cache: str) -> float:
        hits, misses = self.cache.get(cache, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

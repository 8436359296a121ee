"""Seeded request generator for the benchmark workloads.

Each workload is a fixed multiset of CLI requests.  The seed decides only the
order of the requests within each pass and which output format each request
asks for, so every seed costs the same work and two seeds are comparable.
Every request is bounded in genus and truncation order, so none can start an
unbounded computation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MAX_GENUS = 16
MAX_TRUNCATION = 200

VARIANTS = ((0, "fixed"), (0, "nonfixed"), (1, "fixed"), (1, "nonfixed"))
FORMATS = ("table", "json", "csv")


def default_truncation(genus: int, degree: int) -> int:
    """The CLI's default ``-N`` at the commit the reference was recorded on."""
    return 6 * genus + 10 if degree == 0 else 12 * genus - 8


@dataclass(frozen=True)
class Spec:
    """One request without its output format; the unit the reference covers.

    ``truncate`` is None when the request leaves ``-N`` to the CLI default.
    """

    subcommand: str
    genus: int
    degree: int
    determinant: str
    truncate: int | None = None

    @property
    def order(self) -> int:
        if self.truncate is None:
            return default_truncation(self.genus, self.degree)
        return self.truncate

    @property
    def key(self) -> str:
        n = "default" if self.truncate is None else str(self.truncate)
        return f"{self.subcommand} g={self.genus} d={self.degree} {self.determinant} N={n}"


@dataclass(frozen=True)
class Request:
    spec: Spec
    fmt: str

    def argv(self) -> list[str]:
        s = self.spec
        argv = [s.subcommand, "-g", str(s.genus), "-d", str(s.degree), "--determinant", s.determinant]
        if s.truncate is not None:
            argv += ["-N", str(s.truncate)]
        return argv + ["-f", self.fmt]


def _grid(subcommand: str, genera, truncate=lambda g, d: None) -> list[Spec]:
    return [
        Spec(subcommand, g, d, det, truncate(g, d)) for g in genera for d, det in VARIANTS
    ]


def _betti_sweep() -> list[Spec]:
    return _grid("betti", range(2, 12))


def _verify_battery() -> list[Spec]:
    return _grid("verify", range(2, 6)) + _grid("strata", range(2, 5))


def _long_order() -> list[Spec]:
    def times(factor):
        return lambda g, d: min(factor * default_truncation(g, d), MAX_TRUNCATION)

    return (
        _grid("betti", (2, 3, 4), times(3))
        + _grid("betti", (2, 3, 4), times(6))
        + _grid("strata", (2,), times(3))
        + _grid("verify", (2,), times(3))
    )


# name -> (function listing the specs, why).  The why names the layer that should do most of the
# workload's work and the layer that should do little; BENCHMARK.json carries
# the same text.
WORKLOADS = {
    "betti-sweep": (
        _betti_sweep,
        "everyday betti query, g=2..11, all variants, default -N: spaces and series "
        "(sym_series BiSeries extraction) do most work; strata runs one "
        "semistable_series; closedforms and verify idle",
    ),
    "verify-battery": (
        _verify_battery,
        "verify g=2..5 and strata g=2..4, all variants, default -N: strata does most "
        "work (stratum_difference rebuilds X_d from X_0) on big integers; closedforms "
        "visible in degree 0",
    ),
    "long-order": (
        _long_order,
        "betti g=2..4 at 3x and 6x the default -N, strata and verify g=2 at 3x: many "
        "strata, long series of small Fractions; series ops dominate, spaces and "
        "closedforms do little",
    ),
}


def specs(workload: str) -> list[Spec]:
    """The workload's request multiset, validated against the bounds."""
    out = WORKLOADS[workload][0]()
    for s in out:
        if not 2 <= s.genus <= MAX_GENUS or not 1 <= s.order <= MAX_TRUNCATION:
            raise ValueError(f"request outside the benchmark bounds: {s.key}")
    return out


def pass_requests(workload: str, seed: int, index: int) -> list[Request]:
    """Pass ``index`` of a run: the workload's specs in seeded order, with the
    output formats rotated from a seeded offset."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    order = specs(workload)
    rng.shuffle(order)
    offset = rng.randrange(len(FORMATS))
    return [Request(s, FORMATS[(i + offset) % len(FORMATS)]) for i, s in enumerate(order)]

"""Outside-in tracer: spans around calls into each layer's public functions.

Nothing under ``src/`` is changed.  In a forked request child, each target is
replaced by a timing wrapper: a module-level function wherever a
``higgsbetti.*`` module holds that same object (``cli`` and ``verify`` import
names directly, so their copies must be rebound too), a ``TruncSeries`` /
``BiSeries`` / ``Poly`` method on its class.  A target that no longer exists
is reported as absent instead of failing the run.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (layer, attribute) pairs; "Class.method" attributes are patched on the class.
TARGETS = (
    ("verify", "run_checks"),
    ("report", "render"),
    ("closedforms", "lemma_direct"),
    ("closedforms", "lemma_closed"),
    ("closedforms", "residue_combination"),
    ("closedforms", "residue_piece"),
    ("closedforms", "bivariate_route"),
    ("closedforms", "corollary_closed_form"),
    ("closedforms", "binomial_extra"),
    ("strata", "moduli_series"),
    ("strata", "semistable_series"),
    ("strata", "stratum_space_series"),
    ("strata", "stratum_difference"),
    ("strata", "kirwan_monotonicity_check"),
    ("strata", "stratification_formula"),
    ("strata", "unstable_sum"),
    ("strata", "unstable_sum_resummed"),
    ("strata", "correction_sum"),
    ("strata", "invariant_part_series"),
    ("spaces", "bg_series"),
    ("spaces", "sym_series"),
    ("spaces", "sym_cover_series"),
    ("spaces", "jacobian_series"),
    ("spaces", "bu1_series"),
    ("series", "expand_rational"),
    ("series", "TruncSeries.__mul__"),
    ("series", "TruncSeries.__add__"),
    ("series", "TruncSeries.__sub__"),
    ("series", "TruncSeries.__rsub__"),
    ("series", "TruncSeries.__neg__"),
    ("series", "TruncSeries.__pow__"),
    ("series", "TruncSeries.inv"),
    ("series", "TruncSeries.shift"),
    ("series", "TruncSeries.truncated"),
    ("series", "BiSeries.__mul__"),
    ("series", "BiSeries.inv"),
    ("series", "Poly.__mul__"),
    ("series", "Poly.__pow__"),
    ("series", "Poly.as_series"),
)

ROOT = "cli.main"
# Span-name index 0 is the request itself, timed by the child around cli.main.
NAMES = (ROOT,) + tuple(f"{layer}.{attr}" for layer, attr in TARGETS)
MUL = "series.TruncSeries.__mul__"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def mul_terms(a, b) -> int:
    """Computed inner-loop size of one ``TruncSeries`` multiply: the
    coefficient pairs (i, j) with i + j <= n at the aligned order n, or n + 1
    for a scalar operand.  Zero coefficients the kernel skips still count."""
    if hasattr(b, "order"):
        n = min(a.order, b.order)
        return (n + 1) * (n + 2) // 2
    return a.order + 1


class Tracer:
    """Span recorder for one request.

    A span is ``(name_index, start, end, parent_index, outermost)``; parent
    -1 marks the root, and ``outermost`` is false when a span of the same
    name is already open (so inclusive times never count a call twice).
    """

    def __init__(self) -> None:
        self.spans: list = [None]  # the root, filled in by close_root()
        self.stack = [0]
        self.active = [0] * len(NAMES)
        self.mul_terms = 0
        self.absent: list[str] = []

    def close_root(self, start: float, end: float) -> None:
        self.spans[0] = (0, start, end, -1, True)

    def wrap(self, index: int, fn):
        spans, stack, active, clock = self.spans, self.stack, self.active, perf_counter

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            outer = not active[index]
            active[index] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                active[index] -= 1
                stack.pop()
                spans[i] = (index, start, end, parent, outer)

        if NAMES[index] == MUL:
            tracer = self

            def traced_mul(a, b):
                tracer.mul_terms += mul_terms(a, b)
                return traced(a, b)

            return _carry(traced_mul, fn)
        return _carry(traced, fn)

    def install(self) -> None:
        """Patch every target in the ``higgsbetti`` modules already imported."""
        modules = [m for n, m in list(sys.modules.items()) if n == "higgsbetti" or n.startswith("higgsbetti.")]
        for index, name in enumerate(NAMES[1:], start=1):
            layer, attr = name.split(".", 1)
            module = sys.modules.get(f"higgsbetti.{layer}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            target = getattr(owner, method, None) if owner is not None else None
            if target is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(index, target)
            if owner_name:
                for key, value in list(vars(owner).items()):
                    if value is target:  # e.g. __rmul__ = __mul__
                        setattr(owner, key, wrapper)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is target:
                            setattr(mod, key, wrapper)


def _carry(wrapper, fn):
    wrapper.__wrapped__ = fn
    for attr in ("cache_info", "cache_clear"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper

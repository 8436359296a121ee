"""Benchmark of the higgsbetti CLI, end to end and layer by layer.

    python3 bench/run.py --workload betti-sweep --seed 1 --seconds 30 --trace 0

A single closed-loop client sends one request at a time through
``higgsbetti.cli.main(argv)``, each in a child forked from a parent that has
imported the program and computed nothing, so every request starts with cold
caches.  A run makes passes over the workload's request list, each in its
own seeded order: as many as fit in ``--seconds`` at the first pass's pace,
and at least five.

Timings are CPU seconds of the request's child, from each request's slowest
repeat in the run.  The machine this was built on is a shared VM.  The host
steals the vCPU at times (a fifth of a busy vCPU's time in one 10 s sample),
which wall time counts and CPU time does not; the program is single-threaded
and CPU-bound, so on an idle machine the two agree.  The CPU speed itself
also flips between states up to 1.7 times apart (the same Fraction loop took
22 ms or 36-39 ms) in stretches of one to thirty seconds, and the fast share
drifts over minutes.  The slowest of five well-separated repeats lands in
the slow state unless all five were fast, so it moves least.  Over ten runs
of ``betti-sweep`` the quartile spread of the summed request wall times was
7.5% of its median taking each request's slowest repeat, 15.6% taking the
median repeat and 17.1% taking the fastest; over five later runs under
heavy steal it was 10% in wall time and 2.7% in CPU time, both taking the
slowest repeat.  ``pass_s`` is the sum over the requests of their slowest
child CPU time (fork to exit, from ``wait4``), and ``request_p50_s`` /
``request_tail_s`` are percentiles over the requests of their slowest
``cli.main`` CPU time.  Wall times are kept in the results file.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (at least three of each) and reports the
per-layer metrics per traced pass, averaged over the traced passes.  The last stdout line is the result
object; the line before it carries the machine, the tail percentile, the
failures and the path of the full results under ``.bench_out/``.  Exit code
2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import client
import metrics
import outputs
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 3  # fresh interpreters before the first pass, and again after each pass
MIN_PASSES = 5  # repeats of every request in an untraced run
MIN_TRACE_PASSES = 3  # rounds of an untraced and a traced pass in a traced run
SELF_SUM_TOLERANCE_S = 1e-6
REQUEST_TIMEOUT_S = 20.0  # 20 times the slowest request's time on the seed code
SETUP_TIMEOUT_S = 20.0
RUN_DEADLINE_S = 135.0  # no request starts later, so a run ends within 180 s

LAYERS = ("cli", "verify", "closedforms", "strata", "spaces", "series", "report")

END_TO_END = (
    ("request_p50_s", "s"),
    ("request_tail_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)

# (metric, kind, target): the target is a span name, a layer, or the cached
# function whose hit ratio is read.  Values are per traced pass.
_MUL = tracing.MUL
PER_LAYER = (
    ("series.mul_calls", "calls", _MUL),
    ("series.mul_s", "inclusive", _MUL),
    ("series.mul_terms", "mul_terms", _MUL),
    ("series.inv_calls", "calls", "series.TruncSeries.inv"),
    ("series.inv_s", "inclusive", "series.TruncSeries.inv"),
    ("series.expand_rational_calls", "calls", "series.expand_rational"),
    ("series.expand_rational_s", "inclusive", "series.expand_rational"),
    ("series.bi_mul_s", "inclusive", "series.BiSeries.__mul__"),
    ("series.bi_inv_s", "inclusive", "series.BiSeries.inv"),
    ("spaces.sym_series_s", "inclusive", "spaces.sym_series"),
    ("spaces.sym_series_calls", "calls", "spaces.sym_series"),
    ("spaces.bg_series_s", "inclusive", "spaces.bg_series"),
    ("strata.semistable_series_s", "inclusive", "strata.semistable_series"),
    ("strata.stratum_space_series_s", "inclusive", "strata.stratum_space_series"),
    ("strata.stratum_difference_calls", "calls", "strata.stratum_difference"),
    ("strata.stratum_difference_s", "inclusive", "strata.stratum_difference"),
    ("strata.kirwan_monotonicity_check_s", "inclusive", "strata.kirwan_monotonicity_check"),
    ("strata.semistable_series.hit_ratio", "hit_ratio", "strata.semistable_series"),
    ("strata.stratum_space_series.hit_ratio", "hit_ratio", "strata.stratum_space_series"),
    ("closedforms.lemma_direct_s", "inclusive", "closedforms.lemma_direct"),
    ("closedforms.lemma_closed_s", "inclusive", "closedforms.lemma_closed"),
    ("closedforms.residue_combination_s", "inclusive", "closedforms.residue_combination"),
    ("closedforms.bivariate_route_s", "inclusive", "closedforms.bivariate_route"),
    ("closedforms.corollary_closed_form_s", "inclusive", "closedforms.corollary_closed_form"),
    ("closedforms.binomial_extra_s", "inclusive", "closedforms.binomial_extra"),
    ("verify.run_checks.self_s", "self", "verify.run_checks"),
    ("report.render_s", "inclusive", "report.render"),
) + tuple(
    (f"{layer}.{kind}", "self" if kind == "self_s" else "calls", layer)
    for layer in LAYERS
    for kind in ("calls", "self_s")
) + (
    ("trace.pass_s", "traced_pass", None),
    ("trace.overhead_frac", "overhead", None),
)
UNITS = {
    "calls": "count",
    "inclusive": "s",
    "self": "s",
    "mul_terms": "computed_terms",
    "hit_ratio": "ratio",
    "traced_pass": "s",
    "overhead": "ratio",
}


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg": os.getloadavg(),
    }


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(repeats: int) -> list[float]:
    """CPU seconds of fresh interpreters that start and import
    ``higgsbetti.cli`` (interpreter start-up included)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(repeats):
        before = _children_cpu()
        subprocess.run(
            [sys.executable, "-c", "import higgsbetti.cli"],
            env=env, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        times.append(_children_cpu() - before)
    return times


class Run:
    """The requests of one run and the timings of every repeat."""

    def __init__(self, workload: str, seed: int, reference: dict, run_start: float, setup: list[float]) -> None:
        self.workload, self.seed, self.reference = workload, seed, reference
        self.setup = setup  # set-up samples, spread over the run so the median sees its whole mix
        self.deadline = run_start + RUN_DEADLINE_S
        self.next_pass = 0
        self.records: list[dict] = []
        self.raw_pass_s: list[float] = []  # wall time of each whole pass, as run
        self.repeats = {False: defaultdict(list), True: defaultdict(list)}  # traced -> key -> outcomes
        self.totals = metrics.LayerTotals()  # over every traced request
        self.span_log: list[dict] = []  # spans of the last traced pass

    def passes(self, budget_s: float, modes: tuple[bool, ...], least: int) -> int:
        """Rounds of one pass per mode (traced or not), alternating so that
        both modes see the same stretch of the machine: max(least, rounds
        that fit in ``budget_s`` at the first round's pace).  No round starts
        after the run deadline."""
        count = max(least, int(budget_s // sum(self._one_pass(traced) for traced in modes)))
        done = 1
        while done < count and time.monotonic() <= self.deadline:
            for traced in modes:
                self._one_pass(traced)
            done += 1
        return done

    def _one_pass(self, traced: bool) -> float:
        requests = workloads.pass_requests(self.workload, self.seed, self.next_pass)
        self.next_pass += 1
        done = []
        start = time.perf_counter()
        for request in requests:
            if time.monotonic() > self.deadline:
                done.append((request, None))
            else:
                done.append((request, client.run_request(request.argv(), traced, REQUEST_TIMEOUT_S)))
        seconds = time.perf_counter() - start
        self.raw_pass_s.append(seconds)
        if traced:
            self.span_log = []
        for request, outcome in done:  # checked after the timed pass
            self._record(request, outcome, traced)
        self.setup += measure_setup(SETUP_REPEATS)
        return seconds

    def _record(self, request, outcome, traced: bool) -> None:
        record = {
            "request": len(self.records),
            "pass": self.next_pass - 1,
            "key": request.spec.key,
            "format": request.fmt,
            "traced": traced,
        }
        self.records.append(record)
        if outcome is None:
            record["failure"] = "not started: run deadline"
            return
        failure = outputs.failure(request, outcome.exit_code, outcome.stdout, self.reference)
        if failure and outcome.error:
            failure += ": " + outcome.error.strip().splitlines()[-1]
        record.update(
            seconds=outcome.seconds,
            cpu_seconds=outcome.cpu_seconds,
            child_cpu=outcome.child_cpu,
            wall=outcome.wall,
            exit_code=outcome.exit_code,
            failure=failure,
            peak_rss_kib=outcome.peak_rss_kib,
            warm_cache_entries=outcome.warm_cache_entries,
        )
        self.repeats[traced][request.spec.key].append((outcome.cpu_seconds, outcome.child_cpu))
        if traced and outcome.spans and outcome.spans[0] is not None:
            record["layer_self_s"], record["target_s"] = self.totals.add_request(
                outcome.spans, outcome.mul_terms, outcome.cache_stats, outcome.absent
            )
            origin = outcome.spans[0][1]
            self.span_log.append({
                "request": record["request"],
                "key": record["key"],
                "spans": [
                    [tracing.NAMES[n], round(s - origin, 7), round(e - origin, 7), p]
                    for n, s, e, p, _ in outcome.spans
                ],
            })

    def pass_s(self, traced: bool) -> float:
        """Sum over the request specs of each one's slowest child CPU time."""
        return sum(max(child for _, child in reps) for reps in self.repeats[traced].values())

    def request_seconds(self) -> list[float]:
        """Each request spec's slowest ``cli.main`` CPU time, untraced."""
        return [max(main for main, _ in reps) for reps in self.repeats[False].values()]


def end_to_end(run: Run) -> tuple[dict, dict]:
    latencies = run.request_seconds()
    tail_p = metrics.tail_percentile(len(latencies))
    values = {
        "request_p50_s": statistics.median(latencies),
        "request_tail_s": metrics.percentile(latencies, tail_p),
        "pass_s": run.pass_s(traced=False),
        "peak_rss_mib": max(r.get("peak_rss_kib", 0) for r in run.records) / 1024,
        "setup_s": statistics.median(run.setup),
    }
    beyond = len(latencies) - metrics.nearest_rank_index(len(latencies), tail_p) - 1
    notes = {"tail_percentile": tail_p, "tail_samples": len(latencies), "tail_samples_beyond": beyond}
    return {name: (values[name], unit) for name, unit in END_TO_END}, notes


def per_layer(run: Run, passes: int) -> dict:
    """Per-layer metrics per traced pass."""
    tot, out = run.totals, {}
    for name, kind, target in PER_LAYER:
        if kind == "calls":
            value = tot.calls[target] / passes
        elif kind == "inclusive":
            value = tot.inclusive[target] / passes
        elif kind == "self":
            value = tot.self_s[target] / passes
        elif kind == "mul_terms":
            value = tot.mul_terms / passes
        elif kind == "hit_ratio":
            value = tot.hit_ratio("higgsbetti." + target)
        elif kind == "traced_pass":
            value = run.pass_s(traced=True)
        else:
            value = run.pass_s(traced=True) / run.pass_s(traced=False) - 1
        out[name] = (value, UNITS[kind])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_start = time.monotonic()
    env_before = environment()
    try:
        if not os.path.isfile(os.path.join(SRC, "higgsbetti", "cli.py")):
            raise ImportError("no higgsbetti package in the checkout")
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
            reference = json.load(handle)
        setup = measure_setup(SETUP_REPEATS)
        sys.path.insert(0, SRC)
        import higgsbetti.cli  # noqa: F401  -- imported, nothing computed
    except (OSError, subprocess.SubprocessError, ImportError) as exc:
        print(f"bench: cannot run the program from {SRC}: {exc}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, reference, run_start, setup)
    if args.trace:
        passes = run.passes(args.seconds, (False, True), MIN_TRACE_PASSES)
        values = per_layer(run, passes)
        notes = {"traced_passes": passes, "absent_targets": sorted(run.totals.absent)}
    else:
        passes = run.passes(args.seconds, (False,), MIN_PASSES)
        values, notes = end_to_end(run)
    self_sum_error = run.totals.worst_self_sum_error

    failures = [r for r in run.records if r.get("failure")]
    warm = sum(r.get("warm_cache_entries", 0) for r in run.records)
    correct = not failures and self_sum_error <= SELF_SUM_TOLERANCE_S
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env_before,
        "loadavg_after": os.getloadavg(),
        "passes": passes,
        "raw_pass_s": run.raw_pass_s,
        "setup_s_samples": setup,
        "failed_frac": len(failures) / len(run.records),
        "warm_cache_entries": warm,
        "worst_self_sum_error_s": self_sum_error,
        **notes,
        "failures": [{k: r.get(k) for k in ("key", "format", "failure")} for r in failures[:10]],
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({**info, "metrics": values, "requests": run.records}, handle, indent=1)
    if run.span_log:
        with gzip.open(stem + ".spans.jsonl.gz", "wt", encoding="utf-8") as handle:
            for entry in run.span_log:
                handle.write(json.dumps(entry) + "\n")
    info["results"] = os.path.relpath(stem + ".json", ROOT)

    for name, (value, unit) in values.items():
        print(f"{args.workload:>15}  {name:<40} {value:>14.6g} {unit}", file=sys.stderr)
    print(f"{args.workload:>15}  {'failed_frac':<40} {info['failed_frac']:>14.6g} ratio", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

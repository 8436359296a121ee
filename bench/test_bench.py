"""Self-tests of the benchmark: python3 -m pytest bench -q"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pickle
import sys
from collections import Counter

import pytest

import client
import metrics
import outputs
import run
import tracing
import workloads

sys.path.insert(0, run.SRC)

import higgsbetti.cli  # noqa: E402
from higgsbetti.strata import semistable_series, stratum_space_series  # noqa: E402

with open(os.path.join(run.HERE, "reference.json"), encoding="utf-8") as _handle:
    REFERENCE = json.load(_handle)


def in_child(fn):
    """Run ``fn`` in a forked child and return its pickled result."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(fn()))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    assert status == 0
    return pickle.loads(data)


# -- the percentile rule for request_tail_s ---------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(5, 50.0), (20, 50.0), (21, 100 * 11 / 21), (32, 68.75), (40, 75.0), (44, 100 * 34 / 44),
     (100, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = metrics.tail_percentile(n)
    assert p == pytest.approx(expected)
    beyond = n - metrics.nearest_rank_index(n, p) - 1
    if p > 50.0:
        assert beyond == metrics.MIN_BEYOND
        # any higher percentile leaves fewer than ten samples beyond it
        assert n - metrics.nearest_rank_index(n, p + 1e-6) - 1 < metrics.MIN_BEYOND
    else:
        assert n <= 2 * metrics.MIN_BEYOND


def test_nearest_rank_percentile_is_a_sample():
    values = list(range(40, 0, -1))  # 1..40, unsorted
    assert metrics.percentile(values, 75.0) == 30  # 10 samples (31..40) beyond
    assert metrics.percentile(values, 50.0) == 20
    assert metrics.percentile([7.0], 99.9) == 7.0


# -- self-time arithmetic on synthetic spans ---------------------------------


def span(start, end, parent):
    return (0, start, end, parent, True)


def test_self_times_of_nested_spans_sum_to_the_root():
    spans = [
        span(0.0, 10.0, -1),  # root
        span(1.0, 4.0, 0),
        span(5.0, 9.0, 0),
        span(6.0, 7.0, 2),  # grandchild
    ]
    assert metrics.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])
    assert sum(metrics.self_times(spans)) == pytest.approx(10.0)


def test_self_times_clip_and_merge_overlapping_children():
    spans = [span(0.0, 6.0, -1), span(1.0, 5.0, 0), span(3.0, 7.0, 0)]
    # children cover [1, 6] of the root once, not 4 + 3 seconds
    assert metrics.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_totals_per_layer_self_times():
    names = {name: i for i, name in enumerate(tracing.NAMES)}
    spans = [
        (0, 0.0, 1.0, -1, True),
        (names["strata.semistable_series"], 0.1, 0.9, 0, True),
        (names["series.TruncSeries.__mul__"], 0.2, 0.5, 1, True),
        (names["series.TruncSeries.__mul__"], 0.6, 0.7, 1, True),
    ]
    totals = metrics.LayerTotals()
    per_layer, per_target = totals.add_request(
        spans, 0, {"higgsbetti.strata.semistable_series": (3, 1)}, []
    )
    assert per_layer == pytest.approx({"cli": 0.2, "strata": 0.4, "series": 0.4})
    assert per_target["series.TruncSeries.__mul__"] == pytest.approx(0.4)
    assert totals.calls["series"] == 2
    assert totals.inclusive["strata.semistable_series"] == pytest.approx(0.8)
    assert totals.worst_self_sum_error == pytest.approx(0.0, abs=1e-12)
    assert totals.hit_ratio("higgsbetti.strata.semistable_series") == 0.75


# -- the three format parsers against real output ----------------------------


def cli_output(request: workloads.Request) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = higgsbetti.cli.main(request.argv())
    return code, buffer.getvalue()


@pytest.mark.parametrize("fmt", workloads.FORMATS)
@pytest.mark.parametrize(
    "spec",
    [
        workloads.Spec("betti", 2, 1, "fixed"),
        workloads.Spec("betti", 3, 0, "nonfixed"),
        workloads.Spec("strata", 2, 1, "fixed", 48),
        workloads.Spec("strata", 2, 0, "nonfixed"),
        workloads.Spec("verify", 3, 0, "fixed"),
    ],
    ids=lambda s: s.key if isinstance(s, workloads.Spec) else s,
)
def test_parsers_read_seed_output(spec, fmt):
    request = workloads.Request(spec, fmt)
    code, text = cli_output(request)
    parsed = outputs.parse(spec.subcommand, fmt, text)
    expected = REFERENCE[spec.key]
    if spec.subcommand == "strata":
        assert parsed.strata == expected["strata"]
        assert list(parsed.strata)[-1] == "bg"
    elif spec.subcommand == "verify":
        assert [name for name, _ in parsed.checks] == expected["checks"]
        assert all(passed for _, passed in parsed.checks)
    if spec.subcommand == "betti" or fmt == "json" and spec.subcommand == "verify":
        assert parsed.coefficients == expected["coefficients"]
    assert outputs.failure(request, code, text, REFERENCE) is None


def test_failure_reports_wrong_coefficients_and_failed_checks():
    request = workloads.Request(workloads.Spec("betti", 2, 1, "fixed"), "csv")
    _, text = cli_output(request)
    assert outputs.failure(request, 0, text.replace("5,34", "5,35"), REFERENCE)
    assert outputs.failure(request, 1, text, REFERENCE) == "exit code 1"
    verify = workloads.Request(workloads.Spec("verify", 3, 0, "fixed"), "table")
    _, text = cli_output(verify)
    assert "checks not PASS" in outputs.failure(verify, 0, text.replace("PASS", "FAIL", 1), REFERENCE)


# -- the reference and its hand-checked genus-2 anchors ----------------------


def test_reference_genus_two_anchors():
    # P_t(M) for g=2, degree 1, fixed determinant: 1 + t^2 + 4t^3 + 2t^4 + 34t^5 + 2t^6
    coefficients = REFERENCE["betti g=2 d=1 fixed N=default"]["coefficients"]
    assert coefficients == [1, 0, 1, 4, 2, 34, 2] + [0] * 10
    # classifying-space row: b_5 = 4
    for key, entry in REFERENCE.items():
        if key.startswith("strata g=2 ") and " fixed " in key:
            assert entry["strata"]["bg"][5] == 4


def test_reference_covers_every_request_the_generator_can_emit():
    keys = {s.key for w in workloads.WORKLOADS for s in workloads.specs(w)}
    assert keys == set(REFERENCE)


# -- the seeded generator ----------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_seed_only_reorders(workload):
    first = workloads.pass_requests(workload, 7, 0)
    assert first == workloads.pass_requests(workload, 7, 0)
    assert [r.argv() for r in first] != [r.argv() for r in workloads.pass_requests(workload, 8, 0)]
    assert first != workloads.pass_requests(workload, 7, 1)
    multiset = Counter(r.spec for r in first)
    for seed in (8, 9):
        assert Counter(r.spec for r in workloads.pass_requests(workload, seed, 0)) == multiset
    assert all(n == 1 for n in multiset.values())
    assert {r.fmt for r in first} == set(workloads.FORMATS)


def test_generator_rejects_unbounded_requests(monkeypatch):
    huge = workloads.Spec("betti", 2, 0, "fixed", workloads.MAX_TRUNCATION + 1)
    monkeypatch.setitem(workloads.WORKLOADS, "huge", (lambda: [huge], "too big"))
    with pytest.raises(ValueError):
        workloads.specs("huge")


# -- cold requests and the tracer --------------------------------------------


def test_caches_filled_by_one_request_are_empty_at_the_next():
    # other tests computed in this process; the benchmark's parent never does
    for cache in client.program_caches().values():
        cache.cache_clear()
    argv = ["strata", "-g", "2", "-d", "0", "--determinant", "fixed", "-N", "12"]
    first = client.run_request(argv, traced=True, timeout=60)
    assert first.exit_code == 0 and first.warm_cache_entries == 0
    hits, misses = first.cache_stats["higgsbetti.strata.semistable_series"]
    assert misses >= 1 and hits >= 1  # the child did fill and use the cache
    second = client.run_request(argv, traced=False, timeout=60)
    assert second.exit_code == 0 and second.warm_cache_entries == 0
    assert semistable_series.cache_info().currsize == 0
    assert stratum_space_series.cache_info().currsize == 0


def test_traced_request_spans_cover_every_layer_and_add_up():
    argv = ["verify", "-g", "2", "-d", "0", "--determinant", "fixed"]
    outcome = client.run_request(argv, traced=True, timeout=60)
    assert outcome.exit_code == 0 and not outcome.absent
    totals = metrics.LayerTotals()
    per_layer, _ = totals.add_request(outcome.spans, outcome.mul_terms, outcome.cache_stats, [])
    assert set(per_layer) == set(run.LAYERS)
    assert sum(per_layer.values()) == pytest.approx(outcome.seconds, abs=1e-9)
    assert outcome.mul_terms > totals.calls["series.TruncSeries.__mul__"] > 0


def test_tracer_rebinds_imported_copies_and_marks_missing_targets_absent():
    def probe():
        import higgsbetti.strata
        import higgsbetti.verify

        del higgsbetti.strata.unstable_sum
        tracer = tracing.Tracer()
        tracer.install()
        rebound = higgsbetti.verify.semistable_series is higgsbetti.strata.semistable_series
        wrapped = higgsbetti.cli.moduli_series.__wrapped__ is not None
        return tracer.absent, rebound, wrapped

    absent, rebound, wrapped = in_child(probe)
    assert absent == ["strata.unstable_sum"]
    assert rebound and wrapped


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.UNITS[kind]) for name, kind, _ in run.PER_LAYER
    ]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: why for name, (_, why) in workloads.WORKLOADS.items()
    }

"""Turns a driver run record (record.hpp) into the benchmark's metrics.

Everything here is plain arithmetic over the record, so it is unit-tested
in test_analysis.py: the percentile rule, span self time, and the digest
check of the modeled results.
"""

import math
import statistics

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK64 = (1 << 64) - 1

POSITIONS = ("gang", "worker", "vector", "gang_worker", "worker_vector",
             "gang_worker_vector", "same_line_gang_worker_vector")
APPS = ("heat", "matmul", "montecarlo")

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "cells_per_s": "1/s",
    "solves_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    units = {
        "service.submit_us_p50": "us",
        "service.submit_us_p99": "us",
        "service.queue_ms_p50": "ms",
        "service.queue_ms_p99": "ms",
        "plan_cache.hits": "count",
        "plan_cache.misses": "count",
        "plan_cache.hit_ratio": "ratio",
        "runner.setup_ms": "ms",
        "executor.self_ms": "ms",
        "executor.first_try_ratio": "ratio",
        "acc.plan_us": "us",
        "gpusim.launch_ms": "ms",
        "gpusim.launch_share": "ratio",
        "gpusim.launches": "count",
        "gpusim.threads": "count",
        "gpusim.barriers": "count",
        "gpusim.gmem_requests": "count",
        "gpusim.smem_requests": "count",
        "gpusim.ns_per_thread": "ns",
        "gpusim.ns_per_request": "ns",
    }
    for pos in POSITIONS:
        units[f"reduce.{pos}.launch_ms"] = "ms"
    for app in APPS:
        units[f"apps.{app}.ms"] = "ms"
        units[f"apps.{app}.launch_ms"] = "ms"
    units["driver.late_p99_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER_UNITS = per_layer_units()

# ---------------------------------------------------------------------------
# Percentiles


def tail_percentile(values, q):
    """The q-quantile by nearest rank, lowered until at least ten samples lie
    beyond it: the highest percentile a sample of this size supports.

    Returns (value, reported quantile, sample count); (0.0, 0.0, 0) for no
    samples, and the minimum when there are ten or fewer.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    k = max(min(math.ceil(q * n) - 1, n - 11), 0)
    return xs[k], (k + 1) / n, n


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# Spans


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover. Children may nest, overlap each other, or
    stick out of the parent; only their union inside the parent counts.

    `spans` is a list of (name, start, end, parent) with parent an index into
    the same list or -1.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        clipped = sorted((max(spans[c][1], start), min(spans[c][2], end))
                         for c in children[i])
        covered = 0
        run_start = run_end = None
        for s, e in clipped:
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out.append(max(end - start, 0) - covered)
    return out


def span_table(items):
    """name -> self times of that span over every traced item."""
    table = {}
    for it in items:
        spans = it["spans"]
        for span, own in zip(spans, self_times(spans)):
            table.setdefault(span[0], []).append(own)
    return table


# ---------------------------------------------------------------------------
# Digests of the modeled results


def fnv1a64(words):
    """FNV-1a over the little-endian bytes of 64-bit words."""
    h = FNV_OFFSET
    for w in words:
        for b in (w & MASK64).to_bytes(8, "little"):
            h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


def item_digest(item):
    return f"{fnv1a64(item['model']):016x}"


def run_digest(items):
    return f"{fnv1a64(int(item_digest(it), 16) for it in items):016x}"


def digest_mismatches(items, table):
    """Indices and messages of items whose modeled results differ from the
    digest recorded for their key."""
    bad = []
    for i, it in enumerate(items):
        want = table.get(it["key"])
        got = item_digest(it)
        if want is None:
            bad.append((i, f"item {i} ({it['key']}): no recorded digest"))
        elif want != got:
            bad.append((i, f"item {i} ({it['key']}): digest {got}, "
                           f"recorded {want}"))
    return bad


# ---------------------------------------------------------------------------
# Metrics


def latency_ms(it):
    """Due-or-issue to result. A failed or refused item misses any limit."""
    if not it["ok"]:
        return math.inf
    return (it["done_ns"] - it["start_ns"]) / 1e6


WINDOWS = 5
# A window's tail needs this many samples, so that it is p90 or higher.
MIN_TAIL_SAMPLES = 100


def windows(items, count=WINDOWS):
    """Split a run into `count` windows of consecutive items: whole passes
    where the workload runs passes (so every window does the same mix of
    work), else equal spans of due-or-issue time."""
    passes = max(it["pass"] for it in items) + 1
    if passes > 0:
        groups = [[] for _ in range(min(count, passes))]
        for it in items:
            groups[it["pass"] * len(groups) // passes].append(it)
        return groups
    end = max(it["start_ns"] for it in items) + 1
    groups = [[] for _ in range(count)]
    for it in items:
        groups[it["start_ns"] * count // end].append(it)
    return [g for g in groups if g]


def rate(items):
    """Verified items per second over the span from the first start to the
    last result."""
    span_s = (max(it["done_ns"] for it in items) -
              min(it["start_ns"] for it in items)) / 1e9
    return sum(1 for it in items if it["ok"]) / span_s


def end_to_end(rec):
    """(metrics {name: value}, notes) of an untraced run. Each timing is the
    median over the run's windows of that window's value, so a host slowdown
    that covers less than half of the run moves no reported figure. The tail
    uses fewer, larger windows when the run is too short for five windows
    of MIN_TAIL_SAMPLES."""
    items = rec["items"]
    parts = windows(items)
    tail_parts = windows(items, max(1, min(WINDOWS,
                                           len(items) // MIN_TAIL_SAMPLES)))
    tails = [tail_percentile([latency_ms(it) for it in w], 0.99)
             for w in tail_parts]
    per_s = median([rate(w) for w in parts])
    metrics = {
        "jobs_per_s": per_s,
        "cells_per_s": per_s,
        "solves_per_s": per_s,
        "job_p50_ms": median([median([latency_ms(it) for it in w])
                              for w in parts]),
        "job_p99_ms": median([t[0] for t in tails]),
        "setup_s": median(rec["setup_s"]),
        "peak_rss_mb": rec["peak_rss_kb"] / 1024.0,
    }
    sizes = [len(w) for w in parts]
    tail_sizes = [t[2] for t in tails]
    lowest = 100 * min(t[1] for t in tails)
    last_s = max(it["done_ns"] for it in items) / 1e9
    notes = [
        f"items: {len(items)} in {last_s:.3f} s",
        f"jobs_per_s, job_p50_ms: medians over {len(parts)} windows of "
        f"{min(sizes)}-{max(sizes)} items",
        f"job_p99_ms: median over {len(tails)} windows of {min(tail_sizes)}-"
        f"{max(tail_sizes)} items of each window's p99, or of the highest "
        f"percentile with >= 10 samples beyond it (lowest used: "
        f"p{lowest:.2f})",
        f"setup_s: median of {len(rec['setup_s'])} set-ups",
    ]
    return metrics, notes


def per_layer(rec):
    """(metrics {name: value}, notes) of a traced run. Counters and returned
    timings come from every item; self times from the traced items' spans.
    A layer the workload never enters reads 0."""
    items = rec["items"]
    ran = [it for it in items if it["wall_ms"] > 0]
    lookups = [it for it in items if it["cache_hit"] >= 0]
    hits = sum(it["cache_hit"] for it in lookups)
    launched = [it for it in items if it["launch_ns"] > 0]
    spans = span_table([it for it in items if it["traced"]])

    def self_ms(name):
        return mean(spans.get(name, [])) / 1e6

    submit_us = [(it["issue_end_ns"] - it["issue_ns"]) / 1e3
                 for it in items if it["issue_end_ns"] > 0]
    queue_ms = [it["queue_ms"] for it in lookups]
    plan_us = [(it["plan_end_ns"] - it["issue_ns"]) / 1e3
               for it in items if it["plan_end_ns"] > 0]
    if lookups:  # service jobs: the worker's execute span
        host_ns = [(it["service_ms"] - it["queue_ms"]) * 1e6 for it in lookups]
    else:
        host_ns = [it["done_ns"] - it["issue_ns"] for it in items]
    launch_ns = sum(it["launch_ns"] for it in items)
    threads = sum(it["threads"] for it in items)
    requests = sum(it["gmem_requests"] + it["smem_requests"] for it in items)

    m = {
        "service.submit_us_p50": median(submit_us),
        "service.submit_us_p99": tail_percentile(submit_us, 0.99)[0],
        "service.queue_ms_p50": median(queue_ms),
        "service.queue_ms_p99": tail_percentile(queue_ms, 0.99)[0],
        "plan_cache.hits": hits,
        "plan_cache.misses": len(lookups) - hits,
        "plan_cache.hit_ratio": hits / len(lookups) if lookups else 0.0,
        "runner.setup_ms": self_ms("service.execute") +
                           self_ms("runner.run_planned"),
        "executor.self_ms": self_ms("executor"),
        "executor.first_try_ratio":
            (sum(1 for it in ran if it["ok"] and it["attempts"] == 1) /
             len(ran) if ran else 0.0),
        "acc.plan_us": mean(plan_us),
        "gpusim.launch_ms": mean([it["launch_ns"] for it in launched]) / 1e6,
        "gpusim.launch_share": launch_ns / sum(host_ns) if host_ns else 0.0,
        "gpusim.launches": sum(it["kernels"] for it in items),
        "gpusim.threads": threads,
        "gpusim.barriers": sum(it["barriers"] for it in items),
        "gpusim.gmem_requests": sum(it["gmem_requests"] for it in items),
        "gpusim.smem_requests": sum(it["smem_requests"] for it in items),
        "gpusim.ns_per_thread": launch_ns / threads if threads else 0.0,
        "gpusim.ns_per_request": launch_ns / requests if requests else 0.0,
    }
    for pos in POSITIONS:
        m[f"reduce.{pos}.launch_ms"] = mean(
            [it["launch_ns"] for it in launched if it["kind"] == pos]) / 1e6
    for app in APPS:
        mine = [it for it in items if it["kind"] == app]
        m[f"apps.{app}.ms"] = mean(
            [it["done_ns"] - it["issue_ns"] for it in mine]) / 1e6
        m[f"apps.{app}.launch_ms"] = mean(
            [it["launch_ns"] for it in mine]) / 1e6
    late, q, n = tail_percentile([it["lag_ns"] / 1e6 for it in items], 0.99)
    m["driver.late_p99_ms"] = late
    traced = [latency_ms(it) for it in items if it["traced"]]
    untraced = [latency_ms(it) for it in items if not it["traced"]]
    m["trace.overhead_ratio"] = (mean(traced) / mean(untraced)
                                 if traced and untraced else 1.0)
    notes = [
        f"traced items: {len(traced)} of {len(items)}; "
        f"spans: {sum(len(it['spans']) for it in items)}",
        f"driver.late_p99_ms: p{100 * q:.2f} of {n} samples",
    ]
    return m, notes

"""Statistics and metric reduction for the end-to-end benchmark.

ftc_perfbench prints the raw samples of one run; this module turns them
into the metrics named in BENCHMARK.json. Everything here is a pure
function of the raw report, so test_stats.py can check it without
building or running anything.
"""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; otherwise the next lower rung of TAIL_LADDER is used.
MIN_BEYOND = 10
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

WORKLOADS = ("oneshot_udg", "distributed_udg", "churn_udg")

# Per-layer span metrics: metric name -> (span name, scale to the unit).
# Each value is the span's mean self time per call.
SPAN_METRICS = {
    "geom.build_udg_s": ("geom.build_udg", 1.0),
    "algo.lp.solve_s": ("algo.lp.solve", 1.0),
    "algo.rounding.round_s": ("algo.rounding.round", 1.0),
    "algo.udg.solve_s": ("algo.udg.solve", 1.0),
    "algo.baseline.greedy_s": ("algo.baseline.greedy", 1.0),
    "domination.verify_dense_s": ("domination.verify_dense", 1.0),
    "domination.verify_sparse_s": ("domination.verify_sparse", 1.0),
    "domination.verify_open_s": ("domination.verify_open", 1.0),
    "sim.network.setup_s": ("sim.network.setup", 1.0),
    "sim.network.lp_run_s": ("sim.network.lp_run", 1.0),
    "sim.network.rounding_run_s": ("sim.network.rounding_run", 1.0),
    "sim.network.alg3_run_s": ("sim.network.alg3_run", 1.0),
    "sim.network.readback_s": ("sim.network.readback", 1.0),
    "sim.network.teardown_s": ("sim.network.teardown", 1.0),
    "sim.mutation.apply_us": ("sim.mutation.apply", 1e6),
    "algo.extensions.maintain_us": ("algo.extensions.maintain", 1e6),
}

# Per-layer values ftc_perfbench reports directly (counts, allocation
# rates, engine phase shares), under the same name.
VALUE_METRICS = (
    "algo.lp.allocs",
    "sim.network.allocs_per_round",
    "sim.engine.compute_share",
    "sim.engine.deliver_count_share",
    "sim.engine.deliver_place_share",
    "sim.engine.barrier_wait_share",
    "sim.engine.claim_stall_share",
    "sim.engine.imbalance_max",
    "sim.network.messages",
    "sim.network.words",
    "sim.network.max_message_words",
    "sim.mutation.allocs_per_mut",
    "algo.extensions.allocs_per_mut",
    "algo.extensions.ball2_per_mut",
    "algo.extensions.changed_per_mut",
    "algo.extensions.promoted_per_mut",
)

# Quality guardrails and paper cost counts: deterministic for a seed.
# Metric name -> value name in the raw report.
QUALITY_METRICS = {
    "quality.lp_set_per_node": "lp_set_per_node",
    "quality.alg3_set_per_node": "alg3_set_per_node",
    "quality.greedy_set_per_node": "greedy_set_per_node",
    "quality.members_per_node": "members_per_node",
    "sim.network.rounds": "dist_rounds",
    "sim.network.words_per_node": "dist_words_per_node",
}


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def percentile(values, p):
    """Nearest-rank p-th percentile: the smallest sample with at least p% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count, p):
    """Samples strictly above the nearest-rank p-th percentile position."""
    return count - max(1, math.ceil(p / 100.0 * count))


def tail(values):
    """The highest percentile on TAIL_LADDER (so at most p99) with at least
    MIN_BEYOND samples beyond it, as (percentile, value), or None when even
    the median has too few samples beyond it."""
    for p in TAIL_LADDER:
        if beyond(len(values), p) >= MIN_BEYOND:
            return p, percentile(values, p)
    return None


def sweep_relative_rate(work_per_chunk, chunk_seconds, sweep_seconds):
    """Work per reference-sweep time: for each chunk, its fixed work times
    the time of the reference sweep run just before it over the chunk's
    time; the median over chunks. The sweep slows with the host, so the
    ratio follows the program, not the host."""
    if work_per_chunk <= 0:
        raise ValueError("work per chunk must be positive")
    if not chunk_seconds or len(chunk_seconds) != len(sweep_seconds):
        raise ValueError("need one sweep time per chunk")
    return median([work_per_chunk * s / c
                   for c, s in zip(chunk_seconds, sweep_seconds)])


def end_to_end(raw):
    """The end-to-end metrics of an untraced run.

    A chunk is the workload's unit of fixed work (see README.md): one round
    of the three one-shot algorithms (3n clustered nodes), one distributed
    Alg 1->2 + Alg 3 run (2n clustered nodes), or 1000 consecutive
    churn batches (1000 mutations). Each chunk follows one reference sweep.
    """
    series = raw["series"]
    values = raw["values"]
    return {
        "setup_s": median(series["setup_s"]),
        "peak_rss_mb": values["peak_rss_kb"] / 1024.0,
        "work_per_sweep": sweep_relative_rate(
            values["chunk_work"], series["chunk_s"], series["sweep_s"]),
        "set_per_node": values["set_per_node"],
    }


def per_layer(raw):
    """The per-layer metrics of a traced run. Every workload reports every
    metric; a layer the workload never calls reports 0."""
    spans = raw["spans"]
    values = raw["values"]
    series = raw["series"]
    out = {}
    for name, (span, scale) in SPAN_METRICS.items():
        s = spans.get(span)
        out[name] = s["self_s"] / s["calls"] * scale if s and s["calls"] else 0.0
    for name in VALUE_METRICS:
        out[name] = float(values.get(name, 0.0))
    for name, key in QUALITY_METRICS.items():
        out[name] = float(values.get(key, 0.0))
    ops = series["op_s"]
    out["op_p50_ms"] = median(ops) * 1e3
    p, value = tail(ops) or (0.0, 0.0)
    out["op_tail_ms"] = value * 1e3
    out["op_tail_pct"] = p
    op = spans.get("op")
    for w in WORKLOADS:
        attributed = overhead = 0.0
        if w == raw["workload"] and op and op["total_s"] > 0:
            attributed = 1.0 - op["self_s"] / op["total_s"]
            overhead = median(series["traced.op_s"]) / median(series["op_s"]) - 1.0
        out[w + ".attributed_share"] = attributed
        out[w + ".trace_overhead"] = overhead
    return out


def result(raw, trace, units):
    """The benchmark's last output line as a dict. `units` maps each metric
    name to its unit from BENCHMARK.json."""
    values = per_layer(raw) if trace else end_to_end(raw)
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    return {
        "correct": raw["failed"] == 0 and not raw["errors"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }

"""End-to-end metrics of an untraced window, per-layer metrics of a traced one.

Per-layer times are self time per call (or per decode step where the name
says so). Counts and ratios are read from the reports' per-step records of
the traced window. A layer that does no work on a workload reads 0.
README.md defines each metric per workload and maps each layer metric to the
end-to-end metric it should move.
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

from workloads import Window

BLOCKS = 5


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def block_quantile(samples: list[float], q: float) -> float:
    """Median over ``BLOCKS`` consecutive blocks of the samples of each
    block's ``q`` quantile, so one burst of host noise moves one block only."""
    blocks = np.array_split(np.asarray(samples, dtype=np.float64), min(BLOCKS, len(samples)))
    return float(np.median([np.quantile(b, q) for b in blocks]))


def end_to_end(workload, window: Window, setup_s: float, normalized: bool = True) -> dict:
    """End-to-end figures; host-normalized unless ``normalized`` is false."""
    seconds = window.norm_s if normalized else window.wall_s
    return {
        "tokens_per_s": (window.tokens / seconds, "tokens/s"),
        "walks_per_s": ((window.walks or window.steps) / seconds, "1/s"),
        "step_us_p50": (block_quantile(window.step_us(normalized), 0.50), "us"),
        "tokens_per_step": (workload.tokens_per_step(window), "tokens"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def step_us_p99(window: Window) -> float:
    """As measured: a burst of host interference moves it by a third between
    runs of the same code, so it is a diagnostic and not a bounded metric."""
    return block_quantile(window.step_us(normalized=False), 0.99)


def _late_over_early(window: Window) -> tuple[float, int]:
    """Step p50 over each session's last fifth divided by its first fifth."""
    early, late = [], []
    for u in window.units:
        steps = u.scaled_steps()
        fifth = len(steps) // 5
        if fifth:
            early.extend(steps[:fifth])
            late.extend(steps[-fifth:])
    if not early:
        return 0.0, 0
    return quantile(late, 0.5) / quantile(early, 0.5), len(early) + len(late)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(reference: Window, traced: Window, spans: dict, setup_parts: list[dict], host_ms: float) -> dict:
    # span times are measured; scale them like the traced window's units
    scale = traced.norm_s / traced.wall_s

    def self_us(name: str) -> float:
        span = spans.get(name)
        return scale * span.self_ns / 1e3 / span.calls if span and span.calls else 0.0

    def calls(name: str) -> int:
        span = spans.get(name)
        return span.calls if span else 0

    def work(name: str) -> int:
        span = spans.get(name)
        return span.work if span else 0

    steps = traced.steps
    # host probes run from the step observer, inside decode_session's span
    paused_us = sum(u.paused_s for u in traced.units) * 1e6

    def total(key: str) -> int:
        return sum(s.sums[key] for s in traced.sessions)

    candidates = total("tree_candidates")
    ratio, samples = _late_over_early(reference)

    session = spans.get("engine.decode_session")
    walks = work("_kernels.stochastic_trials")
    unit_ref = reference.walks or reference.steps
    unit_traced = traced.walks or traced.steps

    def setup_median(key: str) -> float:
        values = [p[key] for p in setup_parts if key in p]
        return statistics.median(values) if values else 0.0

    return {
        "drafttree.expand_layer_us": (self_us("drafttree.expand_layer"), "us"),
        "drafttree.layers_per_step": (_ratio(calls("drafttree.expand_layer"), steps), "count"),
        "drafttree.select_retained_us": (self_us("drafttree.select_retained"), "us"),
        "drafttree.resolve_stage_self_us": (self_us("drafttree.resolve_stage"), "us"),
        "verify.node_distributions_us": (self_us("verify.node_distributions"), "us"),
        "models.rows_per_step": (_ratio(candidates + steps, steps), "count"),
        "step_us_p99": (step_us_p99(reference), "us"),
        "engine.step_us_late_over_early": (ratio, "ratio"),
        "engine.step_us_late_over_early_samples": (samples, "count"),
        "retrieval.update_us": (self_us("retrieval.update"), "us"),
        "retrieval.rows_written_per_step": (_ratio(work("retrieval.update"), steps), "count"),
        "retrieval.instantiate_us": (self_us("retrieval.instantiate"), "us"),
        "retrieval.fill_ratio": (_ratio(total("realized"), total("declared")), "ratio"),
        "hybrid.build_us": (self_us("hybrid.build"), "us"),
        "hybrid.retrieved_share": (_ratio(total("n_retrieved"), candidates), "ratio"),
        "verify.greedy_us": (self_us("verify.greedy"), "us"),
        "verify.stochastic_us": (self_us("verify.stochastic"), "us"),
        "verify.accept_ratio": (_ratio(total("accepted_len"), candidates), "ratio"),
        "_kernels.stochastic_trials_us_per_walk": (
            _ratio(scale * spans["_kernels.stochastic_trials"].self_ns / 1e3, walks) if walks else 0.0,
            "us",
        ),
        "config.load_run_config_s": (setup_median("config.load_run_config_s"), "s"),
        "retrieval.warmup_s": (setup_median("retrieval.warmup_s"), "s"),
        "engine.build_next_tree_self_us": (self_us("engine.build_next_tree"), "us"),
        "engine.step_self_us": (_ratio(scale * (session.self_ns / 1e3 - paused_us), steps) if session else 0.0, "us"),
        "engine.steps_traced": (steps, "count"),
        "tracing_overhead": (
            _ratio(traced.norm_s / unit_traced, reference.norm_s / unit_ref) - 1.0 if unit_ref and unit_traced else 0.0,
            "ratio",
        ),
        "host.probe_ms": (host_ms, "ms"),
    }

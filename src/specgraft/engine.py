"""Decode loop, cost model, metrics, calibration, ablations, theory checks.

One decode session is a strict loop: build the next candidate tree for the
configured method, verify it against the target, commit the emitted
tokens, refresh the transition matrix from every verified node, and
account costs. Greedy sessions are fully deterministic in their inputs.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from . import _kernels
from .drafttree import (
    ORIGIN_DRAFT,
    HybridTree,
    PruneConfig,
    _envelope,
    expand_full,
    resolve_stage,
    select_retained,
    stage_label,
)
from .errors import AnalysisError, ConfigError, InputError
from .hybrid import draft_only, merge, rank_cut, tail_anchor
from .models import MarkovTableModel
from .retrieval import (
    COLD,
    TEMPLATE_DEPTH_COUNTS,
    StageTemplate,
    TransitionMatrix,
    builtin_templates,
    filter_template,
    instantiate,
    new_matrix,
    template_prefix,
    warmup,
    write_rows,
)
from .verify import verify_greedy, verify_stochastic

METHODS = ("autoregressive", "dense", "prune_only", "fixed_split", "graft", "graft_root", "graft_tail")
TREE_METHODS = METHODS[1:]
ACCEPTANCE_MODES = ("greedy", "stochastic")


@dataclass(frozen=True)
class CostModel:
    """Analytical per-step costs standing in for wall-clock time."""

    t_ar: float = 1.0
    draft_layer_cost: float = 0.18
    verify_base: float = 0.55
    verify_per_node: float = 0.004
    retrieval_cost: float = 0.0  # off the critical path by default (overlapped)
    overhead_cost: float = 0.02  # merge + rebuild + matrix update

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ConfigError(f"cost.{f.name} must be >= 0, got {getattr(self, f.name)}")
        # every step runs the target once, so the proxy's denominators stay positive
        for name in ("t_ar", "verify_base"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"cost.{name} must be > 0, got {getattr(self, name)}")

    def step_cost(self, layers_drafted: int, tree_candidates: int) -> float:
        return (
            self.draft_layer_cost * layers_drafted
            + self.verify_base
            + self.verify_per_node * tree_candidates
            + self.retrieval_cost
            + self.overhead_cost
        )


@dataclass(frozen=True)
class DecodeConfig:
    method: str = "graft"
    prune: PruneConfig = field(default_factory=PruneConfig)
    max_new_tokens: int = 64
    acceptance: str = "greedy"
    seed: int = 0
    updates_enabled: bool = True
    prefill_update: bool = True
    fixed_split: tuple[int, int] = (24, 36)
    root_branch_size: int = 20
    tail_chain_len: int = 8
    cost: CostModel = field(default_factory=CostModel)
    end_token: int | None = None
    dense_replay: bool = False
    template_filter: tuple[int | None, int | None] | None = None  # (max_depth, max_rank)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.acceptance not in ACCEPTANCE_MODES:
            raise ConfigError(f"unknown acceptance mode {self.acceptance!r}")
        if self.max_new_tokens < 1:
            raise ConfigError(f"decode.max_new_tokens must be >= 1, got {self.max_new_tokens}")
        for name in ("root_branch_size", "tail_chain_len"):
            if getattr(self, name) < 0:
                raise ConfigError(f"decode.{name} must be >= 0, got {getattr(self, name)}")
        kd, kr = self.fixed_split
        if kd < 0 or kr < 0:
            raise ConfigError(f"decode.fixed_split halves must be >= 0, got {kd}+{kr}")
        if self.method == "fixed_split" and kd + kr != self.prune.total_budget:
            raise ConfigError(
                f"decode.fixed_split {kd}+{kr} must equal prune.total_budget {self.prune.total_budget}"
            )
        # graft fills the slots a failed gate at checkpoint d frees from the builtin template "d<d>"
        missing = [d for d in self.prune.checkpoints if stage_label(d) not in TEMPLATE_DEPTH_COUNTS]
        if self.method == "graft" and missing:
            staged = ", ".join(name for name in TEMPLATE_DEPTH_COUNTS if name != "full")
            raise ConfigError(
                f"prune.checkpoints {missing} have no graft template; method graft needs stages among {staged}"
            )

    @cached_property
    def templates(self) -> Mapping[str, StageTemplate]:
        """The template a step grafts, by the stage label it grafts at,
        chosen once per config. ``graft`` grafts the builtin template of each
        gate's stage; ``fixed_split`` and ``graft_root`` graft at stage
        ``none`` the builtin of their branch size, else a prefix of ``full``,
        each restricted by ``template_filter`` first; ``graft_tail`` grafts
        the rank-0 chain, cut to the budget; the other methods graft nothing.
        """
        if self.method == "graft_tail":
            n = min(self.tail_chain_len, self.prune.total_budget)  # ``merge`` would drop the rest
            chain = StageTemplate(np.arange(-1, n - 1, dtype=np.int32), np.zeros(n, dtype=np.int32))
            return {stage_label(None): chain}
        if self.method not in ("graft", "fixed_split", "graft_root"):
            return {}
        templates = builtin_templates()
        if self.template_filter is not None:
            max_depth, max_rank = self.template_filter
            templates = {
                name: filter_template(t, max_depth=max_depth, max_rank=max_rank) for name, t in templates.items()
            }
        if self.method == "graft":
            return {label: templates[label] for label in map(stage_label, self.prune.checkpoints)}
        size = self.fixed_split[1] if self.method == "fixed_split" else self.root_branch_size
        sized = [t for t in templates.values() if t.declared_size == size]
        return {stage_label(None): sized[0] if sized else template_prefix(templates["full"], size)}


@dataclass
class DecodeReport:
    mat: float
    steps_count: int
    tokens_emitted: int
    stage_histogram: dict[str, int]
    cost_total: float
    speedup_proxy: float
    tradeoff_ratio: float | None
    regret_estimate: float | None
    coverage_gain_mean: float | None
    realized_retrieval_fill: float | None
    overpruning_rate_estimates: dict[str, float]
    max_tree_candidates: int
    steps: list[dict] = field(metadata={"per_step": True})

    def to_dict(self, include_steps: bool = True) -> dict:
        """Every field; without ``include_steps``, only the session totals."""
        return {f.name: getattr(self, f.name) for f in fields(self) if include_steps or not f.metadata.get("per_step")}


@dataclass
class CalibrationResult:
    thresholds: dict[int, float]
    objective_trace: list[tuple[dict[int, float], float]]


def build_next_tree(
    config: DecodeConfig,
    draft: MarkovTableModel,
    matrix: TransitionMatrix,
    committed,
    *,
    before_read=None,
) -> tuple[HybridTree, dict]:
    """Next candidate tree for the configured method, plus build metadata.

    The draft tree is cut to the method's rank cut; when the config has a
    template at the step's stage, the branch read from the matrix along it
    is merged in: at the root, or for ``graft_tail`` below the cut's best
    deepest leaf. ``before_read``, when given, is called right before that
    read, so a caller that defers its matrix writes can apply them there.
    """
    prune = config.prune
    method = config.method
    budget = limit = prune.total_budget  # the rank cut of the draft tree
    if method in ("prune_only", "graft"):
        tree, decision = resolve_stage(draft, committed, prune, budget)
        info = {
            "stage": stage_label(decision.stage),
            "layers_drafted": decision.layers_drafted,
            "confidence_trace": {str(d): c for d, c in decision.confidence_trace.items()},
        }
        limit = prune.draft_budget(decision.stage)
    elif method in TREE_METHODS:
        info = {"stage": stage_label(None), "layers_drafted": prune.max_depth, "confidence_trace": {}}
        if method == "fixed_split":
            limit = config.fixed_split[0]
        elif method == "graft_tail":
            limit = max(budget - config.tail_chain_len, 0)
        tree = expand_full(draft, committed, prune, limit)
    else:
        raise ConfigError(f"method {method!r} does not build trees")

    template = config.templates.get(info["stage"])
    if template is None:
        return rank_cut(tree, limit), info
    at = 0
    if method == "graft_tail":
        retained = select_retained(tree, limit)
        at = tail_anchor(tree, retained)
    if before_read is not None:
        before_read()
    tokens = instantiate(matrix, template, int(tree.tokens[at]))
    if method != "graft_tail":
        realized = int(np.count_nonzero(tokens != COLD))
        if method == "graft_root":  # the realized branch evicts draft nodes
            limit = max(budget - realized, 0)
        retained = select_retained(tree, limit)
        info["declared"] = template.declared_size
        info["realized"] = realized
    return merge(tree, retained, budget, at, template.parents, tokens), info


def coverage_gain(root_dist: np.ndarray, draft_tokens, retrieved_tokens) -> float:
    """Target mass of retrieved frontier tokens absent from the draft siblings."""
    draft_set = {int(t) for t in draft_tokens}
    seen = set()
    gain = 0.0
    for t in retrieved_tokens:
        t = int(t)
        if t not in draft_set and t not in seen:
            gain += float(root_dist[t])
            seen.add(t)
    return gain


def _root_frontier(hy: HybridTree) -> tuple[list[int], list[int]]:
    """The drafted and the retrieved tokens of the root's children, nodes
    1 .. ``ptr[1]`` in breadth-first storage."""
    end = int(hy.child_ptr[1]) + 1
    drafted, retrieved = [], []
    for token, origin in zip(hy.tokens[1:end].tolist(), hy.origin[1:end].tolist()):
        (drafted if origin == ORIGIN_DRAFT else retrieved).append(token)
    return drafted, retrieved


def _dense_union_replay(
    config: DecodeConfig,
    target: MarkovTableModel,
    draft: MarkovTableModel,
    committed,
    method_tree: HybridTree,
) -> int:
    """Greedy accepted length of (dense top-budget) UNION (method tree).

    The union keeps the method tree a subset of the replay tree, so replay
    acceptance is a per-step upper bound (subset monotonicity); nothing
    from the replay is ever committed. Method-tree nodes enter as retrieved
    nodes: greedy verification reads no origin label.
    """
    prune = config.prune
    tree = expand_full(draft, committed, prune, prune.total_budget)
    budget = prune.total_budget + method_tree.n_candidates
    retained = select_retained(tree, prune.total_budget)
    union = merge(tree, retained, budget, 0, method_tree.parents[1:] - 1, method_tree.tokens[1:])
    return verify_greedy(target, committed, union).accepted_len


def decode_session(
    config: DecodeConfig,
    target: MarkovTableModel,
    draft: MarkovTableModel,
    matrix: TransitionMatrix,
    prompt,
    tree_observer=None,
) -> tuple[list[int], DecodeReport]:
    """Run one decode session; returns (new tokens, report).

    When updates are enabled, the matrix is refreshed from every verified
    node and from the prompt prefill; an autoregressive step verifies the
    root-only tree. The writes are collected in one ``{token: target row
    id}`` dict, the last writer winning, and applied by
    :func:`retrieval.write_rows` right before the session reads the matrix
    and when it ends, also by an exception. So the matrix is what per-step
    writes would leave at every read and at return, but not between steps:
    a ``tree_observer`` that inspects it mid-session sees it lag.
    """
    if target.vocab.size != draft.vocab.size or target.vocab.size != matrix.vocab_size:
        raise ConfigError("target, draft and matrix must share one vocabulary")
    committed = [int(t) for t in prompt]
    if not committed:
        raise InputError("prompt must be nonempty")
    for t in committed:
        if not 0 <= t < target.vocab.size:
            raise InputError(f"prompt token {t} out of range")

    rng = np.random.default_rng(config.seed)
    cost = config.cost

    # no model reads more than the last ``width`` tokens
    width = max(target.order, 1)
    pending: dict[int, int] = {}  # writes not yet applied; at most one per vocab token

    def flush():
        if pending:
            write_rows(matrix, pending, target)
            pending.clear()

    steps: list[dict] = []
    remaining = config.max_new_tokens
    prompt_len = len(committed)
    stop = False
    try:
        if config.updates_enabled and config.prefill_update:
            # prompt token i is a node whose parent is token i - 1, below the empty context
            codes = [0]
            target.extend_codes(codes, range(len(committed)), committed)
            pending.update(zip(committed, target.row_ids(codes[1:])))

        while remaining > 0 and not stop:
            if config.method == "autoregressive":
                # the root-only tree's verification: its argmax, or a draw from its row
                ids = target.row_ids([target.code_of(committed[-width:])])
                if config.acceptance == "greedy":
                    token = int(target.topk(ids, 1)[0, 0])
                else:
                    row = target.rows[ids[0]]
                    token = _kernels._draw(row.cumsum().tolist(), row, rng.random())
                if config.updates_enabled:
                    pending[committed[-1]] = ids[0]
                emitted = [token]
                record = {
                    "stage": stage_label(None),
                    "layers_drafted": 0,
                    "tree_candidates": 0,
                    "n_draft": 0,
                    "n_retrieved": 0,
                    "accepted_len": 0,
                    "cost": cost.t_ar,
                    "confidence_trace": {},
                }
            else:
                hy, info = build_next_tree(config, draft, matrix, committed, before_read=flush)
                if tree_observer is not None:
                    tree_observer(len(steps), hy)
                if config.acceptance == "greedy":
                    outcome = verify_greedy(target, committed, hy)
                else:
                    outcome = verify_stochastic(target, committed, hy, rng)
                n_draft, n_retrieved = hy.counts_by_origin()
                record = dict(
                    info,
                    tree_candidates=hy.n_candidates,
                    n_draft=n_draft,
                    n_retrieved=n_retrieved,
                    accepted_len=outcome.accepted_len,
                    cost=cost.step_cost(info["layers_drafted"], hy.n_candidates),
                )
                if n_retrieved > 0:
                    drafted_tokens, retrieved_tokens = _root_frontier(hy)
                    root_row = target.rows[outcome.row_ids[0]]
                    record["coverage_gain"] = coverage_gain(root_row, drafted_tokens, retrieved_tokens)
                if config.dense_replay and config.acceptance == "greedy":
                    record["replay_accepted_len"] = _dense_union_replay(config, target, draft, committed, hy)
                if config.updates_enabled:
                    pending.update(zip(hy.tokens.tolist(), outcome.row_ids))
                emitted = outcome.emitted_tokens

            emitted = emitted[:remaining]
            if config.end_token is not None and config.end_token in emitted:
                emitted = emitted[: emitted.index(config.end_token) + 1]
                stop = True
            committed.extend(emitted)
            remaining -= len(emitted)
            record["emitted"] = emitted
            steps.append(record)
    finally:
        flush()

    report = compute_metrics(steps, cost)
    return committed[prompt_len:], report


def compute_metrics(steps: list[dict], cost: CostModel, dense_report: DecodeReport | None = None) -> DecodeReport:
    """Aggregate a session trace into a report.

    MAT counts every emitted token (bonus included), so the speedup proxy
    ``mat * t_ar * steps / cost_total`` equals ``t_ar * tokens / cost``.
    """
    if not steps:
        raise AnalysisError("empty session trace")
    tokens = sum(len(s["emitted"]) for s in steps)
    cost_total = float(sum(s["cost"] for s in steps))
    mat = tokens / len(steps)
    proxy = mat * cost.t_ar * len(steps) / cost_total

    histogram = Counter(s["stage"] for s in steps)
    fills = [s["realized"] / s["declared"] for s in steps if s.get("declared")]
    gains = [s["coverage_gain"] for s in steps if "coverage_gain" in s]

    regret = None
    eps_hat: dict[str, float] = {}
    replayed = [s for s in steps if "replay_accepted_len" in s]
    if replayed:
        diffs = [s["replay_accepted_len"] - s["accepted_len"] for s in replayed]
        regret = float(np.mean(diffs))
        for stage in sorted({s["stage"] for s in replayed if s["stage"] != stage_label(None)}):
            staged = [s for s in replayed if s["stage"] == stage]
            harmful = sum(1 for s in staged if s["replay_accepted_len"] > s["accepted_len"])
            eps_hat[stage] = harmful / len(staged)

    report = DecodeReport(
        mat=mat,
        steps_count=len(steps),
        tokens_emitted=tokens,
        stage_histogram=dict(histogram),
        cost_total=cost_total,
        speedup_proxy=proxy,
        tradeoff_ratio=None,
        regret_estimate=regret,
        coverage_gain_mean=float(np.mean(gains)) if gains else None,
        realized_retrieval_fill=float(np.mean(fills)) if fills else None,
        overpruning_rate_estimates=eps_hat,
        max_tree_candidates=max(s["tree_candidates"] for s in steps),
        steps=steps,
    )
    if dense_report is not None:
        report.tradeoff_ratio = report.speedup_proxy / dense_report.speedup_proxy
    return report


# ---------------------------------------------------------------------------
# calibration


def calibrate(
    target: MarkovTableModel,
    draft: MarkovTableModel,
    matrix: TransitionMatrix,
    prompts,
    grid: dict[int, list[float]],
    config: DecodeConfig,
) -> CalibrationResult:
    """Coordinate-wise threshold search (two sweeps) maximizing the mean
    speedup proxy of graft sessions replayed on the warm-up prompts.

    Each evaluation runs on a copy of the supplied (typically warmed)
    matrix, so scoring is deterministic and order-free. Ties keep the
    lowest threshold.
    """
    prompts = [list(p) for p in prompts]
    if not prompts:
        raise ConfigError("calibration needs at least one prompt")
    for d in config.prune.checkpoints:
        if d not in grid or not grid[d]:
            raise ConfigError(f"calibration.grid has no thresholds for checkpoint {d}")

    thresholds = dict(config.prune.thresholds)
    trace: list[tuple[dict[int, float], float]] = []

    def score(vector: dict[int, float]) -> float:
        cfg = replace(config, method="graft", prune=replace(config.prune, thresholds=dict(vector)))
        proxies = []
        for prompt in prompts:
            _, report = decode_session(cfg, target, draft, matrix.copy(), prompt)
            proxies.append(report.speedup_proxy)
        return float(np.mean(proxies))

    for _ in range(2):
        for d in config.prune.checkpoints:
            best_tau, best_score = None, -math.inf
            for tau in sorted(grid[d]):
                vector = dict(thresholds)
                vector[d] = tau
                s = score(vector)
                trace.append((vector, s))
                if s > best_score:
                    best_tau, best_score = tau, s
            thresholds[d] = best_tau
    return CalibrationResult(thresholds=thresholds, objective_trace=trace)


# ---------------------------------------------------------------------------
# theory checks

_SMALL_TEMPLATE = builtin_templates()["d5"]


def _random_subset_tree(hy: HybridTree, rng: np.random.Generator, keep_prob: float) -> HybridTree:
    keep = np.zeros(hy.n_nodes, dtype=bool)
    keep[0] = True
    for i in range(1, hy.n_nodes):
        keep[i] = keep[hy.parents[i]] and rng.random() < keep_prob
    return draft_only(hy, np.flatnonzero(keep), hy.n_candidates)


def _random_instance(rng: np.random.Generator, with_matrix: bool = False):
    from .models import DraftDerivation, VocabSpec, build_markov, derive_draft

    vocab = VocabSpec(int(rng.integers(4, 13)))
    target = build_markov(vocab, 1, int(rng.integers(0, 2**31)))
    draft = derive_draft(target, DraftDerivation("uniform-mix", float(rng.uniform(0.1, 0.7))))
    prefix = [int(rng.integers(0, vocab.size)) for _ in range(int(rng.integers(1, 4)))]
    depth = int(rng.integers(2, 5))
    top_k = int(rng.integers(2, 4))
    beams = [int(rng.integers(3, 7)) for _ in range(depth)]
    tree = _envelope(draft, prefix, top_k, beams, {})[0]
    matrix = None
    if with_matrix:
        matrix = new_matrix(vocab.size, 4)
        hot = [t for t in range(vocab.size) if rng.random() < 0.8]
        write_rows(matrix, dict(zip(hot, target.row_ids([target.code_of([t]) for t in hot]))), target)
    return target, draft, prefix, tree, matrix


def theory_checks(
    seed: int = 0,
    n_monotonic: int = 10_000,
    n_graft: int = 10_000,
    n_coverage: int = 1_000,
    overprune_eps: tuple[float, ...] = (0.1, 0.1, 0.1),
    overprune_trials: int = 100_000,
) -> dict:
    """Randomized checks of the acceptance-length and coverage guarantees."""
    rng = np.random.default_rng(seed)
    report: dict = {}

    violations = 0
    for _ in range(n_monotonic):
        target, _, prefix, tree, _ = _random_instance(rng)
        big = draft_only(tree, select_retained(tree, tree.n_nodes), tree.n_nodes)
        small = _random_subset_tree(big, rng, keep_prob=float(rng.uniform(0.3, 0.9)))
        l_small = verify_greedy(target, prefix, small).accepted_len
        l_big = verify_greedy(target, prefix, big).accepted_len
        if l_small > l_big:
            violations += 1
    report["subset_monotonicity"] = {"instances": n_monotonic, "violations": violations}

    violations = 0
    for _ in range(n_graft):
        target, _, prefix, tree, matrix = _random_instance(rng, with_matrix=True)
        limit = int(rng.integers(1, max(tree.n_nodes - 1, 2)))
        retained = select_retained(tree, limit)
        pruned = draft_only(tree, retained, tree.n_nodes + 32)
        tmpl = template_prefix(_SMALL_TEMPLATE, int(rng.integers(0, 12)))
        grafted = merge(tree, retained, tree.n_nodes + 32, 0, tmpl.parents, instantiate(matrix, tmpl, tree.root_token))
        l_pruned = verify_greedy(target, prefix, pruned).accepted_len
        l_grafted = verify_greedy(target, prefix, grafted).accepted_len
        if l_grafted < l_pruned:
            violations += 1
    report["graft_monotonicity"] = {"instances": n_graft, "violations": violations}

    neg = strict_violations = strict_cases = 0
    for _ in range(n_coverage):
        v = int(rng.integers(4, 17))
        w = rng.gamma(1.0, 1.0, size=v)
        p = w / w.sum()
        drafted = list(rng.choice(v, size=int(rng.integers(0, v)), replace=False))
        retrieved = list(rng.choice(v, size=int(rng.integers(0, v)), replace=False))
        gain = coverage_gain(p, drafted, retrieved)
        if gain < 0:
            neg += 1
        new_mass = [t for t in retrieved if t not in set(drafted) and p[t] > 0]
        if new_mass:
            strict_cases += 1
            if not gain > 0:
                strict_violations += 1
    report["coverage_gain"] = {
        "instances": n_coverage,
        "negative": neg,
        "strict_cases": strict_cases,
        "strict_violations": strict_violations,
    }

    eps = np.asarray(overprune_eps, dtype=np.float64)
    draws = rng.random((overprune_trials, eps.shape[0])) < eps
    measured = float(draws.any(axis=1).mean())
    predicted = float(1.0 - np.prod(1.0 - eps))
    report["overprune_compounding"] = {
        "eps": [float(e) for e in eps],
        "trials": overprune_trials,
        "measured": measured,
        "predicted": predicted,
        "abs_error": abs(measured - predicted),
    }
    return report


# ---------------------------------------------------------------------------
# ablation suites


ABLATION_SUITES = ("component", "warmup", "template", "temperature")
WARMUP_SWEEP = (0, 1, 3, 5, 10, 25, 50)
TEMPLATE_DEPTH_SWEEP = (2, 4, 6, 8, 9)
TEMPLATE_WIDTH_SWEEP = (2, 4, 6, 8, 10)


@dataclass
class AblationFixture:
    """Matched inputs for paired ablation runs."""

    target: MarkovTableModel
    draft: MarkovTableModel
    warmed_matrix: TransitionMatrix
    prompts: dict[int, list[int]]  # seed -> prompt
    config: DecodeConfig
    warmup_rounds: int  # the rounds that warmed ``warmed_matrix``, echoed into the rows that use it
    warmup_prompts: list[list[int]] = field(default_factory=list)


def run_row(report: DecodeReport, config: DecodeConfig, warmup_rounds: int, suite: str | None = None,
            variant: str | None = None) -> dict:
    """One session's row of a report document; a suite's rows keep only the session totals."""
    return {
        "suite": suite,
        "variant": variant,
        "method": config.method,
        "seed": config.seed,
        "acceptance": config.acceptance,
        "warmup_rounds": warmup_rounds,
        "report": report.to_dict(include_steps=suite is None),
    }


def run_ablation(suite: str, fixture: AblationFixture) -> list[dict]:
    """Matched sessions across a named variant grid; identical seeds/prompts.
    Returns their rows, each session run on its own copy of its matrix."""
    if suite not in ABLATION_SUITES:
        raise ConfigError(f"unknown ablation suite {suite!r}; pick one of {ABLATION_SUITES}")
    base = fixture.config
    rows: list[dict] = []

    def add(variant: str, cfg: DecodeConfig, matrix=fixture.warmed_matrix, rounds=fixture.warmup_rounds):
        for seed, prompt in fixture.prompts.items():
            seeded = replace(cfg, seed=seed)
            _, report = decode_session(seeded, fixture.target, fixture.draft, matrix.copy(), prompt)
            rows.append(run_row(report, seeded, rounds, suite, variant))

    if suite == "component":
        add("graft", replace(base, method="graft"))
        add("w/o retrieval", replace(base, method="prune_only"))
        add("w/o prune", replace(base, method="fixed_split"))
        add("dense", replace(base, method="dense"))
    elif suite == "warmup":
        for rounds in WARMUP_SWEEP:
            matrix = new_matrix(fixture.target.vocab.size, fixture.warmed_matrix.k)
            warmup(matrix, fixture.target, fixture.draft, fixture.warmup_prompts, rounds, config=base)
            add(f"K={rounds}", replace(base, method="graft"), matrix, rounds)
    elif suite == "template":
        for depth in TEMPLATE_DEPTH_SWEEP:
            add(f"d={depth}", replace(base, method="graft", template_filter=(depth, None)))
        for width in TEMPLATE_WIDTH_SWEEP:
            add(f"w={width}", replace(base, method="graft", template_filter=(None, width)))
    else:  # temperature
        add("greedy", replace(base, method="graft", acceptance="greedy"))
        add("T=1", replace(base, method="graft", acceptance="stochastic"))

    return rows

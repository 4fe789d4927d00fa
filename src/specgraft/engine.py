"""Decode loop, cost model, metrics, calibration, ablations, theory checks.

One decode session is a strict loop: build the next candidate tree for the
configured method, verify it against the target, commit the emitted
tokens, refresh the transition matrix from every verified node, and
account costs. Greedy sessions are fully deterministic in their inputs.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from . import _kernels
from .drafttree import (
    HybridTree,
    PruneConfig,
    resolve_stage,
    select_retained,
    stage_label,
)
from .errors import AnalysisError, ConfigError, InputError
from .hybrid import merge, tail_anchor
from .models import DraftDerivation, MarkovTableModel, VocabSpec, build_markov, derive_draft
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

NO_BRANCH = np.zeros(0, dtype=np.int32)  # the empty retrieved branch: ``merge`` grafts nothing
METHODS = ("autoregressive", "dense", "prune_only", "fixed_split", "graft", "graft_root", "graft_tail")
TREE_METHODS = METHODS[1:]
ACCEPTANCE_MODES = ("greedy", "stochastic")
TAIL_CHAIN_LEN = 8  # the rank-0 chain ``graft_tail`` grafts, cut to the budget


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

    def step_cost(self, layers_drafted: int, tree_candidates: int, retrieves: bool) -> float:
        """A tree step's cost; ``retrieval_cost`` only when it reads the matrix."""
        return (
            self.draft_layer_cost * layers_drafted
            + self.verify_base
            + self.verify_per_node * tree_candidates
            + (self.retrieval_cost if retrieves else 0.0)
            + self.overhead_cost
        )


@dataclass(frozen=True)
class DecodeConfig:
    method: str = "graft"
    prune: PruneConfig = field(default_factory=PruneConfig)
    max_new_tokens: int = 64
    acceptance: str = "greedy"
    seed: int = 0
    cost: CostModel = field(default_factory=CostModel)
    end_token: int | None = None
    analyses: tuple[Callable[..., dict], ...] = ()  # opt-in step analyses, e.g. (dense_replay,)
    template_filter: tuple[int | None, int | None] | None = None  # (max_depth, max_rank)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.acceptance not in ACCEPTANCE_MODES:
            raise ConfigError(f"decode.acceptance must be greedy or stochastic, got {self.acceptance!r}")
        if self.max_new_tokens < 1:
            raise ConfigError(f"decode.max_new_tokens must be >= 1, got {self.max_new_tokens}")
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
        gate's stage; the static baselines graft one fixed shape at stage
        ``none``: ``fixed_split`` the builtin ``d1``, ``graft_root`` the
        builtin ``d5``, each restricted by ``template_filter`` first, and
        ``graft_tail`` the rank-0 chain of ``TAIL_CHAIN_LEN`` nodes, cut to
        the budget. The other methods graft nothing.
        """
        if self.method == "graft_tail":
            n = min(TAIL_CHAIN_LEN, self.prune.total_budget)  # ``merge`` would drop the rest
            chain = StageTemplate(np.arange(-1, n - 1, dtype=np.int32), np.zeros(n, dtype=np.int32))
            return {stage_label(None): chain}

        def builtin(name):
            template = builtin_templates()[name]
            return template if self.template_filter is None else filter_template(template, *self.template_filter)

        if self.method == "graft":
            return {label: builtin(label) for label in map(stage_label, self.prune.checkpoints)}
        if self.method in ("fixed_split", "graft_root"):
            return {stage_label(None): builtin("d1" if self.method == "fixed_split" else "d5")}
        return {}


@dataclass
class DecodeReport:
    mat: float
    steps_count: int
    tokens_emitted: int
    stage_histogram: dict[str, int]
    cost_total: float
    speedup_proxy: float
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
) -> tuple[HybridTree, dict]:
    """Next candidate tree for the configured method, plus build metadata.

    One :func:`resolve_stage` call drafts the envelope, gated under
    ``prune_only`` and ``graft``, as deep as the method's rank cut needs,
    and one :func:`merge` call cuts it: to its stage's draft budget when a
    gate fails, under ``fixed_split`` and ``graft_tail`` to the budget
    their template leaves, else to the whole budget. When the config has a
    template at the step's stage, the branch read from the matrix along it
    is grafted: at the root, or for ``graft_tail`` below the cut's best
    deepest leaf. That read is the step's one read of the matrix, so a
    caller that defers its matrix writes applies them before this call.
    """
    prune = config.prune
    method = config.method
    if method not in TREE_METHODS:
        raise ConfigError(f"method {method!r} does not build trees")
    budget = limit = prune.total_budget  # the rank cut of the draft tree
    gates = {}
    if method in ("prune_only", "graft"):
        gates = {d: prune.thresholds[d] for d in prune.checkpoints}
    elif method in ("fixed_split", "graft_tail"):  # draft the budget the template leaves
        limit = max(budget - config.templates[stage_label(None)].declared_size, 0)
    beams = (prune.beam_width,) * prune.max_depth
    tree, stage, trace = resolve_stage(draft, committed, prune.top_k, beams, gates, limit)
    if stage is not None:
        limit = prune.draft_budget(stage)
    info = {
        "stage": stage_label(stage),
        "layers_drafted": prune.max_depth if stage is None else stage + 1,
        "confidence_trace": {str(d): c for d, c in trace.items()},
    }

    template = config.templates.get(info["stage"])
    at, retained, parents, tokens = 0, limit, NO_BRANCH, NO_BRANCH  # no template: ``merge`` only cuts
    if template is not None:
        if method == "graft_tail":
            retained = select_retained(tree, limit)
            at = tail_anchor(tree, retained)
        parents, tokens = template.parents, instantiate(matrix, template, int(tree.tokens[at]))
        if method != "graft_tail":
            realized = int(np.count_nonzero(tokens != COLD))
            if method == "graft_root":  # the realized branch evicts draft nodes
                retained = max(budget - realized, 0)
            info["declared"] = template.declared_size
            info["realized"] = realized
    return merge(tree, retained, budget, at, parents, tokens), info


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


def _root_coverage_gain(tree: HybridTree, root_dist: np.ndarray) -> float:
    """``coverage_gain`` of the root's children, nodes 1 .. ``ptr[1]`` in
    breadth-first storage; a NaN score marks a retrieved one."""
    end = int(tree.child_ptr[1]) + 1
    drafted, retrieved = [], []
    for token, score in zip(tree.tokens[1:end].tolist(), tree.scores[1:end].tolist()):
        (retrieved if math.isnan(score) else drafted).append(token)
    return coverage_gain(root_dist, drafted, retrieved)


# A step analysis, ``analysis(config, target, draft, committed, tree, outcome)``,
# runs after a tree step's verification and returns fields for its record.


def dense_replay(config: DecodeConfig, target, draft, committed, tree: HybridTree, outcome) -> dict:
    """Greedy accepted length of (dense top-budget) UNION (method tree), as
    ``replay_accepted_len``; nothing under stochastic acceptance.

    The union keeps the method tree a subset of the replay tree, so replay
    acceptance is a per-step upper bound (subset monotonicity); nothing
    from the replay is ever committed. Method-tree nodes enter as retrieved
    nodes: greedy verification reads no origin label.
    """
    if config.acceptance != "greedy":
        return {}
    prune = config.prune
    beams = (prune.beam_width,) * prune.max_depth
    dense = resolve_stage(draft, committed, prune.top_k, beams, {}, prune.total_budget)[0]
    budget = prune.total_budget + tree.n_candidates
    union = merge(dense, prune.total_budget, budget, 0, tree.parents[1:] - 1, tree.tokens[1:])
    return {"replay_accepted_len": verify_greedy(target, committed, union).accepted_len}


def decode_session(
    config: DecodeConfig,
    target: MarkovTableModel,
    draft: MarkovTableModel,
    matrix: TransitionMatrix,
    prompt,
    tree_observer=None,
) -> tuple[list[int], DecodeReport]:
    """Run one decode session; returns (new tokens, report).

    After each tree step's verification, ``coverage_gain`` is recorded on a
    step whose tree holds a retrieved node, and each of ``config.analyses``
    adds its fields to the step's record.
    The matrix is refreshed from the prompt prefill and from every verified
    node; an autoregressive step verifies the root-only tree. The writes
    are collected in one ``{token: target row id}`` dict, the last writer
    winning, and applied by :func:`retrieval.write_rows` before every tree
    step of a method with templates, the steps that may read the matrix,
    and when the session ends, also by an exception. So the matrix is what
    per-step writes would leave at every read and at return. Under the
    other methods it lags between steps, and a ``tree_observer`` that
    inspects it mid-session sees the lag.
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
        # prompt token i is a node whose parent is token i - 1, below the empty context
        codes = [0]
        target.extend_codes(codes, range(len(committed)), committed)
        pending.update(zip(committed, target.row_ids(codes[1:])))

        while remaining > 0 and not stop:
            if config.method == "autoregressive":
                # the root-only tree's verification: its argmax, or a draw from its row
                ids = target.row_ids([target.code_of(committed[-width:])])
                if config.acceptance == "greedy":
                    token = target.argmax(ids[0])
                else:
                    row = target.rows[ids[0]]
                    token = _kernels._draw(row.cumsum().tolist(), row, rng.random())
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
                if config.templates:  # the step may read the matrix
                    flush()
                hy, info = build_next_tree(config, draft, matrix, committed)
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
                    cost=cost.step_cost(info["layers_drafted"], hy.n_candidates, info["stage"] in config.templates),
                )
                if n_retrieved > 0:
                    record["coverage_gain"] = _root_coverage_gain(hy, target.rows[outcome.row_ids[0]])
                for analysis in config.analyses:
                    record.update(analysis(config, target, draft, committed, hy, outcome))
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


def compute_metrics(steps: list[dict], cost: CostModel) -> DecodeReport:
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

    return DecodeReport(
        mat=mat,
        steps_count=len(steps),
        tokens_emitted=tokens,
        stage_histogram=dict(histogram),
        cost_total=cost_total,
        speedup_proxy=proxy,
        regret_estimate=regret,
        coverage_gain_mean=float(np.mean(gains)) if gains else None,
        realized_retrieval_fill=float(np.mean(fills)) if fills else None,
        overpruning_rate_estimates=eps_hat,
        max_tree_candidates=max(s["tree_candidates"] for s in steps),
        steps=steps,
    )


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

    thresholds = {d: config.prune.thresholds[d] for d in config.prune.checkpoints}
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
    return merge(hy, np.flatnonzero(keep), hy.n_candidates, 0, NO_BRANCH, NO_BRANCH)


def _random_instance(rng: np.random.Generator, with_matrix: bool = False):
    vocab = VocabSpec(int(rng.integers(4, 13)))
    target = build_markov(vocab, 1, int(rng.integers(0, 2**31)))
    draft = derive_draft(target, DraftDerivation("uniform-mix", float(rng.uniform(0.1, 0.7))))
    prefix = [int(rng.integers(0, vocab.size)) for _ in range(int(rng.integers(1, 4)))]
    depth = int(rng.integers(2, 5))
    top_k = int(rng.integers(2, 4))
    beams = [int(rng.integers(3, 7)) for _ in range(depth)]
    tree = resolve_stage(draft, prefix, top_k, beams, {})[0]
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
        small = _random_subset_tree(tree, rng, keep_prob=float(rng.uniform(0.3, 0.9)))
        l_small = verify_greedy(target, prefix, small).accepted_len
        l_big = verify_greedy(target, prefix, tree).accepted_len
        if l_small > l_big:
            violations += 1
    report["subset_monotonicity"] = {"instances": n_monotonic, "violations": violations}

    violations = 0
    for _ in range(n_graft):
        target, _, prefix, tree, matrix = _random_instance(rng, with_matrix=True)
        limit = int(rng.integers(1, max(tree.n_nodes - 1, 2)))
        retained = select_retained(tree, limit)
        pruned = merge(tree, retained, tree.n_nodes + 32, 0, NO_BRANCH, NO_BRANCH)
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

"""The tree class, layered draft-tree construction, gates and pruning.

Every tree is a :class:`HybridTree` of parallel arrays in canonical order:
breadth-first, each node's children by ascending token, drafted so from
birth. Node 0 is the root (the last committed token). A drafted node's
score is the sum of the log draft probabilities along its path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, InputError, StructureError
from .models import MarkovTableModel

ROOT_PARENT = -1
ORIGIN_DRAFT = 0
ORIGIN_RETRIEVED = 1
STAGE_NONE = "none"
# ceiling on max_depth x beam_width: the envelope keeps at most one node per
# beam slot, about 100 bytes each in the lists it drafts into, so about
# 100 MB. It also bounds beam_width x top_k, the candidates a layer scores
# before its beam cut, at about 37 bytes each, and total_budget, the
# candidates of one hybrid tree (about 65 bytes a graft_tail chain node).
MAX_ENVELOPE_NODES = 2**20


def stage_label(checkpoint) -> str:
    return STAGE_NONE if checkpoint is None else f"d{checkpoint}"


def node_depths(parents: np.ndarray, top: int) -> np.ndarray:
    """(n,) int32 depths of a parent-before-child node list: ``top`` for a
    node whose parent is -1, one more than its parent's for the others."""
    depths: list[int] = []
    for parent in parents.tolist():
        depths.append(top if parent < 0 else depths[parent] + 1)
    return np.array(depths, dtype=np.int32)


@dataclass
class HybridTree:
    """A tree in canonical order rooted at the last committed token."""

    tokens: np.ndarray  # (n,) int32, root first
    parents: np.ndarray  # (n,) int32, root parent -1
    scores: np.ndarray  # (n,) float64 path scores; NaN for retrieved nodes

    @cached_property
    def depths(self) -> np.ndarray:
        """(n,) int32: the root is at depth 0."""
        return node_depths(self.parents, 0)

    @cached_property
    def origin(self) -> np.ndarray:
        """(n,) int8: ``ORIGIN_RETRIEVED`` where the score is NaN, else
        ``ORIGIN_DRAFT``. A drafted score is never NaN: a zero-probability
        candidate costs ``+inf`` and is cut at the beam."""
        return np.isnan(self.scores).astype(np.int8)

    @property
    def n_nodes(self) -> int:
        return int(self.tokens.shape[0])

    @property
    def n_candidates(self) -> int:
        return self.n_nodes - 1

    @property
    def root_token(self) -> int:
        return int(self.tokens[0])

    def counts_by_origin(self) -> tuple[int, int]:
        """(drafted, retrieved) candidates; origin is 0 or 1 and the root is drafted."""
        retrieved = int(np.count_nonzero(self.origin))
        return self.n_candidates - retrieved, retrieved

    @cached_property
    def child_ptr(self) -> np.ndarray:
        """(n + 1,) int32: the children of node i are nodes
        ``child_ptr[i] + 1 .. child_ptr[i + 1]``.

        Breadth-first storage puts each node's children together and keeps
        ``parents[1:]`` nondecreasing, so no sort is needed and no index
        array either. ``hybrid.merge`` fills this cache as it emits a tree.
        """
        parents = self.parents[1:]
        if (parents[1:] < parents[:-1]).any():
            raise StructureError("tree is not stored breadth-first")
        return np.searchsorted(parents, np.arange(self.n_nodes + 1)).astype(np.int32)


def _rank_rows(draft: MarkovTableModel, codes: list, tokens: list, parents: list, lo: int) -> np.ndarray:
    """The slots of a draft tree's nodes ``lo`` on, less ``lo``, by path:
    compared where the paths part, the higher draft probability first, then
    the lower id. ``codes`` are the nodes' context codes."""
    ids, paths = draft.row_ids(codes), [()]
    for parent, token in zip(parents[1:], tokens[1:]):
        paths.append(paths[parent] + (-draft.rows[ids[parent], token], token))
    return np.array(sorted(range(len(paths) - lo), key=lambda slot: paths[lo + slot]))


def evaluate_gate(confidence: float, threshold: float) -> bool:
    """True iff the gate passes (strictly above threshold); equality prunes."""
    if not (0.0 < threshold < 1.0):
        raise InputError(f"threshold must be in (0, 1), got {threshold}")
    return confidence > threshold


@dataclass(frozen=True)
class PruneConfig:
    """Checkpointed pruning policy and the fixed-budget stage splits."""

    checkpoints: tuple[int, ...] = (0, 1, 5)
    thresholds: dict[int, float] = field(default_factory=lambda: {0: 0.15, 1: 0.13, 5: 0.51})
    stage_budgets: dict[int, tuple[int, int]] = field(
        default_factory=lambda: {0: (8, 52), 1: (24, 36), 5: (40, 20)}
    )
    total_budget: int = 60
    top_k: int = 10
    max_depth: int = 8
    beam_width: int = 10

    def __post_init__(self):
        for name in ("total_budget", "top_k", "max_depth", "beam_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"prune.{name} must be >= 1, got {getattr(self, name)}")
        if self.total_budget > MAX_ENVELOPE_NODES:
            raise ConfigError(
                f"prune.total_budget must be <= {MAX_ENVELOPE_NODES} candidates, got {self.total_budget}"
            )
        if self.max_depth * self.beam_width > MAX_ENVELOPE_NODES:
            raise ConfigError(
                f"prune.max_depth x prune.beam_width must be <= {MAX_ENVELOPE_NODES} draft nodes, "
                f"got {self.max_depth} x {self.beam_width}"
            )
        if self.beam_width * self.top_k > MAX_ENVELOPE_NODES:
            raise ConfigError(
                f"prune.beam_width x prune.top_k must be <= {MAX_ENVELOPE_NODES} layer candidates, "
                f"got {self.beam_width} x {self.top_k}"
            )
        if tuple(sorted(self.checkpoints)) != self.checkpoints:
            raise ConfigError(f"prune.checkpoints must be ascending, got {list(self.checkpoints)}")
        for d in self.checkpoints:
            if not 0 <= d < self.max_depth:
                raise ConfigError(f"prune.checkpoints entry {d} must be in [0, prune.max_depth {self.max_depth})")
            if d not in self.thresholds:
                raise ConfigError(f"prune.thresholds has no threshold for checkpoint {d}")
            if not (0.0 < self.thresholds[d] < 1.0):
                raise ConfigError(f"prune.thresholds[{d}] must be in (0, 1), got {self.thresholds[d]}")
            if d not in self.stage_budgets:
                raise ConfigError(f"prune.stage_budgets has no split for checkpoint {d}")
            kd, kr = self.stage_budgets[d]
            if kd < 0 or kr < 0 or kd + kr != self.total_budget:
                raise ConfigError(
                    f"prune.stage_budgets[{d}] split {kd}+{kr} must equal prune.total_budget {self.total_budget}"
                )

    def draft_budget(self, checkpoint) -> int:
        if checkpoint is None:
            return self.total_budget
        return self.stage_budgets[checkpoint][0]


@dataclass
class PruneDecision:
    """Outcome of gated expansion: the stage, whose ``draft_budget`` is the
    rank cut of the tree, and the gate confidences."""

    stage: int | None
    confidence_trace: dict[int, float]
    layers_drafted: int


def select_retained(tree: HybridTree, limit: int) -> np.ndarray:
    """Root plus the top-``limit`` candidates by score, in index order.

    Candidates are ranked by score with ties to the lower (shallower,
    earlier) index. Scores never increase along a path and a parent's index
    is below its children's, so every parent ranks before its children:
    the rank cut is parent-closed.
    """
    ranked = np.argsort(-tree.scores[1:], kind="stable")[: max(limit, 0)] + 1
    ranked.sort()
    return np.concatenate(([0], ranked))


def _envelope(
    draft: MarkovTableModel, context, top_k: int, beams, gates: dict[int, float], keep: int | None = None
) -> tuple[HybridTree, int | None, dict]:
    """Draft ``len(beams)`` layers: layer d keeps the ``beams[d - 1]``
    best-scoring of its frontier's top-``top_k`` children. Checkpoint d of
    ``gates`` tests layer d+1's best path probability against ``gates[d]``;
    the first failed gate stops drafting at that stage. Only the last
    ``max(draft.order, 1)`` tokens of ``context`` are read. Returns the
    tree, the stage and the gate confidences.

    ``keep``, when given, is the size of the rank cut
    (:func:`select_retained`) the tree feeds. Past the last gate, drafting
    stops before a layer once at least ``keep`` drafted candidates cost no
    more than that layer's cheapest candidate. Path costs never fall along
    a path, and a tie goes to the lower index, which a drafted node has, so
    no node of that layer or below could enter the cut: the cut keeps the
    nodes it would keep from the whole envelope.

    Candidates of equal score rank by their paths, compared where the paths
    part: the higher draft probability first, then the lower id. Between
    the candidates of one frontier row, that is token order.

    Layers are scored on path costs (negated scores) and appended to lists
    that become the tree's arrays once, after the last layer. One loop per
    layer places its nodes: each node's parent slot, its context code
    (:func:`models.context_code`, extended from its parent's) and its row
    id, which the next layer reads.
    """
    context = tuple(int(t) for t in context[-max(draft.order, 1):])
    if not context:
        raise InputError("context must contain at least the root token")
    codes = [draft.code_of(context)]
    frontier = draft.row_ids(codes)
    base, span = draft.vocab.size + 1, (draft.vocab.size + 1) ** draft.order
    row_of, fallback = draft.index.get, draft.rows.shape[0] - 1
    k = min(top_k, draft.vocab.size)
    cost = np.array([-0.0])  # negated back, the root's score is +0.0
    tokens, parents, costs = [context[-1]], [ROOT_PARENT], [cost]
    trace: dict[int, float] = {}
    stage: int | None = None
    lo = 0  # the frontier layer's first node
    keep = math.inf if keep is None else keep
    last_gate = max(gates, default=-1)
    for depth, beam_width in enumerate(beams, 1):
        top, logq = draft.topk_by_token(frontier, k)
        # candidate j is token top[j // k, j % k]; zero-probability ones cost +inf
        cand = (cost[:, None] - logq).ravel()
        if depth > last_gate + 1 and len(tokens) > keep:  # past the last gate, with keep candidates drafted
            if np.count_nonzero(np.concatenate(costs)[1:] <= cand.min()) >= keep:
                break
        order = cand.argsort(kind="stable")
        best = order[:beam_width]
        cut = cand.item(best.item(-1))
        if cut == np.inf:  # +inf ranks last: drop it after the beam cut
            best = best[cand[best] < np.inf]
            if best.size == 0:
                raise StructureError("no positive-probability candidates in the new layer")
        elif best.size < order.size and cand.item(order.item(best.size)) == cut:
            tied = np.flatnonzero(cand == cut) // k
            if tied[0] != tied[-1]:  # the cut splits a tie across rows: cut again, rows by path
                rows = _rank_rows(draft, codes, tokens, parents, lo)
                ranked = cand.reshape(-1, k)[rows].ravel().argsort(kind="stable")[:beam_width]
                best = rows[ranked // k] * k + ranked % k
        best.sort()  # (parent, token) order: below a canonical frontier, the layer is canonical
        layer, cost = top.take(best).tolist(), cand.take(best)
        frontier = []
        for j, token in zip(best.tolist(), layer):
            parent = lo + j // k
            code = (codes[parent] * base + token + 1) % span
            parents.append(parent)
            codes.append(code)
            frontier.append(row_of(code, fallback))
        lo = len(tokens)  # the new layer is the next frontier
        tokens += layer
        costs.append(cost)
        checkpoint = depth - 1
        if checkpoint in gates:
            trace[checkpoint] = conf = float(np.exp(-cost.min()))
            if not evaluate_gate(conf, gates[checkpoint]):
                stage = checkpoint
                break
    tree = HybridTree(np.array(tokens, dtype=np.int32), np.array(parents, dtype=np.int32), -np.concatenate(costs))
    return tree, stage, trace


def expand_full(draft: MarkovTableModel, context, config: PruneConfig, keep: int | None = None) -> HybridTree:
    """The static envelope: ``max_depth`` ungated layers under the beam,
    reading only the last ``max(draft.order, 1)`` tokens of ``context``.
    With ``keep``, only as deep as a rank cut to ``keep`` candidates needs."""
    return _envelope(draft, context, config.top_k, (config.beam_width,) * config.max_depth, {}, keep)[0]


def resolve_stage(
    draft: MarkovTableModel, context, config: PruneConfig, keep: int | None = None
) -> tuple[HybridTree, PruneDecision]:
    """Expand with gates per the pruning policy and pick the stage.

    A checkpoint d is evaluated right after layer d+1 is drafted, on that
    layer's confidence; the first failed gate stops expansion, after d + 1
    layers. With no failed gate the tree reaches ``max_depth`` and the stage
    is ``None``; with ``keep``, the rank cut the tree feeds then, it stops
    as deep as that cut needs. ``layers_drafted`` counts ``max_depth`` all
    the same. Only the last ``max(draft.order, 1)`` tokens of ``context``
    are read.
    """
    gates = {d: config.thresholds[d] for d in config.checkpoints}
    tree, stage, trace = _envelope(draft, context, config.top_k, (config.beam_width,) * config.max_depth, gates, keep)
    return tree, PruneDecision(
        stage=stage,
        confidence_trace=trace,
        layers_drafted=config.max_depth if stage is None else stage + 1,
    )

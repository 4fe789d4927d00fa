"""The tree class, the gated draft envelope and the rank cut.

One pass, :func:`resolve_stage`, drafts every draft tree layer by layer,
each layer under its own beam width, and tests each checkpoint's gate as
its layer lands: a gate passes only strictly above its threshold. It gives
the decode step the tree, its stage and its gate confidences, and
:func:`select_retained` ranks the candidates the step's cut keeps.

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
from .models import MAX_TABLE_CELLS, MarkovTableModel

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


def child_pointers(parents: np.ndarray) -> np.ndarray:
    """``HybridTree.child_ptr`` of a breadth-first parent array, unchecked:
    ``parents[1:]`` must be nondecreasing."""
    parents = parents[1:]
    return np.searchsorted(parents, np.arange(parents.size + 2, dtype=parents.dtype)).astype(np.int32)


@dataclass
class HybridTree:
    """A tree in canonical order rooted at the last committed token.

    ``context_codes`` is ``(vocab size, order, codes)``: each node's context
    code in that code space, attached by the builder that creates the node.
    Equality ignores it; ``dataclasses.replace`` drops it, as it drops the
    cached child pointers and retrieved count."""

    tokens: np.ndarray  # (n,) int32, root first
    parents: np.ndarray  # (n,) int32, root parent -1
    scores: np.ndarray  # (n,) float64 path scores; NaN for retrieved nodes
    context_codes: tuple[int, int, list[int]] | None = field(default=None, init=False, repr=False, compare=False)

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

    @cached_property
    def n_retrieved(self) -> int:
        """Retrieved candidates, stored by the builders; a hand-built tree counts its origin."""
        return int(np.count_nonzero(self.origin))

    def counts_by_origin(self) -> tuple[int, int]:
        """(drafted, retrieved) candidates; the root is drafted."""
        return self.n_candidates - self.n_retrieved, self.n_retrieved

    @cached_property
    def child_ptr(self) -> np.ndarray:
        """(n + 1,) int32: the children of node i are nodes
        ``child_ptr[i] + 1 .. child_ptr[i + 1]``.

        Breadth-first storage puts each node's children together and keeps
        ``parents[1:]`` nondecreasing, so no sort is needed and no index
        array either. ``hybrid.merge`` fills this cache for every tree it
        returns, a draft envelope it returns as is included, without the
        order check; a tree read first here, such as a hand-built one, pays
        the check once.
        """
        if (self.parents[2:] < self.parents[1:-1]).any():
            raise StructureError("tree is not stored breadth-first")
        return child_pointers(self.parents)


def _rank_rows(draft: MarkovTableModel, codes: list, tokens: list, parents: list, lo: int) -> np.ndarray:
    """The slots of a draft tree's nodes ``lo`` on, less ``lo``, by path:
    compared where the paths part, the higher draft probability first, then
    the lower id. ``codes`` are the nodes' context codes; the root's token
    is not read."""
    ids, paths = draft.row_ids(codes), [()]
    for parent, token in zip(parents[1:], tokens[1:]):
        paths.append(paths[parent] + (-draft.rows[ids[parent], token], token))
    return np.array(sorted(range(len(paths) - lo), key=lambda slot: paths[lo + slot]))


def _score(draft: MarkovTableModel, frontier, cost: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The candidates of the layer below ``frontier``, row ids at path costs
    ``cost``: candidate j is token ``top[j // k, j % k]`` at path cost
    ``cand[j]``; zero-probability ones cost ``+inf``."""
    top, logq = draft.topk_by_token(frontier, k)
    return top, (cost[:, None] - logq).ravel()


def _cut(top: np.ndarray, cand: np.ndarray, k: int, beam_width: int, lineage: tuple) -> tuple:
    """The beam cut of a scored layer (:func:`_score`): the ``beam_width``
    cheapest candidates, ties by path (:func:`_rank_rows` of ``lineage``
    when the cut splits a tie across rows), the ``+inf`` ones dropped.
    Returns their candidate indices j (frontier row ``j // k``), tokens and
    costs, in (row, token) order, and the layer's cheapest cost."""
    order = cand.argsort(kind="stable")
    low = cand.item(order.item(0))  # read before ``best.sort()`` reorders ``order``
    best = order[:beam_width]
    cut = cand.item(best.item(-1))
    if cut == np.inf:  # +inf ranks last: drop it after the beam cut
        best = best[cand[best] < np.inf]
    elif best.size < order.size and cand.item(order.item(best.size)) == cut:
        tied = np.flatnonzero(cand == cut) // k
        if tied[0] != tied[-1]:  # the cut splits a tie across rows: cut again, rows by path
            rows = _rank_rows(*lineage)
            ranked = cand.reshape(-1, k)[rows].ravel().argsort(kind="stable")[:beam_width]
            best = rows[ranked // k] * k + ranked % k
    best.sort()  # (parent, token) order: below a canonical frontier, the layer is canonical
    return best.tolist(), top.take(best).tolist(), cand.take(best), low


def _stored_layers(draft: MarkovTableModel, code: int, row_id: int, k: int, beams) -> tuple:
    """The layers drafted below row ``row_id`` (context code ``code``) at
    cost -0.0, with no gate and no keep stop, each as :func:`_cut` returns
    it: layers 1 and 2 below a known context's row, layer 1 alone below the
    fallback row, whose children's rows depend on the context it hides.

    They are read from the draft's table per ``(k, beams[0], beams[1])``:
    an int32 and a float64 array, allocated whole on the table's first read
    and filled a row at a time (:func:`_fill_row`). Each row holds, in
    ``w`` columns of layer 1's most nodes then layer 2's, left-aligned per
    layer, the tokens and candidate indices (int32) and the costs
    (float64); then each layer's node count (0 until filled) and cheapest
    cost. A table past ``MAX_TABLE_CELLS`` is never allocated: then ``()``,
    and the caller drafts every layer."""
    tables, key, w1 = draft._two_layers, (k, beams[0], beams[1]), min(beams[0], k)
    table = tables.get(key)
    if table is None:
        n_rows, w = draft.rows.shape[0], w1 + min(beams[1], w1 * k)
        if n_rows * w > MAX_TABLE_CELLS:
            return ()
        # concurrent first reads agree on the first stored
        table = tables.setdefault(key, (np.zeros((n_rows, 2 * w + 2), np.int32), np.empty((n_rows, w + 2))))
    ints, floats = table
    if not ints.item(row_id, -2):
        _fill_row(draft, table, code, row_id, k, beams)
    row, cost, w = ints[row_id].tolist(), floats[row_id], floats.shape[1] - 2
    n, m = row[-2:]
    first = (row[w:w + n], row[:n], cost[:n], cost.item(-2))
    if row_id == ints.shape[0] - 1:  # the fallback row
        return (first,)
    return first, (row[w + w1:w + w1 + m], row[w1:w1 + m], cost[w1:w1 + m], cost.item(-1))


def _fill_row(draft: MarkovTableModel, table: tuple, code: int, row_id: int, k: int, beams) -> None:
    """Draft row ``row_id``'s layers of :func:`_stored_layers` into
    ``table``, each by :func:`_score` and :func:`_cut` as a step drafts it.
    The counts are written last, so a concurrent reader sees the row either
    empty, and fills it again with the same bytes, or whole."""
    ints, floats = table
    # one frontier row: no tie spans rows, so no lineage
    layers = [_cut(*_score(draft, [row_id], np.array([-0.0]), k), k, beams[0], ())]
    if row_id != ints.shape[0] - 1:  # a known context: its code fixes its children's rows
        _, layer, cost, _ = layers[0]
        base, span = draft.vocab.size + 1, (draft.vocab.size + 1) ** draft.order
        codes = [code] + [(code * base + token + 1) % span for token in layer]
        lineage = (draft, codes, [None, *layer], [ROOT_PARENT] + [0] * len(layer), 1)  # _rank_rows reads no root token
        layers.append(_cut(*_score(draft, draft.row_ids(codes[1:]), cost, k), k, beams[1], lineage))
    w = floats.shape[1] - 2
    for i, (at, (best, layer, cost, low)) in enumerate(zip((0, min(beams[0], k)), layers)):
        end = at + len(layer)
        ints[row_id, at:end], ints[row_id, w + at:w + end] = layer, best
        floats[row_id, at:end], floats[row_id, w + i] = cost, low
    ints[row_id, 2 * w:2 * w + len(layers)] = [len(layer) for _, layer, _, _ in layers]


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
        if tuple(sorted(set(self.checkpoints))) != self.checkpoints:
            raise ConfigError(f"prune.checkpoints must be strictly ascending, got {list(self.checkpoints)}")
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


def resolve_stage(
    draft: MarkovTableModel, context, top_k: int, beams, gates: dict[int, float], keep: int | None = None
) -> tuple[HybridTree, int | None, dict[int, float]]:
    """Draft ``len(beams)`` layers: layer d keeps the ``beams[d - 1]``
    best-scoring of its frontier's top-``top_k`` children. Checkpoint d of
    ``gates`` tests layer d+1's best path probability against ``gates[d]``;
    the first failed gate stops drafting at that stage. Only the last
    ``max(draft.order, 1)`` tokens of ``context`` are read. Returns the
    tree, the stage (the failed checkpoint, or ``None``) and the gate
    confidences.

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
    id, which the next layer reads. The tree carries those codes, in the
    draft's code space, and a retrieved count of 0; its child pointers are
    left to their first read. Layers 1 and 2 hang below the root's row
    alone, at cost -0.0, so they are read from the draft's two-layer table
    (:func:`_stored_layers`) when there are two beams, the first alone below
    the fallback row; each gate, the keep stop and the empty-layer check
    still apply at their depth. Every other layer is scored and cut per
    call (:func:`_score`, :func:`_cut`).
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
    stored = _stored_layers(draft, codes[0], frontier[0], k, beams) if len(beams) > 1 else ()
    for depth, beam_width in enumerate(beams, 1):
        read = depth <= len(stored)  # a layer of the table
        if read:
            best, layer, cost, low = stored[depth - 1]
        else:
            top, cand = _score(draft, frontier, cost, k)
        if depth > last_gate + 1 and len(tokens) > keep:  # past the last gate, with keep candidates drafted
            if np.count_nonzero(np.concatenate(costs)[1:] <= (low if read else cand.min())) >= keep:
                break
        if not read:
            best, layer, cost, low = _cut(top, cand, k, beam_width, (draft, codes, tokens, parents, lo))
        if not layer:
            raise StructureError("no positive-probability candidates in the new layer")
        frontier = []
        for j, token in zip(best, layer):
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
            trace[checkpoint] = conf = float(np.exp(-low))
            if not conf > gates[checkpoint]:  # equality prunes
                stage = checkpoint
                break
    tree = HybridTree(np.array(tokens, dtype=np.int32), np.array(parents, dtype=np.int32), -np.concatenate(costs))
    tree.context_codes = (draft.vocab.size, draft.order, codes)
    tree.n_retrieved = 0
    return tree, stage, trace

"""Merge retained draft nodes with retrieved branches; flatten for verification.

Hybrid trees are stored breadth-first with siblings in ascending token
order, so flattening is deterministic. Node budgets count candidates only;
the root (last committed token) is index 0 and free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .drafttree import DraftTree, PruneDecision, select_retained
from .errors import StructureError
from .models import VocabSpec
from .retrieval import RetrievedBranch, TransitionMatrix

ORIGIN_DRAFT = 0
ORIGIN_RETRIEVED = 1
_ORIGIN_NAMES = ("draft", "retrieved")


@dataclass
class HybridTree:
    tokens: np.ndarray  # (n,) int32, root first
    parents: np.ndarray  # (n,) int32, root parent -1
    depths: np.ndarray  # (n,) int32
    origin: np.ndarray  # (n,) int8
    logqs: np.ndarray  # (n,) float64; NaN for retrieved nodes
    budget: int

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
        drafted = int((self.origin[1:] == ORIGIN_DRAFT).sum())
        return drafted, self.n_candidates - drafted

    def children_of(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.parents == i)


def _canonical_order(tokens: np.ndarray, up: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """Permutation into BFS order with siblings by ascending token.

    That order is a lexsort on (depth, root-exclusive token path). ``up``
    is the parent array with the root as its own parent. Column s of
    ``anc`` holds each node's s-th ancestor, found by pointer doubling.
    Two nodes of one depth d share the root in every column from d on, so
    sorting on the columns' tokens, farthest first, compares their paths.
    """
    max_depth = int(depths.max())
    anc = np.empty((tokens.shape[0], max(max_depth, 1)), dtype=np.intp)
    anc[:, 0] = np.arange(tokens.shape[0])
    width = 1  # columns filled so far; ``up`` maps to the width-th ancestor
    while width < max_depth:
        step = min(width, max_depth - width)
        anc[:, width:width + step] = up[anc[:, :step]]
        up = up[up]
        width += step
    # np.lexsort sorts by its last key first
    return np.lexsort(np.vstack([tokens[anc].T, depths]))


class _Builder:
    """A hybrid tree under construction, emitted in canonical order.

    It starts from a parent-closed subset of a draft or hybrid tree, copied
    in bulk: those nodes are distinct (parent, token) pairs already.
    ``add`` then inserts single nodes, deduping (parent, token) pairs
    against every node present and holding the budget.
    """

    def __init__(self, tree: DraftTree | HybridTree, kept, budget: int):
        kept = np.sort(np.asarray(kept, dtype=np.intp))
        if not kept.size or kept[0] != 0:
            kept = np.concatenate(([0], kept))  # the root is free and always kept
        if kept.size - 1 > budget:
            raise StructureError("draft nodes exceed the hybrid budget")
        # builder index of each node of ``tree``; -1 marks a node left out
        self.slot = np.full(tree.n_nodes, -1, dtype=np.int32)
        self.slot[kept] = np.arange(kept.size)
        parents = self.slot[tree.parents[kept]]
        parents[0] = 0  # the root as its own parent, until finish()
        if (parents < 0).any():
            raise StructureError("retained draft set is not parent-closed")
        if isinstance(tree, HybridTree):
            origin = tree.origin[kept]
        else:
            origin = np.full(kept.size, ORIGIN_DRAFT, dtype=np.int8)
        self.budget = budget
        self.nodes = (tree.tokens[kept], parents, tree.depths[kept], origin, tree.logqs[kept])
        self.child_map: dict[tuple[int, int], int] | None = None

    def n_candidates(self) -> int:
        return len(self.nodes[0]) - 1

    def add(self, parent: int, token: int, origin: int, logq: float) -> int | None:
        """Insert or dedup; returns the node index, or None if out of budget."""
        if self.child_map is None:
            # from the first insertion on, the nodes are kept as lists
            self.nodes = tuple(a.tolist() for a in self.nodes)
            tokens, parents = self.nodes[:2]
            self.child_map = dict(zip(zip(parents[1:], tokens[1:]), range(1, len(tokens))))
        key = (parent, int(token))
        existing = self.child_map.get(key)
        if existing is not None:
            return existing
        if self.n_candidates() >= self.budget:
            return None
        tokens, parents, depths, origins, logqs = self.nodes
        idx = len(tokens)
        tokens.append(key[1])
        parents.append(parent)
        depths.append(depths[parent] + 1)
        origins.append(origin)
        logqs.append(logq)
        self.child_map[key] = idx
        return idx

    def finish(self) -> HybridTree:
        tokens, parents, depths, origin, logqs = (
            np.asarray(a, dtype=t) for a, t in zip(self.nodes, (np.int32, np.int32, np.int32, np.int8, np.float64))
        )
        order = _canonical_order(tokens, parents, depths)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        parents = rank[parents[order]].astype(np.int32)
        parents[0] = -1
        return HybridTree(
            tokens=tokens[order],
            parents=parents,
            depths=depths[order],
            origin=origin[order],
            logqs=logqs[order],
            budget=self.budget,
        )


def _graft_branch(builder: _Builder, branch: RetrievedBranch) -> None:
    mapping = {-1: 0}
    t = branch.template
    realized = branch.realized.tolist()
    tokens = branch.tokens.tolist()
    nan = float("nan")
    for i, parent in enumerate(t.parents[: t.declared_size].tolist()):
        if not realized[i]:
            continue
        parent = mapping.get(parent)
        if parent is None:
            continue  # ancestor fell out of budget
        idx = builder.add(parent, tokens[i], ORIGIN_RETRIEVED, nan)
        if idx is not None:
            mapping[i] = idx


def merge(decision: PruneDecision, tree: DraftTree, branch: RetrievedBranch, budget: int) -> HybridTree:
    """Retained draft nodes plus the branch grafted at the root.

    Duplicate (parent, token) pairs keep the draft node; the retrieved
    node's children re-parent onto the survivor. Freed slots stay empty.
    """
    if branch.root_token != tree.root_token:
        raise StructureError(
            f"branch rooted at {branch.root_token} cannot graft onto root {tree.root_token}"
        )
    builder = _Builder(tree, decision.retained, budget)
    _graft_branch(builder, branch)
    return builder.finish()


def draft_only(tree: DraftTree, retained: np.ndarray, budget: int) -> HybridTree:
    return _Builder(tree, retained, budget).finish()


def insert_root_variant(tree: DraftTree, branch: RetrievedBranch, budget: int) -> HybridTree:
    """Static-tree baseline: branch competes with draft candidates at the root.

    Draft nodes are evicted lowest-cumulative-score-first (closure kept) to
    make room for the whole realized branch inside one budget.
    """
    keep = max(budget - branch.realized_count, 0)
    builder = _Builder(tree, select_retained(tree, keep), budget)
    _graft_branch(builder, branch)
    return builder.finish()


def insert_tail_variant(tree: DraftTree, matrix: TransitionMatrix, budget: int, chain_len: int) -> HybridTree:
    """Static-tree baseline: a rank-0 chain appended after the deepest
    highest-score retained leaf, evicting lowest-score draft nodes to fit.
    """
    keep = max(budget - chain_len, 0)
    retained = select_retained(tree, keep)
    builder = _Builder(tree, retained, budget)

    has_child = np.zeros(tree.n_nodes, dtype=bool)
    has_child[tree.parents[retained[1:]]] = True
    leaves = retained[~has_child[retained]]
    # deepest first, then best score, then lowest index
    anchor = int(leaves[np.lexsort((leaves, -tree.scores[leaves], -tree.depths[leaves]))[0]])

    cur_token = int(tree.tokens[anchor])
    cur_idx = int(builder.slot[anchor])
    for _ in range(chain_len):
        if matrix.k == 0 or not matrix.valid[cur_token, 0]:
            break
        nxt = int(matrix.rows[cur_token, 0])
        idx = builder.add(cur_idx, nxt, ORIGIN_RETRIEVED, float("nan"))
        if idx is None:
            break
        cur_idx, cur_token = idx, nxt
    return builder.finish()


# ---------------------------------------------------------------------------
# flattening


@dataclass
class VerificationPackage:
    """Flattened hybrid tree: the child index the verifier walks and each
    node's position after the committed prefix."""

    tree: HybridTree
    prefix_len: int

    @property
    def tokens(self) -> np.ndarray:
        return self.tree.tokens

    @property
    def parents(self) -> np.ndarray:
        return self.tree.parents

    @property
    def n_nodes(self) -> int:
        return self.tree.n_nodes

    @cached_property
    def children(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style (ptr, idx): children of node i are idx[ptr[i]:ptr[i+1]]."""
        parents = self.tree.parents[1:]
        n = self.tree.n_nodes
        ptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(parents, minlength=n), out=ptr[1:])
        # a stable sort keeps each parent's children in ascending index order
        idx = (np.argsort(parents, kind="stable") + 1).astype(np.int32)
        return ptr, idx

    @cached_property
    def position_ids(self) -> np.ndarray:
        return self.prefix_len + self.tree.depths.astype(np.int64)


def flatten(tree: HybridTree, prefix_len: int) -> VerificationPackage:
    """Verification package for a well-formed hybrid tree."""
    if tree.n_nodes == 0 or tree.parents[0] != -1:
        raise StructureError("hybrid tree must start at its root")
    return VerificationPackage(tree=tree, prefix_len=prefix_len)


def render_tree(tree: HybridTree, vocab: VocabSpec | None = None) -> str:
    """One node per line: index, parent, depth, token (glyph), origin."""
    lines = []
    for i in range(tree.n_nodes):
        token = int(tree.tokens[i])
        glyph = vocab.glyph(token) if vocab is not None else str(token)
        lines.append(
            f"{i:4d} parent={int(tree.parents[i]):4d} depth={int(tree.depths[i])} "
            f"token={token}({glyph}) {_ORIGIN_NAMES[int(tree.origin[i])]}"
        )
    return "\n".join(lines)

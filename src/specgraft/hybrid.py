"""Merge retained draft nodes with retrieved branches into hybrid trees.

Hybrid trees are stored breadth-first with siblings in ascending token
order, so the verifier walks them deterministically. Node budgets count
candidates only; the root (last committed token) is index 0 and free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .drafttree import DraftTree, select_retained
from .errors import StructureError
from .models import VocabSpec
from .retrieval import COLD, RetrievedBranch, StageTemplate, TransitionMatrix, instantiate

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

    @cached_property
    def children(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style (ptr, idx): children of node i are idx[ptr[i]:ptr[i+1]].

        Breadth-first storage puts each node's children together and keeps
        ``parents[1:]`` nondecreasing, so no sort is needed: ``idx`` is
        every non-root node in stored order.
        """
        parents = self.parents[1:]
        if (parents[1:] < parents[:-1]).any():
            raise StructureError("hybrid tree is not stored breadth-first")
        n = self.n_nodes
        ptr = np.searchsorted(parents, np.arange(n + 1)).astype(np.int32)
        return ptr, np.arange(1, n, dtype=np.int32)


class _Builder:
    """A hybrid tree under construction, emitted in canonical order.

    It starts from a parent-closed subset of a draft or hybrid tree: those
    nodes are distinct (parent, token) pairs already. Each node keeps a
    ``{token: builder index}`` map of its children, so ``graft`` dedupes
    retrieved (parent, token) pairs by one lookup while holding the budget,
    and ``finish`` emits the tree breadth-first from those maps.
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
        parents = self.slot[tree.parents[kept[1:]]]
        if (parents < 0).any():
            raise StructureError("retained draft set is not parent-closed")
        tokens = tree.tokens[kept]
        self.kids = kids = [{} for _ in range(kept.size)]  # kids[i]: {token: builder index}
        for i, (parent, token) in enumerate(zip(parents.tolist(), tokens[1:].tolist()), 1):
            kids[parent][token] = i
        self.root_token = int(tokens[0])
        if isinstance(tree, HybridTree):
            self.origin = tree.origin[kept]
        else:
            self.origin = np.full(kept.size, ORIGIN_DRAFT, dtype=np.int8)
        self.logqs = tree.logqs[kept]
        self.budget = budget

    def graft(self, at: int, parents: np.ndarray, tokens: np.ndarray) -> None:
        """Add a parent-before-child node list below builder node ``at``.

        ``parents[i]`` indexes an earlier entry of the list, -1 meaning
        ``at``. A node whose (parent, token) pair is present already is
        merged into that node, so its children attach there. A ``COLD``
        token, a new pair once the budget is full, or a dropped parent
        drops the node, and with it its subtree.
        """
        kids = self.kids
        slots: list[int | None] = []  # builder index of each list entry; None when dropped
        for parent, token in zip(parents.tolist(), tokens.tolist()):
            parent = at if parent < 0 else slots[parent]
            slot = None
            if token != COLD and parent is not None:
                slot = kids[parent].get(token)
                if slot is None and len(kids) - 1 < self.budget:
                    slot = kids[parent][token] = len(kids)
                    kids.append({})
            slots.append(slot)

    def finish(self) -> HybridTree:
        """The tree breadth-first, each node's children by ascending token."""
        order, tokens, parents, depths = [0], [self.root_token], [-1], [0]
        for at, node in enumerate(order):  # ``order`` grows as it is read
            kids = self.kids[node]
            if kids:
                depth = depths[at] + 1
                for token in sorted(kids):
                    order.append(kids[token])
                    tokens.append(token)
                    parents.append(at)
                    depths.append(depth)
        grafted = len(self.kids) - self.origin.size  # builder indices past the kept nodes
        origin = np.concatenate((self.origin, np.full(grafted, ORIGIN_RETRIEVED, dtype=np.int8)))
        logqs = np.concatenate((self.logqs, np.full(grafted, math.nan)))
        return HybridTree(
            tokens=np.array(tokens, dtype=np.int32),
            parents=np.array(parents, dtype=np.int32),
            depths=np.array(depths, dtype=np.int32),
            origin=origin[order],
            logqs=logqs[order],
            budget=self.budget,
        )


def merge(tree: DraftTree, retained: np.ndarray, branch: RetrievedBranch, budget: int) -> HybridTree:
    """Retained draft nodes plus the branch grafted at the root.

    Duplicate (parent, token) pairs keep the draft node; the retrieved
    node's children re-parent onto the survivor. Freed slots stay empty.
    """
    if branch.root_token != tree.root_token:
        raise StructureError(
            f"branch rooted at {branch.root_token} cannot graft onto root {tree.root_token}"
        )
    builder = _Builder(tree, retained, budget)
    builder.graft(0, branch.template.parents, branch.tokens)
    return builder.finish()


def draft_only(tree: DraftTree, retained: np.ndarray, budget: int) -> HybridTree:
    return _Builder(tree, retained, budget).finish()


def insert_tail_variant(tree: DraftTree, matrix: TransitionMatrix, budget: int, chain_len: int) -> HybridTree:
    """Static-tree baseline: a rank-0 chain appended after the deepest
    highest-score retained leaf, evicting lowest-score draft nodes to fit.
    """
    retained = select_retained(tree, max(budget - chain_len, 0))
    builder = _Builder(tree, retained, budget)
    chain_len = min(chain_len, budget)  # ``graft`` drops every node past the budget

    has_child = np.zeros(tree.n_nodes, dtype=bool)
    has_child[tree.parents[retained[1:]]] = True
    leaves = retained[~has_child[retained]]
    # deepest first, then best score, then lowest index
    anchor = int(leaves[np.lexsort((leaves, -tree.scores[leaves], -tree.depths[leaves]))[0]])

    chain = StageTemplate(
        stage="chain",
        parents=np.arange(-1, chain_len - 1, dtype=np.int32),
        ranks=np.zeros(chain_len, dtype=np.int32),
        depths=np.arange(1, chain_len + 1, dtype=np.int32),
        declared_size=chain_len,
    )
    branch = instantiate(matrix, chain, int(tree.tokens[anchor]))
    builder.graft(int(builder.slot[anchor]), chain.parents, branch.tokens)
    return builder.finish()


def flatten(tree: HybridTree, prefix_len: int) -> HybridTree:
    """``tree`` itself, once it is checked to start at its root: the verifier
    reads the hybrid tree directly. ``prefix_len`` is not read."""
    if tree.n_nodes == 0 or tree.parents[0] != -1:
        raise StructureError("hybrid tree must start at its root")
    return tree


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

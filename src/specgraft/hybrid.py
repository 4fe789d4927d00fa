"""Merge retained draft nodes with retrieved branches into hybrid trees.

Retained draft nodes alone are a reindex of the draft tree; a graft builds
from the draft tree and the retained set directly. Node budgets count
candidates only; the root (last committed token) is index 0 and free.
"""

from __future__ import annotations

import math

import numpy as np

from .drafttree import ORIGIN_RETRIEVED, HybridTree, select_retained
from .errors import StructureError
from .models import VocabSpec
from .retrieval import COLD, RetrievedBranch, StageTemplate, TransitionMatrix, instantiate

_ORIGIN_NAMES = ("draft", "retrieved")


def _kept(tree: HybridTree, retained, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes ``retained`` of ``tree`` in index order, its root added, and
    the parent of each as a position among them (-1 for the root). Raises
    ``StructureError`` unless the candidates fit ``budget`` and every kept
    node's parent is kept."""
    kept = np.sort(np.asarray(retained, dtype=np.intp))
    if not kept.size or kept[0] != 0:
        kept = np.concatenate(([0], kept))  # the root is free and always kept
    if kept.size - 1 > budget:
        raise StructureError("draft nodes exceed the hybrid budget")
    # position of each node of ``tree`` among the kept; -1 marks a node left
    # out, and the extra last entry maps the root's parent -1 to itself
    slot = np.full(tree.n_nodes + 1, -1, dtype=np.int32)
    slot[kept] = np.arange(kept.size, dtype=np.int32)
    parents = slot[tree.parents[kept]]
    if (parents[1:] < 0).any():
        raise StructureError("retained draft set is not parent-closed")
    return kept, parents


def draft_only(tree: HybridTree, retained, budget: int) -> HybridTree:
    """The nodes ``retained`` of ``tree``, and its root, as a tree: a
    parent-closed subset of a canonical tree, kept in index order, is
    canonical, so this is a reindex."""
    kept, parents = _kept(tree, retained, budget)
    return HybridTree(tree.tokens[kept], parents, tree.depths[kept], tree.origin[kept], tree.scores[kept])


class _Builder:
    """The nodes ``retained`` of a canonical tree, with grafts under way,
    emitted in canonical order.

    Builder index i < ``kept.size`` is kept node ``kept[i]`` of the tree;
    grafted nodes follow. Each node keeps a ``{token: builder index}`` map
    of its children, so ``graft`` dedupes grafted (parent, token) pairs by
    one lookup while holding the budget, and ``finish`` emits the tree
    breadth-first from those maps.
    """

    def __init__(self, tree: HybridTree, retained, budget: int):
        kept, parents = _kept(tree, retained, budget)
        self.kids = kids = [{} for _ in range(kept.size)]  # kids[i]: {token: builder index}
        for i, (parent, token) in enumerate(zip(parents[1:].tolist(), tree.tokens[kept[1:]].tolist()), 1):
            kids[parent][token] = i
        self.tree = tree
        self.kept = kept
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
        """The tree breadth-first, each node's children by ascending token,
        with its child pointers filled in as it is emitted."""
        tree, kept = self.tree, self.kept
        order, tokens, parents, depths = [0], [tree.root_token], [-1], [0]
        ptr = []  # children of emitted node i are nodes ptr[i] + 1 .. ptr[i + 1]
        for at, node in enumerate(order):  # ``order`` grows as it is read
            ptr.append(len(order) - 1)
            kids = self.kids[node]
            if kids:
                depth = depths[at] + 1
                for token in sorted(kids):
                    order.append(kids[token])
                    tokens.append(token)
                    parents.append(at)
                    depths.append(depth)
        n = len(order)
        ptr.append(n - 1)
        grafted = n - kept.size  # builder indices past the kept nodes
        origin = np.concatenate((tree.origin[kept], np.full(grafted, ORIGIN_RETRIEVED, dtype=np.int8)))
        scores = np.concatenate((tree.scores[kept], np.full(grafted, math.nan)))
        order = np.array(order, dtype=np.intp)
        hy = HybridTree(
            tokens=np.array(tokens, dtype=np.int32),
            parents=np.array(parents, dtype=np.int32),
            depths=np.array(depths, dtype=np.int32),
            origin=origin[order],
            scores=scores[order],
        )
        hy.child_ptr = np.array(ptr, dtype=np.int32)  # the cached child pointers
        return hy


def merge(tree: HybridTree, retained: np.ndarray, branch: RetrievedBranch, budget: int) -> HybridTree:
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


def insert_tail_variant(tree: HybridTree, matrix: TransitionMatrix, budget: int, chain_len: int) -> HybridTree:
    """Static-tree baseline: a rank-0 chain appended after the deepest
    highest-score retained leaf, evicting lowest-score draft nodes to fit.
    """
    builder = _Builder(tree, select_retained(tree, max(budget - chain_len, 0)), budget)
    kept = builder.kept
    chain_len = min(chain_len, budget)  # ``graft`` drops every node past the budget

    leaves = np.setdiff1d(kept, tree.parents[kept])
    # deepest first, then best score, then lowest index
    anchor = int(leaves[np.lexsort((leaves, -tree.scores[leaves], -tree.depths[leaves]))[0]])

    chain = StageTemplate(
        parents=np.arange(-1, chain_len - 1, dtype=np.int32),
        ranks=np.zeros(chain_len, dtype=np.int32),
        depths=np.arange(1, chain_len + 1, dtype=np.int32),
    )
    branch = instantiate(matrix, chain, int(tree.tokens[anchor]))
    builder.graft(int(np.searchsorted(kept, anchor)), chain.parents, branch.tokens)
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

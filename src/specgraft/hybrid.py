"""Merge retained draft nodes with retrieved branches into hybrid trees.

Retained draft nodes alone are a reindex of the draft tree; a merge builds
from the draft tree and the retained set directly, and grafts a retrieved
branch, a token array read along a template, below one kept node. Node
budgets count candidates only; the root (last committed token) is index 0
and free.
"""

from __future__ import annotations

import math

import numpy as np

from .drafttree import HybridTree, select_retained
from .errors import StructureError
from .models import VocabSpec
from .retrieval import COLD

_ORIGIN_NAMES = ("draft", "retrieved")


def _kept(tree: HybridTree, retained, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes ``retained`` of ``tree`` in index order, its root added, and
    the parent of each as a position among them (-1 for the root). Raises
    ``StructureError`` unless ``retained`` names distinct nodes of ``tree``,
    the candidates fit ``budget`` and every kept node's parent is kept."""
    kept = np.sort(np.asarray(retained, dtype=np.intp))
    if kept.size and (kept[0] < 0 or kept[-1] >= tree.n_nodes or np.count_nonzero(kept[1:] == kept[:-1])):
        raise StructureError(f"retained nodes must be distinct nodes of the {tree.n_nodes}-node draft tree")
    if not kept.size or kept[0] != 0:
        kept = np.concatenate(([0], kept))  # the root is free and always kept
    if kept.size - 1 > budget:
        raise StructureError("draft nodes exceed the hybrid budget")
    # each node's parent is kept iff it sits at its sorted position among the kept
    node_parents = tree.parents[kept]
    parents = kept.searchsorted(node_parents).astype(np.int32)
    parents[0] = -1
    if np.count_nonzero(kept.take(parents[1:], mode="clip") != node_parents[1:]):
        raise StructureError("retained draft set is not parent-closed")
    return kept, parents


def draft_only(tree: HybridTree, retained, budget: int) -> HybridTree:
    """The nodes ``retained`` of ``tree``, and its root, as a tree: a
    parent-closed subset of a canonical tree, kept in index order, is
    canonical, so this is a reindex."""
    kept, parents = _kept(tree, retained, budget)
    return HybridTree(tree.tokens[kept], parents, tree.scores[kept])


def rank_cut(tree: HybridTree, limit: int) -> HybridTree:
    """The root and the top-``limit`` candidates of ``tree`` by
    :func:`select_retained`, as a tree: ``tree`` itself when the cut keeps
    every candidate, since then the reindex is the identity."""
    if limit >= tree.n_candidates:
        return tree
    return draft_only(tree, select_retained(tree, limit), limit)


def merge(tree: HybridTree, retained, budget: int, at: int, parents: np.ndarray, tokens: np.ndarray) -> HybridTree:
    """The nodes ``retained`` of ``tree``, its root added, with a
    parent-before-child node list grafted below kept node ``at``, in
    canonical order and with its child pointers filled in.

    The list is a retrieved branch: a template's ``parents`` and the
    ``tokens`` read from the matrix along it below ``at``'s token. ``parents[i]`` indexes an earlier entry, -1 meaning ``at``.
    A node whose (parent, token) pair is present already is merged into
    that node, so its children attach there. A ``COLD`` token, a new pair
    once the budget is full, or a dropped parent drops the node, and with
    it its subtree. Grafted nodes score NaN.
    """
    kept, kept_parents = _kept(tree, retained, budget)
    slot = int(np.searchsorted(kept, at))
    if slot == kept.size or kept[slot] != at:
        raise StructureError(f"graft point {at} is not a kept node")
    # node i < kept.size is kept node kept[i], grafted nodes follow; kids[i]: {token: node}
    kids = [{} for _ in range(kept.size)]
    for i, (parent, token) in enumerate(zip(kept_parents[1:].tolist(), tree.tokens[kept[1:]].tolist()), 1):
        kids[parent][token] = i
    slots: list[int | None] = [slot]  # ``at``'s node, then each list entry's; None when dropped
    for parent, token in zip(parents.tolist(), tokens.tolist()):
        parent = slots[parent + 1]  # parent -1 reads ``at``'s
        slot = None
        if token != COLD and parent is not None:
            slot = kids[parent].get(token)
            if slot is None and len(kids) - 1 < budget:
                slot = kids[parent][token] = len(kids)
                kids.append({})
        slots.append(slot)

    # breadth-first, each node's children by ascending token
    order, out_tokens, out_parents = [0], [tree.root_token], [-1]
    ptr = []  # children of emitted node i are nodes ptr[i] + 1 .. ptr[i + 1]
    for i, node in enumerate(order):  # ``order`` grows as it is read
        ptr.append(len(order) - 1)
        children = kids[node]
        if children:  # most nodes are leaves: skip their sort
            for token in sorted(children):
                order.append(children[token])
                out_tokens.append(token)
                out_parents.append(i)
    ptr.append(len(order) - 1)
    scores = np.concatenate((tree.scores[kept], np.full(len(order) - kept.size, math.nan)))
    hy = HybridTree(np.array(out_tokens, dtype=np.int32), np.array(out_parents, dtype=np.int32), scores[order])
    hy.child_ptr = np.array(ptr, dtype=np.int32)  # the cached child pointers
    return hy


def tail_anchor(tree: HybridTree, retained) -> int:
    """Of the deepest nodes ``retained`` of ``tree``, the best-scoring one,
    ties to the lowest index: the leaf below which the static tail baseline
    grafts its rank-0 chain. ``retained`` is a sorted array, as
    :func:`select_retained` gives it."""
    # depth never falls as the index grows, so the deepest kept leaves are the
    # kept nodes in the layer of the last one: walk the layer bounds down to it
    ptr, last = tree.child_ptr, int(retained[-1])
    lo, hi = 0, 1
    while hi <= last:
        lo, hi = int(ptr[lo]) + 1, int(ptr[hi]) + 1
    layer = retained[retained.searchsorted(lo):]
    return int(layer[np.argmax(tree.scores[layer])])


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

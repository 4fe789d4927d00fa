"""Merge retained draft nodes with a retrieved branch into a hybrid tree.

One builder, :func:`merge`, reads the retained set of a draft tree (an
index array or a rank-cut size), grafts a retrieved branch, a token array
read along a template, below one kept node, and emits the tree in
canonical order. With an empty branch it emits the kept nodes alone, and
the draft tree itself when every node is kept. Node budgets count
candidates only; the root (last committed token) is index 0 and free.
"""

from __future__ import annotations

import math

import numpy as np

from .drafttree import HybridTree, child_pointers, select_retained
from .errors import StructureError
from .models import VocabSpec
from .retrieval import COLD

_ORIGIN_NAMES = ("draft", "retrieved")


def merge(tree: HybridTree, retained, budget: int, at: int, parents: np.ndarray, tokens: np.ndarray) -> HybridTree:
    """The nodes ``retained`` of ``tree``, its root added, with a
    parent-before-child node list grafted below kept node ``at``, in
    canonical order and with its child pointers and retrieved count filled
    in, both from the breadth-first pass that orders it. When ``tree``
    carries its nodes' context codes, so does the result: the kept nodes'
    codes, and each grafted node's extended from its parent's.

    ``retained`` is an array of nodes, or an int: the rank cut of ``tree``
    to that many candidates (:func:`select_retained`). A cut that keeps
    every candidate keeps the whole tree. Any other set raises
    ``StructureError`` unless it names distinct nodes of ``tree``, its
    candidates fit ``budget`` and every kept node's parent is kept.

    The list is a retrieved branch: a template's ``parents`` and the
    ``tokens`` read from the matrix along it below ``at``'s token.
    ``parents[i]`` indexes an earlier entry, -1 meaning ``at``. A node whose
    (parent, token) pair is present already is merged into that node, so
    its children attach there. A ``COLD`` token, a new pair once the budget
    is full, or a dropped parent drops the node, and with it its subtree.
    Grafted nodes score NaN. An empty list grafts nothing, and when every
    node is kept too, the result is ``tree`` itself, its pointers filled
    in unchecked, since a draft tree is canonical from birth: a
    parent-closed subset of a canonical tree, emitted breadth-first, is the
    same subset in index order.
    """
    n = tree.n_nodes
    if isinstance(retained, int):  # a rank cut is sorted, distinct and rooted
        kept = None if retained >= tree.n_candidates else select_retained(tree, retained)
    else:
        kept = np.sort(np.asarray(retained, dtype=np.intp))
        if kept.size and (kept[0] < 0 or kept[-1] >= n or np.count_nonzero(kept[1:] == kept[:-1])):
            raise StructureError(f"retained nodes must be distinct nodes of the {n}-node draft tree")
        if not kept.size or kept[0] != 0:
            kept = np.concatenate(([0], kept))  # the root is free and always kept
        if kept.size == n:  # n distinct nodes of an n-node tree are all of them
            kept = None
    n_kept = n if kept is None else kept.size  # ``kept`` None: the whole tree
    if n_kept - 1 > budget:
        raise StructureError("draft nodes exceed the hybrid budget")
    if kept is None and not tokens.size:
        if "child_ptr" not in vars(tree):
            tree.child_ptr = child_pointers(tree.parents)
        return tree
    # node i < n_kept is the i-th kept node, grafted nodes follow
    if kept is None:  # the tree's own lists
        kept_parents = tree.parents[1:].tolist()
        if kept_parents and (min(kept_parents) < 0 or max(kept_parents) >= n):
            raise StructureError("retained draft set is not parent-closed")
        if at not in range(n):
            raise StructureError(f"graft point {at} is not a kept node")
        slot = int(at)
        kept_tokens, scores = tree.tokens[1:].tolist(), tree.scores.tolist()
    else:
        # each node's parent is kept iff it sits at its sorted position among the kept
        node_parents = tree.parents[kept[1:]]
        found = kept.searchsorted(node_parents)
        if np.count_nonzero(kept.take(found, mode="clip") != node_parents):
            raise StructureError("retained draft set is not parent-closed")
        slot = int(np.searchsorted(kept, at))
        if slot == n_kept or kept[slot] != at:
            raise StructureError(f"graft point {at} is not a kept node")
        kept_parents, kept_tokens, scores = found.tolist(), tree.tokens[kept[1:]].tolist(), tree.scores[kept].tolist()
    kids: dict[int, dict[int, int]] = {}  # {node: {token: child}}, for the nodes that have a child
    for i, (parent, token) in enumerate(zip(kept_parents, kept_tokens), 1):
        children = kids.get(parent)
        if children is None:
            kids[parent] = {token: i}
        else:
            children[token] = i
    codes = None  # node i's context code when ``tree`` carries codes
    if tree.context_codes is not None:
        size, code_order, tree_codes = tree.context_codes
        base, span = size + 1, (size + 1) ** code_order
        codes = list(tree_codes) if kept is None else [tree_codes[i] for i in kept.tolist()]
    count = n_kept  # the nodes so far
    slots: list[int | None] = [slot]  # ``at``'s node, then each list entry's; None when dropped
    for parent, token in zip(parents.tolist(), tokens.tolist()):
        parent = slots[parent + 1]  # parent -1 reads ``at``'s
        slot = None
        if token != COLD and parent is not None:
            children = kids.get(parent)
            slot = None if children is None else children.get(token)
            if slot is None and count <= budget:
                slot = count
                count += 1
                if children is None:
                    kids[parent] = {token: slot}
                else:
                    children[token] = slot
                if codes is not None:
                    codes.append((codes[parent] * base + token + 1) % span)
        slots.append(slot)
    retrieved = count - n_kept + (sum(map(math.isnan, scores)) if tree.n_retrieved else 0)  # and kept ones
    scores += [math.nan] * (count - n_kept)

    # breadth-first, each node's children by ascending token; node i's
    # children end at ptr[i + 1], the nodes emitted after its own
    order, out_tokens, out_parents, ptr = [0], [tree.root_token], [-1], [0]
    for i, node in enumerate(order):  # ``order`` grows as it is read
        children = kids.get(node)
        if children is not None:  # one child needs no sort
            for token in children if len(children) == 1 else sorted(children):
                order.append(children[token])
                out_tokens.append(token)
                out_parents.append(i)
        ptr.append(len(order) - 1)
    hy = HybridTree(
        np.array(out_tokens, dtype=np.int32),
        np.array(out_parents, dtype=np.int32),
        np.array([scores[i] for i in order], dtype=np.float64),
    )
    hy.child_ptr = np.array(ptr, dtype=np.int32)  # breadth-first by construction: unchecked
    hy.n_retrieved = retrieved
    if codes is not None:
        hy.context_codes = (size, code_order, [codes[i] for i in order])
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

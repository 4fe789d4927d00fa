"""Merge retained draft nodes with retrieved branches; flatten for verification.

Hybrid trees are stored breadth-first with siblings in ascending token
order, so flattening is deterministic. Node budgets count candidates only;
the root (last committed token) is index 0 and free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
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

    def path_token_sets(self) -> set[tuple[int, ...]]:
        """Root-exclusive token path of every node, as a set (tree identity)."""
        paths: list[tuple[int, ...]] = [()] * self.n_nodes
        out = set()
        for i in range(1, self.n_nodes):
            paths[i] = paths[self.parents[i]] + (int(self.tokens[i]),)
            out.add(paths[i])
        return out


class _Builder:
    """Accumulates nodes, dedupes (parent, token) pairs, emits BFS order."""

    def __init__(self, root_token: int, budget: int):
        self.tokens = [int(root_token)]
        self.parents = [-1]
        self.depths = [0]
        self.origin = [ORIGIN_DRAFT]
        self.logqs = [0.0]
        self.child_map: dict[tuple[int, int], int] = {}
        self.budget = budget

    def n_candidates(self) -> int:
        return len(self.tokens) - 1

    def add(self, parent: int, token: int, origin: int, logq: float) -> int | None:
        """Insert or dedup; returns the node index, or None if out of budget."""
        key = (parent, int(token))
        existing = self.child_map.get(key)
        if existing is not None:
            return existing
        if self.n_candidates() >= self.budget:
            return None
        self.tokens.append(int(token))
        self.parents.append(parent)
        self.depths.append(self.depths[parent] + 1)
        self.origin.append(origin)
        self.logqs.append(logq)
        idx = len(self.tokens) - 1
        self.child_map[key] = idx
        return idx

    def finish(self) -> HybridTree:
        # canonical order: BFS, siblings ascending by token id; each depth is
        # placed using the (already final) positions of its parents
        n = len(self.tokens)
        by_depth: dict[int, list[int]] = {}
        for i in range(1, n):
            by_depth.setdefault(self.depths[i], []).append(i)
        remap = {0: 0}
        order: list[int] = []
        for depth in sorted(by_depth):
            layer = sorted(by_depth[depth], key=lambda i: (remap[self.parents[i]], self.tokens[i]))
            for i in layer:
                order.append(i)
                remap[i] = len(order)
        tokens = np.empty(n, dtype=np.int32)
        parents = np.empty(n, dtype=np.int32)
        depths = np.empty(n, dtype=np.int32)
        origin = np.empty(n, dtype=np.int8)
        logqs = np.empty(n)
        tokens[0] = self.tokens[0]
        parents[0] = -1
        depths[0] = 0
        origin[0] = ORIGIN_DRAFT
        logqs[0] = 0.0
        for old, new in remap.items():
            if old == 0:
                continue
            tokens[new] = self.tokens[old]
            parents[new] = remap[self.parents[old]]
            depths[new] = self.depths[old]
            origin[new] = self.origin[old]
            logqs[new] = self.logqs[old]
        return HybridTree(tokens=tokens, parents=parents, depths=depths, origin=origin, logqs=logqs, budget=self.budget)


def _add_draft_nodes(builder: _Builder, tree: DraftTree, retained: np.ndarray) -> dict[int, int]:
    mapping = {0: 0}
    for i in np.sort(np.asarray(retained)):  # BFS indexing puts parents first
        i = int(i)
        if i == 0:
            continue
        parent = mapping.get(int(tree.parents[i]))
        if parent is None:
            raise StructureError("retained draft set is not parent-closed")
        idx = builder.add(parent, int(tree.tokens[i]), ORIGIN_DRAFT, float(tree.logqs[i]))
        if idx is None:
            raise StructureError("draft nodes exceed the hybrid budget")
        mapping[i] = idx
    return mapping


def _graft_branch(builder: _Builder, branch: RetrievedBranch) -> None:
    mapping = {-1: 0}
    t = branch.template
    for i in range(t.declared_size):
        if not branch.realized[i]:
            continue
        parent = mapping.get(int(t.parents[i]))
        if parent is None:
            continue  # ancestor fell out of budget
        idx = builder.add(parent, int(branch.tokens[i]), ORIGIN_RETRIEVED, float("nan"))
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
    builder = _Builder(tree.root_token, budget)
    _add_draft_nodes(builder, tree, decision.retained)
    _graft_branch(builder, branch)
    return builder.finish()


def draft_only(tree: DraftTree, retained: np.ndarray, budget: int) -> HybridTree:
    builder = _Builder(tree.root_token, budget)
    _add_draft_nodes(builder, tree, retained)
    return builder.finish()


def insert_root_variant(tree: DraftTree, branch: RetrievedBranch, budget: int) -> HybridTree:
    """Static-tree baseline: branch competes with draft candidates at the root.

    Draft nodes are evicted lowest-cumulative-score-first (closure kept) to
    make room for the whole realized branch inside one budget.
    """
    keep = max(budget - branch.realized_count, 0)
    retained = select_retained(tree, keep)
    builder = _Builder(tree.root_token, budget)
    _add_draft_nodes(builder, tree, retained)
    _graft_branch(builder, branch)
    return builder.finish()


def insert_tail_variant(tree: DraftTree, matrix: TransitionMatrix, budget: int, chain_len: int) -> HybridTree:
    """Static-tree baseline: a rank-0 chain appended after the deepest
    highest-score retained leaf, evicting lowest-score draft nodes to fit.
    """
    keep = max(budget - chain_len, 0)
    retained = select_retained(tree, keep)
    builder = _Builder(tree.root_token, budget)
    mapping = _add_draft_nodes(builder, tree, retained)

    kept = retained.tolist()
    has_child = {int(tree.parents[j]) for j in kept if j != 0}
    leaves = [i for i in kept if i not in has_child]
    if not leaves:
        leaves = [0]
    # deepest first, then best score, then stable index
    anchor = min(leaves, key=lambda i: (-int(tree.depths[i]), -float(tree.scores[i]), i))

    cur_token = int(tree.tokens[anchor])
    cur_idx = mapping[anchor]
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
    """Flattened hybrid tree: everything the verifier and masks need."""

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
    def ancestor_mask(self) -> np.ndarray:
        return _kernels.ancestor_mask(self.tree.parents)

    @cached_property
    def position_ids(self) -> np.ndarray:
        return self.prefix_len + self.tree.depths.astype(np.int64)

    @cached_property
    def paths(self) -> list[np.ndarray]:
        """Every root-to-leaf node index sequence, in leaf order."""
        ptr, _ = self.children
        n = self.tree.n_nodes
        out = []
        for i in range(n):
            if ptr[i] != ptr[i + 1]:
                continue
            chain = []
            j = i
            while j >= 0:
                chain.append(j)
                j = int(self.tree.parents[j])
            out.append(np.array(chain[::-1], dtype=np.int32))
        return out


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

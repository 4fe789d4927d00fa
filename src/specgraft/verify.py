"""Lossless verification of hybrid trees against the target model.

Greedy mode walks the target argmax chain through the tree. Stochastic
mode runs a residual acceptance walk that emits tokens with exactly the
target's next-token distribution, conditional on the verified tree: each
child is accepted with the current residual mass of its token; a rejection
zeroes that token and renormalizes, and the final correction/bonus token
is drawn from what remains.

Every node's target row id is returned regardless of acceptance, so the
caller can refresh the transition matrix from the whole verified tree.
Neither mode gathers the nodes' target rows: greedy reads the target's
cached argmax id, and the stochastic walks read ``target.rows[row_id]``,
only for the nodes they visit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .drafttree import HybridTree
from .errors import InputError, StructureError
from .models import MarkovTableModel

TRIAL_CHUNK = 1024  # walk trials per draw of uniforms in first_token_frequencies


@dataclass
class VerifyOutcome:
    accepted_path: list[int]  # node indices, root excluded
    emitted_tokens: list[int]  # accepted tokens + one bonus/correction token
    row_ids: list[int]  # target row id of every node, indexing target.rows

    @property
    def accepted_len(self) -> int:
        return len(self.accepted_path)


def node_row_ids(target: MarkovTableModel, prefix, tree: HybridTree) -> list[int]:
    """Target row id of every node; row ``ids[i]`` of ``target.rows`` predicts
    the successor of node i's token.

    Only the last ``max(target.order, 1)`` tokens of ``prefix`` are read.
    The tree's carried codes are read when their code space is the target's
    and the root's code is the prefix's. Otherwise (a draft of another
    order, a tree built by hand) the codes are computed from the prefix, and
    a node i >= 1 whose parent is not in ``[0, i)`` raises ``StructureError``.
    """
    if tree.n_nodes == 0 or tree.parents[0] != -1:
        raise StructureError("hybrid tree must start at its root")
    order = target.order
    tail = [int(t) for t in prefix[-max(order, 1):]]
    if not tail or tail[-1] != tree.root_token:
        raise StructureError("tree root must be the last committed token")
    root = target.code_of(tail)
    carried = tree.context_codes
    if carried is not None and carried[:2] == (target.vocab.size, order) and carried[2][0] == root:
        return target.row_ids(carried[2])
    parents = tree.parents[1:]
    bad = np.flatnonzero((parents < 0) | (parents >= np.arange(1, tree.n_nodes)))
    if bad.size:
        i = int(bad[0]) + 1
        raise StructureError(f"node {i} has parent {int(parents[i - 1])}, not an earlier node")
    codes = [root]
    target.extend_codes(codes, parents.tolist(), tree.tokens[1:].tolist())
    return target.row_ids(codes)


def verify_greedy(target: MarkovTableModel, prefix, tree: HybridTree) -> VerifyOutcome:
    """Accept the longest root chain matching the target argmax walk.

    The argmax of each node the walk visits comes from the target's cached
    top-1 ids, ties to the lowest token id. The autoregressive step reads
    the same ids, so the emitted step is bit-identical to pure target
    greedy decoding. Children of node c are nodes ``ptr[c] + 1 .. ptr[c +
    1]`` (breadth-first storage).
    """
    ids = node_row_ids(target, prefix, tree)
    ptr = tree.child_ptr.tolist()
    tokens = tree.tokens.tolist()
    path: list[int] = []
    cur = 0
    while True:
        want = target.argmax(ids[cur])
        for c in range(ptr[cur] + 1, ptr[cur + 1] + 1):
            if tokens[c] == want:
                break
        else:
            return VerifyOutcome(
                accepted_path=path,
                emitted_tokens=[tokens[i] for i in path] + [want],
                row_ids=ids,
            )
        path.append(c)
        cur = c


def verify_stochastic(target: MarkovTableModel, prefix, tree: HybridTree, rng: np.random.Generator) -> VerifyOutcome:
    """Residual acceptance walk; the emitted next-token marginal equals the
    target distribution exactly, for any fixed tree. Only the target rows
    of the nodes the walk visits are read."""
    ids = node_row_ids(target, prefix, tree)
    tokens = tree.tokens.tolist()
    uniforms = rng.random(tree.n_nodes + 1).tolist()
    path, emitted = _kernels.stochastic_walk(tokens, tree.child_ptr.tolist(), target.rows, ids, uniforms)
    if emitted < 0:
        raise StructureError("residual exhausted; node distributions are inconsistent")
    return VerifyOutcome(
        accepted_path=path,
        emitted_tokens=[tokens[i] for i in path] + [emitted],
        row_ids=ids,
    )


def first_token_frequencies(
    target: MarkovTableModel,
    prefix,
    tree: HybridTree,
    n_trials: int,
    seed: int,
) -> np.ndarray:
    """Empirical first-emitted-token counts over ``n_trials`` stochastic walks.

    A walk's first token is decided at the root: the acceptance rule of
    :func:`verify_stochastic` gives the root's thresholds and residual once,
    and each trial reads the uniforms a full walk reads there, so the counts
    equal those of full walks. Only the root's target row is read. The
    uniforms are drawn ``TRIAL_CHUNK`` trials at a time; successive draws
    continue one stream, so the counts do not depend on the chunk size. A
    residual exhausted at the root raises :class:`StructureError`; one below
    the root is never reached.
    """
    if n_trials < 0:
        raise InputError(f"n_trials must be >= 0, got {n_trials}")
    ids = node_row_ids(target, prefix, tree)
    tokens, ptr = tree.tokens.tolist(), tree.child_ptr.tolist()
    rng = np.random.default_rng(seed)
    counts = np.zeros(target.vocab.size, dtype=np.int64)
    for lo in range(0, n_trials, TRIAL_CHUNK):
        uniforms = rng.random((min(TRIAL_CHUNK, n_trials - lo), tree.n_nodes + 1))
        counts += _kernels.stochastic_trials(tokens, ptr, target.rows, ids, uniforms)
    return counts

"""Independent brute-force oracles; none share code with the paths they check."""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from specgraft.models import context_code


def context_row(model, context):
    """The model's row for exactly ``context`` (the fallback row if it is not a known context)."""
    return model.rows[model.index.get(context_code(context, model.vocab.size), -1)]


def reference_markov(size, order, seed, sparsity):
    """``build_markov``'s ``(index, rows)``, drawn and normalised one row at a
    time: for each context, exponential weights, then (under sparsity) the
    uniforms that drop weights, the largest weight restored in a row left
    empty."""
    rng = np.random.default_rng(seed)
    rows = np.empty((size**order + 1, size))
    index = {}
    for i, ctx in enumerate(itertools.product(range(size), repeat=order)):
        w = rng.gamma(1.0, 1.0, size=size)
        if sparsity > 0.0:
            drop = rng.random(size) < sparsity
            keep_best = int(np.argmax(w))
            w[drop] = 0.0
            if w.sum() == 0.0:
                w[keep_best] = 1.0
        rows[i] = w / w.sum()
        index[context_code(ctx, size)] = i
    rows[-1] = rows[0] if order == 0 else 1.0 / size
    return index, rows


def reference_ngram(size, corpus, order, smoothing):
    """``train_ngram``'s ``(index, rows)``, each position's context sliced out
    and coded afresh, each count added one at a time."""
    index = {}
    ids = [index.setdefault(context_code(corpus[i - order:i], size), len(index)) for i in range(order, len(corpus))]
    counts = np.zeros((len(index) + 1, size))
    for row, t in zip(ids, corpus[order:]):
        counts[row, t] += 1.0
    for t in corpus:
        counts[-1, t] += 1.0
    return index, (counts + smoothing) / (counts.sum(axis=1, keepdims=True) + smoothing * size)


def ar_greedy(target, prompt, n):
    """Pure autoregressive greedy decode of the target model."""
    out = list(prompt)
    for _ in range(n):
        row = target.next_distribution(out)
        out.append(int(np.argmax(row)))
    return out[len(prompt):]


def enumerate_candidates(draft, context, paths_with_scores, top_k):
    """All (parent path, token, score) children of the given frontier paths."""
    out = []
    for path, score in paths_with_scores:
        row = draft.next_distribution(list(context) + list(path))
        ranked = sorted(range(len(row)), key=lambda t: (-row[t], t))[:top_k]
        for t in ranked:
            if row[t] > 0:
                out.append((list(path) + [t], score + np.log(row[t])))
    return out


def closure_topk_iterative(scores, parents, limit):
    """Repeatedly take the best-scoring node whose parent is already kept."""
    n = len(scores)
    kept = {0}
    while len(kept) - 1 < limit:
        best = None
        for i in range(1, n):
            if i in kept or parents[i] not in kept:
                continue
            if best is None or (scores[i], -i) > (scores[best], -best):
                best = i
        if best is None:
            break
        kept.add(best)
    return sorted(kept)


def reference_walk(tokens, parents, dists, uniforms):
    """One residual-acceptance walk over plain lists (bit-identity oracle).

    Children are tried in index order, each taking the next uniform; an
    accepted child becomes the current node; otherwise the next uniform
    draws the emitted token from the residual by inverse CDF. Returns the
    accepted node path and the emitted token.
    """
    children = {}
    for i in range(1, len(tokens)):
        children.setdefault(int(parents[i]), []).append(i)
    draws = iter(float(u) for u in uniforms)
    path = []
    cur = 0
    while True:
        residual = [float(p) for p in dists[cur]]
        for c in children.get(cur, []):
            t = int(tokens[c])
            a = residual[t]
            if next(draws) < a:
                path.append(c)
                cur = c
                break
            rest = 1.0 - a
            if rest <= 0.0:
                rest = 1.0
            residual[t] = 0.0
            residual = [r / rest for r in residual]
        else:
            u = next(draws)
            acc = 0.0
            emitted = -1
            for t, r in enumerate(residual):
                if r <= 0.0:
                    continue
                emitted = t
                acc += r
                if u < acc:
                    break
            return path, emitted


def greedy_chain_walk(target, prefix, tokens, parents):
    """Longest root chain matching the target's greedy continuation."""
    children = {}
    for i in range(1, len(tokens)):
        children.setdefault(int(parents[i]), []).append(i)
    seq = list(prefix)
    cur = 0
    length = 0
    while True:
        want = int(np.argmax(target.next_distribution(seq)))
        nxt = None
        for c in children.get(cur, []):
            if int(tokens[c]) == want:
                nxt = c
                break
        if nxt is None:
            return length
        seq.append(want)
        cur = nxt
        length += 1


def enumerate_first_token_marginal(tokens, parents, root_dist, child_order=None):
    """Exact first-emission marginal of the residual acceptance scheme.

    Walks the root-level accept/reject branches analytically: child c is
    accepted with the current residual mass of its token; rejection zeroes
    the token and renormalizes; leftover probability draws the correction
    from the final residual.
    """
    if child_order is None:
        child_order = [i for i in range(1, len(tokens)) if parents[i] == 0]
    marginal = np.zeros_like(root_dist)
    residual = np.array(root_dist, dtype=float)
    live = 1.0
    for c in child_order:
        t = int(tokens[c])
        a = float(residual[t])
        marginal[t] += live * a
        live *= 1.0 - a
        residual[t] = 0.0
        s = residual.sum()
        if s <= 0.0:
            live = 0.0
            break
        residual /= s
    marginal += live * residual
    return marginal


def enumerate_block_law(tree, rows, row_ids):
    """Exact law of one residual-acceptance walk's emitted block: the
    accepted path's tokens plus the correction or bonus token, as
    ``{block: probability}``. Node c's target distribution is
    ``rows[row_ids[c]]``.

    Each node's children are tried in index order, child c accepted with the
    current residual mass of its token; a rejection zeroes that token and
    renormalizes by the residual's sum. When no child is accepted, or at a
    leaf, the block ends with a token drawn from what remains.
    """
    tokens, parents = [int(t) for t in tree.tokens], [int(p) for p in tree.parents]
    children = {}
    for i in range(1, len(tokens)):
        children.setdefault(parents[i], []).append(i)
    law = {}

    def visit(node, block, reach):
        residual = [float(p) for p in rows[row_ids[node]]]
        for c in children.get(node, []):
            a = residual[tokens[c]]
            if a > 0.0:
                visit(c, block + (tokens[c],), reach * a)
            reach *= 1.0 - a
            residual[tokens[c]] = 0.0
            total = sum(residual)
            if total <= 0.0:
                return
            residual = [r / total for r in residual]
        for t, r in enumerate(residual):
            if r > 0.0:
                law[block + (t,)] = law.get(block + (t,), 0.0) + reach * r

    visit(0, (), 1.0)
    return law


def stream_law(law, next_row, prefix, horizon):
    """The law of the first ``horizon`` tokens when each block of ``law``
    (as :func:`enumerate_block_law` gives it) is followed by tokens drawn
    from ``next_row(sequence)``, or cut to ``horizon``. With the one-block
    law ``{(): 1.0}`` it is the joint law of ``horizon`` tokens drawn from
    ``next_row`` alone."""
    out = {}

    def extend(seq, p):
        if len(seq) == len(prefix) + horizon:
            key = tuple(seq[len(prefix):])
            out[key] = out.get(key, 0.0) + p
            return
        for t, q in enumerate(next_row(seq)):
            if q > 0.0:
                extend(seq + [t], p * float(q))

    for block, p in law.items():
        extend(list(prefix) + list(block[:horizon]), p)
    return out


def template_walk_realized(template, matrix_rows, root):
    """Count realizable template nodes by resolving each full rank path; a
    cold slot holds -1."""
    realized = 0
    for i in range(template.declared_size):
        token = root
        ok = True
        for rank in template.rank_path(i):
            if rank >= matrix_rows.shape[1] or matrix_rows[token, rank] < 0:
                ok = False
                break
            token = int(matrix_rows[token, rank])
        realized += ok
    return realized


def children_of(tree, i):
    """Indices of node i's children by a scan of the parent array (the
    reference for ``HybridTree.child_ptr``)."""
    return np.flatnonzero(np.asarray(tree.parents) == i)


def branch_tokens(tree, i):
    """Tokens below the root along the path to node i (i's token last)."""
    out = []
    while i != 0:
        out.append(int(tree.tokens[i]))
        i = int(tree.parents[i])
    return out[::-1]


def path_token_sets(tokens, parents):
    """Set of root-exclusive token paths of every node."""
    paths = [()] * len(tokens)
    out = set()
    for i in range(1, len(tokens)):
        paths[i] = paths[parents[i]] + (int(tokens[i]),)
        out.add(paths[i])
    return out


def exhaustive_path_confidence(draft, context, depth, top_k, beam_width):
    """Best depth-d cumulative path probability via explicit enumeration."""
    frontier = [([], 0.0)]
    for _ in range(depth):
        cands = enumerate_candidates(draft, context, frontier, top_k)
        cands.sort(key=lambda ps: -ps[1])
        frontier = cands[:beam_width]
    return float(np.exp(max(s for _, s in frontier)))


class ReferenceBuilder:
    """Node-at-a-time hybrid builder: per-node (parent, token) dedupe, then a
    per-depth Python sort into BFS order with siblings by ascending token."""

    def __init__(self, root_token, budget):
        self.tokens = [int(root_token)]
        self.parents = [-1]
        self.depths = [0]
        self.origin = [0]
        self.scores = [0.0]
        self.child_map = {}
        self.budget = budget

    def add(self, parent, token, origin, score):
        key = (parent, int(token))
        if key in self.child_map:
            return self.child_map[key]
        if len(self.tokens) - 1 >= self.budget:
            return None
        self.tokens.append(int(token))
        self.parents.append(parent)
        self.depths.append(self.depths[parent] + 1)
        self.origin.append(origin)
        self.scores.append(score)
        self.child_map[key] = len(self.tokens) - 1
        return len(self.tokens) - 1

    def finish(self):
        """(tokens, parents, depths, origin, scores) lists in canonical order."""
        by_depth = {}
        for i in range(1, len(self.tokens)):
            by_depth.setdefault(self.depths[i], []).append(i)
        remap = {0: 0}
        order = [0]
        for depth in sorted(by_depth):
            for i in sorted(by_depth[depth], key=lambda i: (remap[self.parents[i]], self.tokens[i])):
                remap[i] = len(order)
                order.append(i)
        parents = [-1] + [remap[self.parents[i]] for i in order[1:]]
        return (
            [self.tokens[i] for i in order],
            parents,
            [self.depths[i] for i in order],
            [self.origin[i] for i in order],
            [self.scores[i] for i in order],
        )


def reference_draft_builder(tree, retained, budget):
    """A ReferenceBuilder holding the retained draft nodes, and the builder
    index of each."""
    builder = ReferenceBuilder(int(tree.tokens[0]), budget)
    mapping = {0: 0}
    for i in sorted(int(i) for i in retained):
        if i:
            mapping[i] = builder.add(mapping[int(tree.parents[i])], int(tree.tokens[i]), 0, float(tree.scores[i]))
    return builder, mapping


def reference_hybrid(tree, retained, budget, parents=(), tokens=(), at=0):
    """Retained draft nodes added one by one, then the realized nodes of a
    retrieved branch, its template's ``parents`` and the ``tokens`` read
    along it, grafted below retained node ``at`` (origin 1, score NaN)."""
    builder, kept = reference_draft_builder(tree, retained, budget)
    mapping = {-1: kept[at]}
    for i, (p, token) in enumerate(zip(parents, tokens)):
        parent = mapping.get(int(p))
        if token != -1 and parent is not None:  # -1: the slot is cold
            idx = builder.add(parent, int(token), 1, float("nan"))
            if idx is not None:
                mapping[i] = idx
    return builder.finish()


def canonical_form(tree):
    """``tree``'s (tokens, parents, depths, origin, scores) lists in canonical
    order, whatever order its siblings are stored in."""
    return reference_hybrid(tree, range(tree.n_nodes), tree.n_nodes)


def reference_tail(tree, retained, budget, matrix, chain_len):
    """Retained draft nodes, then the rank-0 successor chain walked from the
    deepest, best-scoring, lowest-index retained leaf until a cold slot,
    the budget or ``chain_len`` stops it (origin 1, score NaN)."""
    builder, mapping = reference_draft_builder(tree, retained, budget)
    inner = {int(tree.parents[i]) for i in mapping if i}
    depth = builder.depths  # the builder's own, not the tree's derived depths
    anchor = min((i for i in mapping if i not in inner), key=lambda i: (-depth[mapping[i]], -float(tree.scores[i]), i))
    node, token = mapping[anchor], int(tree.tokens[anchor])
    for _ in range(chain_len):
        if matrix.k == 0 or matrix.rows[token, 0] < 0:  # a cold slot holds -1
            break
        token = int(matrix.rows[token, 0])
        node = builder.add(node, token, 1, float("nan"))
        if node is None:
            break
    return builder.finish()


class LayeredTree(NamedTuple):
    """The oracle's draft tree with the layer state it keeps itself: each
    layer's (start, end) node slice and one context tuple per node of the
    deepest layer (the last ``order`` tokens of its context plus branch)."""

    tree: object
    offsets: list
    contexts: list


def new_tree(context):
    """The root-only tree of ``context``'s last token."""
    from specgraft.drafttree import HybridTree

    context = tuple(int(t) for t in context)
    return HybridTree(
        tokens=np.array([context[-1]], dtype=np.int32),
        parents=np.array([-1], dtype=np.int32),
        scores=np.array([0.0]),
    )


def replay_matrix_writes(matrix, target, prompt, emitted, trees=None):
    """The matrix's rows as per-step writes leave them, before each step and
    at the end.

    Replays each verified node in order on a copy of ``matrix.rows`` as
    ``rows[t] = argtopk(target.rows[id], k)`` (stable sort, ties to the lower
    id): the prompt prefill first (prompt token i under the context
    ``prompt[:i + 1]``), then step s's verified nodes: ``trees[s]``
    under the committed prefix ``prompt + emitted[0] + ... + emitted[s - 1]``,
    with their ``node_row_ids``. ``trees=None`` stands for autoregressive
    steps, which verify the root-only tree. Returns ``len(emitted) + 1``
    copies of ``rows``: before each step, then after the last.
    """
    from specgraft.verify import node_row_ids

    rows = matrix.rows.copy()
    k = rows.shape[1]

    def write(tokens, ids):
        for t, i in zip(tokens, ids):
            rows[int(t)] = np.argsort(-target.rows[i], kind="stable")[:k]

    committed = [int(t) for t in prompt]
    write(committed, [target.row_ids([target.code_of(committed[: i + 1])])[0] for i in range(len(committed))])
    states = []
    for s, tokens in enumerate(emitted):
        states.append(rows.copy())
        tree = new_tree(committed) if trees is None else trees[s]
        write(tree.tokens, node_row_ids(target, committed, tree))
        committed += tokens
    states.append(rows.copy())
    return states


def reference_root(context):
    """The root-only layered tree; its frontier context is all of ``context``."""
    context = tuple(int(t) for t in context)
    return LayeredTree(new_tree(context), [(0, 1)], [context])


def reference_expand_layer(layered, draft, top_k, beam_width):
    """One beam layer by the filter-first loop: each frontier row sorted
    afresh, zero-probability candidates removed, the ``beam_width`` best
    of the rest kept by a stable sort on score, and the node arrays
    concatenated onto copies of the tree's. Siblings stay in rank order."""
    from specgraft.drafttree import HybridTree
    from specgraft.models import context_code

    tree = layered.tree
    lo, hi = layered.offsets[-1]
    tail = slice(-draft.order, None) if draft.order else slice(0, 0)
    contexts = [c[tail] for c in layered.contexts]
    ids = np.array([draft.index.get(context_code(c, draft.vocab.size), draft.rows.shape[0] - 1) for c in contexts])
    top = np.argsort(-draft.rows[ids], axis=1, kind="stable")[:, : min(top_k, draft.vocab.size)].astype(np.int32)
    k = top.shape[1]
    cand = np.arange(top.size)
    cand_p = draft.rows[ids[:, None], top].reshape(-1)
    keep = np.flatnonzero(cand_p > 0.0)
    cand, cand_p = cand[keep], cand_p[keep]
    cand_score = np.repeat(tree.scores[lo:hi], k)[cand] + np.log(cand_p)
    if cand.size > beam_width:
        best = np.sort(np.argsort(-cand_score, kind="stable")[:beam_width])
        cand, cand_score = cand[best], cand_score[best]
    slot = cand // k
    token = top.reshape(-1)[cand]
    grown = HybridTree(
        tokens=np.concatenate([tree.tokens, token]),
        parents=np.concatenate([tree.parents, (lo + slot).astype(np.int32)]),
        scores=np.concatenate([tree.scores, cand_score]),
    )
    return LayeredTree(
        grown,
        layered.offsets + [(hi, hi + cand.size)],
        [(contexts[s] + (t,))[tail] for s, t in zip(slot.tolist(), token.tolist())],
    )


def reference_envelope(draft, context, config, gated=True, beams=None):
    """The layer-by-layer envelope: ``reference_expand_layer`` looped, layer
    d under ``beams[d - 1]`` (default ``config.beam_width`` for
    ``config.max_depth`` layers); when ``gated``, checkpoint d tests the
    best path probability of layer d+1 against its threshold and the first
    failure stops. Returns (tree, stage, confidence trace)."""
    if beams is None:
        beams = (config.beam_width,) * config.max_depth
    layered = reference_root(context[-max(draft.order, 1):])
    trace, stage = {}, None
    for depth, beam_width in enumerate(beams, 1):
        layered = reference_expand_layer(layered, draft, config.top_k, beam_width)
        checkpoint = depth - 1
        if gated and checkpoint in config.checkpoints:
            lo, hi = layered.offsets[-1]
            trace[checkpoint] = conf = float(np.exp(layered.tree.scores[lo:hi].max()))
            if not conf > config.thresholds[checkpoint]:
                stage = checkpoint
                break
    return layered.tree, stage, trace

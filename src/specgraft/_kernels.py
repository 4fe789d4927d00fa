"""The stochastic-verification walk kernel, plain Python over numpy arrays.

``stochastic_walk`` runs one walk for :func:`verify.verify_stochastic`;
``stochastic_trials`` runs a batch of them for the exactness audit in
:func:`verify.first_token_frequencies`. Both consume pre-drawn uniforms, so
a walk is a pure function of its inputs.
"""

from __future__ import annotations

import numpy as np

NUMBA_ENABLED = False  # there is no numba path; perfbench/run.py still records this flag

# Point-mass residual scheme. State per accepted node: residual starts as
# the node's target distribution; children are tried in stored
# (canonical) order, child c accepted with
# probability residual[token_c]; a rejection zeroes that token and
# renormalizes. With no child accepted the emitted token is drawn from the
# final residual by inverse CDF; an accepted leaf draws from its own
# distribution. Returns the number of accepted nodes (path written into
# ``path_out``) and the final emitted token.


def stochastic_walk(
    tokens: np.ndarray,
    child_ptr: np.ndarray,
    child_idx: np.ndarray,
    dists: np.ndarray,
    uniforms: np.ndarray,
    path_out: np.ndarray,
) -> tuple[int, int]:
    n_acc = 0
    cur = 0
    u_at = 0
    while True:
        residual = dists[cur].copy()
        accepted_child = -1
        for j in range(child_ptr[cur], child_ptr[cur + 1]):
            c = child_idx[j]
            t = tokens[c]
            a = residual[t]
            if uniforms[u_at] < a:
                u_at += 1
                accepted_child = c
                break
            u_at += 1
            rest = 1.0 - a
            if rest <= 0.0:
                # residual exhausted; rejection here has probability zero
                rest = 1.0
            residual[t] = 0.0
            residual /= rest
        if accepted_child >= 0:
            path_out[n_acc] = accepted_child
            n_acc += 1
            cur = accepted_child
            continue
        # correction / bonus draw from the remaining residual
        u = uniforms[u_at]
        acc = 0.0
        emitted = -1
        for t in range(residual.shape[0]):
            if residual[t] <= 0.0:
                continue
            emitted = t
            acc += residual[t]
            if u < acc:
                break
        return n_acc, emitted


def stochastic_trials(
    tokens: np.ndarray,
    child_ptr: np.ndarray,
    child_idx: np.ndarray,
    dists: np.ndarray,
    uniforms: np.ndarray,
) -> np.ndarray:
    """First-emitted-token counts over ``uniforms.shape[0]`` walk trials."""
    vocab = dists.shape[1]
    counts = np.zeros(vocab, dtype=np.int64)
    path = np.empty(tokens.shape[0], dtype=np.int32)
    for i in range(uniforms.shape[0]):
        n_acc, emitted = stochastic_walk(tokens, child_ptr, child_idx, dists, uniforms[i], path)
        first = tokens[path[0]] if n_acc > 0 else emitted
        counts[first] += 1
    return counts

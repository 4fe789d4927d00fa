"""Hot numeric kernels with numba-jitted and pure-numpy implementations.

The jitted path is used when numba imports cleanly and the environment
variable ``SPECGRAFT_NUMBA`` is not set to ``0``. Both paths consume the
same pre-drawn uniforms, so results are bit-identical either way.
"""

from __future__ import annotations

import os

import numpy as np

_WANT_NUMBA = os.environ.get("SPECGRAFT_NUMBA", "1") != "0"

try:  # pragma: no cover - exercised indirectly via NUMBA_ENABLED
    if not _WANT_NUMBA:
        raise ImportError
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:  # pragma: no cover
    NUMBA_ENABLED = False

    def njit(*args, **kwargs):
        # no-op decorator; keeps one source of truth for the jitted bodies
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


# ---------------------------------------------------------------------------
# ancestor mask


def ancestor_mask_np(parents: np.ndarray) -> np.ndarray:
    """Boolean (n, n) matrix; row i marks i itself and every ancestor of i.

    Parents must precede children (BFS order); the root has parent -1.
    """
    n = parents.shape[0]
    mask = np.zeros((n, n), dtype=np.bool_)
    for i in range(n):
        p = parents[i]
        if p >= 0:
            mask[i] = mask[p]
        mask[i, i] = True
    return mask


@njit(cache=True)
def _ancestor_mask_nb(parents):  # pragma: no cover - jitted
    n = parents.shape[0]
    mask = np.zeros((n, n), dtype=np.bool_)
    for i in range(n):
        p = parents[i]
        if p >= 0:
            for j in range(n):
                mask[i, j] = mask[p, j]
        mask[i, i] = True
    return mask


def ancestor_mask_nb(parents: np.ndarray) -> np.ndarray:
    return _ancestor_mask_nb(np.ascontiguousarray(parents, dtype=np.int32))


# ---------------------------------------------------------------------------
# stochastic verification walk (point-mass residual scheme)
#
# State per accepted node: residual starts as the node's target distribution;
# children are tried in stored (canonical) order, child c accepted with
# probability residual[token_c]; a rejection zeroes that token and
# renormalizes. With no child accepted the emitted token is drawn from the
# final residual by inverse CDF; an accepted leaf draws from its own
# distribution. Returns the number of accepted nodes (path written into
# ``path_out``) and the final emitted token.


def stochastic_walk_np(
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


@njit(cache=True)
def _stochastic_walk_nb(tokens, child_ptr, child_idx, dists, uniforms, path_out):  # pragma: no cover - jitted
    n_acc = 0
    cur = 0
    u_at = 0
    vocab = dists.shape[1]
    residual = np.empty(vocab, dtype=np.float64)
    while True:
        for t in range(vocab):
            residual[t] = dists[cur, t]
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
                rest = 1.0
            residual[t] = 0.0
            for s in range(vocab):
                residual[s] /= rest
        if accepted_child >= 0:
            path_out[n_acc] = accepted_child
            n_acc += 1
            cur = accepted_child
            continue
        u = uniforms[u_at]
        acc = 0.0
        emitted = -1
        for t in range(vocab):
            if residual[t] <= 0.0:
                continue
            emitted = t
            acc += residual[t]
            if u < acc:
                break
        return n_acc, emitted


def stochastic_walk_nb(tokens, child_ptr, child_idx, dists, uniforms, path_out):
    return _stochastic_walk_nb(tokens, child_ptr, child_idx, dists, uniforms, path_out)


def stochastic_trials_np(
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
        n_acc, emitted = stochastic_walk_np(tokens, child_ptr, child_idx, dists, uniforms[i], path)
        first = tokens[path[0]] if n_acc > 0 else emitted
        counts[first] += 1
    return counts


@njit(cache=True)
def _stochastic_trials_nb(tokens, child_ptr, child_idx, dists, uniforms):  # pragma: no cover - jitted
    vocab = dists.shape[1]
    counts = np.zeros(vocab, dtype=np.int64)
    path = np.empty(tokens.shape[0], dtype=np.int32)
    for i in range(uniforms.shape[0]):
        n_acc, emitted = _stochastic_walk_nb(tokens, child_ptr, child_idx, dists, uniforms[i], path)
        if n_acc > 0:
            counts[tokens[path[0]]] += 1
        else:
            counts[emitted] += 1
    return counts


def stochastic_trials_nb(tokens, child_ptr, child_idx, dists, uniforms):
    return _stochastic_trials_nb(tokens, child_ptr, child_idx, dists, uniforms)


if NUMBA_ENABLED:
    ancestor_mask = ancestor_mask_nb
    stochastic_walk = stochastic_walk_nb
    stochastic_trials = stochastic_trials_nb
else:
    ancestor_mask = ancestor_mask_np
    stochastic_walk = stochastic_walk_np
    stochastic_trials = stochastic_trials_np

"""Numba and numpy kernel paths must agree bit-for-bit."""

import numpy as np
import pytest

from specgraft import _kernels as K

from .oracles import reachability_mask


def random_parents(rng, n):
    parents = np.full(n, -1, dtype=np.int32)
    for i in range(1, n):
        parents[i] = rng.integers(0, i)
    return parents


@pytest.mark.parametrize("n", [1, 2, 7, 40, 61])
def test_ancestor_mask_paths_agree(n):
    rng = np.random.default_rng(n)
    parents = random_parents(rng, n)
    a = K.ancestor_mask_np(parents)
    b = K.ancestor_mask_nb(parents)
    assert np.array_equal(a, b)
    assert np.array_equal(a, reachability_mask(parents))


def _chain_case():
    tokens = np.array([0, 1, 2], dtype=np.int32)
    child_ptr = np.array([0, 1, 2, 2], dtype=np.int32)
    child_idx = np.array([1, 2], dtype=np.int32)
    dists = np.array(
        [
            [0.1, 0.6, 0.2, 0.1],
            [0.3, 0.1, 0.5, 0.1],
            [0.25, 0.25, 0.25, 0.25],
        ]
    )
    return tokens, child_ptr, child_idx, dists


def test_stochastic_walk_paths_agree():
    tokens, ptr, idx, dists = _chain_case()
    rng = np.random.default_rng(17)
    for _ in range(500):
        u = rng.random(tokens.shape[0] + 1)
        p1 = np.empty(3, dtype=np.int32)
        p2 = np.empty(3, dtype=np.int32)
        r1 = K.stochastic_walk_np(tokens, ptr, idx, dists, u, p1)
        r2 = K.stochastic_walk_nb(tokens, ptr, idx, dists, u, p2)
        assert r1 == tuple(r2)
        assert np.array_equal(p1[: r1[0]], p2[: r1[0]])


def test_stochastic_trials_paths_agree():
    tokens, ptr, idx, dists = _chain_case()
    uniforms = np.random.default_rng(3).random((4000, tokens.shape[0] + 1))
    c1 = K.stochastic_trials_np(tokens, ptr, idx, dists, uniforms)
    c2 = K.stochastic_trials_nb(tokens, ptr, idx, dists, uniforms)
    assert np.array_equal(c1, c2)
    assert c1.sum() == 4000

"""The walk kernel against a list-based reference walk, and the batched
trials against single walks drawing the same uniforms."""

import numpy as np

from specgraft import _kernels as K
from specgraft.models import VocabSpec, build_markov
from specgraft.verify import node_distributions

from .oracles import reference_walk
from .test_verify import random_package


def _chain_case():
    tokens = np.array([0, 1, 2], dtype=np.int32)
    child_ptr = np.array([0, 1, 2, 2], dtype=np.int32)
    child_idx = np.array([1, 2], dtype=np.int32)
    parents = np.array([-1, 0, 1], dtype=np.int32)
    dists = np.array(
        [
            [0.1, 0.6, 0.2, 0.1],
            [0.3, 0.1, 0.5, 0.1],
            [0.25, 0.25, 0.25, 0.25],
        ]
    )
    return tokens, parents, child_ptr, child_idx, dists


def _tree_case(seed, sparsity):
    vocab = 6 + seed % 5
    target = build_markov(VocabSpec(vocab), 1, seed=seed, sparsity=sparsity)
    pkg = random_package(seed=seed + 50, vocab=vocab, depth=3, top_k=3, beam=6, keep=16)
    _, dists = node_distributions(target, [0], pkg)
    ptr, idx = pkg.children
    return pkg.tokens, pkg.parents, ptr, idx, dists


CASES = [_chain_case()] + [_tree_case(seed, sparsity) for seed in range(4) for sparsity in (0.0, 0.5)]


def test_stochastic_walk_paths_agree():
    rng = np.random.default_rng(17)
    for tokens, parents, ptr, idx, dists in CASES:
        path = np.empty(tokens.shape[0], dtype=np.int32)
        for _ in range(300):
            u = rng.random(tokens.shape[0] + 1)
            n_acc, emitted = K.stochastic_walk(tokens, ptr, idx, dists, u, path)
            assert (path[:n_acc].tolist(), emitted) == reference_walk(tokens, parents, dists, u)


def test_stochastic_trials_paths_agree():
    for tokens, _, ptr, idx, dists in CASES:
        uniforms = np.random.default_rng(3).random((2000, tokens.shape[0] + 1))
        expect = np.zeros(dists.shape[1], dtype=np.int64)
        path = np.empty(tokens.shape[0], dtype=np.int32)
        for u in uniforms:
            n_acc, emitted = K.stochastic_walk(tokens, ptr, idx, dists, u, path)
            expect[tokens[path[0]] if n_acc else emitted] += 1
        assert np.array_equal(K.stochastic_trials(tokens, ptr, idx, dists, uniforms), expect)

"""The walk kernel against a list-based reference walk, and the batched
trials against single walks drawing the same uniforms."""

import numpy as np
import pytest

from specgraft import _kernels as K
from specgraft.errors import InputError, StructureError
from specgraft.models import VocabSpec, build_markov
from specgraft.verify import TRIAL_CHUNK, first_token_frequencies, node_row_ids, verify_stochastic

from .conftest import delta, grow, pruned, table_model
from .oracles import reference_walk
from .test_verify import random_package

# Edge values of a draw: 0 accepts every child with mass; 1, which a
# generator never draws, rejects every child, so a threshold of exactly 1
# reaches the rest <= 0 clamp; 1 - 5e-11 lies past the total of a residual
# that sums to 1 - 1e-10.
EDGE_DRAWS = (0.0, 1.0, 1.0 - 5e-11)


def _case(parents, tokens, dists):
    """(tokens, parents, child_ptr, dists) of a breadth-first tree."""
    parents = np.array(parents, dtype=np.int32)
    ptr = np.searchsorted(parents[1:], np.arange(len(parents) + 1)).astype(np.int32)
    return np.array(tokens, dtype=np.int32), parents, ptr, np.array(dists, dtype=float)


def _chain_case():
    return _case(
        [-1, 0, 1],
        [0, 1, 2],
        [
            [0.1, 0.6, 0.2, 0.1],
            [0.3, 0.1, 0.5, 0.1],
            [0.25, 0.25, 0.25, 0.25],
        ],
    )


def _delta_case():
    # the root's first child takes the whole mass, so a = 1; rejecting it
    # (draw 1.0) leaves rest = 0, clamped to 1.0, and an exhausted residual
    return _case([-1, 0, 0, 1], [0, 1, 2, 3], [delta(4, 1), delta(4, 3), [0.5, 0.5, 0.0, 0.0], delta(4, 0)])


def _sparse_case():
    # rows that sum to 1 - 1e-10 and end in zeros: a draw past the residual's
    # total must give the last positive token, never a trailing zero-mass one
    short = 0.5 - 1e-10
    return _case(
        [-1, 0, 0, 1],
        [0, 0, 3, 2],
        [
            [0.25, 0.25, short, 0.0, 0.0, 0.0],
            [0.0, 0.5, short, 0.0, 0.0, 0.0],
            [0.5, short, 0.0, 0.0, 0.0, 0.0],
            [short, 0.0, 0.5, 0.0, 0.0, 0.0],
        ],
    )


def _shared_token_case():
    # siblings sharing a token: once the first is rejected, its token has no
    # residual mass left for the second
    return _case([-1, 0, 0, 0], [0, 1, 1, 2], [[0.2, 0.5, 0.3], [0.1, 0.1, 0.8], [0.6, 0.2, 0.2], [0.3, 0.3, 0.4]])


def _exhausted_case():
    # unnormalised rows: rejecting the root's only child leaves no mass
    return _case([-1, 0], [0, 0], [[0.5, 0.0, 0.0], [0.2, 0.3, 0.5]])


def _tree_case(seed, sparsity):
    vocab = 6 + seed % 5
    target = build_markov(VocabSpec(vocab), 1, seed=seed, sparsity=sparsity)
    pkg = random_package(seed=seed + 50, vocab=vocab, depth=3, top_k=3, beam=6, keep=16)
    dists = target.rows[node_row_ids(target, [0], pkg)]
    return pkg.tokens, pkg.parents, pkg.child_ptr, dists


CASES = [_chain_case(), _delta_case(), _sparse_case(), _shared_token_case(), _exhausted_case()] + [
    _tree_case(seed, sparsity) for seed in range(4) for sparsity in (0.0, 0.5)
]


def _walk(tokens, ptr, dists, u, row_ids=None):
    """``stochastic_walk`` on a case's arrays; node i reads row i of
    ``dists`` unless ``row_ids`` says otherwise."""
    if row_ids is None:
        row_ids = list(range(dists.shape[0]))
    return K.stochastic_walk(tokens.tolist(), ptr.tolist(), dists, row_ids, u.tolist())


def _trials(tokens, ptr, dists, uniforms, row_ids=None):
    """``stochastic_trials`` on a case's arrays, rows read as in :func:`_walk`."""
    if row_ids is None:
        row_ids = list(range(dists.shape[0]))
    return K.stochastic_trials(tokens.tolist(), ptr.tolist(), dists, row_ids, uniforms)


def _draws(n_rows, width, seed):
    """Generator rows, then one row of each edge value."""
    rows = np.random.default_rng(seed).random((n_rows, width))
    return np.vstack([rows] + [np.full((1, width), u) for u in EDGE_DRAWS])


def test_stochastic_walk_paths_agree():
    for tokens, parents, ptr, dists in CASES:
        for u in _draws(300, tokens.shape[0] + 1, 17):
            assert _walk(tokens, ptr, dists, u) == reference_walk(tokens, parents, dists, u)


def _visited_rows(dists, visited):
    """``dists`` in reverse, NaN on every row but those of the nodes ``visited``."""
    rows = np.full_like(dists, np.nan)
    rows[visited] = dists[visited]
    return rows[::-1]


def test_walk_reads_only_the_rows_it_visits():
    # every row the walks do not visit is NaN, and the rows are stored in
    # reverse, reached through row ids: the outcomes are unchanged
    for tokens, parents, ptr, dists in CASES:
        n = tokens.shape[0]
        reversed_ids = [n - 1 - i for i in range(n)]
        uniforms = _draws(100, n + 1, 29)
        walks = [reference_walk(tokens, parents, dists, u) for u in uniforms]
        for u, (path, emitted) in zip(uniforms, walks):
            assert _walk(tokens, ptr, _visited_rows(dists, [0] + path), u, reversed_ids) == (path, emitted)
        # the trials decide each first token at the root, so they read its row alone
        rows = _visited_rows(dists, [0])
        firsts = [tokens[path[0]] if path else emitted for path, emitted in walks]
        if -1 in firsts:  # a residual exhausted at the root
            with pytest.raises(StructureError):
                _trials(tokens, ptr, rows, uniforms, reversed_ids)
        else:
            assert np.array_equal(_trials(tokens, ptr, rows, uniforms, reversed_ids), np.bincount(firsts, minlength=dists.shape[1]))


def test_edge_draws_reach_the_clamp_and_the_fallback():
    tokens, _, ptr, dists = _delta_case()
    assert _walk(tokens, ptr, dists, np.full(5, 1.0)) == ([], -1)
    tokens, _, ptr, dists = _sparse_case()
    # root: child 1 (token 0) rejected, child 2 (token 3) has no mass; the
    # residual [0, 1/3, short/0.75, 0, 0, 0] sums below the draw
    assert _walk(tokens, ptr, dists, np.full(5, 1.0 - 5e-11)) == ([], 2)


def test_stochastic_trials_paths_agree():
    for tokens, _, ptr, dists in CASES:
        uniforms = _draws(2000, tokens.shape[0] + 1, 3)
        expect = np.zeros(dists.shape[1], dtype=np.int64)
        exhausted = False
        for u in uniforms:
            path, emitted = _walk(tokens, ptr, dists, u)
            exhausted |= emitted < 0
            expect[tokens[path[0]] if path else emitted] += 1
        if exhausted:
            with pytest.raises(StructureError):
                _trials(tokens, ptr, dists, uniforms)
        else:
            assert np.array_equal(_trials(tokens, ptr, dists, uniforms), expect)


def test_exhausted_residual_raises():
    tokens, _, ptr, dists = _exhausted_case()
    assert _walk(tokens, ptr, dists, np.array([0.7, 0.1])) == ([], -1)
    with pytest.raises(StructureError):
        _trials(tokens, ptr, dists, np.array([[0.1, 0.1], [0.7, 0.1]]))

    # a normalised row whose last child's threshold rounds to 1 - 2^-53:
    # the largest generator draw rejects all three children
    target = table_model(4, 1, {(0,): [0.01, 0.3, 0.69, 0.0]})
    tree = grow(target, [0], 1, top_k=3)
    hy = pruned(tree, np.arange(tree.n_nodes), tree.n_nodes)
    assert hy.tokens.tolist() == [0, 0, 1, 2]

    class LargestDraw:
        def random(self, size):
            return np.full(size, 1.0 - 2.0**-53)

    with pytest.raises(StructureError):
        verify_stochastic(target, [0], hy, LargestDraw())


def test_residual_exhausted_below_the_root():
    # the root accepts node 1 on a draw below 0.75; node 1's unnormalised row
    # leaves no mass once its child is rejected, so that walk emits -1, but
    # its first token is node 1's and the audit counts it
    tokens, parents, ptr, dists = _case([-1, 0, 1], [0, 1, 1], [[0.25, 0.75, 0.0], [0.0, 0.5, 0.0], [0.2, 0.3, 0.5]])
    uniforms = np.array([[0.1, 0.7, 0.3, 0.3], [0.9, 0.2, 0.3, 0.3]])
    walks = [_walk(tokens, ptr, dists, u) for u in uniforms]
    assert walks == [([1], -1), ([], 0)]
    assert walks == [reference_walk(tokens, parents, dists, u) for u in uniforms]
    assert _trials(tokens, ptr, dists, uniforms).tolist() == [1, 1, 0]


def test_chunked_draws_match_single_walks():
    target = build_markov(VocabSpec(8), 1, seed=4, sparsity=0.3)
    pkg = random_package(seed=9, vocab=8, depth=3, keep=15)
    n_trials = 2 * TRIAL_CHUNK + 7
    dists = target.rows[node_row_ids(target, [0], pkg)]
    ptr = pkg.child_ptr
    expect = np.zeros(8, dtype=np.int64)
    for u in np.random.default_rng(21).random((n_trials, pkg.n_nodes + 1)):
        path, emitted = _walk(pkg.tokens, ptr, dists, u)
        expect[pkg.tokens[path[0]] if path else emitted] += 1
    assert np.array_equal(first_token_frequencies(target, [0], pkg, n_trials, seed=21), expect)
    assert not first_token_frequencies(target, [0], pkg, 0, seed=21).any()
    with pytest.raises(InputError):
        first_token_frequencies(target, [0], pkg, -1, seed=21)

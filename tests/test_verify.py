import itertools
from dataclasses import replace

import numpy as np
import pytest

from specgraft.drafttree import HybridTree, select_retained
from specgraft.errors import StructureError
from specgraft.hybrid import flatten
from specgraft.models import VocabSpec, build_markov
from specgraft.verify import (
    first_token_frequencies,
    node_row_ids,
    verify_greedy,
    verify_stochastic,
)

from .conftest import delta, grow, pruned, table_model
from .oracles import ar_greedy, children_of, context_row, enumerate_first_token_marginal, greedy_chain_walk
from .test_drafttree import dyadic_model


def chain_package(model, prefix, length):
    tree = grow(model, prefix, length, top_k=1)
    hy = pruned(tree, select_retained(tree, 60), 60)
    return flatten(hy, len(prefix) - 1)


def random_package(seed, vocab=16, depth=3, top_k=3, beam=6, keep=20, prefix=(0,)):
    draft = build_markov(VocabSpec(vocab), 1, seed=seed)
    tree = grow(draft, list(prefix), depth, top_k, beam)
    hy = pruned(tree, select_retained(tree, keep), 60)
    return flatten(hy, len(prefix) - 1)


class TestNodeDistributions:
    def test_det4_is_delta(self, det4):
        pkg = chain_package(det4, [2], 3)
        dists = det4.rows[node_row_ids(det4, [2], pkg)]
        # node with token 2 predicts token 3 whatever the shape
        for i in range(pkg.n_nodes):
            if pkg.tokens[i] == 2:
                assert np.array_equal(dists[i], delta(4, 3))

    def test_sibling_conditioning_differs(self):
        model = build_markov(VocabSpec(6), 1, seed=1)
        pkg = random_package(seed=1, vocab=6, depth=1, top_k=3)
        dists = model.rows[node_row_ids(model, [0], pkg)]
        sib = children_of(pkg, 0)
        assert len(sib) >= 2
        assert not np.array_equal(dists[sib[0]], dists[sib[1]])

    def test_matches_path_reconstruction_oracle(self):
        model = build_markov(VocabSpec(16), 2, seed=42)
        pkg = random_package(seed=42, vocab=16, depth=3, keep=9, prefix=(4, 2))
        assert pkg.n_nodes == 10
        dists = model.rows[node_row_ids(model, [4, 2], pkg)]
        for i in range(pkg.n_nodes):
            path = []
            j = i
            while j != 0:
                path.append(int(pkg.tokens[j]))
                j = int(pkg.parents[j])
            seq = [4, 2] + path[::-1]
            assert np.array_equal(dists[i], model.next_distribution(seq))


    def test_rejects_a_tree_not_rooted_at_the_last_token(self, det4):
        hy = chain_package(det4, [2], 2)
        rootless = replace(hy, parents=np.array([0, 0, 1], dtype=np.int32))
        for tree, prefix in ((rootless, [2]), (hy, [1])):
            with pytest.raises(StructureError):
                verify_greedy(det4, prefix, tree)
        with pytest.raises(StructureError):
            flatten(rootless, 0)


class TestMalformedParents:
    """A hand-built tree carries no codes, so verification computes them from
    the prefix, and refuses a node i >= 1 whose parent is not in [0, i):
    one pointing forward, one below -1 and a second root."""

    ENTRY_POINTS = {
        "greedy": lambda target, prefix, tree: verify_greedy(target, prefix, tree),
        "stochastic": lambda target, prefix, tree: verify_stochastic(target, prefix, tree, np.random.default_rng(0)),
        "first_token_frequencies": lambda target, prefix, tree: first_token_frequencies(target, prefix, tree, 8, 0),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("parents", [[-1, 2, 0], [-1, -2, 1], [-1, -1, 0]])
    def test_a_parent_outside_the_earlier_nodes_is_refused(self, uni4, entry, parents):
        tree = HybridTree(np.array([1, 2, 3], dtype=np.int32), np.array(parents, dtype=np.int32), np.zeros(3))
        with pytest.raises(StructureError, match=f"^node 1 has parent {parents[1]}, not an earlier node$"):
            self.ENTRY_POINTS[entry](uni4, [0, 1], tree)


class TestVerifyGreedy:
    def test_det4_chain(self, det4):
        pkg = chain_package(det4, [0], 3)
        out = verify_greedy(det4, [0], pkg)
        assert out.accepted_len == 3
        assert out.emitted_tokens == [1, 2, 3, 0]
        assert len(out.row_ids) == pkg.n_nodes

    def test_immediate_miss_emits_bonus(self, det4):
        # depth-1 children all different from the target argmax
        tree = table_model(4, 1, {(t,): delta(4, (t + 2) % 4) for t in range(4)})
        pkg = chain_package(tree, [0], 1)  # proposes token 2
        out = verify_greedy(det4, [0], pkg)
        assert out.accepted_len == 0
        assert out.emitted_tokens == [1]

    def test_matches_chain_walk_oracle(self):
        target = build_markov(VocabSpec(16), 1, seed=42)
        for seed in range(8):
            pkg = random_package(seed=seed, vocab=16, depth=5, keep=60)
            out = verify_greedy(target, [0], pkg)
            expect = greedy_chain_walk(target, [0], pkg.tokens.tolist(), pkg.parents.tolist())
            assert out.accepted_len == expect

    def test_accepted_path_is_root_chain(self):
        target = build_markov(VocabSpec(12), 1, seed=3)
        pkg = random_package(seed=5, vocab=12, depth=4, keep=25)
        out = verify_greedy(target, [0], pkg)
        prev = 0
        for i in out.accepted_path:
            assert int(pkg.parents[i]) == prev
            prev = i
        assert len(out.emitted_tokens) == out.accepted_len + 1

    @pytest.mark.parametrize("order,seed", [(1, 0), (1, 1), (1, 2), (2, 3), (2, 4), (2, 5)])
    def test_tied_maxima_go_to_the_lowest_id(self, order, seed):
        # dyadic rows tie often; contexts left out of the table read the
        # uniform fallback row, a tie across the whole vocabulary
        dyadic = dyadic_model(5, order, seed)
        rng = np.random.default_rng(seed)
        contexts = itertools.product(range(5), repeat=order)  # the order dyadic_model fills its table in
        table = {ctx: context_row(dyadic, ctx) for ctx in contexts if rng.random() < 0.7}
        target = table_model(5, order, table)
        prefix = [int(t) for t in rng.integers(0, 5, size=order)]
        tree = grow(target, prefix, depth=4, top_k=3, beam=20)
        hy = pruned(tree, np.arange(tree.n_nodes), tree.n_nodes)
        assert 1 not in target._topk  # the top-1 cache starts cold
        outs = [verify_greedy(target, prefix, hy) for _ in range(2)]  # cold, then warm
        rows = target.rows[outs[0].row_ids]
        assert ((rows == rows.max(axis=1, keepdims=True)).sum(axis=1) > 1).any()
        for out in outs:
            assert out.accepted_len == greedy_chain_walk(target, prefix, hy.tokens.tolist(), hy.parents.tolist())
            last = out.accepted_path[-1] if out.accepted_path else 0
            assert out.emitted_tokens[-1] == int(np.argmax(rows[last]))
            assert out.emitted_tokens == ar_greedy(target, prefix, out.accepted_len + 1)


class TestVerifyStochastic:
    def test_single_pointmass_child_acceptance(self):
        # one child with target prob p: accepted w.p. exactly p, else the
        # correction comes from the renormalized remainder
        target = table_model(4, 1, {(0,): [0.1, 0.6, 0.2, 0.1]})
        pkg = chain_package(table_model(4, 1, {(0,): delta(4, 1)}), [0], 1)
        n = 200_000
        counts = first_token_frequencies(target, [0], pkg, n, seed=9)
        freq = counts / n
        assert freq[1] == pytest.approx(0.6, abs=0.005)
        # rejected mass splits proportionally to [0.1, 0, 0.2, 0.1]/0.4
        assert freq[2] == pytest.approx(0.4 * 0.5, abs=0.005)

    def test_marginal_matches_enumeration_to_1e12(self):
        for seed in range(12):
            vocab = 4 + seed % 3
            target = build_markov(VocabSpec(vocab), 1, seed=seed)
            pkg = random_package(seed=seed + 100, vocab=vocab, depth=2, top_k=2, keep=8)
            dists = target.rows[node_row_ids(target, [0], pkg)]
            kids = [i for i in range(1, pkg.n_nodes) if pkg.parents[i] == 0]
            marginal = enumerate_first_token_marginal(pkg.tokens.tolist(), pkg.parents.tolist(), dists[0], kids)
            assert np.abs(marginal - dists[0]).max() <= 1e-12

    def test_empirical_tv_against_target(self):
        target = build_markov(VocabSpec(4), 1, seed=77)
        pkg = random_package(seed=77, vocab=4, depth=2, top_k=2, keep=2)
        assert pkg.n_nodes == 3
        dists = target.rows[node_row_ids(target, [0], pkg)]
        counts = first_token_frequencies(target, [0], pkg, 1_000_000, seed=5)
        freq = counts / counts.sum()
        assert 0.5 * np.abs(freq - dists[0]).sum() <= 0.003

    def test_outcome_shape_and_progress(self):
        target = build_markov(VocabSpec(8), 1, seed=2)
        pkg = random_package(seed=3, vocab=8, depth=3, keep=15)
        for s in range(20):
            out = verify_stochastic(target, [0], pkg, np.random.default_rng(s))
            assert len(out.emitted_tokens) == out.accepted_len + 1
            assert out.emitted_tokens  # always at least the correction token
            prev = 0
            for i in out.accepted_path:
                assert int(pkg.parents[i]) == prev
                prev = i

    def test_deterministic_under_seed(self):
        target = build_markov(VocabSpec(8), 1, seed=2)
        pkg = random_package(seed=4, vocab=8, depth=3, keep=15)
        a = verify_stochastic(target, [0], pkg, np.random.default_rng(11))
        b = verify_stochastic(target, [0], pkg, np.random.default_rng(11))
        assert a.emitted_tokens == b.emitted_tokens and a.accepted_path == b.accepted_path

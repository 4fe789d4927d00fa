from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgraft import engine, hybrid
from specgraft.config import load_run_config
from specgraft.drafttree import (
    ORIGIN_DRAFT,
    ORIGIN_RETRIEVED,
    HybridTree,
    PruneConfig,
    child_pointers,
    resolve_stage,
    select_retained,
)
from specgraft.engine import NO_BRANCH, TREE_METHODS
from specgraft.errors import ConfigError, StructureError
from specgraft.hybrid import (
    flatten,
    merge,
    render_tree,
    tail_anchor,
)
from specgraft.models import DraftDerivation, MarkovTableModel, VocabSpec, build_markov, derive_draft
from specgraft.retrieval import (
    COLD,
    StageTemplate,
    builtin_templates,
    instantiate,
    new_matrix,
    template_from_depth_counts,
    template_prefix,
    warmup,
)

from .conftest import gated, grow, pruned, table_model, ungated
from .oracles import (
    canonical_form,
    children_of,
    closure_topk_iterative,
    new_tree,
    path_token_sets,
    reference_expand_layer,
    reference_hybrid,
    reference_root,
    reference_tail,
    template_walk_realized,
)
from .test_retrieval import full_matrix

ROOT = Path(__file__).resolve().parent.parent


def seeded_setup(vocab=64, seed=42, prefix=(3,), prune=None):
    prune = prune or PruneConfig()
    target = build_markov(VocabSpec(vocab), 1, seed=seed)
    tree = ungated(target, list(prefix), prune)
    return target, tree, prune


def stage_retained(draft, context, prune):
    """The rank cut of the gated tree: its stage's draft budget."""
    tree, stage, _ = gated(draft, context, prune)
    return select_retained(tree, prune.draft_budget(stage))


SIZE_ZERO = template_prefix(builtin_templates()["d5"], 0)


def root_merge(tree, retained, budget, matrix, template):
    """The nodes ``retained`` of ``tree`` with ``template``'s branch, read
    from ``matrix`` below the root, grafted at the root."""
    return merge(tree, retained, budget, 0, template.parents, instantiate(matrix, template, tree.root_token))


def root_variant(tree, matrix, template, budget):
    """The graft_root baseline: the realized branch evicts the lowest-score
    draft nodes, then is grafted at the root."""
    tokens = instantiate(matrix, template, tree.root_token)
    retained = select_retained(tree, max(budget - np.count_nonzero(tokens != COLD), 0))
    return merge(tree, retained, budget, 0, template.parents, tokens)


def tail_variant(tree, matrix, budget, chain_len):
    """The graft_tail baseline: the rank-0 chain of ``chain_len`` nodes read
    below the cut's :func:`tail_anchor` and grafted there; ``merge`` drops
    every chain node past the budget."""
    retained = select_retained(tree, max(budget - chain_len, 0))
    at = tail_anchor(tree, retained)
    chain = StageTemplate(np.arange(-1, chain_len - 1, dtype=np.int32), np.zeros(chain_len, dtype=np.int32))
    return merge(tree, retained, budget, at, chain.parents, instantiate(matrix, chain, int(tree.tokens[at])))


class TestMerge:
    def test_size_zero_branch_is_identity(self):
        _, tree, prune = seeded_setup()
        retained = stage_retained(build_markov(VocabSpec(64), 1, seed=42), [3], prune)
        base = pruned(tree, retained, prune.total_budget)
        merged = root_merge(tree, retained, prune.total_budget, new_matrix(64, 10), SIZE_ZERO)
        assert np.array_equal(base.tokens, merged.tokens)
        assert np.array_equal(base.parents, merged.parents)

    def test_stage_d0_fills_the_budget(self):
        # root row supported on 0..15 only; shift=32 puts depth-1 retrieved
        # tokens at 32..39, so no (root, token) dedup can occur
        rng = np.random.default_rng(7)
        rows = {}
        for t in range(64):
            w = np.zeros(64)
            if t == 0:
                w[:16] = rng.gamma(1.0, 1.0, 16)
            else:
                w[:] = rng.gamma(1.0, 1.0, 64)
            rows[(t,)] = w / w.sum()
        draft = table_model(64, 1, rows)
        prune = PruneConfig(thresholds={0: 0.999, 1: 0.13, 5: 0.51})
        tree, stage, _ = gated(draft, [0], prune)
        retained = stage_retained(draft, [0], prune)
        assert stage == 0 and len(retained) == 9
        matrix = full_matrix(64, 10, shift=32)
        merged = root_merge(tree, retained, prune.total_budget, matrix, builtin_templates()["d0"])
        n_draft, n_retrieved = merged.counts_by_origin()
        assert (n_draft, n_retrieved) == (8, 52)
        assert merged.n_candidates == 60

    def test_dedup_keeps_draft_and_reparents(self):
        # draft: root -> 7; retrieved depth-1 is also 7, with a child 9
        tree = HybridTree(
            tokens=np.array([0, 7], dtype=np.int32),
            parents=np.array([-1, 0], dtype=np.int32),
            scores=np.array([0.0, -0.1]),
        )
        matrix = new_matrix(16, 2)
        matrix.rows[0] = [7, 3]
        matrix.rows[7] = [9, 4]
        template = template_prefix(builtin_templates()["d5"], 5)
        tokens = instantiate(matrix, template, 0)
        merged = merge(tree, np.array([0, 1]), 60, 0, template.parents, tokens)
        # exactly one child with token 7 under the root, tagged draft
        root_kids = children_of(merged, 0)
        sevens = [i for i in root_kids if merged.tokens[i] == 7]
        assert len(sevens) == 1
        assert merged.origin[sevens[0]] == ORIGIN_DRAFT
        # the retrieved child 9 re-parented onto the surviving draft node
        kids = children_of(merged, sevens[0])
        assert any(merged.tokens[i] == 9 and merged.origin[i] == ORIGIN_RETRIEVED for i in kids)
        # path-set union oracle
        expect = path_token_sets(tree.tokens, tree.parents) | path_token_sets(
            [0] + [int(t) for t in tokens[tokens != COLD]],
            _branch_parents(template, tokens),
        )
        assert path_token_sets(merged.tokens, merged.parents) == expect

    def test_graft_drops_the_subtree_of_a_dropped_node(self):
        # a cold node and its child; a chain that runs past the budget; a
        # repeat of the chain's head, merged, whose new child is dropped
        parents = np.array([-1, 0, -1, 2, 3, 4, -1, 6, 7], dtype=np.int32)
        tokens = np.array([COLD, 5, 1, 2, 3, 4, 1, 2, 9], dtype=np.int32)
        hy = merge(new_tree([0]), [0], 3, 0, parents, tokens)
        assert hy.tokens.tolist() == [0, 1, 2, 3]
        assert hy.parents.tolist() == [-1, 0, 1, 2]
        assert hy.origin.tolist() == [ORIGIN_DRAFT] + [ORIGIN_RETRIEVED] * 3

    def test_graft_point_must_be_kept(self, det4):
        tree = grow(det4, [0], 3, top_k=1)  # the chain 0 -> 1 -> 2 -> 3
        chain = (np.array([-1, 0], dtype=np.int32), np.array([3, 0], dtype=np.int32))
        hy = merge(tree, [0, 1], 4, 1, *chain)
        assert hy.tokens.tolist() == [0, 1, 3, 0]
        assert hy.parents.tolist() == [-1, 0, 1, 2]
        assert hy.origin.tolist() == [ORIGIN_DRAFT] * 2 + [ORIGIN_RETRIEVED] * 2
        with pytest.raises(StructureError, match="graft point 2"):
            merge(tree, [0, 1], 4, 2, *chain)


def _branch_parents(template, tokens):
    """Branch (template) parents re-indexed over realized nodes, root=0."""
    remap = {-1: 0}
    parents = [(-1)]
    n = 1
    for i in range(template.declared_size):
        if tokens[i] == COLD:
            continue
        remap[i] = n
        parents.append(remap[int(template.parents[i])])
        n += 1
    return parents


class TestFlatten:
    def test_chain_positions(self, det4):
        tree = grow(det4, [0], 3, top_k=1)
        hy = pruned(tree, select_retained(tree, 60), 60)
        assert flatten(hy, prefix_len=5) is hy
        assert hy.n_nodes == 4
        assert hy.depths.tolist() == [0, 1, 2, 3]

    def test_sibling_order_canonical(self):
        # same node set inserted in different orders flattens identically
        _, tree, prune = seeded_setup(seed=13)
        retained = select_retained(tree, 30)
        a = pruned(tree, retained, 60)
        b = pruned(tree, retained[::-1], 60)
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(a.parents, b.parents)


class TestStaticVariants:
    def test_root_with_size_zero_branch_unchanged(self):
        _, tree, prune = seeded_setup(seed=21)
        dense = pruned(tree, select_retained(tree, prune.total_budget), prune.total_budget)
        rooted = root_variant(tree, new_matrix(64, 10), SIZE_ZERO, prune.total_budget)
        assert np.array_equal(dense.tokens, rooted.tokens)

    def test_tail_arithmetic(self):
        _, tree, prune = seeded_setup(seed=23)
        matrix = full_matrix(64, 10, shift=29)
        hy = tail_variant(tree, matrix, prune.total_budget, chain_len=3)
        n_draft, n_retrieved = hy.counts_by_origin()
        assert (n_draft, n_retrieved) == (57, 3)
        # chain nodes form a single path below a retained leaf
        chain = [i for i in range(hy.n_nodes) if hy.origin[i] == ORIGIN_RETRIEVED]
        assert len(chain) == 3
        for i in chain[1:]:
            assert hy.parents[i] in chain or hy.origin[hy.parents[i]] == ORIGIN_DRAFT

    def test_tail_chain_longer_than_templates(self):
        _, tree, prune = seeded_setup(seed=23)
        matrix = full_matrix(64, 10, shift=29)
        with pytest.raises(ConfigError):  # no depth-count template is this deep
            template_from_depth_counts([1] * 12)
        hy = tail_variant(tree, matrix, prune.total_budget, chain_len=12)
        assert hy.counts_by_origin() == (48, 12)
        chain = np.flatnonzero(hy.origin == ORIGIN_RETRIEVED)
        assert hy.origin[hy.parents[chain[0]]] == ORIGIN_DRAFT
        assert hy.parents[chain[1:]].tolist() == chain[:-1].tolist()
        assert hy.tokens[chain[1:]].tolist() == [(t + 29) % 64 for t in hy.tokens[chain[:-1]].tolist()]
        retained = select_retained(tree, prune.total_budget - 12)
        _assert_matches_reference(hy, reference_tail(tree, retained, prune.total_budget, matrix, 12))

    def test_root_eviction_matches_closure_oracle(self):
        _, tree, prune = seeded_setup(seed=31)
        matrix = full_matrix(64, 10, shift=41)
        assert np.count_nonzero(instantiate(matrix, builtin_templates()["d5"], tree.root_token) != COLD) == 20
        hy = root_variant(tree, matrix, builtin_templates()["d5"], prune.total_budget)
        kept_oracle = closure_topk_iterative(tree.scores.tolist(), tree.parents.tolist(), prune.total_budget - 20)
        expect_paths = path_token_sets(
            [int(tree.tokens[i]) for i in kept_oracle],
            [kept_oracle.index(int(tree.parents[i])) if i else -1 for i in kept_oracle],
        )
        draft_paths = {
            p for p in path_token_sets(hy.tokens, hy.parents) if _origin_of_path(hy, p) == ORIGIN_DRAFT
        }
        assert draft_paths == expect_paths

    def test_subtree_escape(self):
        _, tree, prune = seeded_setup(seed=37)
        dense = pruned(tree, select_retained(tree, prune.total_budget), prune.total_budget)
        matrix = full_matrix(64, 10, shift=45)
        retained = stage_retained(build_markov(VocabSpec(64), 1, seed=37), [3], prune)
        merged = root_merge(tree, retained, prune.total_budget, matrix, builtin_templates()["d0"])
        dense_paths = path_token_sets(dense.tokens, dense.parents)
        merged_paths = path_token_sets(merged.tokens, merged.parents)
        assert merged_paths - dense_paths  # hybrid is not confined to the dense tree

    def test_budget_never_exceeded(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            vocab = int(rng.integers(16, 64))
            _, tree, prune = seeded_setup(vocab=vocab, seed=int(rng.integers(1000)))
            matrix = full_matrix(vocab, 10, shift=int(rng.integers(1, vocab)))
            for builder in (
                lambda: root_variant(tree, matrix, builtin_templates()["d5"], 60),
                lambda: tail_variant(tree, matrix, 60, 8),
            ):
                assert builder().n_candidates <= 60


def _origin_of_path(hy, path):
    """Origin of the node whose root-exclusive token path equals ``path``."""
    node_paths = {(): 0}
    for i in range(1, hy.n_nodes):
        parent_path = [k for k, v in node_paths.items() if v == hy.parents[i]]
        node_paths[parent_path[0] + (int(hy.tokens[i]),)] = i
    return int(hy.origin[node_paths[path]])


class TestFlattenProperties:
    @given(st.integers(0, 10**6), st.integers(2, 40))
    @settings(max_examples=50, deadline=None)
    def test_children_csr_on_random_trees(self, seed, n):
        rng = np.random.default_rng(seed)
        # each node hangs below the root (-1) or an earlier node; repeated
        # (parent, token) pairs merge
        parents = np.array([rng.integers(-1, i) for i in range(n)], dtype=np.int32)
        hy = merge(new_tree([0]), [0], n + 1, 0, parents, rng.integers(0, 12, size=n).astype(np.int32))
        ptr = hy.child_ptr
        for i in range(hy.n_nodes):
            assert list(range(ptr[i] + 1, ptr[i + 1] + 1)) == children_of(hy, i).tolist()


def _as_tree(lists):
    """A tree from the oracle's (tokens, parents, depths, origin, scores)
    lists, whose derived depths and origin equal the oracle's own."""
    tokens, parents, depths, origin, scores = lists
    tree = HybridTree(np.array(tokens, dtype=np.int32), np.array(parents, dtype=np.int32), np.array(scores))
    assert tree.depths.tolist() == depths and tree.origin.tolist() == origin
    return tree


def _random_draft(rng):
    vocab = int(rng.integers(3, 14))
    target = build_markov(VocabSpec(vocab), int(rng.integers(0, 3)), int(rng.integers(1000)), float(rng.uniform(0, 0.6)))
    return derive_draft(target, DraftDerivation("uniform-mix", float(rng.uniform(0, 1))))


def _random_tree(rng):
    """A small-vocabulary draft tree of 1-6 random beam layers, each with its
    own top-k and beam width, so it is built by the layer-by-layer oracle,
    and put in canonical order by the reference builder."""
    draft = _random_draft(rng)
    vocab = draft.vocab.size
    layered = reference_root([int(t) for t in rng.integers(0, vocab, size=2)])
    for _ in range(int(rng.integers(1, 7))):
        layered = reference_expand_layer(layered, draft, int(rng.integers(1, 6)), int(rng.integers(1, 12)))
    return vocab, _as_tree(canonical_form(layered.tree))


def _random_subset(rng, tree, keep_prob=0.75):
    """A random parent-closed node set of ``tree``, the root included."""
    keep = np.zeros(tree.n_nodes, dtype=bool)
    keep[0] = True
    for i in range(1, tree.n_nodes):
        keep[i] = keep[tree.parents[i]] and rng.random() < keep_prob
    return np.flatnonzero(keep)


def _random_matrix(rng, vocab):
    """A matrix with about 20 % cold slots; the small vocab makes retrieved
    tokens collide with drafted ones."""
    matrix = new_matrix(vocab, int(rng.integers(1, 6)))
    ids = rng.integers(0, vocab, size=matrix.rows.shape)
    matrix.rows[:] = np.where(rng.random(ids.shape) < 0.8, ids, COLD)
    return matrix


def _random_template(rng):
    """A breadth-first prefix, possibly empty, of a builtin template."""
    template = builtin_templates()[("full", "d0", "d1", "d5")[int(rng.integers(4))]]
    return template_prefix(template, int(rng.integers(0, template.declared_size + 1)))


def _attach_codes(rng, tree, vocab):
    """Give ``tree`` the context codes of a random order-0..3 code space,
    below a random context ending in its root token, and return a model of
    that code space."""
    order = int(rng.integers(0, 4))
    coder = MarkovTableModel(VocabSpec(vocab), order, {}, np.full((1, vocab), 1.0 / vocab))
    codes = [coder.code_of([*rng.integers(0, vocab, size=order).tolist(), tree.root_token])]
    coder.extend_codes(codes, tree.parents[1:].tolist(), tree.tokens[1:].tolist())
    tree.context_codes = (vocab, order, codes)
    return coder


def _assert_matches_reference(hy, expect):
    for name, want in zip(("tokens", "parents", "depths", "origin", "scores"), expect):
        got = getattr(hy, name)
        assert np.array_equal(got, np.array(want, dtype=got.dtype), equal_nan=True), name


def _assert_merge_facts(hy, tree):
    """The retrieved count and the child pointers ``merge`` stores, unless
    it returns ``tree`` itself, are those its origin and parents give."""
    assert hy is tree or {"n_retrieved", "child_ptr"} <= set(vars(hy))
    assert hy.n_retrieved == np.count_nonzero(hy.origin)
    assert hy.child_ptr.dtype == np.int32 and hy.child_ptr.tobytes() == child_pointers(hy.parents).tobytes()


class TestBulkAssembly:
    """Draft nodes seeded in bulk give the tree the node-at-a-time
    reference builder gives, with an empty branch or a retrieved one,
    retrieved-node dedupe and budget included."""

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_kept_set_and_merge_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        vocab, tree = _random_tree(rng)
        coder = _attach_codes(rng, tree, vocab)
        matrix = _random_matrix(rng, vocab)
        n = tree.n_candidates
        limit = int(rng.integers(0, n + 1))
        # a random subset, a rank cut below, at and above every candidate, and the whole tree as an array
        for retained in (_random_subset(rng, tree), limit, n, n + int(rng.integers(1, 4)), rng.permutation(tree.n_nodes)):
            if isinstance(retained, int):
                kept = closure_topk_iterative(tree.scores.tolist(), tree.parents.tolist(), retained)
            else:
                kept = sorted({0, *retained.tolist()})
            loose = len(kept) - 1 + int(rng.integers(0, 30))
            cut = pruned(tree, retained, loose)
            _assert_matches_reference(cut, reference_hybrid(tree, kept, loose))
            _assert_merge_facts(cut, tree)

            template = _random_template(rng)
            at = int(rng.choice(kept))
            tokens = instantiate(matrix, template, int(tree.tokens[at]))
            realized = int(np.count_nonzero(tokens != COLD))
            # a budget that binds partway through the branch, and one that may not bind
            for budget in (len(kept) - 1 + int(rng.integers(0, realized + 1)), loose):
                hy = merge(tree, retained, budget, at, template.parents, tokens)
                _assert_matches_reference(hy, reference_hybrid(tree, kept, budget, template.parents, tokens, at=at))
                assert hy.n_candidates <= budget
                _assert_merge_facts(hy, tree)
                # a hybrid tree merged again: its kept retrieved nodes count too
                for again in (hy.n_candidates, _random_subset(rng, hy)):
                    _assert_merge_facts(merge(hy, again, budget + 5, 0, template.parents, tokens), hy)
                codes = [tree.context_codes[2][0]]
                coder.extend_codes(codes, hy.parents[1:].tolist(), hy.tokens[1:].tolist())
                assert hy.context_codes == (vocab, coder.order, codes)

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_static_variants_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        vocab, tree = _random_tree(rng)
        matrix = _random_matrix(rng, vocab)
        budget = int(rng.integers(0, tree.n_nodes + 20))
        scores, parents = tree.scores.tolist(), tree.parents.tolist()

        template = _random_template(rng)
        tokens = instantiate(matrix, template, tree.root_token)
        realized = template_walk_realized(template, matrix.rows, tree.root_token)
        evicted = closure_topk_iterative(scores, parents, max(budget - realized, 0))
        _assert_matches_reference(
            root_variant(tree, matrix, template, budget),
            reference_hybrid(tree, evicted, budget, template.parents, tokens),
        )

        chain_len = int(rng.integers(0, 15))  # up to past the deepest template
        evicted = closure_topk_iterative(scores, parents, max(budget - chain_len, 0))
        _assert_matches_reference(
            tail_variant(tree, matrix, budget, chain_len), reference_tail(tree, evicted, budget, matrix, chain_len)
        )

    def test_rejects_open_and_oversized_sets(self):
        _, tree, _ = seeded_setup()
        deep = int(np.flatnonzero(tree.depths == 2)[0])
        matrix, template = full_matrix(64, 10), builtin_templates()["d5"]
        for build in (pruned, lambda tree, retained, budget: root_merge(tree, retained, budget, matrix, template)):
            with pytest.raises(StructureError, match="parent-closed"):
                build(tree, [0, deep], 60)
            with pytest.raises(StructureError, match="budget"):
                build(tree, select_retained(tree, 10), 5)

    def test_a_cut_that_keeps_every_node_keeps_the_tree(self, monkeypatch):
        _, tree, _ = seeded_setup()
        n = tree.n_candidates
        chain = (np.array([-1, 0], dtype=np.int32), np.array([5, 6], dtype=np.int32))
        ranked = []
        monkeypatch.setattr(hybrid, "select_retained", lambda tree, limit: ranked.append(limit) or select_retained(tree, limit))
        for retained in (n, n + 4, np.arange(tree.n_nodes)):  # the identity rule: nothing is built
            assert merge(tree, retained, n, 0, NO_BRANCH, NO_BRANCH) is tree
        whole = merge(tree, n + 4, n + 2, 0, *chain)
        assert ranked == []
        expect = merge(tree, np.arange(tree.n_nodes), n + 2, 0, *chain)
        for name in ("tokens", "parents", "scores", "child_ptr"):
            assert getattr(whole, name).tobytes() == getattr(expect, name).tobytes(), name
        cut = merge(tree, n - 1, n - 1, 0, NO_BRANCH, NO_BRANCH)
        assert ranked == [n - 1]
        expect = merge(tree, select_retained(tree, n - 1), n - 1, 0, NO_BRANCH, NO_BRANCH)
        for name in ("tokens", "parents", "scores", "child_ptr"):
            assert getattr(cut, name).tobytes() == getattr(expect, name).tobytes(), name

    def test_a_cut_that_keeps_every_node_still_checks_the_budget(self):
        _, tree, _ = seeded_setup()
        n = tree.n_candidates
        chain = (np.array([-1, 0], dtype=np.int32), np.array([5, 6], dtype=np.int32))
        for limit in (n, n + 5):
            for build in (
                lambda: pruned(tree, limit, n - 1),
                lambda: merge(tree, limit, n - 1, 0, *chain),
            ):
                with pytest.raises(StructureError, match="budget"):
                    build()

    @pytest.mark.parametrize("parents", [[-1, 0, 3], [-1, -1, 0], [-1, 0, -2]])
    def test_a_whole_tree_with_a_foreign_parent_is_rejected(self, parents):
        tree = HybridTree(np.array([0, 1, 2], dtype=np.int32), np.array(parents, dtype=np.int32), np.zeros(3))
        chain = (np.array([-1, 0], dtype=np.int32), np.array([5, 6], dtype=np.int32))
        for retained in (2, 7, np.arange(3)):
            with pytest.raises(StructureError, match="parent-closed"):
                merge(tree, retained, 4, 0, *chain)

    @pytest.mark.parametrize("at", [-1, 3, 1.5])
    def test_a_whole_tree_graft_point_must_be_a_node(self, at):
        tree = HybridTree(np.array([0, 1, 2], dtype=np.int32), np.array([-1, 0, 1], dtype=np.int32), np.zeros(3))
        chain = (np.array([-1, 0], dtype=np.int32), np.array([5, 6], dtype=np.int32))
        for retained in (2, np.arange(3)):
            with pytest.raises(StructureError, match=f"graft point {at} "):
                merge(tree, retained, 4, at, *chain)

    @pytest.mark.parametrize("retained", [[0, 1, 1, 2], [2, 1, 0, 2], [0, 0, 1], [0, -1], [0, 1, 99]])
    def test_rejects_repeated_and_foreign_nodes(self, retained):
        _, tree, _ = seeded_setup()
        retained = [tree.n_nodes if i == 99 else i for i in retained]  # 99: the first index past the tree
        chain = (np.array([-1, 0], dtype=np.int32), np.array([5, 6], dtype=np.int32))
        for build in (
            lambda: pruned(tree, retained, 60),
            lambda: merge(tree, retained, 60, 0, *chain),
            lambda: root_merge(tree, retained, 60, full_matrix(64, 10), builtin_templates()["d5"]),
        ):
            with pytest.raises(StructureError, match=f"distinct nodes of the {tree.n_nodes}-node"):
                build()


def _assert_canonical(hy, cached=False):
    """Breadth-first with siblings by ascending token, and child pointers
    that agree with a scan of the parent array and with the pointers a
    fresh tree computes, so pointers a builder cached cannot hide a wrong
    one. With ``cached``, the builder must have cached them. Context codes
    the tree carries must each extend its parent's by the node's token."""
    assert not cached or "child_ptr" in vars(hy)
    parents, tokens, depths = hy.parents, hy.tokens, hy.depths
    assert parents[0] == -1 and depths[0] == 0
    assert (np.diff(parents[1:]) >= 0).all()
    siblings = parents[2:] == parents[1:-1]
    assert (tokens[2:][siblings] > tokens[1:-1][siblings]).all()
    assert np.array_equal(depths[1:], depths[parents[1:]] + 1)
    ptr = hy.child_ptr
    fresh = HybridTree(tokens, parents, hy.scores).child_ptr
    assert ptr.dtype == fresh.dtype and np.array_equal(ptr, fresh)
    for i in range(hy.n_nodes):
        assert list(range(ptr[i] + 1, ptr[i + 1] + 1)) == children_of(hy, i).tolist()
    if hy.context_codes is not None:
        size, order, codes = hy.context_codes
        base, span = size + 1, (size + 1) ** order
        assert len(codes) == hy.n_nodes
        assert codes[1:] == [(codes[p] * base + t + 1) % span for p, t in zip(parents[1:].tolist(), tokens[1:].tolist())]


class TestCanonicalOrder:
    """Every builder emits the canonical order the verifier and the
    child pointers rely on, the draft trees from birth."""

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_builders_emit_canonical_order(self, seed):
        rng = np.random.default_rng(seed)
        vocab, tree = _random_tree(rng)
        retained = _random_subset(rng, tree)
        budget = retained.size - 1 + int(rng.integers(0, 30))
        matrix = _random_matrix(rng, vocab)
        template = _random_template(rng)
        merged = root_merge(tree, retained, budget, matrix, template)
        tail_budget, chain_len = int(rng.integers(0, tree.n_nodes + 20)), int(rng.integers(0, 15))
        tail = tail_variant(tree, matrix, tail_budget, chain_len)
        for hy in (pruned(tree, retained, budget), merged, tail):
            _assert_canonical(hy)
            _assert_merge_facts(hy, tree)
        # a builder that keeps every node and grafts nothing returns the tree itself; any
        # other hands its child pointers over: the checks above read the cached ones
        assert (merged is tree) == (template.declared_size == 0 and retained.size == tree.n_nodes)
        assert (tail is tree) == (chain_len == 0 and tail_budget >= tree.n_candidates)
        for hy in (merged, tail):
            assert hy is tree or "child_ptr" in vars(hy)

        # the drafted trees, and reindexed subsets of them
        draft = _random_draft(rng)
        context = [int(t) for t in rng.integers(0, draft.vocab.size, size=2)]
        depth = int(rng.integers(1, 7))
        checkpoints = tuple(range(depth))
        prune = PruneConfig(
            checkpoints=checkpoints,
            thresholds={d: float(rng.uniform(0.01, 0.6)) for d in checkpoints},
            stage_budgets=dict.fromkeys(checkpoints, (1, 0)),
            total_budget=1,
            top_k=int(rng.integers(1, 6)),
            max_depth=depth,
            beam_width=int(rng.integers(1, 12)),
        )
        beams = [int(rng.integers(1, 12)) for _ in range(depth)]
        gates = {d: prune.thresholds[d] for d in rng.permutation(depth)[: int(rng.integers(0, depth + 1))].tolist()}
        for drafted in (
            resolve_stage(draft, context, prune.top_k, beams, gates)[0],
            gated(draft, context, prune)[0],
            ungated(draft, context, prune),
        ):
            assert "child_ptr" not in vars(drafted)  # left to the first read, which checks the order
            _assert_canonical(drafted)
            kept = _random_subset(rng, drafted, float(rng.uniform(0.2, 1.0)))
            hy = pruned(drafted, kept, kept.size - 1)
            _assert_canonical(hy)
            _assert_matches_reference(hy, reference_hybrid(drafted, kept, kept.size - 1))

        # the dense-replay union, captured where it is verified
        draft = build_markov(VocabSpec(vocab), 1, int(rng.integers(1000)))
        total = int(rng.integers(2, 30))
        prune = PruneConfig(
            checkpoints=(0,), thresholds={0: 0.5}, stage_budgets={0: (1, total - 1)},
            total_budget=total, top_k=3, max_depth=4, beam_width=5,
        )
        seen, drafted = [], []
        with (
            mock.patch.object(engine, "verify_greedy", lambda target, prefix, hy: seen.append(hy) or SimpleNamespace(accepted_len=0)),
            mock.patch.object(engine, "merge", lambda dense, *rest: drafted.append(dense) or merge(dense, *rest)),
        ):
            config = SimpleNamespace(prune=prune, acceptance="greedy")
            engine.dense_replay(config, draft, draft, [tree.root_token], merged, None)
        (union,), (dense,) = seen, drafted
        assert union.n_candidates >= merged.n_candidates
        # nothing to graft, every node kept: the envelope itself, its pointers filled in
        assert (union is dense) == (merged.n_candidates == 0 and dense.n_candidates <= total)
        _assert_canonical(union, cached=True)

    @pytest.mark.parametrize("method, acceptance", [(m, "greedy") for m in TREE_METHODS] + [("dense", "stochastic")])
    def test_decode_steps_reuse_what_the_builders_computed(self, method, acceptance):
        """Every tree ``merge`` returns for a decode step has its child
        pointers cached, an envelope it returns as is too. The nodes'
        context codes come from the builders: ``extend_codes`` runs once,
        for the prompt prefill."""
        run = load_run_config(str(ROOT / "configs" / "quickstart.yaml"))
        matrix = new_matrix(run.vocab.size, run.matrix_k)
        warmup(matrix, run.target, run.draft, run.warmup_prompts, run.warmup_rounds, config=run.decode)
        config = replace(run.decode, method=method, acceptance=acceptance)
        extend, calls, trees, envelopes = MarkovTableModel.extend_codes, [], [], []

        def counted(model, codes, parents, tokens):
            calls.append(len(codes))
            return extend(model, codes, parents, tokens)

        def drafted(*args):
            envelopes.append(resolve_stage(*args))
            return envelopes[-1]

        def observe(step, hy):
            _assert_canonical(hy, cached=True)
            trees.append((hy, hy is envelopes[-1][0]))

        with (
            mock.patch.object(MarkovTableModel, "extend_codes", counted),
            mock.patch.object(engine, "resolve_stage", drafted),
        ):
            engine.decode_session(config, run.target, run.draft, matrix, run.prompt, tree_observer=observe)
        assert calls == [1]  # the prefill, from the empty context's code
        assert len(trees) > 10 and all(hy.context_codes is not None for hy, _ in trees)
        if method == "dense":  # the 60-node cut keeps the whole envelope
            assert all(envelope for _, envelope in trees)

    def test_whole_envelope_gets_its_pointers_unchecked(self):
        # the envelope ``merge`` returns as is gets the pointers the checked
        # property computes, without reading the property
        draft = build_markov(VocabSpec(16), 1, seed=3)
        envelope = resolve_stage(draft, [5], 4, (4, 4, 4), {})[0]
        class Unread:  # a descriptor without __set__, so ``merge`` may still fill the cache
            def __get__(self, tree, owner=None):
                pytest.fail("merge read the checked child pointers")

        with mock.patch.object(HybridTree, "child_ptr", Unread()):
            assert merge(envelope, envelope.n_candidates, envelope.n_candidates, 0, NO_BRANCH, NO_BRANCH) is envelope
        cached = vars(envelope)["child_ptr"]
        expect = HybridTree(envelope.tokens, envelope.parents, envelope.scores).child_ptr
        assert cached.dtype == expect.dtype and np.array_equal(cached, expect)

    def test_out_of_order_tree_rejected(self):
        # node 2 hangs below node 1 but node 3 below the root again
        hy = HybridTree(
            tokens=np.array([0, 1, 2, 3], dtype=np.int32),
            parents=np.array([-1, 0, 1, 0], dtype=np.int32),
            scores=np.zeros(4),
        )
        with pytest.raises(StructureError, match="breadth-first"):
            hy.child_ptr


class TestRender:
    def test_debug_dump_lines(self, det4):
        tree = grow(det4, [0], 1, top_k=1)
        hy = pruned(tree, select_retained(tree, 4), 4)
        text = render_tree(hy, VocabSpec(4, ("a", "b", "c", "d")))
        lines = text.splitlines()
        assert len(lines) == 2
        assert "token=1(b)" in lines[1] and "draft" in lines[1]

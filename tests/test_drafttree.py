import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from specgraft import engine, retrieval
from specgraft.drafttree import (
    HybridTree,
    PruneConfig,
    PruneDecision,
    _envelope,
    evaluate_gate,
    expand_full,
    resolve_stage,
    select_retained,
    stage_label,
)
from specgraft.engine import TREE_METHODS, DecodeConfig, build_next_tree
from specgraft.errors import ConfigError, InputError
from specgraft.models import (
    BYTE_VOCAB,
    DraftDerivation,
    VocabSpec,
    build_markov,
    context_code,
    derive_draft,
    tokenize_bytes,
    train_ngram,
)
from specgraft.retrieval import new_matrix, write_rows

from .conftest import grow, table_model

from .oracles import (
    branch_tokens,
    canonical_form,
    closure_topk_iterative,
    enumerate_candidates,
    exhaustive_path_confidence,
    reference_envelope,
)


def layer(tree, depth):
    """Indices of the depth-``depth`` nodes."""
    return np.flatnonzero(tree.depths == depth)


def all_pass_trace(draft, context, depth, top_k, beam):
    """``resolve_stage``'s gate confidences at checkpoints 0..depth-1, each
    the best path probability of the layer below it, under gates that all
    pass."""
    checkpoints = tuple(range(depth))
    config = PruneConfig(
        checkpoints=checkpoints,
        thresholds=dict.fromkeys(checkpoints, 1e-300),
        stage_budgets=dict.fromkeys(checkpoints, (1, 0)),
        total_budget=1,
        top_k=top_k,
        max_depth=depth,
        beam_width=beam,
    )
    _, decision = resolve_stage(draft, context, config)
    assert decision.stage is None
    return decision.confidence_trace


class TestExpandLayer:
    """Single layers drafted by the envelope pass."""

    def test_det4_single_child(self, det4):
        tree = grow(det4, [0], 1, top_k=1)
        assert tree.n_nodes == 2
        assert np.log(det4.rows[det4.index[context_code((0,), 4)], tree.tokens[1]]) == 0.0
        assert (tree.tokens[1], tree.scores[1], tree.depths[1]) == (1, 0.0, 1)

    def test_uni4_tie_break(self, uni4):
        tree = grow(uni4, [0], 1, top_k=2)
        assert list(tree.tokens[1:]) == [0, 1]
        row_id = uni4.row_ids([context_code((0,), 4)])[0]  # the fallback row
        assert np.allclose(np.log(uni4.rows[row_id, tree.tokens[1:]]), math.log(0.25))
        assert np.allclose(tree.scores[1:], math.log(0.25))

    def test_matches_bruteforce_beam(self):
        draft = build_markov(VocabSpec(8), 1, seed=42)
        context = [5]
        tree = grow(draft, context, depth=2, top_k=3, beam=6)
        # oracle: score all 9 depth-2 candidates, keep the best 6
        layer1 = [([int(tree.tokens[i])], float(tree.scores[i])) for i in layer(tree, 1)]
        cands = enumerate_candidates(draft, context, layer1, top_k=3)
        expect = sorted(cands, key=lambda ps: -ps[1])[:6]
        got = sorted(
            (tuple(branch_tokens(tree, int(i))), float(tree.scores[i])) for i in layer(tree, 2)
        )
        assert sorted((tuple(p), s) for p, s in expect) == pytest.approx(got)

    def test_zero_prob_children_dropped(self, det4):
        tree = grow(det4, [0], 1, top_k=4)
        assert layer(tree, 1).size == 1  # only the cycle successor has mass

    def test_score_additivity_exact(self):
        draft = build_markov(VocabSpec(6), 1, seed=3)
        tree = grow(draft, [0], depth=3, top_k=2, beam=4)
        for i in range(1, tree.n_nodes):
            parent = tree.parents[i]
            # order 1: the parent's token is the whole context
            logq = np.log(draft.rows[draft.index[context_code((tree.tokens[parent],), 6)], tree.tokens[i]])
            assert tree.scores[i] == tree.scores[parent] + logq

    def test_parents_precede_children(self):
        draft = build_markov(VocabSpec(6), 1, seed=4)
        tree = grow(draft, [1], depth=4, top_k=3, beam=5)
        assert all(tree.parents[i] < i for i in range(1, tree.n_nodes))
        assert tree.depths[0] == 0 and (np.diff(tree.depths) >= 0).all()  # breadth-first layers
        assert tree.depths[-1] == 4


class TestLayerConfidence:
    """Gate confidences, read from ``resolve_stage``'s trace: checkpoint d
    holds layer d+1's best path probability."""

    def test_det4_always_one(self, det4):
        assert all_pass_trace(det4, [0], depth=4, top_k=1, beam=1) == {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}

    def test_uni4_depth3(self, uni4):
        trace = all_pass_trace(uni4, [0], depth=3, top_k=2, beam=4)
        assert trace[2] == pytest.approx(0.25**3, abs=1e-15)

    def test_matches_exhaustive_oracle(self):
        draft = build_markov(VocabSpec(8), 1, seed=42)
        trace = all_pass_trace(draft, [2], depth=2, top_k=3, beam=6)
        expect = exhaustive_path_confidence(draft, [2], depth=2, top_k=3, beam_width=6)
        assert trace[1] == pytest.approx(expect, rel=1e-12)

    def test_monotone_in_depth(self):
        draft = build_markov(VocabSpec(10), 1, seed=8, sparsity=0.3)
        confs = [1.0] + list(all_pass_trace(draft, [3], depth=5, top_k=3, beam=6).values())
        assert all(confs[d + 1] <= confs[d] + 1e-15 for d in range(5))

    def test_missing_layer(self, uni4):
        # the failed gate at checkpoint 0 stops drafting: checkpoint 1 has no layer to read
        config = PruneConfig(thresholds={0: 0.3, 1: 0.3, 5: 0.51})
        _, decision = resolve_stage(uni4, [0], config)
        assert decision.confidence_trace == {0: pytest.approx(0.25)}
        assert decision.layers_drafted == 1


class TestEvaluateGate:
    def test_pass(self):
        assert evaluate_gate(0.25, 0.14) is True

    def test_prune(self):
        assert evaluate_gate(0.50, 0.51) is False

    def test_boundary_prunes(self):
        assert evaluate_gate(0.3, 0.3) is False

    def test_threshold_domain(self):
        with pytest.raises(InputError):
            evaluate_gate(0.5, 1.0)


class TestPruneConfig:
    def test_default_stage_splits(self):
        cfg = PruneConfig()
        assert cfg.total_budget == 60
        assert cfg.stage_budgets == {0: (8, 52), 1: (24, 36), 5: (40, 20)}
        for d in cfg.checkpoints:
            kd, kr = cfg.stage_budgets[d]
            assert kd + kr == 60

    def test_split_must_sum(self):
        with pytest.raises(ConfigError):
            PruneConfig(stage_budgets={0: (8, 50), 1: (24, 36), 5: (40, 20)})

    def test_checkpoint_range(self):
        with pytest.raises(ConfigError):
            PruneConfig(checkpoints=(0, 8), thresholds={0: 0.1, 8: 0.1}, stage_budgets={0: (8, 52), 8: (40, 20)})


def stage_cut(tree, decision, config):
    """The rank cut of a ``resolve_stage`` tree: its stage's draft budget."""
    return select_retained(tree, config.draft_budget(decision.stage))


class TestResolveStage:
    def test_det4_never_prunes(self, det4):
        tree, decision = resolve_stage(det4, [0], PruneConfig())
        assert decision.stage is None
        assert stage_label(decision.stage) == "none"
        # full chain retained (8 candidates, fewer than the budget)
        assert list(stage_cut(tree, decision, PruneConfig())) == list(range(9))
        assert decision.layers_drafted == 8

    def test_uni4_prunes_at_root_stage(self, uni4):
        cfg = PruneConfig(thresholds={0: 0.3, 1: 0.3, 5: 0.51})
        tree, decision = resolve_stage(uni4, [0], cfg)
        assert decision.stage == 0
        assert decision.confidence_trace[0] == pytest.approx(0.25)
        assert cfg.draft_budget(0) == 8
        # vocab 4 only offers 4 depth-1 candidates; all retained
        assert len(stage_cut(tree, decision, cfg)) == 1 + 4
        assert decision.layers_drafted == 1

    def test_uni16_fills_stage_budget(self, uni16):
        cfg = PruneConfig(thresholds={0: 0.3, 1: 0.3, 5: 0.51})
        tree, decision = resolve_stage(uni16, [0], cfg)
        assert decision.stage == 0
        assert len(stage_cut(tree, decision, cfg)) == 1 + 8  # root + exactly the d0 draft budget

    def test_retention_matches_iterative_oracle(self):
        draft = build_markov(VocabSpec(24), 1, seed=42)
        cfg = PruneConfig()
        tree, decision = resolve_stage(draft, [3], cfg)
        limit = cfg.draft_budget(decision.stage)
        expect = closure_topk_iterative(tree.scores.tolist(), tree.parents.tolist(), limit)
        assert list(stage_cut(tree, decision, cfg)) == expect

    def test_parent_closure(self):
        draft = build_markov(VocabSpec(12), 1, seed=6, sparsity=0.2)
        tree, decision = resolve_stage(draft, [1], PruneConfig())
        retained = stage_cut(tree, decision, PruneConfig())
        kept = set(retained.tolist())
        for i in retained:
            if i != 0:
                assert int(tree.parents[i]) in kept

    def test_budget_cap_and_equality(self):
        draft = build_markov(VocabSpec(24), 1, seed=9)
        cfg = PruneConfig(thresholds={0: 0.999, 1: 0.13, 5: 0.51})  # force d0 prune
        tree, decision = resolve_stage(draft, [2], cfg)
        assert decision.stage == 0
        assert len(stage_cut(tree, decision, cfg)) - 1 == min(cfg.draft_budget(0), tree.n_nodes - 1)

    def test_determinism(self):
        draft = build_markov(VocabSpec(16), 1, seed=5, sparsity=0.1)
        a = resolve_stage(draft, [2, 7], PruneConfig())
        b = resolve_stage(draft, [2, 7], PruneConfig())
        assert np.array_equal(stage_cut(*a, PruneConfig()), stage_cut(*b, PruneConfig()))
        assert a[1].stage == b[1].stage
        assert np.array_equal(a[0].tokens, b[0].tokens)


class TestSelectRetained:
    def test_random_trees_match_oracle(self):
        rng = np.random.default_rng(0)
        draft = build_markov(VocabSpec(10), 1, seed=2)
        for _ in range(20):
            tree = grow(draft, [int(rng.integers(10))], depth=int(rng.integers(2, 5)), top_k=3, beam=6)
            limit = int(rng.integers(1, tree.n_nodes + 4))
            got = select_retained(tree, limit)
            expect = closure_topk_iterative(tree.scores.tolist(), tree.parents.tolist(), limit)
            assert list(got) == expect


def dyadic_model(vocab, order, seed):
    """Rows in multiples of 1/8: many tied probabilities, and rows with all
    mass on one token, whose children keep their parent's score."""
    rng = np.random.default_rng(seed)
    table = {}
    for ctx in itertools.product(range(vocab), repeat=order):
        row = np.bincount(rng.integers(0, vocab, size=8) if rng.random() < 0.7 else np.full(8, rng.integers(vocab)), minlength=vocab)
        table[ctx] = row / 8.0
    return table_model(vocab, order, table)


class TestRankCutRetention:
    """The stable score ranking cut at ``limit`` equals the best-first
    closure oracle, with tied scores and out-of-range limits."""

    @pytest.mark.parametrize("limit", [-3, 0, 1, 7, 19, 10_000])
    def test_uniform_rows_tie_everywhere(self, limit):
        draft = derive_draft(build_markov(VocabSpec(6), 1, seed=3), DraftDerivation("uniform-mix", 1.0))
        tree = grow(draft, [0], depth=4, top_k=3, beam=7)
        assert np.unique(tree.scores[layer(tree, 2)]).size == 1
        got = select_retained(tree, limit)
        assert list(got) == closure_topk_iterative(tree.scores.tolist(), tree.parents.tolist(), limit)

    @pytest.mark.parametrize("limit", [-1, 0, 3, 8, 100])
    def test_zero_logq_chain(self, det4, limit):
        tree = grow(det4, [0], depth=6, top_k=2, beam=2)
        assert not tree.scores.any()
        got = select_retained(tree, limit)
        assert list(got) == closure_topk_iterative(tree.scores.tolist(), tree.parents.tolist(), limit)

    @pytest.mark.parametrize("seed", range(12))
    def test_dyadic_ties_match_oracle(self, seed):
        draft = dyadic_model(5, 1 + seed % 2, seed)
        rng = np.random.default_rng(seed)
        tree = grow(draft, [int(t) for t in rng.integers(0, 5, size=2)], depth=5, top_k=4, beam=9)
        assert np.unique(tree.scores).size < tree.n_nodes  # scores tie
        for limit in (-2, 0, 1, 4, tree.n_nodes // 2, tree.n_nodes - 1, tree.n_nodes + 5):
            got = select_retained(tree, limit)
            assert list(got) == closure_topk_iterative(tree.scores.tolist(), tree.parents.tolist(), limit)


class TestTopKBeyondVocab:
    """``top_k`` above the vocab proposes every positive token, ties to
    the lower id, in the brute-force enumeration's order."""

    @pytest.mark.parametrize("order,context", [(1, [2]), (2, [3]), (2, [1, 3])])
    def test_matches_enumeration(self, order, context):
        draft = dyadic_model(5, order, seed=order)
        frontier = [([], 0.0)]
        for depth in (1, 2, 3):
            tree = grow(draft, context, depth, top_k=9, beam=10_000)
            expect = enumerate_candidates(draft, context, frontier, top_k=9)
            got = [(branch_tokens(tree, int(i)), float(tree.scores[i])) for i in layer(tree, depth)]
            assert got == sorted(expect)  # canonical: the layer's paths in token order
            frontier = expect


def _envelope_drafts():
    """Sparse Markov, smoothed and unsmoothed n-gram and dyadic (tied and
    one-hot rows) drafts at orders 0-3."""
    corpus = np.random.default_rng(5).integers(0, 6, size=300).tolist()
    drafts = {}
    for order in range(4):
        drafts[f"markov-o{order}"] = build_markov(VocabSpec(7), order, seed=order, sparsity=0.6)
        drafts[f"markov-dense-o{order}"] = derive_draft(
            build_markov(VocabSpec(5), order, seed=10 + order), DraftDerivation("uniform-mix", 0.4)
        )
        drafts[f"ngram-o{order}"] = train_ngram(VocabSpec(6), corpus, order=order)
        drafts[f"ngram-smooth-o{order}"] = train_ngram(VocabSpec(6), corpus, order=order, smoothing=0.5)
        drafts[f"dyadic-o{order}"] = dyadic_model(5, order, seed=order)
    return drafts


def _same_tree(got, expect):
    """``got`` is stored in canonical order and holds the nodes of
    ``expect``, whatever order ``expect`` stores siblings in, bit for bit."""
    for name, values in zip(("tokens", "parents", "depths", "origin", "scores"), canonical_form(expect)):
        a, b = getattr(got, name), getattr(expect, name)
        assert a.dtype == b.dtype and a.tobytes() == np.array(values, dtype=b.dtype).tobytes(), name


def _random_prune(rng, vocab):
    max_depth = int(rng.integers(1, 7))
    checkpoints = tuple(sorted(int(d) for d in rng.choice(max_depth, size=rng.integers(0, max_depth + 1), replace=False)))
    total = int(rng.integers(1, 40))
    splits = {}
    for d in checkpoints:
        kd = int(rng.integers(0, total + 1))
        splits[d] = (kd, total - kd)
    return PruneConfig(
        checkpoints=checkpoints,
        thresholds={d: float(rng.uniform(0.02, 0.9)) for d in checkpoints},
        stage_budgets=splits,
        total_budget=total,
        top_k=int(rng.choice([1, 2, 3, vocab, vocab + 4])),
        max_depth=max_depth,
        beam_width=int(rng.choice([1, 2, 4, 9, 60])),
    )


class TestOnePassEnvelope:
    """``resolve_stage`` and ``expand_full`` build the tree the layer-by-layer
    oracle builds, in canonical order, with the same stage and gate
    confidences, and retain the closure oracle's set; ``_envelope`` with a
    beam width per layer matches it too."""

    def test_matches_layer_loop(self):
        rng = np.random.default_rng(2024)
        stages, masked = set(), 0
        for name, draft in _envelope_drafts().items():
            vocab = draft.vocab.size
            for _ in range(20):
                config = _random_prune(rng, vocab)
                context = [int(t) for t in rng.integers(0, vocab, size=rng.integers(1, 5))]
                tree, decision = resolve_stage(draft, context, config)
                expect, stage, trace = reference_envelope(draft, context, config)
                _same_tree(tree, expect)
                assert (decision.stage, decision.confidence_trace) == (stage, trace), name
                assert decision.layers_drafted == canonical_form(expect)[2][-1]  # the oracle's own depths
                assert stage_cut(tree, decision, config).tolist() == closure_topk_iterative(
                    tree.scores.tolist(), tree.parents.tolist(), config.draft_budget(stage)
                )
                stages.add("none" if stage is None else "first" if stage == config.checkpoints[0] else "later")
                _same_tree(expand_full(draft, context, config), reference_envelope(draft, context, config, gated=False)[0])

                beams = [int(rng.integers(1, 12)) for _ in range(config.max_depth)]
                gates = {d: config.thresholds[d] for d in config.checkpoints}
                got = _envelope(draft, context, config.top_k, beams, gates)
                expect, stage, trace = reference_envelope(draft, context, config, beams=beams)
                _same_tree(got[0], expect)
                assert got[1:] == (stage, trace), name
                sizes = np.bincount(canonical_form(expect)[2])
                k = min(config.top_k, vocab)
                # fewer kept than min(beam, candidates): the cut reached -inf candidates
                masked += sum(n < min(b, m * k) for m, n, b in zip(sizes, sizes[1:], beams))
        assert stages == {"none", "first", "later"}
        assert masked > 0

    @pytest.mark.parametrize("kind", ["markov64", "bytes-smoothed", "bytes-unsmoothed"])
    def test_default_config_on_benchmark_sized_drafts(self, kind):
        if kind == "markov64":
            target = build_markov(VocabSpec(64), 2, seed=11, sparsity=0.3)
            contexts = np.random.default_rng(1).integers(0, 64, size=(60, 3)).tolist()
        else:
            text = tokenize_bytes((Path(__file__).parent.parent / "configs" / "sample_corpus.txt").read_text())
            smoothing, order = (0.05, 2) if kind == "bytes-smoothed" else (0.0, 3)
            target = train_ngram(BYTE_VOCAB, text, order=order, smoothing=smoothing)
            contexts = [text[i : i + 4] for i in range(0, len(text) - 4, len(text) // 60)]
        draft = derive_draft(target, DraftDerivation("uniform-mix", 0.4)) if kind != "bytes-unsmoothed" else target
        config = PruneConfig()
        for context in contexts:
            tree, decision = resolve_stage(draft, context, config)
            expect, stage, trace = reference_envelope(draft, context, config)
            _same_tree(tree, expect)
            assert (decision.stage, decision.confidence_trace) == (stage, trace)
            _same_tree(expand_full(draft, context, config), reference_envelope(draft, context, config, gated=False)[0])


def _oracle_tree(tree):
    """The oracle's tree stored in canonical order, as the envelope stores it."""
    tokens, parents, _, _, scores = canonical_form(tree)
    return HybridTree(np.array(tokens, dtype=np.int32), np.array(parents, dtype=np.int32), np.array(scores))


def _oracle_expand_full(draft, context, config, keep=None):
    return _oracle_tree(reference_envelope(draft, context, config, gated=False)[0])


def _oracle_resolve_stage(draft, context, config, keep=None):
    tree, stage, trace = reference_envelope(draft, context, config)
    return _oracle_tree(tree), PruneDecision(stage, trace, config.max_depth if stage is None else stage + 1)


def _bound_config(rng, method, keep, base):
    """``base`` with the budgets that make ``method`` cut its draft tree at
    ``keep``: the draft half of ``fixed_split``, or the total less the
    ``graft_tail`` chain, or else the total budget, which is at least 1."""
    total = max(keep, 1)
    if method in ("fixed_split", "graft_tail"):
        total = keep + int(rng.integers(0 if keep else 1, 4))
    splits = {}
    for d in base.checkpoints:
        kd = int(rng.integers(0, total + 1))
        splits[d] = (kd, total - kd)
    prune = replace(base, total_budget=total, stage_budgets=splits)
    return DecodeConfig(
        method=method,
        prune=prune,
        fixed_split=(keep, total - keep),
        tail_chain_len=total - keep,
        root_branch_size=int(rng.integers(0, 21)),
    )


class TestRankCutBound:
    """The envelope drafts only as deep as the rank cut it feeds: for every
    tree method, ``build_next_tree`` gives the tree that the layer-by-layer
    oracle's whole envelope gives under the same cut, with the same stage,
    gate confidences and realized branch, with gates on and off and for
    cuts of 0 candidates, less than one layer, whole layers and more than
    the envelope holds."""

    def test_build_next_tree_matches_the_oracle_cut(self, monkeypatch):
        rng = np.random.default_rng(99)
        drafts = [build_markov(VocabSpec(7), order, seed=order, sparsity=0.5) for order in (1, 2)]
        drafts += [dyadic_model(5, order, seed=order) for order in (1, 2)]
        fired = {False: 0, True: 0}
        reads = []  # every matrix read: fixed_split, graft_root and graft_tail read once a step
        monkeypatch.setattr(engine, "instantiate", lambda *args: reads.append(args) or retrieval.instantiate(*args))
        for draft in drafts:
            vocab = draft.vocab.size
            matrix = new_matrix(vocab, 10)
            hot = [t for t in range(vocab) if rng.random() < 0.8]
            write_rows(matrix, dict(zip(hot, draft.row_ids([draft.code_of([t]) for t in hot]))), draft)
            for gated in (False, True):
                for _ in range(4):
                    max_depth = int(rng.integers(2, 8))
                    checkpoints = (0, *(d for d in (1, 5) if d < max_depth and rng.random() < 0.7)) if gated else ()
                    base = PruneConfig(
                        checkpoints=checkpoints,
                        thresholds={d: float(rng.uniform(0.02, 0.5)) for d in checkpoints},
                        stage_budgets={d: (1, 0) for d in checkpoints},
                        total_budget=1,
                        top_k=int(rng.integers(2, vocab + 2)),
                        max_depth=max_depth,
                        beam_width=int(rng.integers(2, 7)),
                    )
                    context = [int(t) for t in rng.integers(0, vocab, size=rng.integers(1, 4))]
                    full = _oracle_expand_full(draft, context, base)
                    sizes = np.cumsum(np.bincount(full.depths)[1:])
                    layers = int(rng.integers(1, sizes.size + 1))
                    keeps = (0, int(rng.integers(1, sizes[0])) if sizes[0] > 1 else 1, int(sizes[layers - 1]), full.n_nodes + 3)
                    whole = resolve_stage(draft, context, base)[0].n_nodes
                    for keep in keeps:
                        fired[gated] += resolve_stage(draft, context, base, keep)[0].n_nodes < whole
                        for method in TREE_METHODS:
                            config = _bound_config(rng, method, keep, base)
                            before = len(reads)
                            got, info = build_next_tree(config, draft, matrix.copy(), context)
                            if method in ("fixed_split", "graft_root", "graft_tail"):
                                assert len(reads) == before + 1, method
                            with monkeypatch.context() as patch:
                                patch.setattr(engine, "expand_full", _oracle_expand_full)
                                patch.setattr(engine, "resolve_stage", _oracle_resolve_stage)
                                expect, expect_info = build_next_tree(config, draft, matrix.copy(), context)
                            for name in ("tokens", "parents", "scores"):
                                a, b = getattr(got, name), getattr(expect, name)
                                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (method, name)
                            assert info == expect_info, method
        assert fired[False] > 0 and fired[True] > 0

    def test_dense_markov64_stops_after_six_layers(self):
        # vocab 64, order 2, uniform-mix 0.4: the 60-node cut is layers 1-6 of 10 nodes each
        draft = derive_draft(build_markov(VocabSpec(64), 2, seed=11, sparsity=0.3), DraftDerivation("uniform-mix", 0.4))
        config = DecodeConfig(method="dense")
        matrix = new_matrix(64, 10)
        for context in np.random.default_rng(3).integers(0, 64, size=(40, 3)).tolist():
            tree = expand_full(draft, context, config.prune, config.prune.total_budget)
            assert int(tree.depths[-1]) == 6 and tree.n_candidates == 60
            hy, info = build_next_tree(config, draft, matrix, context)
            assert hy.tokens.tobytes() == tree.tokens.tobytes() and hy.scores.tobytes() == tree.scores.tobytes()
            assert info["layers_drafted"] == config.prune.max_depth

    def test_failed_gate_drafts_through_its_layer(self):
        # a 1-node cut could stop after layer 1, but the bound waits for the
        # last gate: a failed gate 5 stops drafting after its 6 layers, and
        # past a passed one the bound stops it at the next boundary
        draft = derive_draft(build_markov(VocabSpec(64), 2, seed=11, sparsity=0.3), DraftDerivation("uniform-mix", 0.4))
        for last, stage in ((0.99, 5), (1e-9, None)):
            config = PruneConfig(thresholds={0: 1e-9, 1: 1e-9, 5: last})
            for context in np.random.default_rng(4).integers(0, 64, size=(20, 3)).tolist():
                tree, decision = resolve_stage(draft, context, config, keep=1)
                whole, expect = resolve_stage(draft, context, config)
                assert decision == expect and decision.stage == stage
                assert int(tree.depths[-1]) == 6  # stage + 1, or the first layer past the last gate
                assert whole.n_nodes == (tree.n_nodes if stage is not None else 81)

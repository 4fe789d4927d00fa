import collections
import itertools
import math
import sys
import threading
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from specgraft import drafttree, engine, hybrid, models, retrieval
from specgraft.drafttree import (
    HybridTree,
    PruneConfig,
    resolve_stage,
    select_retained,
    stage_label,
)
from specgraft.engine import TREE_METHODS, DecodeConfig, build_next_tree
from specgraft.errors import ConfigError
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

from .conftest import gated, grow, table_model, ungated

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
    _, stage, trace = gated(draft, context, config)
    assert stage is None
    return trace


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
        tree, _, trace = gated(uni4, [0], config)
        assert trace == {0: pytest.approx(0.25)}
        assert int(tree.depths[-1]) == 1


class TestGate:
    """A gate passes only strictly above its threshold: equality prunes."""

    @staticmethod
    def stage_and_trace(draft, threshold):
        return gated(draft, [0], PruneConfig(thresholds={0: threshold, 1: 1e-9, 5: 1e-9}))[1:]

    def test_pass(self, uni4):
        assert self.stage_and_trace(uni4, 0.14)[0] is None

    def test_prune(self, uni4):
        assert self.stage_and_trace(uni4, 0.51) == (0, {0: pytest.approx(0.25)})

    def test_boundary_prunes(self, uni4):
        conf = self.stage_and_trace(uni4, 0.14)[1][0]  # what the gate reads: 0.25 on the dyadic uni4
        assert self.stage_and_trace(uni4, conf) == (0, {0: conf})
        assert self.stage_and_trace(uni4, math.nextafter(conf, 0))[0] is None

    def test_threshold_domain(self):
        with pytest.raises(ConfigError, match=r"prune\.thresholds\[0\]"):
            PruneConfig(thresholds={0: 1.0, 1: 0.13, 5: 0.51})


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


def stage_cut(tree, stage, config):
    """The rank cut of a ``resolve_stage`` tree: its stage's draft budget."""
    return select_retained(tree, config.draft_budget(stage))


class TestResolveStage:
    def test_det4_never_prunes(self, det4):
        tree, stage, _ = gated(det4, [0], PruneConfig())
        assert stage is None
        assert stage_label(stage) == "none"
        # full chain retained (8 candidates, fewer than the budget)
        assert list(stage_cut(tree, stage, PruneConfig())) == list(range(9))
        assert int(tree.depths[-1]) == 8

    def test_uni4_prunes_at_root_stage(self, uni4):
        cfg = PruneConfig(thresholds={0: 0.3, 1: 0.3, 5: 0.51})
        tree, stage, trace = gated(uni4, [0], cfg)
        assert stage == 0
        assert trace[0] == pytest.approx(0.25)
        assert cfg.draft_budget(0) == 8
        # vocab 4 only offers 4 depth-1 candidates; all retained
        assert len(stage_cut(tree, stage, cfg)) == 1 + 4
        assert int(tree.depths[-1]) == 1

    def test_uni16_fills_stage_budget(self, uni16):
        cfg = PruneConfig(thresholds={0: 0.3, 1: 0.3, 5: 0.51})
        tree, stage, _ = gated(uni16, [0], cfg)
        assert stage == 0
        assert len(stage_cut(tree, stage, cfg)) == 1 + 8  # root + exactly the d0 draft budget

    def test_retention_matches_iterative_oracle(self):
        draft = build_markov(VocabSpec(24), 1, seed=42)
        cfg = PruneConfig()
        tree, stage, _ = gated(draft, [3], cfg)
        limit = cfg.draft_budget(stage)
        expect = closure_topk_iterative(tree.scores.tolist(), tree.parents.tolist(), limit)
        assert list(stage_cut(tree, stage, cfg)) == expect

    def test_parent_closure(self):
        draft = build_markov(VocabSpec(12), 1, seed=6, sparsity=0.2)
        tree, stage, _ = gated(draft, [1], PruneConfig())
        retained = stage_cut(tree, stage, PruneConfig())
        kept = set(retained.tolist())
        for i in retained:
            if i != 0:
                assert int(tree.parents[i]) in kept

    def test_budget_cap_and_equality(self):
        draft = build_markov(VocabSpec(24), 1, seed=9)
        cfg = PruneConfig(thresholds={0: 0.999, 1: 0.13, 5: 0.51})  # force d0 prune
        tree, stage, _ = gated(draft, [2], cfg)
        assert stage == 0
        assert len(stage_cut(tree, stage, cfg)) - 1 == min(cfg.draft_budget(0), tree.n_nodes - 1)

    def test_determinism(self):
        draft = build_markov(VocabSpec(16), 1, seed=5, sparsity=0.1)
        a = gated(draft, [2, 7], PruneConfig())
        b = gated(draft, [2, 7], PruneConfig())
        assert np.array_equal(stage_cut(*a[:2], PruneConfig()), stage_cut(*b[:2], PruneConfig()))
        assert a[1:] == b[1:]
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
    """``resolve_stage``, gated by a prune config's checkpoints or not,
    builds the tree the layer-by-layer oracle builds, in canonical order,
    with the same stage and gate confidences, and retains the closure
    oracle's set; with a beam width per layer it matches it too."""

    def test_matches_layer_loop(self):
        rng = np.random.default_rng(2024)
        stages, masked = set(), 0
        for name, draft in _envelope_drafts().items():
            vocab = draft.vocab.size
            matrix = new_matrix(vocab, 10)  # never read: prune_only grafts nothing
            for _ in range(20):
                config = _random_prune(rng, vocab)
                context = [int(t) for t in rng.integers(0, vocab, size=rng.integers(1, 5))]
                tree, *got = gated(draft, context, config)
                expect, stage, trace = reference_envelope(draft, context, config)
                _same_tree(tree, expect)
                assert got == [stage, trace], name
                info = build_next_tree(DecodeConfig(method="prune_only", prune=config), draft, matrix, context)[1]
                assert info["layers_drafted"] == canonical_form(expect)[2][-1]  # the oracle's own depths
                assert stage_cut(tree, stage, config).tolist() == closure_topk_iterative(
                    tree.scores.tolist(), tree.parents.tolist(), config.draft_budget(stage)
                )
                stages.add("none" if stage is None else "first" if stage == config.checkpoints[0] else "later")
                _same_tree(ungated(draft, context, config), reference_envelope(draft, context, config, gated=False)[0])

                beams = [int(rng.integers(1, 12)) for _ in range(config.max_depth)]
                gates = {d: config.thresholds[d] for d in config.checkpoints}
                got = resolve_stage(draft, context, config.top_k, beams, gates)
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
            tree, *got = gated(draft, context, config)
            expect, stage, trace = reference_envelope(draft, context, config)
            _same_tree(tree, expect)
            assert got == [stage, trace]
            _same_tree(ungated(draft, context, config), reference_envelope(draft, context, config, gated=False)[0])


class TestGateConfidenceBits:
    """Each gate confidence is, bit for bit, ``exp`` of the best score in the
    layer its gate reads, also where the beam cut splits a tie across
    frontier rows and where it drops zero-probability candidates: the
    layer's cheapest cost comes from the beam cut's own argsort."""

    def test_trace_is_exp_of_the_layer_best(self, monkeypatch):
        rng = np.random.default_rng(35)
        rank_rows, split, masked = drafttree._rank_rows, [], 0
        monkeypatch.setattr(drafttree, "_rank_rows", lambda *args: split.append(1) or rank_rows(*args))
        tied = derive_draft(build_markov(VocabSpec(6), 1, seed=3), DraftDerivation("uniform-mix", 1.0))
        for draft in [tied, *_envelope_drafts().values()]:
            vocab = draft.vocab.size
            for _ in range(6):
                depth = int(rng.integers(1, 7))
                beams = [int(rng.integers(1, 12)) for _ in range(depth)]
                top_k = int(rng.integers(1, vocab + 3))
                gates = {d: float(rng.uniform(0.0, 0.3)) for d in range(depth) if rng.random() < 0.8}
                context = [int(t) for t in rng.integers(0, vocab, size=rng.integers(1, 4))]
                tree, stage, trace = resolve_stage(draft, context, top_k, beams, gates)
                assert list(trace) == [d for d in sorted(gates) if stage is None or d <= stage]
                for d, conf in trace.items():
                    assert conf.hex() == float(np.exp(tree.scores[layer(tree, d + 1)].max())).hex()
                sizes = np.bincount(tree.depths)
                k = min(top_k, vocab)
                masked += sum(n < min(b, m * k) for m, n, b in zip(sizes, sizes[1:], beams))
        assert split and masked  # both cut rules ran


def _oracle_tree(tree):
    """The oracle's tree stored in canonical order, as the envelope stores it."""
    tokens, parents, _, _, scores = canonical_form(tree)
    return HybridTree(np.array(tokens, dtype=np.int32), np.array(parents, dtype=np.int32), np.array(scores))


def _oracle_whole_envelope(draft, context, config):
    return _oracle_tree(reference_envelope(draft, context, config, gated=False)[0])


def _oracle_resolve_stage(draft, context, top_k, beams, gates, keep=None):
    """The layer-by-layer oracle's whole envelope, in ``resolve_stage``'s signature."""
    config = SimpleNamespace(top_k=top_k, checkpoints=tuple(gates), thresholds=gates)
    tree, stage, trace = reference_envelope(draft, context, config, beams=beams)
    return _oracle_tree(tree), stage, trace


def _bound_config(rng, method, keep, base):
    """``base`` with the budgets that make ``method`` cut its draft tree at
    ``keep``: the total less ``fixed_split``'s 36-node ``d1`` or
    ``graft_tail``'s 8-node chain, or else the total budget, which is at
    least 1."""
    total = {"fixed_split": keep + 36, "graft_tail": keep + 8}.get(method, max(keep, 1))
    splits = {}
    for d in base.checkpoints:
        kd = int(rng.integers(0, total + 1))
        splits[d] = (kd, total - kd)
    return DecodeConfig(method=method, prune=replace(base, total_budget=total, stage_budgets=splits))


def _bound_drafts():
    """Sparse Markov and dyadic (tied) drafts, orders 1 and 2."""
    drafts = [build_markov(VocabSpec(7), order, seed=order, sparsity=0.5) for order in (1, 2)]
    return drafts + [dyadic_model(5, order, seed=order) for order in (1, 2)]


def _bound_base(rng, vocab, gated):
    """A random prune config, with the checkpoints 0 and some of 1 and 5
    when ``gated``; :func:`_bound_config` sets its budgets."""
    max_depth = int(rng.integers(2, 8))
    checkpoints = (0, *(d for d in (1, 5) if d < max_depth and rng.random() < 0.7)) if gated else ()
    return PruneConfig(
        checkpoints=checkpoints,
        thresholds={d: float(rng.uniform(0.02, 0.5)) for d in checkpoints},
        stage_budgets={d: (1, 0) for d in checkpoints},
        total_budget=1,
        top_k=int(rng.integers(2, vocab + 2)),
        max_depth=max_depth,
        beam_width=int(rng.integers(2, 7)),
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
        fired = {False: 0, True: 0}
        reads = []  # every matrix read: fixed_split, graft_root and graft_tail read once a step
        monkeypatch.setattr(engine, "instantiate", lambda *args: reads.append(args) or retrieval.instantiate(*args))
        for draft in _bound_drafts():
            vocab = draft.vocab.size
            matrix = new_matrix(vocab, 10)
            hot = [t for t in range(vocab) if rng.random() < 0.8]
            write_rows(matrix, dict(zip(hot, draft.row_ids([draft.code_of([t]) for t in hot]))), draft)
            for with_gates in (False, True):
                for _ in range(4):
                    base = _bound_base(rng, vocab, with_gates)
                    context = [int(t) for t in rng.integers(0, vocab, size=rng.integers(1, 4))]
                    full = _oracle_whole_envelope(draft, context, base)
                    sizes = np.cumsum(np.bincount(full.depths)[1:])
                    layers = int(rng.integers(1, sizes.size + 1))
                    keeps = (0, int(rng.integers(1, sizes[0])) if sizes[0] > 1 else 1, int(sizes[layers - 1]), full.n_nodes + 3)
                    whole = gated(draft, context, base)[0].n_nodes
                    for keep in keeps:
                        fired[with_gates] += gated(draft, context, base, keep)[0].n_nodes < whole
                        for method in TREE_METHODS:
                            config = _bound_config(rng, method, keep, base)
                            before = len(reads)
                            got, info = build_next_tree(config, draft, matrix.copy(), context)
                            if method in ("fixed_split", "graft_root", "graft_tail"):
                                assert len(reads) == before + 1, method
                            with monkeypatch.context() as patch:
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
            tree = ungated(draft, context, config.prune, config.prune.total_budget)
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
                tree, *got = gated(draft, context, config, keep=1)
                whole, *expect = gated(draft, context, config)
                assert got == expect and got[0] == stage
                assert int(tree.depths[-1]) == 6  # stage + 1, or the first layer past the last gate
                assert whole.n_nodes == (tree.n_nodes if stage is not None else 81)


def _explicit_merge(tree, retained, budget, at, parents, tokens):
    """``hybrid.merge`` handed the explicit ``select_retained`` cut as an array."""
    if isinstance(retained, int):
        retained = select_retained(tree, retained)
    return hybrid.merge(tree, retained, budget, at, parents, tokens)


class TestIdentityCut:
    """A cut that keeps every candidate keeps the tree itself: for every tree
    method, ``build_next_tree`` gives the tree and info that the explicit
    ``select_retained`` cut, handed to ``merge`` as an array, gives, and
    ``select_retained`` runs only when the cut drops nodes (``graft_tail``
    cuts explicitly, for ``tail_anchor``). The dense replay's union is the
    explicit one too."""

    def test_build_next_tree_matches_the_explicit_cut(self, monkeypatch):
        rng = np.random.default_rng(26)
        ranked, cuts, unions = [], [], []

        def counted(tree, limit):
            ranked.append(limit)
            return select_retained(tree, limit)

        monkeypatch.setattr(hybrid, "select_retained", counted)
        monkeypatch.setattr(engine, "select_retained", counted)

        def seen(build):
            def cut(tree, retained, *rest):
                cuts.append(isinstance(retained, int) and retained >= tree.n_candidates)
                return build(tree, retained, *rest)
            return cut

        monkeypatch.setattr(engine, "verify_greedy", lambda target, prefix, hy: unions.append(hy) or SimpleNamespace(accepted_len=0))
        covered = set()
        for draft in _bound_drafts():
            vocab = draft.vocab.size
            matrix = new_matrix(vocab, 10)
            hot = [t for t in range(vocab) if rng.random() < 0.8]
            write_rows(matrix, dict(zip(hot, draft.row_ids([draft.code_of([t]) for t in hot]))), draft)
            for _ in range(6):
                base = _bound_base(rng, vocab, rng.random() < 0.7)
                context = [int(t) for t in rng.integers(0, vocab, size=rng.integers(1, 4))]
                n = ungated(draft, context, base).n_candidates
                for keep in (0, int(rng.integers(1, n)) if n > 1 else 1, n, n + 3):
                    for method in TREE_METHODS:
                        config = _bound_config(rng, method, keep, base)
                        ranked.clear()
                        cuts.clear()
                        with monkeypatch.context() as patch:
                            patch.setattr(engine, "merge", seen(hybrid.merge))
                            got, info = build_next_tree(config, draft, matrix.copy(), context)
                        (whole,) = cuts
                        assert len(ranked) == (0 if whole else 1), method
                        covered.add((method, whole))
                        with monkeypatch.context() as patch:
                            patch.setattr(engine, "merge", _explicit_merge)
                            expect, expect_info = build_next_tree(config, draft, matrix.copy(), context)
                        for name in ("tokens", "parents", "scores", "child_ptr"):
                            a, b = getattr(got, name), getattr(expect, name)
                            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (method, name)
                        assert info == expect_info, method

                        unions.clear()
                        engine.dense_replay(config, draft, draft, context, got, None)
                        with monkeypatch.context() as patch:
                            patch.setattr(engine, "merge", _explicit_merge)
                            engine.dense_replay(config, draft, draft, context, got, None)
                        a, b = unions
                        assert a.tokens.tobytes() == b.tokens.tobytes() and a.parents.tobytes() == b.parents.tobytes()
                        assert a.scores.tobytes() == b.scores.tobytes()
        assert covered >= {(m, w) for m in TREE_METHODS if m != "graft_tail" for w in (False, True)}


def _root_table_drafts():
    """A sparse Markov draft (+inf candidates, one-hot rows), a smoothed
    n-gram, uniform rows (every candidate tied) and a dyadic table, each
    with more rows than one ``_TOPK_BLOCK``."""
    corpus = np.random.default_rng(8).integers(0, 5, size=3000).tolist()
    return {
        "markov-sparse": build_markov(VocabSpec(6), 4, seed=4, sparsity=0.6),
        "ngram-smooth": train_ngram(VocabSpec(5), corpus, order=4, smoothing=0.5),
        "uniform": derive_draft(build_markov(VocabSpec(6), 4, seed=2), DraftDerivation("uniform-mix", 1.0)),
        "dyadic": dyadic_model(5, 4, seed=3),
    }


def _context_of(code, vocab):
    """The tokens of context code ``code``, the first most significant."""
    tokens = []
    while code:
        code, digit = divmod(code, vocab + 1)
        tokens.append(digit - 1)
    return tokens[::-1]


def _layers_of(tree):
    """A two-layer envelope's layers as the table holds them: parent slots
    in the frontier, tokens and costs; and each layer's frontier codes."""
    n1, codes = int(np.count_nonzero(tree.parents == 0)), tree.context_codes[2]
    return [
        (tree.parents[1:n1 + 1].tolist(), tree.tokens[1:n1 + 1].tolist(), -tree.scores[1:n1 + 1], codes[:1]),
        ((tree.parents[n1 + 1:] - 1).tolist(), tree.tokens[n1 + 1:].tolist(), -tree.scores[n1 + 1:], codes[1:n1 + 1]),
    ]


def _same_envelope(got, expect) -> bool:
    """Two ``resolve_stage`` results agree bit for bit: the tree's arrays and
    codes, the stage and the gate confidences."""
    same = all(getattr(got[0], name).tobytes() == getattr(expect[0], name).tobytes() for name in ("tokens", "parents", "scores"))
    return same and got[0].context_codes == expect[0].context_codes and got[1:] == expect[1:]


class TestTwoLayerTable:
    """Each row of a draft's two-layer table holds, bit for bit, the first
    two layers a fresh envelope drafts below that row at cost -0.0 without
    the table (the known rows), or the first alone (the fallback row): on
    every row, both sides of each ``_TOPK_BLOCK`` seam too, and with the
    sign of a -0.0 cheapest cost. An envelope read through the table is the
    envelope drafted without it, under any gates and ``keep``."""

    @pytest.mark.parametrize("name", ["markov-sparse", "ngram-smooth", "uniform", "dyadic"])
    def test_rows_match_a_fresh_two_layer_draft(self, name, monkeypatch):
        draft = _root_table_drafts()[name]
        plain = replace(draft)  # drafted with the ceiling at 0: no table
        n_rows, vocab = draft.rows.shape
        assert n_rows > 2 * models._TOPK_BLOCK
        contexts = {row_id: _context_of(code, vocab) for code, row_id in draft.index.items()}
        contexts[n_rows - 1] = [1]  # shorter than the order: an unseen context, the fallback row
        seen, keys = collections.Counter(), set()
        for k in (1, 3, vocab):  # k = vocab: every token is a candidate
            below, at, above = max(k - 1, 1), k, k + 2
            for beams in {(below, at), (at, above), (above, below)}:  # each width below, at and above k
                keys.add((k, *beams))
                stored = [drafttree._stored_layers(draft, draft.code_of(contexts[row_id]), row_id, k, beams) for row_id in range(n_rows)]
                with monkeypatch.context() as patch:
                    patch.setattr(drafttree, "MAX_TABLE_CELLS", 0)
                    fresh = [resolve_stage(plain, contexts[row_id], k, beams, {})[0] for row_id in range(n_rows)]
                for row_id, (layers, tree) in enumerate(zip(stored, fresh)):
                    known = row_id < n_rows - 1
                    assert len(layers) == (2 if known else 1), (k, beams, row_id)
                    cost = np.array([-0.0])
                    for depth, ((best, tokens, costs, low), (slots, tokens_, costs_, codes)) in enumerate(zip(layers, _layers_of(tree)), 1):
                        assert [j // k for j in best] == slots and tokens == tokens_, (k, beams, row_id, depth)
                        assert costs.dtype == np.float64 and costs.tobytes() == costs_.tobytes()
                        top, logq = plain.topk_by_token(plain.row_ids(codes), k)  # the layer's candidates, scored afresh
                        assert top.ravel()[best].tolist() == tokens  # each candidate index names its token
                        cand = (cost[:, None] - logq).ravel()
                        assert low.hex() == float(cand.min()).hex()  # the sign of -0.0 too
                        order = np.argsort(cand, kind="stable")
                        width = beams[depth - 1]
                        if width < cand.size and cand[order[width]] == cand[order[width - 1]] < np.inf:
                            tied = np.flatnonzero(cand == cand[order[width]]) // k
                            seen[f"split tie {depth}"] += tied[0] != tied[-1]
                        seen[f"dropped {depth}"] += len(tokens) < min(width, cand.size)
                        seen[f"-0.0 {depth}"] += math.copysign(1.0, low) < 0
                        cost = costs
        assert set(draft._two_layers) == keys and not plain._two_layers
        if name == "markov-sparse":
            assert seen["dropped 1"] and seen["dropped 2"] and seen["-0.0 1"] and seen["-0.0 2"]
        if name in ("uniform", "dyadic"):
            assert seen["split tie 2"]

    def test_envelopes_match_drafting_without_the_table(self, monkeypatch):
        # a few contexts and shapes, each read under varied gates and keep;
        # each context's first read under each shape stops before layer 2,
        # by keep 1 or by a failed gate 0, so its row serves later reads that
        # draft past it; a short corpus's unseen contexts read the fallback row
        rng = np.random.default_rng(37)
        sparse = train_ngram(VocabSpec(6), rng.integers(0, 6, size=40).tolist(), order=2)
        seen = collections.Counter()
        for draft in [*_root_table_drafts().values(), sparse]:
            plain, vocab, fallback = replace(draft), draft.vocab.size, draft.rows.shape[0] - 1
            pool = [[int(t) for t in rng.integers(0, vocab, size=rng.integers(1, draft.order + 1))] for _ in range(6)]
            shapes = [(int(rng.integers(1, vocab + 3)), tuple(int(b) for b in rng.integers(1, vocab + 3, size=3))) for _ in range(2)]
            for i in range(300):
                first = i < len(pool) * len(shapes)
                context = pool[i % len(pool) if first else rng.integers(len(pool))]
                top_k, beams = shapes[i // len(pool) if first else rng.integers(len(shapes))]
                beams = beams[: rng.integers(2, 4)]
                gates = {d: float(rng.uniform(0.05, 1.0)) for d in range(3) if rng.random() < 0.5}
                keep = None if rng.random() < 0.3 else int(rng.integers(0, 3 * vocab))
                if first:
                    gates, keep = ({}, 1) if i % 2 else ({0: 1 - 1e-9}, None)
                got = resolve_stage(draft, context, top_k, beams, gates, keep)
                with monkeypatch.context() as patch:
                    patch.setattr(drafttree, "MAX_TABLE_CELLS", 0)
                    expect = resolve_stage(plain, context, top_k, beams, gates, keep)
                assert _same_envelope(got, expect), (context, top_k, beams, gates, keep)
                depth = int(got[0].depths.max())
                seen["fallback"] += draft.row_ids([draft.code_of(context)])[0] == fallback
                seen[f"stage {got[1]}"] += 1
                seen["keep stop"] += got[1] is None and depth < len(beams)
            assert not plain._two_layers
        assert seen["fallback"] and seen["stage 0"] and seen["stage 1"] and seen["stage None"] and seen["keep stop"]

    def test_a_table_past_the_ceiling_is_never_allocated(self, monkeypatch):
        draft = _root_table_drafts()["dyadic"]
        n_rows, vocab = draft.rows.shape
        contexts = [_context_of(code, vocab) for code in list(draft.index)[:200]] + [[2]]
        expect = [resolve_stage(replace(draft), context, 3, (2, 5, 4), {0: 0.2}) for context in contexts]
        monkeypatch.setattr(drafttree, "MAX_TABLE_CELLS", n_rows * (2 + 5) - 1)  # one cell short
        for context, want in zip(contexts, expect):
            assert _same_envelope(resolve_stage(draft, context, 3, (2, 5, 4), {0: 0.2}), want)
        assert not draft._two_layers
        monkeypatch.setattr(drafttree, "MAX_TABLE_CELLS", n_rows * (2 + 5))  # at the ceiling
        assert _same_envelope(resolve_stage(draft, contexts[0], 3, (2, 5, 4), {0: 0.2}), expect[0])
        (table,) = draft._two_layers.values()
        assert [a.shape for a in table] == [(n_rows, 2 * (2 + 5) + 2), (n_rows, 2 + 5 + 2)]

    def test_threads_share_one_fresh_table(self):
        draft = build_markov(VocabSpec(16), 2, seed=21, sparsity=0.3)
        contexts = [_context_of(code, 16) for code in draft.index] + [[t] for t in range(16)]
        beams, gates = (4, 6, 3), {1: 0.02}
        expect = [resolve_stage(replace(draft), context, 5, beams, gates) for context in contexts]
        wrong = []

        def worker(i):
            order = np.random.default_rng(i).permutation(len(contexts))
            for j in order.tolist():
                if not _same_envelope(resolve_stage(draft, contexts[j], 5, beams, gates), expect[j]):
                    wrong.append((i, j))

        assert not draft._two_layers
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        ((ints, _),) = draft._two_layers.values()
        counts = ints[:, -2:]
        assert counts[:, 0].all() and counts[:-1, 1].all() and counts[-1, 1] == 0

    def test_keep_zero_without_gates_drafts_nothing(self):
        for draft in _root_table_drafts().values():
            tree, stage, trace = resolve_stage(draft, [1, 2], 3, (4, 4), {}, keep=0)
            assert (tree.n_nodes, stage, trace) == (1, None, {})
            assert tree.scores.tobytes() == np.array([0.0]).tobytes()

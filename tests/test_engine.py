import hashlib
import itertools
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from specgraft import engine, retrieval
from specgraft.config import load_run_config
from specgraft.drafttree import PruneConfig, select_retained
from specgraft.engine import (
    ACCEPTANCE_MODES,
    METHODS,
    TREE_METHODS,
    AblationFixture,
    CostModel,
    DecodeConfig,
    build_next_tree,
    calibrate,
    compute_metrics,
    coverage_gain,
    decode_session,
    dense_replay,
    run_ablation,
    theory_checks,
    _random_instance,
    _random_subset_tree,
)
from specgraft.errors import ConfigError
from specgraft.hybrid import flatten
from specgraft.models import DraftDerivation, VocabSpec, argtopk, build_markov, derive_draft
from specgraft.retrieval import COLD, builtin_templates, filter_template, new_matrix, warmup
from specgraft.verify import node_row_ids, verify_greedy, verify_stochastic

from .conftest import gated, table_model, ungated
from .oracles import (
    ar_greedy,
    canonical_form,
    closure_topk_iterative,
    context_row,
    greedy_chain_walk,
    new_tree,
    reference_draft_builder,
    replay_matrix_writes,
)
from .test_report_digests import at_root
from .test_retrieval import full_matrix


def seeded_pair(vocab=24, seed=42, strength=0.4):
    target = build_markov(VocabSpec(vocab), 1, seed=seed, sparsity=0.2)
    draft = derive_draft(target, DraftDerivation("uniform-mix", strength))
    return target, draft


PEAKED_PROMPT = [3, 1, 7, 7, 20, 3, 11, 0, 5]


def peaked_pair():
    """Peaked rows and a close draft, so graft's gates both pass and fail
    (from ``PEAKED_PROMPT``, over 80 tokens)."""
    target = build_markov(VocabSpec(24), 1, seed=7, sparsity=0.93)
    return target, derive_draft(target, DraftDerivation("uniform-mix", 0.05))


def half_warm(target):
    """A matrix with every other row written, so retrieval has something to graft."""
    warm = new_matrix(24, 10)
    for t in range(0, 24, 2):
        warm.rows[t] = argtopk(target.next_distribution([t]), warm.k)
    return warm


class TestDecodeSession:
    def test_autoregressive_det4(self, det4):
        cfg = DecodeConfig(method="autoregressive", max_new_tokens=8)
        tokens, report = decode_session(cfg, det4, det4, new_matrix(4, 10), [0])
        assert tokens == [1, 2, 3, 0, 1, 2, 3, 0]
        assert report.mat == 1.0
        assert report.speedup_proxy == pytest.approx(1.0)

    def test_graft_with_perfect_drafter_never_prunes(self, det4):
        cfg = DecodeConfig(method="graft", max_new_tokens=12)
        tokens, report = decode_session(cfg, det4, det4, new_matrix(4, 10), [0])
        assert report.stage_histogram == {"none": report.steps_count}
        assert tokens == ar_greedy(det4, [0], 12)

    def test_graft_weak_draft_bit_exact(self):
        target, draft = seeded_pair()
        cfg = DecodeConfig(method="graft", max_new_tokens=200)
        tokens, _ = decode_session(cfg, target, draft, new_matrix(24, 10), [3, 1])
        assert tokens == ar_greedy(target, [3, 1], 200)

    def test_all_methods_lossless_under_greedy(self):
        target, draft = seeded_pair(seed=7)
        expect = ar_greedy(target, [2], 120)
        for method in ("dense", "prune_only", "fixed_split", "graft", "graft_root", "graft_tail"):
            cfg = DecodeConfig(method=method, max_new_tokens=120)
            tokens, _ = decode_session(cfg, target, draft, new_matrix(24, 10), [2])
            assert tokens == expect, method

    def test_budget_conservation(self):
        target, draft = seeded_pair(seed=11)
        for method in ("dense", "fixed_split", "graft", "graft_root", "graft_tail"):
            cfg = DecodeConfig(method=method, max_new_tokens=80)
            _, report = decode_session(cfg, target, draft, new_matrix(24, 10), [1])
            assert report.max_tree_candidates <= 60

    def test_exact_truncation_at_budget(self):
        target, draft = seeded_pair(seed=13)
        cfg = DecodeConfig(method="graft", max_new_tokens=37)
        tokens, report = decode_session(cfg, target, draft, new_matrix(24, 10), [0])
        assert len(tokens) == 37
        assert report.tokens_emitted == 37
        assert report.mat >= 1.0

    def test_end_token_stops_session(self, det4):
        cfg = DecodeConfig(method="autoregressive", max_new_tokens=50, end_token=3)
        tokens, _ = decode_session(cfg, det4, det4, new_matrix(4, 10), [0])
        assert tokens == [1, 2, 3]

    def test_vocab_mismatch_rejected(self, det4):
        target, _ = seeded_pair()
        with pytest.raises(ConfigError):
            decode_session(DecodeConfig(), target, det4, new_matrix(24, 10), [0])

    def test_greedy_session_deterministic(self):
        target, draft = seeded_pair(seed=17)
        out = []
        for _ in range(2):
            cfg = DecodeConfig(method="graft", max_new_tokens=60)
            out.append(decode_session(cfg, target, draft, new_matrix(24, 10), [5]))
        assert out[0][0] == out[1][0]
        assert out[0][1].to_dict() == out[1][1].to_dict()

    def test_stochastic_session_seeded(self):
        target, draft = seeded_pair(seed=19)
        runs = []
        for _ in range(2):
            cfg = DecodeConfig(method="graft", acceptance="stochastic", max_new_tokens=40, seed=9)
            runs.append(decode_session(cfg, target, draft, new_matrix(24, 10), [5])[0])
        assert runs[0] == runs[1]


    def test_dense_charges_the_layers_the_bound_skips(self):
        # vocab 64, order 2: the envelope stops after 6 of 8 layers, the proxy charges 8
        target = build_markov(VocabSpec(64), 2, seed=11, sparsity=0.3)
        draft = derive_draft(target, DraftDerivation("uniform-mix", 0.4))
        cfg = DecodeConfig(method="dense", max_new_tokens=40, acceptance="stochastic")
        depths = []
        _, report = decode_session(cfg, target, draft, new_matrix(64, 10), [5, 9], lambda _, hy: depths.append(int(hy.depths[-1])))
        assert set(depths) == {6}
        for step in report.steps:
            assert step["layers_drafted"] == cfg.prune.max_depth
            assert step["cost"] == cfg.cost.step_cost(cfg.prune.max_depth, step["tree_candidates"], False)

    @pytest.mark.parametrize("method", TREE_METHODS)
    def test_retrieval_cost_charged_on_steps_that_read_the_matrix(self, method):
        with at_root():
            run = load_run_config("configs/quickstart.yaml")
        warm = new_matrix(run.vocab.size, run.matrix_k)
        warmup(warm, run.target, run.draft, run.warmup_prompts, run.warmup_rounds, config=run.decode)
        reports = []
        for charge in (0.0, 0.5):
            cfg = replace(run.decode, method=method, cost=replace(run.decode.cost, retrieval_cost=charge))
            reports.append(decode_session(cfg, run.target, run.draft, warm.copy(), run.prompt)[1])
        free, charged = reports
        reads = sum(step["stage"] in cfg.templates for step in free.steps)
        if method in ("dense", "prune_only"):  # they never read the matrix
            assert reads == 0 and charged == free
        else:
            assert reads > 0
        assert charged.cost_total == pytest.approx(free.cost_total + 0.5 * reads)


class TestBuildNextTree:
    def test_graft_stage_none_has_no_retrieval(self, det4):
        cfg = DecodeConfig(method="graft")
        hy, info = build_next_tree(cfg, det4, full_matrix(4, 10), [0])
        assert info["stage"] == "none"
        assert hy.counts_by_origin()[1] == 0

    def test_graft_stage_d1_splits_24_36(self):
        rng = np.random.default_rng(3)
        rows = {}
        for t in range(64):
            w = np.zeros(64)
            w[:16] = rng.gamma(1.0, 1.0, 16)  # keep draft tokens in 0..15
            rows[(t,)] = w / w.sum()
        draft = table_model(64, 1, rows)
        prune = PruneConfig(thresholds={0: 1e-9, 1: 0.999999, 5: 0.51})
        cfg = DecodeConfig(method="graft", prune=prune)
        matrix = full_matrix(64, 10, shift=32)
        hy, info = build_next_tree(cfg, draft, matrix, [0])
        assert info["stage"] == "d1"
        n_draft, n_retrieved = hy.counts_by_origin()
        # the d1 split is (24, 36); under the width-10 layer beam the
        # two drafted layers only offer 20 candidates, so the draft side
        # caps there while retrieval fills its full 36
        assert cfg.prune.stage_budgets[1] == (24, 36)
        assert n_draft == min(24, 20)
        assert n_retrieved == 36
        assert hy.n_candidates <= 60

    def test_prune_only_stage_d0_keeps_eight(self):
        target, draft = seeded_pair(seed=23)
        prune = PruneConfig(thresholds={0: 0.999999, 1: 0.13, 5: 0.51})
        cfg = DecodeConfig(method="prune_only", prune=prune)
        hy, info = build_next_tree(cfg, draft, new_matrix(24, 10), [0])
        assert info["stage"] == "d0"
        assert hy.n_candidates == 8
        # oracle: re-run the stage resolution independently
        tree, stage, _ = gated(draft, [0], prune)
        assert stage == 0
        assert len(select_retained(tree, prune.draft_budget(stage))) - 1 == 8

    def test_fixed_split_uses_constant_split(self):
        target, draft = seeded_pair(seed=29)
        cfg = DecodeConfig(method="fixed_split")
        hy, info = build_next_tree(cfg, draft, full_matrix(24, 10, shift=13), [0])
        n_draft, _ = hy.counts_by_origin()
        assert n_draft <= 24
        assert info["stage"] == "none"
        assert info["declared"] == 36

    def test_fixed_split_under_a_budget_below_d1_drafts_nothing(self):
        # 20 candidates leave d1's 36 nodes no room for a draft node, and the cut keeps the budget
        _, draft = seeded_pair(seed=29)
        prune = PruneConfig(total_budget=20, stage_budgets=dict.fromkeys((0, 1, 5), (10, 10)))
        hy, info = build_next_tree(DecodeConfig(method="fixed_split", prune=prune), draft, full_matrix(24, 10), [0])
        assert hy.counts_by_origin()[0] == 0 and 0 < hy.n_candidates <= 20
        assert info["stage"] == "none" and info["declared"] == 36

    @pytest.mark.parametrize("method", TREE_METHODS)
    @pytest.mark.parametrize("threshold", [1e-9, 0.999999])
    def test_one_draft_call_and_one_build_call(self, monkeypatch, method, threshold):
        # every gate passes, or the first fails; only prune_only and graft test them
        _, draft = seeded_pair(seed=41)
        prune = PruneConfig(thresholds=dict.fromkeys((0, 1, 5), threshold))
        calls = []

        def spy(name):
            fn = getattr(engine, name)
            return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

        for name in ("resolve_stage", "merge"):
            monkeypatch.setattr(engine, name, spy(name))
        cfg = DecodeConfig(method=method, prune=prune)
        _, info = build_next_tree(cfg, draft, full_matrix(24, 10, shift=13), [0])
        assert calls == ["resolve_stage", "merge"]
        assert info["stage"] == ("d0" if threshold > 0.5 and method in ("prune_only", "graft") else "none")

    def test_tail_chain_past_the_budget_is_never_built(self):
        # a budget of 4 cuts the 8-node chain to 4 nodes and leaves no draft slot
        target, draft = seeded_pair(seed=31)
        prune = PruneConfig(total_budget=4, stage_budgets=dict.fromkeys((0, 1, 5), (2, 2)))
        cfg = DecodeConfig(method="graft_tail", prune=prune, max_new_tokens=60)
        assert cfg.templates["none"].declared_size == 4
        _, report = decode_session(cfg, target, draft, new_matrix(24, 10), [4, 2])
        assert all(s["n_draft"] == 0 and s["n_retrieved"] <= 4 for s in report.steps)
        assert max(s["n_retrieved"] for s in report.steps) == 4

    def test_graft_needs_a_template_for_every_checkpoint(self):
        prune = PruneConfig(checkpoints=(2,), thresholds={2: 0.9}, stage_budgets={2: (30, 30)})
        with pytest.raises(ConfigError, match=r"prune\.checkpoints \[2\].*d0, d1, d5"):
            DecodeConfig(method="graft", prune=prune)
        for method in TREE_METHODS:
            if method != "graft":
                assert DecodeConfig(method=method, prune=prune).prune.checkpoints == (2,)


class TestTemplates:
    """``DecodeConfig.templates``: the template each method grafts, by the
    stage label it grafts at, chosen once per config."""

    def test_graft_grafts_each_gate_stage_template(self):
        cfg = DecodeConfig(method="graft")
        assert cfg.templates is cfg.templates  # computed once
        assert set(cfg.templates) == {"d0", "d1", "d5"}
        assert all(t is builtin_templates()[name] for name, t in cfg.templates.items())

    def test_graft_filters_its_stage_templates(self):
        templates = DecodeConfig(method="graft", template_filter=(2, 3)).templates
        assert set(templates) == {"d0", "d1", "d5"}
        for name, t in templates.items():
            expect = filter_template(builtin_templates()[name], max_depth=2, max_rank=3)
            assert t.parents.tolist() == expect.parents.tolist() and t.ranks.tolist() == expect.ranks.tolist()
            assert len(t.depth_counts()) == 2 and t.max_rank() == 2

    @pytest.mark.parametrize("method,builtin", [("fixed_split", "d1"), ("graft_root", "d5")])
    def test_static_baselines_take_their_builtin(self, method, builtin):
        cfg = DecodeConfig(method=method)
        assert set(cfg.templates) == {"none"} and cfg.templates["none"] is builtin_templates()[builtin]

    def test_fixed_split_grafts_the_filtered_d1(self):
        # depth 2 leaves d1 13 nodes (6 + 7)
        template = DecodeConfig(method="fixed_split", template_filter=(2, None)).templates["none"]
        expect = filter_template(builtin_templates()["d1"], max_depth=2)
        assert template.parents.tolist() == expect.parents.tolist() and template.depth_counts() == [6, 7]

    @pytest.mark.parametrize("budget,size", [(4, 4), (8, 8), (60, 8)])
    def test_graft_tail_grafts_the_rank0_chain_cut_to_the_budget(self, budget, size):
        prune = PruneConfig(total_budget=budget, stage_budgets=dict.fromkeys((0, 1, 5), (budget, 0)))
        templates = DecodeConfig(method="graft_tail", prune=prune).templates
        assert set(templates) == {"none"}
        chain = templates["none"]
        assert chain.parents.tolist() == list(range(-1, size - 1))
        assert chain.ranks.tolist() == [0] * size

    @pytest.mark.parametrize("method", ["autoregressive", "dense", "prune_only"])
    def test_other_methods_graft_nothing(self, method):
        assert DecodeConfig(method=method, template_filter=(2, None)).templates == {}


class TestBoundedContext:
    """The models read at most ``order`` tokens, so a step must not depend on
    anything earlier: a 20 000-token prefix and its last-``order`` suffix
    build the same tree and read the same target rows."""

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("method", ["dense", "prune_only", "fixed_split", "graft", "graft_root", "graft_tail"])
    def test_long_prefix_equals_suffix(self, order, method):
        target = build_markov(VocabSpec(12), order, seed=4, sparsity=0.3)
        draft = derive_draft(target, DraftDerivation("uniform-mix", 0.5))
        prune = PruneConfig(thresholds={0: 0.3, 1: 0.2, 5: 0.51})
        cfg = DecodeConfig(method=method, prune=prune)
        matrix = full_matrix(12, 10, shift=5)
        long = [int(t) for t in np.random.default_rng(order).integers(0, 12, size=20_000)]
        short = long[-order:]
        hy_long, info_long = build_next_tree(cfg, draft, matrix, long)
        hy_short, info_short = build_next_tree(cfg, draft, matrix, short)
        assert info_long == info_short
        for name in ("tokens", "parents", "depths", "origin", "scores"):
            assert np.array_equal(getattr(hy_long, name), getattr(hy_short, name), equal_nan=True), name
        ids_long = node_row_ids(target, long, flatten(hy_long, len(long) - 1))
        ids_short = node_row_ids(target, short, flatten(hy_short, len(short) - 1))
        dists_long, dists_short = target.rows[ids_long], target.rows[ids_short]
        assert np.array_equal(ids_long, ids_short)
        assert np.array_equal(dists_long, dists_short)
        for i, row in enumerate(dists_long):
            path = []
            j = i
            while j:
                path.append(int(hy_long.tokens[j]))
                j = int(hy_long.parents[j])
            assert np.array_equal(row, target.next_distribution(long + path[::-1]))


def _recomputed(target, prefix, tree):
    """``node_row_ids`` of ``tree`` with its carried codes dropped, so
    computed from ``prefix``: ``replace`` keeps neither codes nor pointers."""
    stripped = replace(tree)
    assert stripped.context_codes is None
    return node_row_ids(target, prefix, stripped)


class TestCarriedCodes:
    """Verification reads the context codes a tree carries only where they
    are the codes it would compute from the prefix: for every builder's
    trees, from drafts of the target's order and of a lower one, and for a
    tree verified against a prefix it was not drafted from."""

    @pytest.mark.parametrize("order, truncate", [(0, None), (1, 1.0), (2, 0.5)])
    @pytest.mark.parametrize("method", TREE_METHODS)
    def test_build_next_tree(self, order, truncate, method):
        target = build_markov(VocabSpec(12), order, seed=5, sparsity=0.3)
        drafts = [derive_draft(target, DraftDerivation("uniform-mix", 0.4))]
        if truncate is not None:  # a context-truncate draft one order lower
            drafts.append(derive_draft(target, DraftDerivation("context-truncate", truncate)))
            assert drafts[-1].order == order - 1
        cfg = DecodeConfig(method=method, prune=PruneConfig(thresholds={0: 0.3, 1: 0.2, 5: 0.51}))
        matrix = full_matrix(12, 10, shift=5)
        for draft in drafts:
            for prefix in ([3], [5, 7, 3]):  # shorter than an order-2 context, and longer
                hy, _ = build_next_tree(cfg, draft, matrix, prefix)
                assert hy.context_codes[:2] == (12, draft.order)
                if method in ("fixed_split", "graft_root", "graft_tail"):
                    assert hy.counts_by_origin()[1] > 0  # grafted nodes carry codes too
                assert node_row_ids(target, prefix, hy) == _recomputed(target, prefix, hy)

    def test_dense_replay_union(self, monkeypatch):
        target = build_markov(VocabSpec(12), 2, seed=6, sparsity=0.3)
        draft = derive_draft(target, DraftDerivation("uniform-mix", 0.4))
        cfg = DecodeConfig(method="fixed_split")
        prefix = [4, 9, 2]
        hy, _ = build_next_tree(cfg, draft, full_matrix(12, 10, shift=3), prefix)
        seen = []
        monkeypatch.setattr(engine, "verify_greedy", lambda t, p, union: seen.append(union) or SimpleNamespace(accepted_len=0))
        dense_replay(cfg, target, draft, prefix, hy, None)
        (union,) = seen
        assert union.n_candidates > cfg.prune.total_budget and union.context_codes is not None
        assert node_row_ids(target, prefix, union) == _recomputed(target, prefix, union)

    def test_theory_random_subsets(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            target, _, prefix, tree, _ = _random_instance(rng)
            small = _random_subset_tree(tree, rng, keep_prob=float(rng.uniform(0.3, 0.9)))
            for hy in (tree, small):
                assert hy.context_codes is not None
                assert node_row_ids(target, prefix, hy) == _recomputed(target, prefix, hy)

    def test_another_prefix_reads_its_own_rows(self):
        target = build_markov(VocabSpec(12), 2, seed=5)
        draft = derive_draft(target, DraftDerivation("uniform-mix", 0.4))
        drafted, other = [5, 7, 3], [1, 2, 3]  # the same root token after another context
        hy, _ = build_next_tree(DecodeConfig(method="dense"), draft, full_matrix(12, 10), drafted)
        ids = node_row_ids(target, other, hy)
        assert ids == _recomputed(target, other, hy)
        assert ids != node_row_ids(target, drafted, hy)


class _RecordingTarget:
    """Target wrapper that records every context code it computes: the
    prefix length of each ``code_of`` call, and the parents of each
    ``extend_codes`` call, whose every code extends its parent's by one
    token."""

    def __init__(self, model):
        self.model = model
        self.lengths = []
        self.parents = []

    def __getattr__(self, name):
        return getattr(self.model, name)

    def code_of(self, prefix):
        self.lengths.append(len(prefix))
        return self.model.code_of(prefix)

    def extend_codes(self, codes, parents, tokens):
        self.parents.append(list(parents))
        return self.model.extend_codes(codes, parents, tokens)


class TestPrefill:
    """Prefill reads a bounded window per prompt token (linear in the
    prompt) and leaves the matrix a per-token full-prefix update leaves."""

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_matches_full_prefix_reference(self, order):
        target = build_markov(VocabSpec(7), order, seed=order, sparsity=0.3)
        prompt = [int(t) for t in np.random.default_rng(order).integers(0, 7, size=400)]
        recording = _RecordingTarget(target)
        matrix = new_matrix(7, 4)
        # one autoregressive step rewrites the last prompt token's row with
        # the same distribution, so the matrix is the prefill's
        cfg = DecodeConfig(method="autoregressive", max_new_tokens=1)
        decode_session(cfg, recording, target, matrix, prompt)
        reference = new_matrix(7, 4)
        for i in range(len(prompt)):
            reference.rows[prompt[i]] = argtopk(target.next_distribution(prompt[: i + 1]), reference.k)
        assert np.array_equal(matrix.rows, reference.rows)
        assert np.array_equal(matrix.rows != COLD, reference.rows != COLD)
        # one code per prompt token, each from the code just before it, and
        # one for the autoregressive step from a window of at most the order
        assert recording.parents == [list(range(len(prompt)))]
        assert len(recording.lengths) == 1
        assert max(recording.lengths) <= max(order, 1)


class TestOneDecodeRule:
    """An autoregressive step emits what verifying the root-only tree emits:
    the same argmax, ties included, and under stochastic acceptance the same
    draw from the same seed (``rng.random()`` and ``rng.random(2)[0]`` are
    one double)."""

    @pytest.mark.parametrize("acceptance", ACCEPTANCE_MODES)
    def test_first_token_matches_the_verifier(self, acceptance):
        rng = np.random.default_rng(16)
        ties = 0
        for trial in range(300):
            vocab, order = int(rng.integers(2, 7)), int(rng.integers(0, 3))
            # small integer weights tie often; every row keeps a positive entry
            weights = rng.integers(0, 3, size=(vocab**order + 1, vocab)).astype(float)
            weights[:, rng.integers(0, vocab)] += 1.0
            rows = weights / weights.sum(axis=1, keepdims=True)
            contexts = [c for c in itertools.product(range(vocab), repeat=order) if rng.random() < 0.7]
            target = table_model(vocab, order, dict(zip(contexts, rows)), fallback=rows[-1])
            prompt = [int(t) for t in rng.integers(0, vocab, size=int(rng.integers(1, 5)))]
            cfg = DecodeConfig(method="autoregressive", acceptance=acceptance, seed=trial, max_new_tokens=1)
            tokens, _ = decode_session(cfg, target, target, new_matrix(vocab, 2), prompt)
            if acceptance == "greedy":
                outcome = verify_greedy(target, prompt, new_tree(prompt))
            else:
                outcome = verify_stochastic(target, prompt, new_tree(prompt), np.random.default_rng(trial))
            assert tokens == outcome.emitted_tokens[:1]
            row = target.rows[outcome.row_ids[0]]
            ties += int((row == row.max()).sum() > 1)
        assert ties > 30  # the tie rule is exercised


class TestSessionWrites:
    """Every session writes the matrix: the prompt's rows and every
    verified node's."""

    @pytest.mark.parametrize("peaked", [False, True], ids=["attractor", "peaked"])
    @pytest.mark.parametrize("acceptance", ACCEPTANCE_MODES)
    @pytest.mark.parametrize("method", METHODS)
    def test_every_session_changes_the_matrix(self, method, acceptance, peaked):
        # seeded_pair(seed=5) falls into a two-token attractor where graft's
        # gate never passes; the peaked pair passes and fails it
        if peaked:
            (target, draft), prompt, length = peaked_pair(), PEAKED_PROMPT, 80
        else:
            (target, draft), prompt, length = seeded_pair(seed=5), [3, 1], 40
        warm = half_warm(target)
        matrix = warm.copy()
        cfg = DecodeConfig(method=method, acceptance=acceptance, max_new_tokens=length)
        _, report = decode_session(cfg, target, draft, matrix, prompt)
        same_ids = matrix.rows.tobytes() == warm.rows.tobytes()
        assert not (same_ids and np.array_equal(matrix.rows != COLD, warm.rows != COLD))
        if peaked and method == "graft":  # the session that writes has steps that read nothing
            stages = set(report.stage_histogram)
            assert "none" in stages and any(stage.startswith("d") for stage in stages), stages

    @pytest.mark.parametrize("acceptance", ACCEPTANCE_MODES)
    @pytest.mark.parametrize("method", TREE_METHODS)
    def test_prefill_and_trees_touch_exactly_their_tokens(self, method, acceptance):
        # a cold matrix and a prompt of tokens the trees rarely reach, so the
        # prompt's rows show apart from the trees'
        target, draft = seeded_pair(vocab=256, seed=21)
        prompt = list(range(200, 256)) + [3]
        seen: set[int] = set()
        matrix = new_matrix(256, 10)
        cfg = DecodeConfig(method=method, acceptance=acceptance, max_new_tokens=16)
        decode_session(cfg, target, draft, matrix, prompt, tree_observer=lambda _, hy: seen.update(hy.tokens.tolist()))
        assert set(prompt) - seen  # these rows only the prefill writes
        assert set(np.flatnonzero((matrix.rows != COLD).any(axis=1)).tolist()) == set(prompt) | seen


class _Stop(Exception):
    pass


def _traced_session(monkeypatch, cfg, target, draft, matrix, prompt, stop_at=None):
    """Run one session, recording the trees it verifies, a snapshot of the
    matrix at every ``instantiate``, all of which ``engine`` makes, with
    the step it serves, and every ``write_rows`` call, in order.
    ``stop_at`` makes the tree observer raise at that step."""
    trees, reads, events = [], [], []

    def read(m, *args):
        reads.append((len(trees), m.rows.copy()))
        events.append("read")
        return retrieval.instantiate(m, *args)

    def write(m, last, t):
        events.append("write")
        return retrieval.write_rows(m, last, t)

    def observe(step, hy):
        if step == stop_at:
            raise _Stop
        trees.append(hy)

    monkeypatch.setattr(engine, "instantiate", read)
    monkeypatch.setattr(engine, "write_rows", write)
    report = None
    if stop_at is None:
        _, report = decode_session(cfg, target, draft, matrix, prompt, tree_observer=observe)
    else:
        with pytest.raises(_Stop):
            decode_session(cfg, target, draft, matrix, prompt, tree_observer=observe)
    return report, trees, reads, events


class TestDeferredWrites:
    """A session applies its matrix writes before each step that may read
    the matrix and when it ends; every read, and the matrix it leaves, see
    what writing after every step would give (``oracles.replay_matrix_writes``)."""

    PROMPT = PEAKED_PROMPT

    # the session starts from a matrix with every other row written, or from
    # a cold one, where every row a read finds was written by this session
    STARTS = {"half_warm": half_warm, "cold": lambda target: new_matrix(24, 10)}
    # a prefill of nine rows, or of the one row the first step also writes
    PROMPTS = {"prompt9": PEAKED_PROMPT, "prompt1": PEAKED_PROMPT[-1:]}

    def _inputs(self, start="half_warm"):
        target, draft = peaked_pair()
        return target, draft, self.STARTS[start](target)

    def _check(self, monkeypatch, cfg, stop_at=None, start="half_warm", prompt=PROMPT):
        target, draft, warm = self._inputs(start)
        matrix = warm.copy()
        report, trees, reads, _ = _traced_session(monkeypatch, cfg, target, draft, matrix, prompt)
        emitted = [s["emitted"] for s in report.steps]
        tree_list = None if cfg.method == "autoregressive" else trees
        states = replay_matrix_writes(warm, target, prompt, emitted, tree_list)
        if stop_at is not None:
            # the same session, cut by an exception at step ``stop_at``
            assert report.steps_count > stop_at
            matrix = warm.copy()
            _, _, reads, _ = _traced_session(monkeypatch, cfg, target, draft, matrix, prompt, stop_at)
            states = states[: stop_at + 1]
        for step, rows in reads:
            assert np.array_equal(rows, states[step]) and np.array_equal(rows != COLD, states[step] != COLD), step
        assert np.array_equal(matrix.rows, states[-1]) and np.array_equal(matrix.rows != COLD, states[-1] != COLD)
        return report, reads

    @pytest.mark.parametrize("prompt", PROMPTS)
    @pytest.mark.parametrize("start", STARTS)
    @pytest.mark.parametrize("acceptance", ACCEPTANCE_MODES)
    @pytest.mark.parametrize("method", METHODS)
    def test_reads_and_return_see_per_step_writes(self, monkeypatch, method, acceptance, start, prompt):
        cfg = DecodeConfig(method=method, acceptance=acceptance, max_new_tokens=80)
        _, reads = self._check(monkeypatch, cfg, start=start, prompt=self.PROMPTS[prompt])
        assert bool(reads) == (method in ("fixed_split", "graft", "graft_root", "graft_tail"))

    @pytest.mark.parametrize("method", METHODS)
    def test_end_token_stop(self, monkeypatch, method):
        target, draft, warm = self._inputs()
        cfg = DecodeConfig(method=method, max_new_tokens=80)
        tokens, _ = decode_session(cfg, target, draft, warm.copy(), self.PROMPT)
        end = tokens[len(tokens) // 2]
        report, _ = self._check(monkeypatch, DecodeConfig(method=method, max_new_tokens=80, end_token=end))
        assert report.tokens_emitted < 80 and report.steps[-1]["emitted"][-1] == end

    @pytest.mark.parametrize("acceptance", ACCEPTANCE_MODES)
    @pytest.mark.parametrize("method", TREE_METHODS)
    def test_session_that_raises(self, monkeypatch, method, acceptance):
        self._check(monkeypatch, DecodeConfig(method=method, acceptance=acceptance, max_new_tokens=80), stop_at=4)

    @pytest.mark.parametrize("start", STARTS)
    @pytest.mark.parametrize("method", METHODS)
    def test_write_counts(self, monkeypatch, method, start):
        target, draft, warm = self._inputs(start)
        cfg = DecodeConfig(method=method, max_new_tokens=80)
        report, _, reads, events = _traced_session(monkeypatch, cfg, target, draft, warm.copy(), self.PROMPT)
        writes = [i for i, e in enumerate(events) if e == "write"]
        if method in ("autoregressive", "dense", "prune_only"):
            assert len(writes) == len(events) == 1  # once per session, at its end
            return
        # one write before each step, the first applying the prefill, and
        # one at the session's end; so every read follows a write
        read_at = [i for i, e in enumerate(events) if e == "read"]
        assert writes[-1] == len(events) - 1
        assert len(writes) == report.steps_count + 1
        assert all(events[i - 1] == "write" for i in read_at)
        if method == "graft":  # it reads only when a gate fails, and writes all the same
            failed = sum(s["stage"] != "none" for s in report.steps)
            assert 0 < len(reads) == failed < report.steps_count
        else:
            assert len(reads) == report.steps_count

    def test_pending_writes_bounded_by_the_vocab(self, monkeypatch):
        # one dominant successor per row, so draft = target accepts all 20
        # layers of a 3-wide beam: 953 steps verify 58 000 nodes. Holding them
        # all peaked at 5.8 MB; the session's records take about 2.2 MB.
        vocab = 24
        rows = np.full((vocab + 1, vocab), 0.1 / (vocab - 1))
        for t in range(vocab + 1):
            rows[t, (7 * t + 5) % vocab] = 0.9
        target = table_model(vocab, 1, {(t,): rows[t] for t in range(vocab)}, fallback=rows[-1])
        sizes = []

        def write(m, last, t):
            sizes.append(len(last))
            return retrieval.write_rows(m, last, t)

        monkeypatch.setattr(engine, "write_rows", write)
        cfg = DecodeConfig(method="prune_only", max_new_tokens=20_000, prune=PruneConfig(max_depth=20, beam_width=3))
        tracemalloc.start()
        try:
            tokens, report = decode_session(cfg, target, target, new_matrix(vocab, 10), [0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tokens) == 20_000 and report.max_tree_candidates == 60
        assert len(sizes) == 1 and sizes[0] <= vocab  # one write, at most a row per token
        assert peak < 4_000_000


class TestMetrics:
    def test_proxy_arithmetic(self):
        steps = [{"stage": "none", "tree_candidates": 10, "accepted_len": 3, "cost": 2.0, "emitted": [1, 2, 3, 4]}]
        report = compute_metrics(steps, CostModel())
        assert report.mat == 4.0
        assert report.speedup_proxy == pytest.approx(2.0)

    def test_coverage_gain_subset_is_zero(self):
        p = np.array([0.4, 0.3, 0.2, 0.1])
        assert coverage_gain(p, [0, 1, 2], [1, 2]) == 0.0

    def test_coverage_gain_matches_row_sum_oracle(self):
        target, _ = seeded_pair(seed=42)
        p = context_row(target, (2,))
        drafted = [0, 5, 7]
        retrieved = [5, 9, 11, 7, 9]
        expect = sum(p[t] for t in {9, 11})
        assert coverage_gain(p, drafted, retrieved) == pytest.approx(expect, abs=1e-15)

    def test_dense_replay_regret_nonnegative_per_step(self):
        target, draft = seeded_pair(seed=37, strength=0.6)
        cfg = DecodeConfig(method="prune_only", max_new_tokens=60, analyses=(dense_replay,))
        _, report = decode_session(cfg, target, draft, new_matrix(24, 10), [2])
        assert report.regret_estimate is not None and report.regret_estimate >= 0
        for step in report.steps:
            assert step["replay_accepted_len"] >= step["accepted_len"]
        for stage, eps in report.overpruning_rate_estimates.items():
            assert 0.0 <= eps <= 1.0

    @pytest.mark.parametrize("method", ["prune_only", "graft"])
    def test_dense_replay_adds_nothing_under_stochastic(self, method):
        target, draft = seeded_pair(seed=37, strength=0.6)
        cfg = DecodeConfig(method=method, max_new_tokens=60, acceptance="stochastic", seed=3)
        matrix = new_matrix(24, 10)
        warmup(matrix, target, draft, [[0, 1], [5]], rounds=2, config=cfg)
        _, plain = decode_session(cfg, target, draft, matrix.copy(), [2, 9])
        replayed = replace(cfg, analyses=(dense_replay,))
        _, report = decode_session(replayed, target, draft, matrix.copy(), [2, 9])
        assert report.to_dict() == plain.to_dict()
        assert report.regret_estimate is None and report.overpruning_rate_estimates == {}
        if method == "graft":
            assert any("coverage_gain" in step for step in report.steps)

    @pytest.mark.parametrize("method", METHODS)
    def test_analyses_run_once_per_tree_step_after_verification(self, method):
        target, draft = seeded_pair(seed=37, strength=0.6)
        calls = []

        def probe(config, target_, draft_, committed, tree, outcome):
            assert target_ is target and draft_ is draft
            calls.append((len(committed), tree.n_candidates, outcome.accepted_len))
            return {"probe": len(calls)}

        cfg = DecodeConfig(method=method, max_new_tokens=40, analyses=(probe,))
        _, report = decode_session(cfg, target, draft, new_matrix(24, 10), [2, 9])
        # coverage is recorded in the loop itself, whatever the analyses
        assert all(("coverage_gain" in step) == (step["n_retrieved"] > 0) for step in report.steps)
        if method == "autoregressive":  # its steps verify no tree
            assert calls == [] and not any("probe" in step for step in report.steps)
            return
        assert [step["probe"] for step in report.steps] == list(range(1, len(report.steps) + 1))
        committed = 2
        for step, call in zip(report.steps, calls, strict=True):
            assert call == (committed, step["tree_candidates"], step["accepted_len"])
            committed += len(step["emitted"])


    @pytest.mark.parametrize("method", TREE_METHODS)
    def test_dense_replay_verifies_the_reference_union(self, method):
        target, draft = seeded_pair(seed=37, strength=0.6)
        cfg = DecodeConfig(method=method, max_new_tokens=60, analyses=(dense_replay,))
        trees = []
        prompt = [2, 9]
        _, report = decode_session(cfg, target, draft, new_matrix(24, 10), prompt, lambda _, hy: trees.append(hy))
        budget = cfg.prune.total_budget
        committed = list(prompt)
        for step, hy in zip(report.steps, trees):
            dense = ungated(draft, committed, cfg.prune)
            retained = closure_topk_iterative(dense.scores.tolist(), dense.parents.tolist(), budget)
            builder, _ = reference_draft_builder(dense, retained, budget + hy.n_candidates)
            slots = [0]
            for parent, token in zip(hy.parents[1:].tolist(), hy.tokens[1:].tolist()):
                slots.append(builder.add(slots[parent], token, 1, float("nan")))
            tokens, parents = builder.finish()[:2]
            assert step["replay_accepted_len"] == greedy_chain_walk(target, committed, tokens, parents)
            committed += step["emitted"]
        if method not in ("dense", "prune_only"):
            assert any(step["n_retrieved"] for step in report.steps)


class TestCalibrate:
    def setup_method(self):
        self.target, self.draft = seeded_pair(seed=5, strength=0.5)
        self.matrix = new_matrix(24, 10)
        cfg = DecodeConfig(method="graft", max_new_tokens=24)
        warmup(self.matrix, self.target, self.draft, [[0, 1], [5]], rounds=2, config=cfg)
        self.cfg = cfg
        self.prompts = [[3], [7, 2]]

    def test_single_candidate_grid(self):
        grid = {0: [0.2], 1: [0.3], 5: [0.4]}
        result = calibrate(self.target, self.draft, self.matrix, self.prompts, grid, self.cfg)
        assert result.thresholds == {0: 0.2, 1: 0.3, 5: 0.4}

    def test_empty_prompts_rejected(self):
        grid = {0: [0.2], 1: [0.3], 5: [0.4]}
        with pytest.raises(ConfigError):
            calibrate(self.target, self.draft, self.matrix, [], grid, self.cfg)

    def test_missing_grid_rejected(self):
        with pytest.raises(ConfigError):
            calibrate(self.target, self.draft, self.matrix, self.prompts, {0: [0.2]}, self.cfg)

    def test_ties_pick_lowest_threshold(self, det4):
        cfg = DecodeConfig(method="graft", max_new_tokens=16)
        grid = {0: [0.1, 0.5], 1: [0.1, 0.5], 5: [0.1, 0.5]}
        result = calibrate(det4, det4, new_matrix(4, 10), [[0]], grid, cfg)
        # perfect drafter: confidence 1, every tau < 1 ties; lowest wins
        assert result.thresholds == {0: 0.1, 1: 0.1, 5: 0.1}
        assert len(result.objective_trace) == 12  # 3 coords x 2 taus x 2 sweeps

    def test_matches_exhaustive_grid_oracle(self):
        grid = {0: [0.1, 0.9], 1: [0.1, 0.9], 5: [0.1, 0.9]}
        result = calibrate(self.target, self.draft, self.matrix, self.prompts, grid, self.cfg)

        def score(vector):
            from dataclasses import replace

            cfg = replace(self.cfg, prune=replace(self.cfg.prune, thresholds=dict(vector)))
            proxies = []
            for p in self.prompts:
                _, rep = decode_session(cfg, self.target, self.draft, self.matrix.copy(), p)
                proxies.append(rep.speedup_proxy)
            return float(np.mean(proxies))

        best, best_score = None, -1.0
        for taus in itertools.product(*(sorted(grid[d]) for d in (0, 1, 5))):
            vector = dict(zip((0, 1, 5), taus))
            s = score(vector)
            if s > best_score:
                best, best_score = vector, s
        assert result.thresholds == best
        assert score(result.thresholds) == pytest.approx(best_score, rel=1e-12)


class TestTheoryChecks:
    def test_random_instances_pinned(self):
        # the drafted trees of 400 theory instances, each put in canonical
        # order by the reference builder, so the pin holds whatever order the
        # envelope stores siblings in; recorded while the envelope still
        # stored them by rank
        rng = np.random.default_rng(0)
        digest = hashlib.sha256()
        for i in range(400):
            _, _, prefix, tree, _ = _random_instance(rng, with_matrix=bool(i % 2))
            tokens, parents, depths, _, scores = canonical_form(tree)
            digest.update(np.asarray(prefix, dtype=np.int64).tobytes())
            for values, dtype in zip((tokens, parents, depths, scores), (np.int32, np.int32, np.int32, np.float64)):
                digest.update(np.asarray(values, dtype=dtype).tobytes())
        assert digest.hexdigest() == "56b546c516d41a3aa574cc89059c35c077617d452034fd377571f00460d15732"

    def test_small_run_has_zero_violations(self):
        report = theory_checks(seed=1, n_monotonic=300, n_graft=300, n_coverage=200, overprune_trials=100_000)
        assert report["subset_monotonicity"]["violations"] == 0
        assert report["graft_monotonicity"]["violations"] == 0
        assert report["coverage_gain"]["negative"] == 0
        assert report["coverage_gain"]["strict_violations"] == 0
        assert report["coverage_gain"]["strict_cases"] > 0

    def test_overprune_compounding_example(self):
        report = theory_checks(seed=2, n_monotonic=1, n_graft=1, n_coverage=1, overprune_trials=100_000)
        comp = report["overprune_compounding"]
        assert comp["predicted"] == pytest.approx(1 - 0.9**3, abs=1e-12)
        assert comp["abs_error"] <= 0.01


def mini_fixture(max_new_tokens=32, seeds=(0, 1)):
    target, draft = seeded_pair(seed=3, strength=0.5)
    cfg = DecodeConfig(method="graft", max_new_tokens=max_new_tokens)
    matrix = new_matrix(24, 10)
    warm_prompts = [[1, 2], [4]]
    warmup(matrix, target, draft, warm_prompts, rounds=2, config=cfg)
    rng = np.random.default_rng(0)
    prompts = {s: [int(t) for t in rng.integers(0, 24, size=3)] for s in seeds}
    return AblationFixture(
        target=target,
        draft=draft,
        warmed_matrix=matrix,
        prompts=prompts,
        config=cfg,
        warmup_rounds=2,
        warmup_prompts=warm_prompts,
    )


class TestAblation:
    def test_component_suite_variants(self):
        rows = run_ablation("component", mini_fixture())
        variants = {r["variant"] for r in rows}
        assert variants == {"graft", "w/o retrieval", "w/o prune", "dense"}
        methods = {r["variant"]: r["method"] for r in rows}
        assert methods["w/o retrieval"] == "prune_only"
        assert methods["w/o prune"] == "fixed_split"
        assert len(rows) == 4 * 2  # variants x seeds
        assert {r["warmup_rounds"] for r in rows} == {2}  # the fixture's warm-up

    def test_warmup_suite_round_set(self):
        rows = run_ablation("warmup", mini_fixture(max_new_tokens=16, seeds=(0,)))
        assert {r["variant"] for r in rows} == {f"K={k}" for k in (0, 1, 3, 5, 10, 25, 50)}
        assert all(r["variant"] == f"K={r['warmup_rounds']}" for r in rows)

    def test_template_suite_sweeps_depth_and_width(self):
        rows = run_ablation("template", mini_fixture(max_new_tokens=16, seeds=(0,)))
        variants = {r["variant"] for r in rows}
        assert "d=8" in variants and "w=8" in variants
        assert "d=2" in variants and "w=2" in variants

    def test_temperature_suite(self):
        rows = run_ablation("temperature", mini_fixture(max_new_tokens=16, seeds=(0,)))
        assert {r["variant"] for r in rows} == {"greedy", "T=1"}

    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            run_ablation("nope", mini_fixture())

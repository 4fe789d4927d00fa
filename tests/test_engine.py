import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from specgraft import engine, retrieval
from specgraft.drafttree import PruneConfig, expand_full, resolve_stage, select_retained
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
    run_ablation,
    theory_checks,
    _random_instance,
)
from specgraft.errors import ConfigError
from specgraft.hybrid import flatten
from specgraft.models import DraftDerivation, VocabSpec, argtopk, build_markov, derive_draft
from specgraft.retrieval import COLD, builtin_templates, filter_template, new_matrix, warmup
from specgraft.verify import node_row_ids, verify_greedy, verify_stochastic

from .conftest import table_model
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
            assert step["cost"] == cfg.cost.step_cost(cfg.prune.max_depth, step["tree_candidates"])


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
        tree, decision = resolve_stage(draft, [0], prune)
        assert decision.stage == 0
        assert len(select_retained(tree, prune.draft_budget(decision.stage))) - 1 == 8

    def test_fixed_split_uses_constant_split(self):
        target, draft = seeded_pair(seed=29)
        cfg = DecodeConfig(method="fixed_split", fixed_split=(24, 36))
        hy, info = build_next_tree(cfg, draft, full_matrix(24, 10, shift=13), [0])
        n_draft, _ = hy.counts_by_origin()
        assert n_draft <= 24
        assert info["stage"] == "none"
        assert info["declared"] == 36

    def test_tail_chain_past_the_budget_is_never_built(self):
        # the graft drops every chain node past the budget, so a 10**12-node
        # chain request decodes exactly like a budget-long one
        target, draft = seeded_pair(seed=31)

        def run(chain_len):
            cfg = DecodeConfig(method="graft_tail", tail_chain_len=chain_len, max_new_tokens=60)
            tokens, report = decode_session(cfg, target, draft, new_matrix(24, 10), [4, 2])
            return tokens, report.to_dict()

        long_chain = run(10**12)
        assert long_chain == run(PruneConfig().total_budget)
        assert max(s["n_retrieved"] for s in long_chain[1]["steps"]) > 8

    def test_graft_needs_a_template_for_every_checkpoint(self):
        prune = PruneConfig(checkpoints=(2,), thresholds={2: 0.9}, stage_budgets={2: (30, 30)})
        with pytest.raises(ConfigError, match=r"prune\.checkpoints \[2\].*d0, d1, d5"):
            DecodeConfig(method="graft", prune=prune)
        for method in TREE_METHODS:
            if method != "graft":
                assert DecodeConfig(method=method, prune=prune).prune.checkpoints == (2,)

    @pytest.mark.parametrize("split", [(70, -10), (-10, 70)])
    def test_negative_fixed_split_half_rejected(self, split):
        # the halves sum to the budget, so only the sign check stands between
        # a library caller and a negative template prefix
        with pytest.raises(ConfigError, match=r"decode\.fixed_split"):
            DecodeConfig(method="fixed_split", fixed_split=split)


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

    @pytest.mark.parametrize("method,size,builtin", [("fixed_split", 36, "d1"), ("graft_root", 20, "d5")])
    def test_a_size_that_hits_a_builtin_takes_it(self, method, size, builtin):
        cfg = DecodeConfig(method=method, fixed_split=(60 - size, size), root_branch_size=size)
        assert set(cfg.templates) == {"none"} and cfg.templates["none"] is builtin_templates()[builtin]

    def test_a_size_that_misses_takes_a_prefix_of_full(self):
        template = DecodeConfig(method="fixed_split", fixed_split=(10, 50)).templates["none"]
        full = builtin_templates()["full"]
        assert template.parents.tolist() == full.parents[:50].tolist()
        assert template.ranks.tolist() == full.ranks[:50].tolist()

    def test_fixed_split_searches_the_filtered_templates(self):
        # depth 2 leaves full 24 nodes (8 + 16) and d1 13 (6 + 7)
        def template(split):
            return DecodeConfig(method="fixed_split", fixed_split=split, template_filter=(2, None)).templates["none"]

        full = filter_template(builtin_templates()["full"], max_depth=2)
        assert template((36, 24)).parents.tolist() == full.parents.tolist()
        assert template((47, 13)).depth_counts() == [6, 7]
        assert template((24, 36)).declared_size == 24  # a prefix longer than the filtered full is all of it

    @pytest.mark.parametrize("chain_len,size", [(8, 8), (0, 0), (61, 60), (10**12, 60)])
    def test_graft_tail_grafts_the_rank0_chain_cut_to_the_budget(self, chain_len, size):
        templates = DecodeConfig(method="graft_tail", tail_chain_len=chain_len).templates
        assert set(templates) == {"none"}
        chain = templates["none"]
        assert chain.parents.tolist() == list(range(-1, size - 1))
        assert chain.ranks.tolist() == [0] * size

    @pytest.mark.parametrize("method", ["autoregressive", "dense", "prune_only"])
    def test_other_methods_graft_nothing(self, method):
        assert DecodeConfig(method=method, template_filter=(2, None)).templates == {}

    def test_before_read_is_keyword_only(self, det4):
        with pytest.raises(TypeError):
            build_next_tree(DecodeConfig(method="graft"), det4, full_matrix(4, 10), [0], lambda: None)


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


class TestUpdateGates:
    """``decode.updates_enabled`` gates every matrix write, and
    ``decode.prefill_update`` the prompt's."""

    @pytest.mark.parametrize("peaked", [False, True], ids=["attractor", "peaked"])
    @pytest.mark.parametrize("acceptance", ACCEPTANCE_MODES)
    @pytest.mark.parametrize("method", METHODS)
    def test_disabled_updates_leave_the_matrix_unchanged(self, method, acceptance, peaked):
        # seeded_pair(seed=5) falls into a two-token attractor where graft's
        # gate never passes; with updates on, the peaked pair passes and fails it
        if peaked:
            (target, draft), prompt, length = peaked_pair(), PEAKED_PROMPT, 80
        else:
            (target, draft), prompt, length = seeded_pair(seed=5), [3, 1], 40
        warm = half_warm(target)
        for enabled in (False, True):
            matrix = warm.copy()
            cfg = DecodeConfig(method=method, acceptance=acceptance, max_new_tokens=length, updates_enabled=enabled)
            _, report = decode_session(cfg, target, draft, matrix, prompt)
            same_ids = matrix.rows.tobytes() == warm.rows.tobytes()
            unchanged = same_ids and np.array_equal(matrix.rows != COLD, warm.rows != COLD)
            assert unchanged != enabled
            if peaked and method == "graft" and enabled:  # the session that writes has steps that read nothing
                stages = set(report.stage_histogram)
                assert "none" in stages and any(stage.startswith("d") for stage in stages), stages

    @pytest.mark.parametrize("acceptance", ACCEPTANCE_MODES)
    @pytest.mark.parametrize("method", TREE_METHODS)
    def test_no_prefill_touches_only_tree_tokens(self, method, acceptance):
        target, draft = seeded_pair(vocab=256, seed=21)
        prompt = list(range(200, 256)) + [3]
        seen: set[int] = set()
        matrix = new_matrix(256, 10)
        cfg = DecodeConfig(method=method, acceptance=acceptance, max_new_tokens=16, prefill_update=False)
        decode_session(cfg, target, draft, matrix, prompt, tree_observer=lambda _, hy: seen.update(hy.tokens.tolist()))
        assert set(prompt) - seen  # a prefill would show in the matrix
        assert set(np.flatnonzero((matrix.rows != COLD).any(axis=1)).tolist()) == seen


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
    """A session applies its matrix writes only right before it reads the
    matrix and when it ends; every read, and the matrix it leaves, see what
    writing after every step would give (``oracles.replay_matrix_writes``)."""

    PROMPT = PEAKED_PROMPT

    def _inputs(self):
        target, draft = peaked_pair()
        return target, draft, half_warm(target)

    def _check(self, monkeypatch, cfg, stop_at=None):
        target, draft, warm = self._inputs()
        matrix = warm.copy()
        report, trees, reads, _ = _traced_session(monkeypatch, cfg, target, draft, matrix, self.PROMPT)
        emitted = [s["emitted"] for s in report.steps]
        if cfg.updates_enabled:
            tree_list = None if cfg.method == "autoregressive" else trees
            states = replay_matrix_writes(warm, target, self.PROMPT, emitted, tree_list, cfg.prefill_update)
        else:
            states = [warm.rows] * (len(emitted) + 1)
        if stop_at is not None:
            # the same session, cut by an exception at step ``stop_at``
            assert report.steps_count > stop_at
            matrix = warm.copy()
            _, _, reads, _ = _traced_session(monkeypatch, cfg, target, draft, matrix, self.PROMPT, stop_at)
            states = states[: stop_at + 1]
        for step, rows in reads:
            assert np.array_equal(rows, states[step]) and np.array_equal(rows != COLD, states[step] != COLD), step
        assert np.array_equal(matrix.rows, states[-1]) and np.array_equal(matrix.rows != COLD, states[-1] != COLD)
        return report, reads

    @pytest.mark.parametrize("updates", [True, False])
    @pytest.mark.parametrize("prefill", [True, False])
    @pytest.mark.parametrize("acceptance", ACCEPTANCE_MODES)
    @pytest.mark.parametrize("method", METHODS)
    def test_reads_and_return_see_per_step_writes(self, monkeypatch, method, acceptance, prefill, updates):
        cfg = DecodeConfig(
            method=method, acceptance=acceptance, max_new_tokens=80, prefill_update=prefill, updates_enabled=updates
        )
        _, reads = self._check(monkeypatch, cfg)
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

    @pytest.mark.parametrize("prefill", [True, False])
    @pytest.mark.parametrize("method", METHODS)
    def test_write_counts(self, monkeypatch, method, prefill):
        target, draft, warm = self._inputs()
        cfg = DecodeConfig(method=method, max_new_tokens=80, prefill_update=prefill)
        report, _, reads, events = _traced_session(monkeypatch, cfg, target, draft, warm.copy(), self.PROMPT)
        writes = [i for i, e in enumerate(events) if e == "write"]
        if method in ("autoregressive", "dense", "prune_only"):
            assert len(writes) == len(events) == 1  # once per session, at its end
            return
        # each write but the session's last comes right before a read, and
        # every read follows a write, except a first step's with nothing pending
        read_at = [i for i, e in enumerate(events) if e == "read"]
        nothing_pending = not prefill and reads[0][0] == 0
        assert writes[-1] == len(events) - 1
        assert all(events[i + 1] == "read" for i in writes[:-1])
        assert all(events[i - 1] != "read" for i in read_at[nothing_pending:])
        assert len(writes) == len(read_at) - nothing_pending + 1
        if method == "graft":  # it reads only when a gate fails
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

    def test_tradeoff_identity(self):
        target, draft = seeded_pair(seed=31)
        cfg_g = DecodeConfig(method="graft", max_new_tokens=80)
        cfg_d = DecodeConfig(method="dense", max_new_tokens=80)
        _, rep_g = decode_session(cfg_g, target, draft, new_matrix(24, 10), [4])
        _, rep_d = decode_session(cfg_d, target, draft, new_matrix(24, 10), [4])
        rep_g = compute_metrics(rep_g.steps, cfg_g.cost, dense_report=rep_d)
        mat_ratio = rep_g.mat / rep_d.mat
        cost_ratio = (rep_d.cost_total / rep_d.steps_count) / (rep_g.cost_total / rep_g.steps_count)
        assert rep_g.tradeoff_ratio == pytest.approx(mat_ratio * cost_ratio, abs=1e-9)
        assert rep_g.tradeoff_ratio == pytest.approx(rep_g.speedup_proxy / rep_d.speedup_proxy, abs=1e-9)

    def test_dense_replay_regret_nonnegative_per_step(self):
        target, draft = seeded_pair(seed=37, strength=0.6)
        cfg = DecodeConfig(method="prune_only", max_new_tokens=60, dense_replay=True)
        _, report = decode_session(cfg, target, draft, new_matrix(24, 10), [2])
        assert report.regret_estimate is not None and report.regret_estimate >= 0
        for step in report.steps:
            assert step["replay_accepted_len"] >= step["accepted_len"]
        for stage, eps in report.overpruning_rate_estimates.items():
            assert 0.0 <= eps <= 1.0


    @pytest.mark.parametrize("method", TREE_METHODS)
    def test_dense_replay_verifies_the_reference_union(self, method):
        target, draft = seeded_pair(seed=37, strength=0.6)
        cfg = DecodeConfig(method=method, max_new_tokens=60, dense_replay=True)
        trees = []
        prompt = [2, 9]
        _, report = decode_session(cfg, target, draft, new_matrix(24, 10), prompt, lambda _, hy: trees.append(hy))
        budget = cfg.prune.total_budget
        committed = list(prompt)
        for step, hy in zip(report.steps, trees):
            dense = expand_full(draft, committed, cfg.prune)
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

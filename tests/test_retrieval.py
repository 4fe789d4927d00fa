import collections
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgraft import drafttree, models
from specgraft.engine import DecodeConfig, decode_session
from specgraft.errors import InputError, StructureError
from specgraft.models import DraftDerivation, VocabSpec, argtopk, build_markov, context_code, derive_draft, train_ngram
from specgraft.cli import main
from specgraft.retrieval import (
    COLD,
    MAGIC,
    TEMPLATE_DEPTH_COUNTS,
    TEMPLATE_WIDTH,
    builtin_templates,
    filter_template,
    instantiate,
    load_matrix,
    new_matrix,
    save_matrix,
    storage_bytes,
    template_prefix,
    touched_bytes,
    warmup,
    write_rows,
)

from .conftest import table_model
from .oracles import context_row, template_walk_realized
from .test_report_digests import CONFIGS, _warmed


def full_matrix(vocab_size, k, shift=1):
    """No slot cold: successor r of token t is (t + shift + r) % vocab."""
    m = new_matrix(vocab_size, k)
    for t in range(vocab_size):
        m.rows[t] = [(t + shift + r) % vocab_size for r in range(m.k)]
    return m


def write_dist(m, token, dist):
    """Write row ``token`` through ``write_rows`` from a model whose one row,
    row id 0, is ``dist``."""
    write_rows(m, {token: 0}, table_model(m.vocab_size, 1, {}, fallback=np.asarray(dist, dtype=float)))


class TestTemplates:
    def test_shipped_counts(self):
        templates = builtin_templates()
        assert templates["full"].declared_size == 80
        assert templates["d0"].declared_size == 52
        assert templates["d1"].declared_size == 36
        assert templates["d5"].declared_size == 20
        for name, t in templates.items():
            assert tuple(t.depth_counts()) == TEMPLATE_DEPTH_COUNTS[name]

    def test_depth1_counts_match_first_term(self):
        for name, t in builtin_templates().items():
            assert t.depth_counts()[0] == TEMPLATE_DEPTH_COUNTS[name][0]

    def test_rank0_chain_reaches_depth9(self):
        for t in builtin_templates().values():
            deepest = [i for i in range(t.declared_size) if t.depths[i] == 9]
            assert any(t.rank_path(i) == (0,) * 9 for i in deepest)

    def test_d5_deepest_chain_length(self):
        t = builtin_templates()["d5"]
        assert t.declared_size == 20
        assert int(t.depths.max()) == 9

    def test_low_rank_paths_get_more_children(self):
        t = builtin_templates()["full"]
        kids = {i: 0 for i in range(-1, t.declared_size)}
        for i in range(t.declared_size):
            kids[int(t.parents[i])] += 1
        # within each depth the lexicographically-first node has the max children
        for depth in range(1, 9):
            layer = [i for i in range(t.declared_size) if t.depths[i] == depth]
            layer.sort(key=t.rank_path)
            counts = [kids[i] for i in layer]
            assert counts[0] == max(counts)

    def test_template_width_is_widest_rank_plus_one(self):
        assert TEMPLATE_WIDTH == max(t.max_rank() for t in builtin_templates().values()) + 1 == 8

    def test_builtins_are_read_only(self):
        assert builtin_templates() is builtin_templates()
        for t in builtin_templates().values():
            for array in (t.parents, t.ranks):
                with pytest.raises(ValueError):
                    array[0] = 1
            # depths are derived afresh on every read, so a write reaches no later reader
            depths = t.depths
            depths[0] = 5
            assert t.depths[0] == 1
        with pytest.raises(TypeError):
            builtin_templates()["d5"] = builtin_templates()["d0"]

    def test_prefix_is_parent_closed(self):
        t = template_prefix(builtin_templates()["full"], 17)
        assert t.declared_size == 17
        assert all(t.parents[i] < i for i in range(17))

    def test_filter_by_depth_and_rank(self):
        t = builtin_templates()["full"]
        shallow = filter_template(t, max_depth=2)
        assert int(shallow.depths.max()) == 2
        assert shallow.declared_size == 8 + 16
        narrow = filter_template(t, max_rank=1)
        assert narrow.max_rank() == 0
        assert all(r == 0 for r in narrow.ranks)


class TestLookupAndUpdate:
    def test_update_then_lookup(self):
        m = new_matrix(8, 2)
        write_dist(m, 3, np.array([0.0, 0.9, 0.1, 0, 0, 0, 0, 0]))
        assert m.rows[3, 0] != COLD and m.rows[3, 0] == 1

    def test_fresh_is_cold(self):
        m = new_matrix(8, 2)
        assert m.rows[5, 1] == COLD

    def test_rank_and_token_bounds(self):
        m = new_matrix(8, 2)
        # slot (token, rank) is read as rows[token, rank]: token 8 and rank 2 lie outside
        assert m.rows.shape == (m.vocab_size, m.k) == (8, 2)
        with pytest.raises(InputError):
            write_dist(m, 8, np.full(8, 0.125))

    def test_write_rows_example(self):
        m = new_matrix(8, 2)
        write_dist(m, 5, np.array([0.1, 0.6, 0.3, 0.0, 0, 0, 0, 0]))
        assert list(m.rows[5]) == [1, 2]
        assert (m.rows[5] != COLD).all()

    def test_uniform_tie_rule(self):
        m = new_matrix(4, 2)
        write_dist(m, 0, np.full(4, 0.25))
        assert list(m.rows[0]) == [0, 1]

    def test_topk_matches_sort_oracle(self):
        model = build_markov(VocabSpec(16), 1, seed=42)
        row = context_row(model, (2,))
        m = new_matrix(16, 3)
        write_dist(m, 2, row)
        expect = sorted(range(16), key=lambda t: (-row[t], t))[:3]
        assert list(m.rows[2]) == expect

    def test_batch_update_empty(self, det4):
        m = new_matrix(4, 2)
        before = m.rows.copy()
        write_rows(m, {}, det4)
        assert np.array_equal(m.rows, before)

    def test_last_writer_wins(self):
        # entries name target rows by id: row 0 is [0.9, 0.1, 0, 0], row 1 is [0, 0, 0.1, 0.9]
        target = table_model(4, 1, {(0,): [0.9, 0.1, 0.0, 0.0], (1,): [0.0, 0.0, 0.1, 0.9]})
        m = new_matrix(4, 2)
        write_rows(m, {1: 1}, target)
        assert list(m.rows[1]) == [3, 2]
        write_rows(m, {1: 0}, target)  # a later write replaces the row wholesale
        assert list(m.rows[1]) == [0, 1]

    @pytest.mark.parametrize("token", [-1, 4])
    def test_out_of_range_token_writes_nothing(self, det4, token):
        m = new_matrix(4, 2)
        with pytest.raises(InputError):
            write_rows(m, {0: 0, token: 1}, det4)
        assert (m.rows == COLD).all()

    @pytest.mark.parametrize("model", [
        build_markov(VocabSpec(12), 1, seed=8, sparsity=0.5),
        train_ngram(VocabSpec(6), [0, 1, 2, 1, 0, 1, 3, 3, 0, 1, 2], order=2, smoothing=0.5),
    ])
    def test_cached_argtopk_matches_argtopk(self, model):
        ids = np.arange(model.rows.shape[0])
        # zeroed (markov) and smoothed-unseen (ngram) entries tie inside rows
        assert any(len(set(row.tolist())) < model.vocab.size for row in model.rows)
        for k in (1, 3, model.vocab.size):
            # fill part, then hit and fill the rest, each fill by either accessor
            for first, batch in enumerate((ids[::-1], ids[::2], ids)):
                if first % 2:
                    by_token, logq = model.topk_by_token(batch, k)
                    ranked = model.topk(batch, k)
                else:
                    ranked = model.topk(batch, k)
                    by_token, logq = model.topk_by_token(batch, k)
                assert ranked.dtype == by_token.dtype == np.int32
                assert [r.tolist() for r in ranked] == [argtopk(model.rows[i], k).tolist() for i in batch]
                assert np.array_equal(by_token, np.sort(ranked, axis=1))
                probs = model.rows[batch[:, None], by_token]
                with np.errstate(divide="ignore"):
                    assert np.array_equal(logq, np.log(probs))
                assert np.array_equal(logq == -np.inf, probs == 0)

    def test_each_accessor_fills_only_its_own_arrays(self):
        ids = np.arange(5)
        target = build_markov(VocabSpec(8), 1, seed=2, sparsity=0.5)
        target.topk(ids, 3)
        assert list(target._topk) == [3] and not target._topk_by_token
        draft = build_markov(VocabSpec(8), 1, seed=2, sparsity=0.5)
        draft.topk_by_token(ids, 3)
        assert list(draft._topk_by_token) == [3] and not draft._topk

    def test_topk_cache_is_per_model_instance(self):
        ids = np.arange(9)
        for seed in range(30):
            # built in a row, the second model may reuse the first one's id()
            first = build_markov(VocabSpec(8), 1, seed=seed, sparsity=0.5)
            first.topk(ids, 3)
            del first
            model = build_markov(VocabSpec(8), 1, seed=seed + 1000, sparsity=0.5)
            assert np.array_equal(model.topk(ids, 3), argtopk(model.rows, 3))
            by_token, logq = model.topk_by_token(ids, 3)
            with np.errstate(divide="ignore"):
                assert np.array_equal(logq, np.log(np.take_along_axis(model.rows, by_token, axis=1)))
            # a derived draft is a new instance with its own cache
            draft = derive_draft(model, DraftDerivation("uniform-mix", 0.5))
            by_token, logq = draft.topk_by_token(ids, 3)
            assert np.array_equal(by_token, np.sort(argtopk(draft.rows, 3), axis=1))
            assert np.array_equal(logq, np.log(np.take_along_axis(draft.rows, by_token, axis=1)))
            assert np.array_equal(draft.topk(ids, 3), argtopk(draft.rows, 3))

    def test_argtopk_cache_fill_is_thread_safe(self):
        model = build_markov(VocabSpec(16), 2, seed=3, sparsity=0.3)
        expect = argtopk(model.rows, 4)
        expect_by_token = np.sort(expect, axis=1)
        with np.errstate(divide="ignore"):
            expect_logq = np.log(np.take_along_axis(model.rows, expect_by_token, axis=1))
        rng = np.random.default_rng(0)
        batches = [rng.integers(0, model.rows.shape[0], size=40) for _ in range(400)]
        wrong = []

        def worker(start):
            for i, ids in enumerate(batches[start::8]):
                if (start + i) % 2:  # either accessor may fill a row first
                    by_token, logq = model.topk_by_token(ids, 4)
                    top = model.topk(ids, 4)
                else:
                    top = model.topk(ids, 4)
                    by_token, logq = model.topk_by_token(ids, 4)
                if not (
                    np.array_equal(top, expect[ids])
                    and np.array_equal(by_token, expect_by_token[ids])
                    and np.array_equal(logq, expect_logq[ids])
                ):
                    wrong.append(ids)

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

    def test_tables_match_argtopk_across_block_seams(self):
        # more rows than two fill blocks; zeroed entries tie inside rows
        model = build_markov(VocabSpec(6), 4, seed=4, sparsity=0.4)
        assert model.rows.shape[0] > 2 * models._TOPK_BLOCK
        ids = np.arange(model.rows.shape[0])
        for k in (1, 3, model.vocab.size):
            ranked = model.topk(ids, k)
            by_token, logq = model.topk_by_token(ids, k)
            for i in ids:
                expect = argtopk(model.rows[i], k)
                assert np.array_equal(ranked[i], expect)
                assert np.array_equal(by_token[i], np.sort(expect))
                with np.errstate(divide="ignore"):
                    assert np.array_equal(logq[i], np.log(model.rows[i, by_token[i]]))

    def test_a_first_session_builds_each_table_once(self, monkeypatch):
        fills, row_fills = collections.Counter(), collections.Counter()
        fill, fill_row = models._topk_table, drafttree._fill_row

        def counted(rows, k, by_token):
            fills[id(rows), k, by_token] += 1
            return fill(rows, k, by_token)

        def counted_rows(draft, table, code, row_id, k, beams):
            row_fills[id(table), row_id] += 1
            return fill_row(draft, table, code, row_id, k, beams)

        monkeypatch.setattr(models, "_topk_table", counted)
        monkeypatch.setattr(drafttree, "_fill_row", counted_rows)
        target = build_markov(VocabSpec(24), 2, seed=5, sparsity=0.3)
        draft = derive_draft(target, DraftDerivation("uniform-mix", 0.4))
        cfg = DecodeConfig(method="graft", max_new_tokens=80)
        matrix = new_matrix(24, 8)
        decode_session(cfg, target, draft, matrix, [3, 1])
        # the target's top-1 (greedy verification) and top-8 (matrix writes),
        # and the draft's by-token top-k (the envelope), each built once
        assert fills == {
            (id(target.rows), 1, False): 1,
            (id(target.rows), 8, False): 1,
            (id(draft.rows), cfg.prune.top_k, True): 1,
        }
        # one two-layer table, for the envelope's top-k and first two beams
        key = (cfg.prune.top_k, cfg.prune.beam_width, cfg.prune.beam_width)
        assert list(draft._two_layers) == [key]
        first = set(row_fills)
        decode_session(cfg, target, draft, matrix, [2])
        assert sum(fills.values()) == 3 and list(draft._two_layers) == [key]
        # each row read is filled once over both sessions, the second reading more rows
        assert set(row_fills.values()) == {1} and len(row_fills) > len(first)
        ((ints, _),) = draft._two_layers.values()
        assert {row_id for _, row_id in row_fills} == set(np.flatnonzero(ints[:, -2]).tolist())

    def test_first_table_build_sorts_one_block_at_a_time(self):
        model = build_markov(VocabSpec(64), 2, seed=11, sparsity=0.3)  # 4097 rows
        tracemalloc.start()
        try:
            model.topk_by_token([0, 4096], 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the two tables are 4097 x 10 x 12 B = 0.49 MB; sorting every row at
        # once would add the negated rows and their argsort, 2 x 2.1 MB
        assert peak < 1_000_000

    def test_filling_every_two_layer_row_stays_compact(self):
        model = build_markov(VocabSpec(64), 2, seed=11, sparsity=0.3)  # 4097 rows
        model.topk_by_token([0], 10)  # the by-token table it reads, outside the trace
        rows = [*model.index.items(), (0, 4096)]  # code 0, the empty context, reads the fallback row
        tracemalloc.start()
        try:
            for code, row_id in rows:
                drafttree._stored_layers(model, code, row_id, 10, (10, 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        (table,) = model._two_layers.values()
        counts = table[0][:, -2:]
        assert counts[:, 0].all() and counts[:-1, 1].all() and counts[-1, 1] == 0
        # 4097 x (20 tokens + 20 candidate indices + 2 counts, int32; 20 costs +
        # 2 cheapest costs, float64) = 1,409,368 bytes; the table is the whole peak
        assert sum(a.nbytes for a in table) == 4097 * (42 * 4 + 22 * 8)
        assert peak < 2_000_000

    def test_draft_that_is_the_target_writes_rank_order(self):
        # one model drafts and verifies at the matrix's k: drafting reads the
        # top-k cache by token, the update reads the same entries by rank
        target = build_markov(VocabSpec(24), 1, seed=5, sparsity=0.3)
        cfg = DecodeConfig(method="graft", max_new_tokens=80)
        matrix = new_matrix(24, cfg.prune.top_k)
        decode_session(cfg, target, target, matrix, [3])
        written = np.flatnonzero((matrix.rows != COLD).all(axis=1))
        assert written.size > 5
        expect = [argtopk(context_row(target, (int(t),)), matrix.k) for t in written]
        assert [r.tolist() for r in matrix.rows[written]] == [r.tolist() for r in expect]
        assert any((np.diff(r) < 0).any() for r in expect)  # some rank order is not token order

    def test_det4_verified_tree_rows(self, det4):
        m = new_matrix(4, 2)
        tokens = [0, 1, 2, 1, 3]
        write_rows(m, {t: det4.index[context_code((t,), 4)] for t in tokens}, det4)
        for t in {0, 1, 2, 3}:
            assert m.rows[t][0] == (t + 1) % 4

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 10**6)), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_row_uniqueness_and_rank_order_fuzz(self, stream):
        m = new_matrix(8, 4)
        for token, seed in stream:
            w = np.random.default_rng(seed).gamma(1.0, 1.0, 8)
            dist = w / w.sum()
            write_dist(m, token, dist)
            row = m.rows[token]
            assert len(set(row.tolist())) == 4
            probs = dist[row]
            assert all(probs[i] >= probs[i + 1] for i in range(3))

    def test_update_idempotent(self):
        m1, m2 = new_matrix(6, 3), new_matrix(6, 3)
        dist = np.array([0.1, 0.2, 0.3, 0.4, 0.0, 0.0])
        write_dist(m1, 2, dist)
        write_dist(m2, 2, dist)
        write_dist(m2, 2, dist)
        assert np.array_equal(m1.rows, m2.rows)
        assert np.array_equal(m1.rows != COLD, m2.rows != COLD)


class TestInstantiate:
    def test_full_matrix_realizes_everything(self):
        m = full_matrix(64, 10)
        for t in builtin_templates().values():
            tokens = instantiate(m, t, root=7)
            assert tokens.dtype == np.int32 and tokens.shape == (t.declared_size,)
            assert np.count_nonzero(tokens != COLD) == t.declared_size

    def test_fresh_matrix_realizes_nothing(self):
        m = new_matrix(16, 10)
        tokens = instantiate(m, builtin_templates()["d5"], root=3)
        assert tokens.dtype == np.int32 and (tokens == COLD).all()

    def test_rank0_only_matches_walk_oracle(self):
        m = new_matrix(32, 10)
        for t in range(32):
            m.rows[t, 0] = (t + 1) % 32
        template = builtin_templates()["d1"]
        tokens = instantiate(m, template, root=0)
        expect = template_walk_realized(template, m.rows, root=0)
        assert np.count_nonzero(tokens != COLD) == expect
        assert expect == 9  # the rank-0 chain, one node per depth

    def test_realization_closure(self):
        rng = np.random.default_rng(4)
        m = new_matrix(32, 10)
        mask = rng.random((32, 10)) < 0.5
        m.rows[:] = np.where(mask, rng.integers(0, 32, size=(32, 10)), COLD)
        template = builtin_templates()["d0"]
        tokens = instantiate(m, template, root=1)
        for i in range(template.declared_size):
            p = int(template.parents[i])
            if tokens[i] != COLD and p >= 0:
                assert tokens[p] != COLD
        assert np.count_nonzero(tokens != COLD) == template_walk_realized(template, m.rows, 1)


class TestWarmup:
    def test_zero_rounds_is_identity(self, det4):
        m = new_matrix(4, 2)
        draft = det4
        assert warmup(m, det4, draft, [[0]], rounds=0) is None
        assert m.touched_rows() == 0

    def test_one_round_on_det4(self, det4):
        m = new_matrix(4, 2)
        cfg = DecodeConfig(method="graft", max_new_tokens=12, prune=_small_prune())
        assert warmup(m, det4, det4, [[0]], rounds=1, config=cfg) is None
        for t in range(4):
            if m.rows[t, 0] != COLD:
                assert m.rows[t, 0] == (t + 1) % 4
        assert (m.rows[:, 0] != COLD).any()

    def test_ngram_corpus_lookup(self):
        corpus = [0, 1] * 12
        target = train_ngram(VocabSpec(4), corpus, order=1, smoothing=0.0)
        m = new_matrix(4, 2)
        cfg = DecodeConfig(method="graft", max_new_tokens=8, prune=_small_prune())
        warmup(m, target, target, [corpus[:6]], rounds=1, config=cfg)
        assert m.rows[0, 0] != COLD and m.rows[0, 0] == 1

    def test_rounds_visit_fresh_prompts_and_grow_storage(self):
        target = build_markov(VocabSpec(32), 1, seed=15, sparsity=0.3)
        m = new_matrix(32, 4)
        cfg = DecodeConfig(method="graft", max_new_tokens=12, prune=_small_prune())
        prompts = [[t] for t in range(0, 30, 6)]
        touched = []
        for rounds in range(1, 6):
            m = new_matrix(32, 4)
            warmup(m, target, target, prompts, rounds=rounds, config=cfg)
            touched.append(m.touched_rows())
        assert touched == sorted(touched)  # coverage only grows with rounds
        assert touched[-1] > touched[0]

    def test_rounds_cycle_through_the_prompts(self):
        target = build_markov(VocabSpec(32), 1, seed=15, sparsity=0.3)
        cfg = DecodeConfig(method="graft", max_new_tokens=12, prune=_small_prune())
        prompts = [[t] for t in range(0, 30, 6)]
        m = new_matrix(32, 4)
        warmup(m, target, target, prompts, rounds=7, config=cfg)
        replay = new_matrix(32, 4)
        for r in range(7):
            decode_session(cfg, target, target, replay, prompts[r % 5])
        assert np.array_equal(m.rows, replay.rows)


def _small_prune():
    from specgraft.drafttree import PruneConfig

    return PruneConfig(
        checkpoints=(0,),
        thresholds={0: 0.5},
        stage_budgets={0: (8, 52)},
        total_budget=60,
    )


class TestStorage:
    def test_arithmetic_example(self):
        m = new_matrix(1000, 10)
        assert storage_bytes(m) == 40_000 + 1250

    def test_k_zero_degenerate(self):
        m = new_matrix(100, 0)
        assert storage_bytes(m) == 0
        assert m.touched_rows() == 0

    def test_large_vocab_payload_and_touched_accounting(self):
        m = new_matrix(151_936, 10)
        id_bytes = 151_936 * 10 * 4
        assert id_bytes == 6_077_440  # ~6.1 MB dense id payload
        assert storage_bytes(m) == id_bytes + (151_936 * 10 + 7) // 8
        write_dist(m, 5, np.full(151_936, 1.0 / 151_936))
        assert touched_bytes(m) == 40  # touched-rows-only accounting


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        m = full_matrix(32, 4)
        m.rows[3, 2:] = COLD
        path = tmp_path / "m.bin"
        save_matrix(path, m)
        out = load_matrix(path)
        assert out.k == 4
        assert np.array_equal(out.rows, m.rows)
        assert np.array_equal(out.rows != COLD, m.rows != COLD)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAMATRIX")
        with pytest.raises(StructureError):
            load_matrix(path)

    @staticmethod
    def snapshot_bytes(tmp_path):
        path = tmp_path / "m.bin"
        save_matrix(path, full_matrix(256, 10))
        return path.read_bytes()

    @pytest.mark.parametrize("damage", ["short_header", "truncated", "trailing", "k_over_vocab"])
    def test_damaged_snapshot_rejected(self, tmp_path, damage):
        data = self.snapshot_bytes(tmp_path)
        data = {
            "short_header": data[: len(MAGIC) + 3],
            "truncated": data[:-1],
            "trailing": data + b"\0",
            "k_over_vocab": MAGIC + struct.pack("<II", 2, 3) + data[len(MAGIC) + 8:],
        }[damage]
        path = tmp_path / "bad.bin"
        path.write_bytes(data)
        with pytest.raises(StructureError):
            load_matrix(path)

    def test_oversized_header_never_allocates_its_claim(self, tmp_path):
        # claims 200000 x 200000 ids (160 GB); the file holds 21 bytes of payload
        path = tmp_path / "huge.bin"
        path.write_bytes(MAGIC + struct.pack("<II", 200_000, 200_000) + bytes(21))
        tracemalloc.start()
        try:
            with pytest.raises(StructureError, match="snapshot takes"):
                load_matrix(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @staticmethod
    def raw_snapshot(path, rows, warm):
        """A snapshot file from an id array and a bitmap, whether or not they agree."""
        header = MAGIC + struct.pack("<II", *rows.shape)
        path.write_bytes(header + rows.astype("<i4").tobytes() + np.packbits(warm.reshape(-1)).tobytes())

    @pytest.mark.parametrize("bad_id", [COLD, 32, 1000])
    def test_set_bit_over_out_of_range_id_rejected(self, tmp_path, bad_id):
        rows = full_matrix(32, 4).rows
        rows[5, 1] = bad_id
        path = tmp_path / "bad.bin"
        self.raw_snapshot(path, rows, np.ones(rows.shape, dtype=bool))
        with pytest.raises(StructureError, match="out-of-range"):
            load_matrix(path)

    def test_cleared_bit_loads_cold(self, tmp_path):
        rows = full_matrix(32, 10).rows
        warm = np.ones(rows.shape, dtype=bool)
        warm[7, 0] = False  # over the in-range id 8
        path = tmp_path / "m.bin"
        self.raw_snapshot(path, rows, warm)
        m = load_matrix(path)
        assert rows[7, 0] == 8 and m.rows[7, 0] == COLD
        assert np.array_equal(m.rows != COLD, warm)
        template = builtin_templates()["d5"]
        assert (template.parents[0], template.ranks[0]) == (-1, 0)  # root 7's rank-0 successor
        tokens = instantiate(m, template, root=7)
        assert tokens[0] == COLD
        assert np.count_nonzero(tokens != COLD) == template_walk_realized(template, m.rows, 7) < template.declared_size

    @pytest.mark.parametrize("config", CONFIGS)
    def test_load_save_round_trip_is_byte_identical(self, tmp_path, config):
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        save_matrix(first, _warmed(config, "graft")[1])
        save_matrix(second, load_matrix(first))
        assert second.read_bytes() == first.read_bytes()

    def test_cli_reports_damaged_snapshot_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        path.write_bytes(self.snapshot_bytes(tmp_path)[:40])
        for action in ("load", "stats"):
            assert main(["matrix", action, "--path", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

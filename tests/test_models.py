import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgraft import _kernels
from specgraft.errors import InputError
from specgraft.models import (
    BYTE_VOCAB,
    DraftDerivation,
    VocabSpec,
    argtopk,
    build_markov,
    context_code,
    derive_draft,
    load_corpus,
    tokenize_bytes,
    tokenize_whitespace,
    train_ngram,
)

from specgraft.verify import node_row_ids

from .conftest import delta, grow
from .oracles import context_row, reference_markov, reference_ngram


class TestVocabSpec:
    def test_size_floor(self):
        with pytest.raises(InputError):
            VocabSpec(1)

    def test_glyph_table_length(self):
        with pytest.raises(InputError):
            VocabSpec(3, ("a", "b"))
        assert VocabSpec(2, ("a", "b")).glyph(1) == "b"


class TestNextDistribution:
    def test_det4_cycle(self, det4):
        assert np.array_equal(det4.next_distribution([2]), delta(4, 3))

    def test_uni4_fallback(self, uni4):
        for prefix in ([0], [3, 2], [1, 1, 1]):
            assert np.array_equal(uni4.next_distribution(prefix), np.full(4, 0.25))

    def test_seeded_row_matches_rebuild(self):
        vocab = VocabSpec(8)
        model = build_markov(vocab, 1, seed=123)
        rebuilt = build_markov(vocab, 1, seed=123)
        assert np.array_equal(model.next_distribution([0]), context_row(rebuilt, (0,)))

    def test_out_of_range_token(self, det4):
        with pytest.raises(InputError):
            det4.next_distribution([7])


class TestBuildMarkov:
    def test_deterministic(self):
        a = build_markov(VocabSpec(4), 1, seed=7)
        b = build_markov(VocabSpec(4), 1, seed=7)
        assert a.index == b.index
        assert np.array_equal(a.rows, b.rows)

    def test_sparsity_keeps_a_nonzero(self):
        model = build_markov(VocabSpec(8), 1, seed=11, sparsity=0.5)
        for row in model.rows[:-1]:
            assert (row > 0).sum() >= 1

    def test_row_sums(self):
        model = build_markov(VocabSpec(16), 1, seed=42)
        for row in model.rows[:-1]:
            assert abs(row.sum() - 1.0) <= 1e-9

    def test_matches_the_per_row_oracle(self):
        # 520 random cases (vocab 2..2000, order 0..2) plus the edges, with
        # sparsity up to 0.999, where most rows of a small vocab come out
        # empty and are repaired; the bulk build matches the oracle bit for bit
        rng = np.random.default_rng(20)
        cases = [(2, 2, 0.999), (3, 1, 0.999), (2, 0, 0.995), (2000, 0, 0.999), (2000, 1, 0.99), (2, 3, 0.0)]
        for _ in range(520):
            order = int(rng.integers(0, 3))
            size = 2000
            while size ** (order + 1) > 20_000:
                size = int(np.exp(rng.uniform(np.log(2), np.log(2000))))
            sparsity = float(rng.choice([0.0, rng.uniform(0.0, 0.99), 0.99, 0.995, 0.999]))
            cases.append((size, order, sparsity))
        for size, order, sparsity in cases:
            seed = int(rng.integers(2**31))
            model = build_markov(VocabSpec(size), order, seed, sparsity)
            index, rows = reference_markov(size, order, seed, sparsity)
            assert list(model.index.items()) == list(index.items()), (size, order, sparsity, seed)
            assert np.array_equal(model.rows, rows), (size, order, sparsity, seed)


class TestTrainNgram:
    def test_abab_exact(self):
        model = train_ngram(VocabSpec(4), [0, 1, 0, 1], order=1, smoothing=0.0)
        assert context_row(model, (0,))[1] == 1.0
        assert context_row(model, (1,))[0] == 1.0

    def test_abab_addone(self):
        model = train_ngram(VocabSpec(4), [0, 1, 0, 1], order=1, smoothing=1.0)
        # two (0 -> 1) transitions: (2+1)/(2+4)
        assert context_row(model, (0,))[1] == pytest.approx(0.5, abs=1e-12)

    def test_order0_unigram(self):
        model = train_ngram(VocabSpec(4), [0, 0, 1, 2], order=0, smoothing=0.0)
        assert np.allclose(context_row(model, ()), [0.5, 0.25, 0.25, 0.0])

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_matches_the_per_position_oracle(self, order):
        # random corpora, and repetitive ones whose contexts recur; the
        # contexts keep their first-seen row ids
        rng = np.random.default_rng(order)
        for case in range(40):
            size = int(rng.integers(2, 30))
            corpus = rng.integers(0, size, size=int(rng.integers(order + 1, 1500))).tolist()
            if case % 2:
                corpus = (corpus[: order + 1 + len(corpus) // 8] * 8)[: len(corpus)]
            smoothing = float(rng.choice([0.0, 0.05, 1.0]))
            model = train_ngram(VocabSpec(size), corpus, order, smoothing)
            index, rows = reference_ngram(size, corpus, order, smoothing)
            assert list(model.index.items()) == list(index.items())
            assert np.array_equal(model.rows, rows)

    def test_empty_corpus(self):
        with pytest.raises(InputError):
            train_ngram(VocabSpec(4), [], order=1)

    def test_unseen_context_falls_back(self):
        model = train_ngram(VocabSpec(4), [0, 1, 0, 1], order=1, smoothing=0.5)
        assert np.array_equal(model.next_distribution([3]), model.fallback)


class TestDeriveDraft:
    def test_strength0_identity(self, det4):
        out = derive_draft(det4, DraftDerivation("uniform-mix", 0.0))
        for t in range(4):
            assert np.allclose(context_row(out, (t,)), context_row(det4, (t,)), atol=1e-12)

    def test_full_uniform_mix(self, det4):
        out = derive_draft(det4, DraftDerivation("uniform-mix", 1.0))
        for row in out.rows[:-1]:
            assert np.allclose(row, 0.25)

    def test_half_mix_on_det4(self, det4):
        out = derive_draft(det4, DraftDerivation("uniform-mix", 0.5))
        assert np.allclose(context_row(out, (0,)), [0.125, 0.625, 0.125, 0.125], atol=1e-12)

    def test_context_truncate_drops_order(self):
        model = build_markov(VocabSpec(4), 2, seed=5)
        out = derive_draft(model, DraftDerivation("context-truncate", 1.0))
        assert out.order == 0
        # reduced row is the uniform average over all length-2 contexts
        expect = np.mean(model.rows[:-1], axis=0)
        assert np.allclose(context_row(out, ()), expect, atol=1e-12)

    def test_context_truncate_partial(self):
        model = build_markov(VocabSpec(4), 2, seed=5)
        out = derive_draft(model, DraftDerivation("context-truncate", 0.5))
        assert out.order == 1  # 2 - round(0.5 * 2)
        for last in range(4):
            group = [context_row(model, (first, last)) for first in range(4)]
            assert np.allclose(context_row(out, (last,)), np.mean(group, axis=0), atol=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_rows_stay_normalized(self, strength):
        model = build_markov(VocabSpec(6), 1, seed=9, sparsity=0.4)
        out = derive_draft(model, DraftDerivation("uniform-mix", strength))
        for row in out.rows[:-1]:
            assert abs(row.sum() - 1.0) <= 1e-9
            assert (row >= 0).all()


class TestTopOneTable:
    """The k = 1 tables, built by ``argmax``, equal ``argtopk(rows, 1)``,
    ties to the lowest id, over more than one block of rows."""

    @pytest.mark.parametrize("kind", ["uniform", "dyadic", "sparse"])
    def test_matches_argtopk(self, kind):
        model = build_markov(VocabSpec(20), 2, seed=4, sparsity=0.9 if kind == "sparse" else 0.0)
        if kind == "uniform":
            model = derive_draft(model, DraftDerivation("uniform-mix", 1.0))
        elif kind == "dyadic":  # multiples of 1/8: most rows tie at their maximum
            rng = np.random.default_rng(4)
            counts = [np.bincount(rng.integers(0, 20, size=8), minlength=20) for _ in model.rows]
            model = replace(model, rows=np.array(counts) / 8.0)
        ids = np.arange(model.rows.shape[0])
        expect = argtopk(model.rows, 1)
        assert model.rows.shape[0] > 256  # more than one block
        assert np.array_equal(model.topk(ids, 1), expect)
        by_token, logq = model.topk_by_token(ids, 1)
        assert np.array_equal(by_token, expect)
        assert np.array_equal(logq, np.log(np.take_along_axis(model.rows, expect, axis=1)))


def _coded_models():
    """``(model, tuple index)`` pairs: Markov and smoothed and unsmoothed
    n-gram models at orders 0-3 and context-truncate drafts of them, each
    with the context-tuple -> row id dict built the way models were keyed
    before integer codes, independently of them."""
    corpus = np.random.default_rng(5).integers(0, 6, size=300).tolist()
    pairs = []
    for order in range(4):
        tuples = itertools.product(range(5), repeat=order)
        pairs.append((build_markov(VocabSpec(5), order, seed=order, sparsity=0.3), {c: i for i, c in enumerate(tuples)}))
        for smoothing in (0.0, 0.5):
            index: dict = {}
            for i in range(order, len(corpus)):
                index.setdefault(tuple(corpus[i - order:i]), len(index))
            pairs.append((train_ngram(VocabSpec(6), corpus, order, smoothing), index))
    for target, index in list(pairs):
        for strength in (0.3, 0.5, 1.0):
            draft = derive_draft(target, DraftDerivation("context-truncate", strength))
            if draft.order == target.order:
                continue
            groups: dict = {}
            for ctx in index:  # suffixes numbered in the order they first occur
                groups.setdefault(ctx[len(ctx) - draft.order:] if draft.order else (), len(groups))
            pairs.append((draft, groups))
    return pairs


CODED_MODELS = _coded_models()


class TestContextCodes:
    """Row ids found by context code equal those of the tuple-keyed lookup,
    for contexts shorter than the order, longer, seen and unseen."""

    def test_every_order_and_kind_is_covered(self):
        orders = {(m.order, len(m.index) < m.vocab.size ** m.order) for m, _ in CODED_MODELS}
        assert {o for o, _ in orders} == {0, 1, 2, 3}
        assert (3, True) in orders  # full-length contexts the corpus never shows

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_codes_match_tuple_lookup(self, data):
        model, index = data.draw(st.sampled_from(CODED_MODELS))
        size, order = model.vocab.size, model.order
        fallback = model.rows.shape[0] - 1

        def row_id(ctx):
            return index.get(tuple(ctx), fallback)

        def context_of(tokens):
            return tuple(tokens[-order:]) if order else ()

        tokens = st.integers(0, size - 1)
        ctx = data.draw(st.lists(tokens, max_size=order + 2))
        assert model.row_ids([context_code(ctx, size)]) == [row_id(ctx)]
        assert np.array_equal(context_row(model, ctx), model.rows[row_id(ctx)])
        assert np.array_equal(model.next_distribution(ctx), model.rows[row_id(context_of(ctx))])

        prefix = data.draw(st.lists(tokens, min_size=1, max_size=order + 2))
        tree = grow(model, prefix, depth=3, top_k=3, beam=5)
        parents, branch = tree.parents.tolist(), [list(prefix)] + [None] * (tree.n_nodes - 1)
        for i in range(1, tree.n_nodes):
            branch[i] = branch[parents[i]] + [int(tree.tokens[i])]
            # the envelope scored node i on its parent's row
            q = model.rows[row_id(context_of(branch[parents[i]])), tree.tokens[i]]
            assert tree.scores[i] == tree.scores[parents[i]] + np.log(q)
        assert node_row_ids(model, prefix, tree) == [row_id(context_of(b)) for b in branch]


def sample(dist, rng):
    """The autoregressive step's stochastic draw: ``_kernels._draw`` on one
    uniform, the one inverse-CDF draw the verifier's walks use too."""
    dist = np.asarray(dist, dtype=np.float64)
    return _kernels._draw(dist.cumsum().tolist(), dist, rng.random())


class TestSample:
    def test_delta_always_hits(self):
        for seed in range(5):
            assert sample(delta(4, 2), np.random.default_rng(seed)) == 2

    def test_uniform_frequencies(self):
        u = np.full(4, 0.25)
        cdf = np.cumsum(u)
        # sample() consumes one uniform per call: replaying the stream shows
        # it IS the inverse-CDF map, so the map stands in for it at volume
        rng_scalar, rng_vec = np.random.default_rng(0), np.random.default_rng(0)
        direct = [sample(u, rng_scalar) for _ in range(2000)]
        mapped = np.minimum(np.searchsorted(cdf, rng_vec.random(2000), side="right"), 3)
        assert direct == mapped.tolist()
        # law-of-large-numbers check at 1e6 draws through the same map
        draws = np.searchsorted(cdf, np.random.default_rng(1).random(1_000_000), side="right")
        freqs = np.bincount(np.minimum(draws, 3), minlength=4) / 1_000_000
        assert np.all(np.abs(freqs - 0.25) <= 0.005)

    def test_draw_past_the_total_gives_the_last_positive_token(self):
        class Draw:
            def random(self):
                return 1.0 - 5e-11

        assert sample([0.5, 0.5 - 1e-10, 0.0], Draw()) == 1
        assert sample([0.25, 0.0, 0.75 - 1e-10, 0.0, 0.0], Draw()) == 2

    def test_replay_determinism(self, uni4):
        row = uni4.fallback
        a = [sample(row, np.random.default_rng(42)) for _ in range(10)]
        b = [sample(row, np.random.default_rng(42)) for _ in range(10)]
        assert a == b


class TestCorpusIO:
    def test_bytes_roundtrip(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("abca", encoding="utf-8")
        tokens, vocab = load_corpus(path, "bytes")
        assert tokens == list(b"abca")
        assert vocab.size == 256
        assert BYTE_VOCAB.glyph(ord("a")) == "a"

    def test_whitespace(self):
        tokens, vocab = tokenize_whitespace("b a b")
        assert vocab.glyphs == ("a", "b")
        assert tokens == [1, 0, 1]

    def test_whitespace_file(self, tmp_path):
        # words split on any whitespace, newlines included; ids by sorted word
        path = tmp_path / "c.txt"
        path.write_text("the cat\nsat  the\n", encoding="utf-8")
        tokens, vocab = load_corpus(path, "whitespace")
        assert vocab.glyphs == ("cat", "sat", "the")
        assert tokens == [2, 0, 1, 2]

    def test_tokenize_bytes_is_utf8(self):
        assert tokenize_bytes("é") == [0xC3, 0xA9]

"""The decode walk against the list-based reference walk on the trees, rows
and uniforms of real stochastic sessions."""

from dataclasses import replace

import pytest

from specgraft import _kernels
from specgraft.config import derive_prompts, load_run_config
from specgraft.engine import decode_session
from specgraft.models import DraftDerivation, VocabSpec, build_markov, derive_draft
from specgraft.retrieval import new_matrix, warmup

from .oracles import reference_walk
from .test_report_digests import at_root


@pytest.fixture(scope="module")
def session_fixtures():
    """repetitive.yaml's byte n-gram target (vocab 256), and the same run on
    a vocab-64 order-2 Markov target."""
    with at_root():
        run = load_run_config("configs/repetitive.yaml")
    vocab = VocabSpec(64)
    target = build_markov(vocab, 2, seed=64, sparsity=0.3)
    markov = replace(
        run,
        vocab=vocab,
        target=target,
        draft=derive_draft(target, DraftDerivation("uniform-mix", 0.4)),
        prompt=[1, 2, 3],
        warmup_prompts=derive_prompts(None, vocab, 2, 32, seed=64),
    )
    return run, markov


@pytest.mark.parametrize("method", ["dense", "graft"])
def test_session_walks_match_the_reference(monkeypatch, session_fixtures, method):
    calls = []
    walk = _kernels.stochastic_walk

    def recorded(*args):
        out = walk(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(_kernels, "stochastic_walk", recorded)
    for fixture in session_fixtures:
        matrix = new_matrix(fixture.vocab.size, fixture.matrix_k)
        warmup(matrix, fixture.target, fixture.draft, fixture.warmup_prompts[:1], 1, config=fixture.decode)
        cfg = replace(fixture.decode, method=method, acceptance="stochastic", max_new_tokens=120)
        n_calls = len(calls)
        decode_session(cfg, fixture.target, fixture.draft, matrix, fixture.prompt)
        assert len(calls) - n_calls >= 20
    for (tokens, child_ptr, rows, row_ids, uniforms), out in calls:
        # node c's children are nodes child_ptr[c] + 1 .. child_ptr[c + 1]
        parents = [-1] + [c for c in range(len(tokens)) for _ in range(child_ptr[c], child_ptr[c + 1])]
        assert out == reference_walk(tokens, parents, rows[row_ids], uniforms)

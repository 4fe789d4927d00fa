import numpy as np
import pytest

from specgraft.drafttree import resolve_stage
from specgraft.engine import NO_BRANCH
from specgraft.hybrid import merge
from specgraft.models import MarkovTableModel, VocabSpec, context_code


def grow(draft, context, depth, top_k, beam=None):
    """``depth`` ungated layers below ``context``'s last token, drafted by
    the one-pass envelope with every layer under ``beam`` (default
    ``top_k``)."""
    return resolve_stage(draft, context, top_k, (top_k if beam is None else beam,) * depth, {})[0]


def gated(draft, context, config, keep=None):
    """(tree, stage, gate confidences) of the envelope under ``config``'s
    beams and gates, as ``build_next_tree`` drafts it for ``prune_only``
    and ``graft``."""
    gates = {d: config.thresholds[d] for d in config.checkpoints}
    return resolve_stage(draft, context, config.top_k, (config.beam_width,) * config.max_depth, gates, keep)


def ungated(draft, context, config, keep=None):
    """The envelope under ``config``'s beams with no gates, as
    ``build_next_tree`` drafts it for the other tree methods."""
    return resolve_stage(draft, context, config.top_k, (config.beam_width,) * config.max_depth, {}, keep)[0]


def pruned(tree, retained, budget):
    """``merge`` with an empty branch: the nodes ``retained`` of ``tree`` alone."""
    return merge(tree, retained, budget, 0, NO_BRANCH, NO_BRANCH)


def table_model(vocab_size, order, table, fallback=None):
    """Hand-built table model from a ``{context: row}`` dict and a fallback
    row (uniform by default); the constructor validates and freezes the rows."""
    if fallback is None:
        fallback = np.full(vocab_size, 1.0 / vocab_size)
    index = {context_code(ctx, vocab_size): i for i, ctx in enumerate(table)}
    rows = np.array([*table.values(), fallback], dtype=float)
    return MarkovTableModel(VocabSpec(vocab_size), order, index, rows)


def delta(size, token):
    row = np.zeros(size)
    row[token] = 1.0
    return row


@pytest.fixture(scope="session")
def det4():
    """Deterministic cycle: P(next = (t+1) mod 4 | t) = 1."""
    return table_model(4, 1, {(t,): delta(4, (t + 1) % 4) for t in range(4)})


@pytest.fixture(scope="session")
def uni4():
    """Uniform over 4 ids for every context (empty table, uniform fallback)."""
    return table_model(4, 1, {})


@pytest.fixture(scope="session")
def uni16():
    return table_model(16, 1, {})

import numpy as np
import pytest

from specgraft.drafttree import _envelope
from specgraft.models import MarkovTableModel, VocabSpec, check_distribution


def grow(draft, context, depth, top_k, beam=None):
    """``depth`` ungated layers below ``context``'s last token, drafted by
    the one-pass envelope with every layer under ``beam`` (default
    ``top_k``)."""
    return _envelope(draft, context, top_k, (top_k if beam is None else beam,) * depth, {})[0]


def table_model(vocab_size, order, table, fallback=None, seed=0):
    """Hand-built table model (rows validated/frozen)."""
    vocab = VocabSpec(vocab_size)
    if fallback is None:
        fallback = np.full(vocab_size, 1.0 / vocab_size)
    frozen = {
        tuple(ctx): check_distribution(np.asarray(row, dtype=float), vocab_size)
        for ctx, row in table.items()
    }
    return MarkovTableModel.from_table(
        vocab,
        order,
        frozen,
        check_distribution(np.asarray(fallback, dtype=float), vocab_size),
        seed=seed,
    )


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

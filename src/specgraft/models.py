"""Toy target/draft language models with exact, enumerable next-token rows.

Models are tables from contexts to probability rows, built either from a
seeded pseudo-random construction or from n-gram counts over a corpus. All
rows of a model live in one read-only ``(n_ctx + 1, vocab)`` float64 array
with the fallback row last, and ``index`` maps each known context's integer
code to its row id; unseen contexts read the fallback row. A context is at
most the last ``order`` tokens, so a caller needs to carry only that many
committed tokens, and a tree node's code follows from its parent's by one
multiply-add. Verification claims can be checked analytically.

Builders fill a table in bulk, the random draws still in row order. Each
top-``k`` table (per model, accessor and ``k``) is built whole, a block of
rows at a time, on its first read; later reads are one ``take`` per array.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError

DIST_ATOL = 1e-9
MAX_TABLE_CELLS = 4_000_000  # ceiling on a built row table (32 MB of float64), checked before allocating
_TOPK_BLOCK = 256  # rows per sort while a top-k table is built: bounds its temporaries

DERIVATION_MODES = ("uniform-mix", "context-truncate")


@dataclass(frozen=True)
class VocabSpec:
    """Token id space 0..size-1 with an optional per-id display table."""

    size: int
    glyphs: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size < 2:
            raise InputError(f"vocab.size must be >= 2, got {self.size}")
        if self.glyphs is not None and len(self.glyphs) != self.size:
            raise InputError(
                f"glyph table has {len(self.glyphs)} entries for vocab size {self.size}"
            )

    def glyph(self, token: int) -> str:
        if self.glyphs is not None:
            return self.glyphs[token]
        return str(token)


def _check_rows(rows: np.ndarray, what: str) -> None:
    """Raise unless every row is non-negative and sums to 1 within DIST_ATOL."""
    if rows.size and rows.min() < 0:
        raise InputError(f"{what} has negative entries")
    sums = rows.sum(axis=-1).reshape(-1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > DIST_ATOL)
    if bad.size:
        raise InputError(f"{what} sums to {float(sums[bad[0]])!r}, not 1")


def context_code(context, size: int) -> int:
    """A context's key in ``index``: the sum of ``(t + 1) * (size + 1) ** i``,
    the last token at i = 0. No digit is zero, so a context shorter or longer
    than the order misses. Appending t to code c gives ``c * (size + 1) + t
    + 1``, and ``% (size + 1) ** order`` keeps the last ``order`` tokens."""
    code = 0
    for t in map(int, context):
        if not 0 <= t < size:
            raise InputError(f"token {t} out of range for vocab {size}")
        code = code * (size + 1) + t + 1
    return code


def argtopk(dist: np.ndarray, k: int) -> np.ndarray:
    """Top-k token ids by probability, descending, ties to the lower id.

    ``dist`` is one row or a stack of rows; the ids run along the last axis.
    """
    order = np.argsort(-dist, axis=-1, kind="stable")
    return order[..., :k].astype(np.int32)


@dataclass(frozen=True)
class DraftDerivation:
    """How a draft model is weakened relative to its target."""

    mode: str
    strength: float

    def __post_init__(self):
        if self.mode not in DERIVATION_MODES:
            raise InputError(f"draft.mode must be one of {', '.join(DERIVATION_MODES)}, got {self.mode!r}")
        if not 0.0 <= self.strength <= 1.0:
            raise InputError(f"draft.strength must be in [0, 1], got {self.strength}")


@dataclass(frozen=True)
class MarkovTableModel:
    """Order-``order`` table model; unseen contexts fall back to one row.

    ``rows`` is the stacked ``(len(index) + 1, vocab)`` row table, validated
    and frozen at construction: row ``index[context_code(ctx, vocab.size)]``
    for each known context, the fallback row last.
    """

    vocab: VocabSpec
    order: int
    index: dict[int, int]
    rows: np.ndarray
    # top-k tables per k, each built whole on its first read and never
    # changed: (ids by rank, None) for topk, and for topk_by_token
    # (ids by token, their log-probabilities)
    _topk: dict[int, tuple] = field(default_factory=dict, init=False, repr=False, compare=False)
    _topk_by_token: dict[int, tuple] = field(default_factory=dict, init=False, repr=False, compare=False)
    # the envelope's two-layer tables per (k, beam widths 1 and 2), each row
    # filled on its first read (``drafttree._stored_layers``)
    _two_layers: dict[tuple[int, int, int], tuple] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        shape = (len(self.index) + 1, self.vocab.size)
        if rows.shape != shape:
            raise InputError(f"row table shape {rows.shape} != {shape}")
        _check_rows(rows, "distribution")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def fallback(self) -> np.ndarray:
        return self.rows[-1]

    def row_ids(self, codes) -> list[int]:
        """Row id of each context code (the fallback row for unseen ones)."""
        fallback = self.rows.shape[0] - 1
        get = self.index.get
        return [get(c, fallback) for c in codes]

    def extend_codes(self, codes: list[int], parents, tokens) -> None:
        """Append to ``codes`` the code of each node ``(parent, token)``, its
        parent's context extended by its token; ``parents`` index ``codes``."""
        base, span = self.vocab.size + 1, (self.vocab.size + 1) ** self.order
        for parent, token in zip(parents, tokens):
            codes.append((codes[parent] * base + token + 1) % span)

    def code_of(self, prefix) -> int:
        """The code of ``prefix``'s context: its last ``order`` tokens."""
        return context_code(prefix[-self.order:] if self.order else (), self.vocab.size)

    def next_distribution(self, prefix) -> np.ndarray:
        """Row for the last ``order`` tokens of ``prefix`` (fallback if unseen)."""
        return self.rows[self.index.get(self.code_of(prefix), -1)]

    def _ranked(self, k: int) -> np.ndarray:
        """The top-``k`` table by rank, built on its first read."""
        # concurrent first calls may each build the table; the first stored wins
        tables = self._topk
        return (tables.get(k) or tables.setdefault(k, _topk_table(self.rows, k, by_token=False)))[0]

    def _by_token(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The top-``k`` table by token and its log-probabilities, built on its first read."""
        tables = self._topk_by_token
        return tables.get(k) or tables.setdefault(k, _topk_table(self.rows, k, by_token=True))

    def topk(self, ids, k: int) -> np.ndarray:
        """``argtopk(self.rows[ids], k)``: each row's top-``k`` ids by rank."""
        return self._ranked(k).take(np.asarray(ids, dtype=np.intp), axis=0)

    def argmax(self, row_id: int) -> int:
        """``topk([row_id], 1)[0, 0]``: row ``row_id``'s most likely id, ties
        to the lowest."""
        return self._ranked(1).item(row_id, 0)

    def topk_by_token(self, ids, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The ids of :meth:`topk` in ascending token order, and their
        log-probabilities (``-inf`` where zero)."""
        by_token, logq = self._by_token(k)
        ids = np.asarray(ids, dtype=np.intp)
        return by_token.take(ids, axis=0), logq.take(ids, axis=0)


def _topk_table(rows: np.ndarray, k: int, by_token: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Every row's ``argtopk(row, k)``, built one block of rows at a time:
    the ids by rank and None, or the ids by token and their log-probabilities.
    For k = 1 that is each row's ``argmax``, the first maximum, which is the
    lowest of tied ids, as in the stable sort."""
    top = np.empty((rows.shape[0], k), np.int32)
    logq = np.empty(top.shape) if by_token else None
    for lo in range(0, rows.shape[0], _TOPK_BLOCK):
        block = rows[lo:lo + _TOPK_BLOCK]
        ids = top[lo:lo + _TOPK_BLOCK]
        ids[:] = block.argmax(axis=1)[:, None] if k == 1 else argtopk(block, k)
        if by_token:
            ids.sort(axis=1)
            with np.errstate(divide="ignore"):
                np.log(np.take_along_axis(block, ids, axis=1), out=logq[lo:lo + _TOPK_BLOCK])
    return top, logq


def build_markov(vocab: VocabSpec, order: int, seed: int, sparsity: float = 0.0) -> MarkovTableModel:
    """Seeded random table: exponential weights, ``sparsity`` share zeroed, renormalized."""
    if order < 0:
        raise InputError(f"target.order must be >= 0, got {order}")
    if not 0.0 <= sparsity < 1.0:
        raise InputError(f"target.sparsity must be in [0, 1), got {sparsity}")
    # vocab^(order+1) cells; past the capped exponent even vocab 2 exceeds the ceiling
    if vocab.size ** min(order + 1, MAX_TABLE_CELLS.bit_length()) > MAX_TABLE_CELLS:
        raise InputError(
            f"markov table vocab^(order+1) for vocab={vocab.size}, order={order} exceeds the "
            f"{MAX_TABLE_CELLS}-cell ceiling; train an n-gram model from a corpus instead"
        )
    rng = np.random.default_rng(seed)
    size = vocab.size
    rows = np.empty((size**order + 1, size))
    body = rows[:-1]  # row i is the i-th context of itertools.product(range(size), repeat=order)
    drop = np.zeros(body.shape, dtype=bool)
    uniforms = np.empty(size)
    for w, dropped in zip(body, drop):  # the draws stay in per-row order: weights, then drops
        rng.standard_exponential(out=w)  # gamma(1, 1), draw for draw
        if sparsity > 0.0:
            np.less(rng.random(out=uniforms), sparsity, out=dropped)
    best = body.argmax(axis=1)
    body[drop] = 0.0
    empty = np.flatnonzero(~body.any(axis=1))
    body[empty, best[empty]] = 1.0  # a row left all zero keeps its largest weight
    body /= body.sum(axis=1, keepdims=True)
    # a single-row model: the row IS the fallback
    rows[-1] = rows[0] if order == 0 else 1.0 / size
    codes = np.zeros(1, dtype=np.int64)
    for _ in range(order):  # each context's code, the first token most significant
        codes = (codes[:, None] * (size + 1) + np.arange(1, size + 1)).ravel()
    index = dict(zip(codes.tolist(), range(codes.size)))
    return MarkovTableModel(vocab=vocab, order=order, index=index, rows=rows)


def train_ngram(vocab: VocabSpec, corpus, order: int, smoothing: float = 0.0) -> MarkovTableModel:
    """Add-``smoothing`` count model; unseen contexts map to the smoothed unigram."""
    corpus = [int(t) for t in corpus]
    if not corpus:
        raise InputError("target.corpus has no tokens")
    if len(corpus) <= order:
        raise InputError(f"target.order must be below the corpus length {len(corpus)}, got {order}")
    if smoothing < 0:
        raise InputError(f"target.smoothing must be >= 0, got {smoothing}")
    for t in corpus:
        if not 0 <= t < vocab.size:
            raise InputError(f"target.corpus token {t} out of range for vocab {vocab.size}")

    # each position's context code, rolled forward one token at a time as in
    # ``extend_codes``; contexts get row ids in first-seen order
    index: dict[int, int] = {}
    ids, code, base, span = [], 0, vocab.size + 1, (vocab.size + 1) ** order
    for i, t in enumerate(corpus):
        if i >= order:
            ids.append(index.setdefault(code, len(index)))
        code = (code * base + t + 1) % span
    if (len(index) + 1) * vocab.size > MAX_TABLE_CELLS:
        raise InputError(f"n-gram table (contexts + 1) x vocab = {len(index) + 1} x {vocab.size} cells "
                         f"exceeds the {MAX_TABLE_CELLS}-cell ceiling")
    counts = np.zeros((len(index) + 1, vocab.size))
    np.add.at(counts, (ids, corpus[order:]), 1.0)
    np.add.at(counts[-1], corpus, 1.0)  # the unigram, smoothed into the fallback
    # counts are whole numbers, so row sums are exact in any summation order
    denominators = counts.sum(axis=1, keepdims=True) + smoothing * vocab.size
    counts += smoothing
    counts /= denominators
    return MarkovTableModel(vocab=vocab, order=order, index=index, rows=counts)


def derive_draft(target: MarkovTableModel, derivation: DraftDerivation) -> MarkovTableModel:
    """Weakened copy of ``target``; strength 0 is the identity."""
    size = target.vocab.size
    s = derivation.strength

    if derivation.mode == "uniform-mix":
        rows = target.rows * (1.0 - s)
        rows += s * np.full(size, 1.0 / size)
        return replace(target, rows=rows)

    # context-truncate: shrink the order, averaging rows that share a suffix
    new_order = target.order - int(round(s * target.order))
    if new_order == target.order:
        return target
    span = (size + 1) ** new_order  # a code modulo span keeps its last new_order tokens
    groups: dict[int, list[int]] = {}
    for code, i in target.index.items():
        groups.setdefault(code % span, []).append(i)
    rows = np.empty((len(groups) + 1, size))
    index = {}
    for j, (suffix, ids) in enumerate(groups.items()):
        rows[j] = np.mean(target.rows[ids], axis=0)
        index[suffix] = j
    rows[-1] = target.fallback
    return replace(target, order=new_order, index=index, rows=rows)


# ---------------------------------------------------------------------------
# corpus ingestion

BYTE_VOCAB = VocabSpec(256, tuple(chr(i) if 32 <= i < 127 else f"\\x{i:02x}" for i in range(256)))


def tokenize_bytes(text: str) -> list[int]:
    return list(text.encode("utf-8"))


def tokenize_whitespace(text: str) -> tuple[list[int], VocabSpec]:
    words = text.split()
    if not words:
        raise InputError("target.corpus has no tokens")
    symbols = sorted(set(words))
    if len(symbols) < 2:
        symbols = symbols + ["<pad>"]
    index = {w: i for i, w in enumerate(symbols)}
    return [index[w] for w in words], VocabSpec(len(symbols), tuple(symbols))


def load_corpus(path, tokenizer: str = "bytes") -> tuple[list[int], VocabSpec]:
    """Read a UTF-8 text file into a token stream + vocab."""
    if tokenizer not in ("bytes", "whitespace"):
        raise InputError(f"target.tokenizer must be bytes or whitespace, got {tokenizer!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"target.corpus {path} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    return (tokenize_bytes(text), BYTE_VOCAB) if tokenizer == "bytes" else tokenize_whitespace(text)

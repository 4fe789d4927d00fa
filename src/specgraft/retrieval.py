"""Top-k successor matrix, stage-adaptive retrieval templates, online updates.

The matrix is one ``(vocab, k)`` int32 array: row t holds the k most likely
successor ids seen so far after token t, in rank order, and a cold slot
holds ``COLD``. Rows are refreshed wholesale from verified target rows
(argtop-k with ties to the lower id, cached per target row).

The builtin templates are constants, built once at import with read-only
arrays: ``builtin_templates()`` returns them, and ``TEMPLATE_WIDTH`` is the
narrowest matrix that realizes every one of their ranks.

One function writes the matrix, :func:`write_rows`, from a
``{token: target row id}`` dict in which the last writer has already won,
and one reads it, :func:`instantiate`: a retrieved branch is the token
array it reads along a template, which ``hybrid.merge`` grafts at an
anchor. A decode session collects its verified nodes in such a dict and
writes it only right before its one read per step (``build_next_tree``'s
``instantiate``) and when it ends.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .drafttree import node_depths
from .errors import ConfigError, InputError, StructureError
from .models import MarkovTableModel

COLD = -1

# per-depth node counts for the builtin templates (9 retrieval depths)
TEMPLATE_DEPTH_COUNTS = {
    "full": (8, 16, 14, 11, 8, 7, 6, 5, 5),
    "d0": (8, 10, 8, 6, 5, 4, 4, 4, 3),
    "d1": (6, 7, 5, 4, 4, 3, 3, 2, 2),
    "d5": (4, 3, 3, 2, 2, 2, 2, 1, 1),
}
MAX_TEMPLATE_DEPTH = 9


@dataclass
class TransitionMatrix:
    rows: np.ndarray  # (vocab, k) int32 successor ids, COLD where none is known

    @property
    def vocab_size(self) -> int:
        return int(self.rows.shape[0])

    @property
    def k(self) -> int:
        return int(self.rows.shape[1])

    def copy(self) -> "TransitionMatrix":
        return TransitionMatrix(self.rows.copy())

    def touched_rows(self) -> int:
        return int(np.count_nonzero(self.rows[:, :1] != COLD))


def new_matrix(vocab_size: int, k: int) -> TransitionMatrix:
    if vocab_size < 2 or k < 0:
        raise InputError(f"bad matrix shape vocab={vocab_size} k={k}")
    k = min(k, vocab_size)  # a row cannot hold more distinct successors
    return TransitionMatrix(np.full((vocab_size, k), COLD, dtype=np.int32))


def write_rows(matrix: TransitionMatrix, last: dict[int, int], target: MarkovTableModel) -> None:
    """Write row ``token`` of the matrix for each ``{token: target row id}``
    entry of ``last``, from the target's cached argtop-k."""
    if not last:
        return
    if min(last) < 0 or max(last) >= matrix.vocab_size:
        raise InputError("verified token out of range")
    matrix.rows[np.fromiter(last, np.intp, len(last))] = target.topk(list(last.values()), matrix.k)


def storage_bytes(matrix: TransitionMatrix) -> int:
    """Snapshot payload: 4 bytes per id slot plus the bitmap of warm slots."""
    cells = matrix.vocab_size * matrix.k
    return cells * 4 + (cells + 7) // 8


def touched_bytes(matrix: TransitionMatrix) -> int:
    """Touched-rows-only footprint (ids of refreshed rows, no bitmap)."""
    return matrix.touched_rows() * matrix.k * 4


# ---------------------------------------------------------------------------
# templates


@dataclass
class StageTemplate:
    """Static rank-path topology, breadth-first, root excluded."""

    parents: np.ndarray  # (n,) int32, -1 means the tree root
    ranks: np.ndarray  # (n,) int32

    @property
    def declared_size(self) -> int:
        return int(self.parents.size)

    @property
    def depths(self) -> np.ndarray:
        """(n,) int32, a fresh array each call: the root's children are at depth 1."""
        return node_depths(self.parents, 1)

    def depth_counts(self) -> list[int]:
        return np.bincount(self.depths)[1:].tolist()

    def max_rank(self) -> int:
        return int(self.ranks.max()) if self.declared_size else 0

    def rank_path(self, i: int) -> tuple[int, ...]:
        path = []
        while i >= 0:
            path.append(int(self.ranks[i]))
            i = int(self.parents[i])
        return tuple(reversed(path))


def template_from_depth_counts(counts) -> StageTemplate:
    """Build the unbalanced template realizing the per-depth node counts.

    Children are dealt to the previous layer in waves (one child per parent
    per wave, parents in lexicographic rank-path order), so lower-rank
    lineages get more children and survive deepest; a parent's children take
    ranks 0..c-1. The rank-0 chain therefore persists through every depth.
    """
    counts = [int(c) for c in counts if int(c) > 0]
    if len(counts) > MAX_TEMPLATE_DEPTH:
        raise ConfigError(f"template deeper than {MAX_TEMPLATE_DEPTH}")
    parents: list[int] = []
    ranks: list[int] = []
    prev_layer = [-1]  # template indices of the previous depth, priority order; -1 is the root

    for count in counts:
        per_parent = [0] * len(prev_layer)
        for j in range(count):
            per_parent[j % len(prev_layer)] += 1
        layer = []
        # emit children parent-major so BFS order matches priority order
        for slot, parent in enumerate(prev_layer):
            for r in range(per_parent[slot]):
                parents.append(parent)
                ranks.append(r)
                layer.append(len(parents) - 1)
        prev_layer = layer

    return StageTemplate(parents=np.array(parents, dtype=np.int32), ranks=np.array(ranks, dtype=np.int32))


def _frozen(template: StageTemplate) -> StageTemplate:
    for array in (template.parents, template.ranks):
        array.flags.writeable = False
    return template


# the four shipped templates: sizes 80 (full), 52 (d0), 36 (d1), 20 (d5)
_BUILTIN = MappingProxyType(
    {name: _frozen(template_from_depth_counts(counts)) for name, counts in TEMPLATE_DEPTH_COUNTS.items()}
)
# matrix.k must be at least this wide for every builtin rank to be realizable
TEMPLATE_WIDTH = max(t.max_rank() for t in _BUILTIN.values()) + 1


def builtin_templates() -> Mapping[str, StageTemplate]:
    """The four shipped templates by stage label, read-only down to their arrays."""
    return _BUILTIN


def filter_template(
    template: StageTemplate,
    max_depth: int | None = None,
    max_rank: int | None = None,
) -> StageTemplate:
    """Ancestor-closed restriction to nodes within a depth/successor-rank cap."""
    n = template.declared_size
    depths = template.depths
    keep = np.zeros(n, dtype=bool)
    remap = np.full(n, -1, dtype=np.int32)
    parents, ranks = [], []
    for i in range(n):
        p = int(template.parents[i])
        if p >= 0 and not keep[p]:
            continue
        if max_depth is not None and depths[i] > max_depth:
            continue
        if max_rank is not None and template.ranks[i] >= max_rank:
            continue
        keep[i] = True
        remap[i] = len(parents)
        parents.append(remap[p] if p >= 0 else -1)
        ranks.append(int(template.ranks[i]))
    return StageTemplate(parents=np.array(parents, dtype=np.int32), ranks=np.array(ranks, dtype=np.int32))


def template_prefix(template: StageTemplate, size: int) -> StageTemplate:
    """Breadth-first prefix of a template (parents always precede children)."""
    if size >= template.declared_size:
        return template
    return StageTemplate(template.parents[:size], template.ranks[:size])


def instantiate(matrix: TransitionMatrix, template: StageTemplate, root: int) -> np.ndarray:
    """The (n,) int32 token of each template node below ``root``,
    breadth-first, ``COLD`` where a node is unrealized: a node is realized
    iff its parent is realized and the parent row holds a successor at the
    node's rank. Cold rows shrink the branch, never fail it."""
    if not 0 <= root < matrix.vocab_size:
        raise InputError(f"root token {root} out of range")
    tokens = [COLD] * template.declared_size
    k, rows = matrix.k, matrix.rows.item
    for i, (p, rank) in enumerate(zip(template.parents.tolist(), template.ranks.tolist())):
        parent_token = root if p < 0 else tokens[p]
        if parent_token != COLD and rank < k:
            tokens[i] = rows(parent_token, rank)
    return np.array(tokens, dtype=np.int32)


# ---------------------------------------------------------------------------
# warm-up


def warmup(
    matrix: TransitionMatrix,
    target: MarkovTableModel,
    draft: MarkovTableModel,
    prompts,
    rounds: int,
    config=None,
) -> None:
    """Enrich the matrix in place with ``rounds`` full decode sessions over
    held-out warm-up prompts, one prompt per round (cycling), discarding the
    text and the reports.

    Each round visits fresh held-out material, so touched-row storage grows
    with the round count. The sessions run with ``config``, by default a
    graft ``DecodeConfig``.
    """
    from .engine import DecodeConfig, decode_session  # cycle: engine drives sessions

    if rounds < 0:
        raise InputError("rounds must be >= 0")
    if rounds == 0:
        return
    if config is None:
        config = DecodeConfig(method="graft")
    prompts = list(prompts)
    if not prompts:
        raise InputError("warm-up needs at least one prompt")
    for rnd in range(rounds):
        decode_session(config, target, draft, matrix, prompts[rnd % len(prompts)])


# ---------------------------------------------------------------------------
# snapshot file

MAGIC = b"SGMX0001"


def save_matrix(path, matrix: TransitionMatrix) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", matrix.vocab_size, matrix.k))
        fh.write(matrix.rows.astype("<i4").tobytes())
        fh.write(np.packbits(matrix.rows.reshape(-1) != COLD).tobytes())


def load_matrix(path) -> TransitionMatrix:
    """Read a snapshot, checking its header against the file size first, so a
    corrupt header can neither trigger an unbounded read nor a reshape error.
    A slot whose bit is set must hold an id in range; one whose bit is
    cleared loads as ``COLD``."""
    header = len(MAGIC) + 8
    with open(path, "rb") as fh:
        head = fh.read(header)
        if head[: len(MAGIC)] != MAGIC:
            raise StructureError(f"{path}: not a matrix snapshot (bad magic)")
        if len(head) < header:
            raise StructureError(f"{path}: truncated snapshot header")
        vocab_size, k = struct.unpack("<II", head[len(MAGIC):])
        if vocab_size < 2 or k > vocab_size:
            raise StructureError(f"{path}: bad snapshot shape vocab={vocab_size} k={k}")
        cells = vocab_size * k
        expected = header + cells * 4 + (cells + 7) // 8
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise StructureError(
                f"{path}: {size} bytes, but a vocab={vocab_size} k={k} snapshot takes {expected}"
            )
        rows = np.frombuffer(fh.read(cells * 4), dtype="<i4").reshape(vocab_size, k).astype(np.int32)
        bitmap = np.frombuffer(fh.read((cells + 7) // 8), dtype=np.uint8)
        warm = np.unpackbits(bitmap)[:cells].reshape(vocab_size, k).astype(bool)
    if (warm & ((rows < 0) | (rows >= vocab_size))).any():
        raise StructureError(f"{path}: snapshot holds out-of-range successor ids")
    rows[~warm] = COLD
    return TransitionMatrix(rows)

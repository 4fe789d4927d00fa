"""The stochastic-verification walk, plain Python over one acceptance table.

``stochastic_walk`` runs one walk for :func:`verify.verify_stochastic`,
reading only the rows of the nodes it visits; ``stochastic_trials`` runs a
batch of them for the exactness audit in
:func:`verify.first_token_frequencies`. Both consume pre-drawn uniforms, so
a walk is a pure function of its inputs.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .errors import StructureError

NUMBA_ENABLED = False  # there is no numba path; perfbench/run.py still records this flag

# Point-mass residual scheme. State per accepted node: residual starts as
# the node's target distribution; children are tried in stored
# (canonical) order, child c accepted with
# probability residual[token_c]; a rejection zeroes that token and
# renormalizes. With no child accepted the emitted token is drawn from the
# final residual by inverse CDF; an accepted leaf draws from its own
# distribution. A walk gives the accepted nodes and the emitted token.
#
# For a fixed tree only the uniforms vary between walks, so a node's
# decisions are scalars fixed in advance, computed with the same IEEE
# operations in the same order as a per-walk renormalization of the row:
# child j's threshold is p[t_j] / rest_1 / ... / rest_{j-1}, where
# rest_i = 1 - a_i (1.0 when that is <= 0), and the final residual is the
# row with the children's tokens zeroed, divided by the rests in order. Its
# left-to-right running sum (``np.cumsum``) is the inverse-CDF table, and a
# uniform at or past its total falls back to the last positive token.
# ``stochastic_trials`` keeps them in an acceptance table shared by all its
# walks; ``stochastic_walk`` computes them as it goes, for its path only.


def _residual(row: np.ndarray, toks: list[int], rests: list[float]) -> np.ndarray:
    """The row left once every child is rejected: the children's tokens
    zeroed, divided by the rests in order."""
    if not toks:
        return row
    residual = row.copy()
    residual.put(toks, 0.0)
    for rest in rests:
        if rest != 1.0:
            residual /= rest
    return residual


def _draw(cdf: list[float], residual: np.ndarray, u: float) -> int:
    """Inverse-CDF draw from the residual's running sum; at or past the
    total, the last positive token (-1 when the residual is exhausted)."""
    t = bisect_right(cdf, u)
    if t < len(cdf):
        return t
    positive = residual.nonzero()[0]
    return int(positive[-1]) if positive.size else -1


def stochastic_walk(
    tokens: list[int],
    child_ptr: list[int],
    rows: np.ndarray,
    row_ids: list[int],
    uniforms: list[float],
) -> tuple[list[int], int]:
    """One walk; node c's children are nodes ``child_ptr[c] + 1 ..
    child_ptr[c + 1]`` and its row is ``rows[row_ids[c]]``. It computes the
    table's entries only for the nodes on its path, and a node's thresholds
    only up to the child it accepts; it keeps none of them, since one walk
    never reads a node twice. -1 is emitted when the residual is exhausted."""
    path: list[int] = []
    cur = at = 0
    while True:
        row = rows[row_ids[cur]]
        rejected: list[int] = []
        rests: list[float] = []
        for c in range(child_ptr[cur] + 1, child_ptr[cur + 1] + 1):
            t = tokens[c]
            a = 0.0 if t in rejected else row.item(t)
            for rest in rests:
                a /= rest
            at += 1
            if uniforms[at - 1] < a:
                break
            rest = 1.0 - a
            rests.append(1.0 if rest <= 0.0 else rest)
            rejected.append(t)
        else:
            residual = _residual(row, rejected, rests)
            return path, _draw(residual.cumsum().tolist(), residual, uniforms[at])
        path.append(c)
        cur = c


class _AcceptanceTable:
    """The acceptance entries of one tree's nodes, each filled on first use.

    ``accept[c]`` is ``(kids, thresholds, rests)``: node c's children in
    stored order, their thresholds and the rest each rejection divides by.
    ``draw[c]`` is ``(cdf, residual)``: the residual left once every child
    is rejected and its running sum, as a list for ``bisect``.
    """

    __slots__ = ("tokens", "ptr", "idx", "dists", "accept", "draw")

    def __init__(self, tokens, child_ptr, child_idx, dists):
        n = len(child_ptr) - 1
        self.tokens = tokens.tolist()
        self.ptr = child_ptr.tolist()
        self.idx = child_idx.tolist()
        self.dists = dists
        self.accept: list = [None] * n
        self.draw: list = [None] * n

    def fill_accept(self, c: int) -> tuple[list[int], list[float], list[float]]:
        kids = self.idx[self.ptr[c]:self.ptr[c + 1]]
        toks = [self.tokens[k] for k in kids]
        thresholds: list[float] = []
        rests: list[float] = []
        for j, a in enumerate(self.dists[c].take(toks).tolist() if toks else ()):
            if toks[j] in toks[:j]:  # an earlier sibling's rejection zeroed this token
                a = 0.0
            for rest in rests:
                a /= rest
            thresholds.append(a)
            rest = 1.0 - a
            rests.append(1.0 if rest <= 0.0 else rest)
        entry = self.accept[c] = (kids, thresholds, rests)
        return entry

    def fill_draw(self, c: int) -> tuple[list[float], np.ndarray]:
        kids, _, rests = self.accept[c] or self.fill_accept(c)
        residual = _residual(self.dists[c], [self.tokens[k] for k in kids], rests)
        entry = self.draw[c] = (residual.cumsum().tolist(), residual)
        return entry

    def walk(self, draws, path: list[int]) -> int:
        """One walk on ``draws``, an iterator of floats; appends the accepted
        nodes to ``path`` and returns the emitted token."""
        accept, draw = self.accept, self.draw
        cur = 0
        while True:
            kids, thresholds, _ = accept[cur] or self.fill_accept(cur)
            # zip reads a child before its draw, so each child tried takes one
            for c, a, u in zip(kids, thresholds, draws):
                if u < a:
                    break
            else:
                cdf, residual = draw[cur] or self.fill_draw(cur)
                return _draw(cdf, residual, next(draws))
            path.append(c)
            cur = c


def stochastic_trials(
    tokens: np.ndarray,
    child_ptr: np.ndarray,
    child_idx: np.ndarray,
    dists: np.ndarray,
    uniforms: np.ndarray,
) -> np.ndarray:
    """First-emitted-token counts over ``uniforms.shape[0]`` walk trials,
    all on one acceptance table."""
    table = _AcceptanceTable(tokens, child_ptr, child_idx, dists)
    firsts, walk = table.tokens, table.walk
    counts = [0] * dists.shape[1]
    # a memoryview makes a float of each draw only when a walk reads it
    flat = np.ascontiguousarray(uniforms, dtype=np.float64).reshape(-1).data
    width = uniforms.shape[1]
    for lo in range(0, len(flat), width):
        path: list[int] = []
        emitted = walk(iter(flat[lo:lo + width]), path)
        if emitted < 0:
            raise StructureError("residual exhausted; node distributions are inconsistent")
        counts[firsts[path[0]] if path else emitted] += 1
    return np.array(counts, dtype=np.int64)

"""The stochastic-verification walk, plain Python, one acceptance rule.

``_try_children`` is the rule. ``stochastic_walk`` runs one walk for
:func:`verify.verify_stochastic`, trying each node's children through it;
``stochastic_trials`` decides a batch of walks' first tokens for the
exactness audit in :func:`verify.first_token_frequencies`, from the root's
thresholds, which the same rule gives. Both read node c's target row as
``rows[row_ids[c]]``, and only for the nodes they visit (the audit visits
the root alone), and both consume pre-drawn uniforms, so a walk is a pure
function of its inputs. ``_draw`` is the one inverse-CDF draw; the
autoregressive step draws its token with it too.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import repeat

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
# ``stochastic_walk`` computes them as it goes, for its path only, and keeps
# none; ``stochastic_trials`` computes the root's once and shares them among
# its trials, since a walk's first token is the root's accepted child or,
# with none accepted, the root's residual draw.


def _try_children(row: np.ndarray, tokens: list[int], lo: int, hi: int, draws, thresholds: list[float],
                  rests: list[float]) -> int:
    """Try children ``lo .. hi - 1`` of the node whose target row is ``row``,
    in stored order, each against the next of ``draws``; the first accepted
    child, or -1. Each child tried appends its threshold to ``thresholds``,
    and each one rejected its rest to ``rests``. Draws of ``math.inf`` reject
    every child, which gives the node's full lists."""
    for c in range(lo, hi):
        t = tokens[c]
        a = 0.0 if t in tokens[lo:c] else row.item(t)  # an earlier sibling's rejection zeroed this token
        for rest in rests:
            a /= rest
        thresholds.append(a)
        if next(draws) < a:
            return c
        rest = 1.0 - a
        rests.append(1.0 if rest <= 0.0 else rest)
    return -1


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
    child_ptr[c + 1]`` and its row is ``rows[row_ids[c]]``. -1 is emitted
    when the residual is exhausted."""
    path: list[int] = []
    draws = iter(uniforms)
    cur = 0
    while True:
        row = rows[row_ids[cur]]
        lo, hi = child_ptr[cur] + 1, child_ptr[cur + 1] + 1
        rests: list[float] = []
        c = _try_children(row, tokens, lo, hi, draws, [], rests)
        if c < 0:
            residual = _residual(row, tokens[lo:hi], rests)
            return path, _draw(residual.cumsum().tolist(), residual, next(draws))
        path.append(c)
        cur = c


def stochastic_trials(
    tokens: list[int],
    child_ptr: list[int],
    rows: np.ndarray,
    row_ids: list[int],
    uniforms: np.ndarray,
) -> np.ndarray:
    """First-emitted-token counts over ``uniforms.shape[0]`` walk trials; the
    arguments are those of :func:`stochastic_walk`, with one row of uniforms
    per trial. The root decides a walk's first token: root child j takes
    ``u[j]`` and the residual draw ``u[n_children]``, the positions a full
    walk reads them at, so the counts equal those of full walks."""
    row = rows[row_ids[0]]
    lo, hi = child_ptr[0] + 1, child_ptr[1] + 1
    kids = tokens[lo:hi]
    thresholds: list[float] = []
    rests: list[float] = []
    _try_children(row, tokens, lo, hi, repeat(math.inf), thresholds, rests)
    residual = _residual(row, kids, rests)
    cdf = residual.cumsum().tolist()
    n = len(kids)
    counts = [0] * rows.shape[1]
    for u in uniforms[:, :n + 1].tolist():
        for t, a, x in zip(kids, thresholds, u):
            if x < a:
                counts[t] += 1
                break
        else:
            emitted = _draw(cdf, residual, u[n])
            if emitted < 0:
                raise StructureError("residual exhausted; node distributions are inconsistent")
            counts[emitted] += 1
    return np.array(counts, dtype=np.int64)

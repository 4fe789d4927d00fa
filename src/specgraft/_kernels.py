"""The stochastic-verification walk, plain Python, one acceptance rule.

``_reject`` is the rule's one step. ``stochastic_walk`` runs one walk for
:func:`verify.verify_stochastic`; ``stochastic_trials`` decides a batch of
walks' first tokens for the exactness audit in
:func:`verify.first_token_frequencies`, from the root's thresholds, which
the same step gives. Both read node c's target row as ``rows[row_ids[c]]``,
and only for the nodes they visit (the audit visits the root alone), and
both consume pre-drawn uniforms, so a walk is a pure function of its
inputs. ``_draw`` is the one inverse-CDF draw; the autoregressive step
draws its token with it too.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .errors import StructureError

NUMBA_ENABLED = False  # there is no numba path; perfbench/run.py still records this flag

# The residual rule. A node's residual starts as its target row; its
# children are tried in stored (canonical) order, child c accepted with
# probability residual[token_c]; a rejection zeroes that token and
# renormalizes. With no child accepted the emitted token is drawn from the
# final residual by inverse CDF over its left-to-right running sum
# (``np.cumsum``); a draw at or past the total gives the last positive
# token. A walk gives the accepted nodes and the emitted token.


def _reject(residual: np.ndarray, row: np.ndarray, t: int, a: float) -> np.ndarray:
    """The residual once the child with token ``t`` and threshold ``a`` is
    rejected: ``t`` zeroed, the rest divided by ``1 - a`` (by 1.0 when that
    is <= 0). The node's target ``row`` is never written; the residual is
    copied from it on the node's first rejection."""
    if residual is row:
        residual = row.copy()
    residual[t] = 0.0
    rest = 1.0 - a
    if 0.0 < rest < 1.0:  # dividing by 1.0 changes nothing
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
        row = residual = rows[row_ids[cur]]
        for c in range(child_ptr[cur] + 1, child_ptr[cur + 1] + 1):
            t = tokens[c]
            a = residual.item(t)
            if next(draws) < a:
                path.append(c)
                cur = c
                break
            residual = _reject(residual, row, t, a)
        else:
            return path, _draw(residual.cumsum().tolist(), residual, next(draws))


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
    walk reads them at, so the counts equal those of full walks. The root's
    thresholds and final residual are computed once, rejecting every child."""
    row = residual = rows[row_ids[0]]
    kids = tokens[child_ptr[0] + 1:child_ptr[1] + 1]
    thresholds: list[float] = []
    for t in kids:
        a = residual.item(t)
        thresholds.append(a)
        residual = _reject(residual, row, t, a)
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

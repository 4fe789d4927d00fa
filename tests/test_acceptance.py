"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Shared fixtures are module-scoped so the expensive decode grids run once.
"""

import contextlib
import io
import itertools
import math
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import specgraft as sg
from specgraft import _kernels, engine
from specgraft.config import derive_prompts, load_run_config
from specgraft.drafttree import PruneConfig, select_retained
from specgraft.engine import DecodeConfig, calibrate, decode_session, theory_checks
from specgraft.hybrid import flatten, merge
from specgraft.models import DraftDerivation, VocabSpec, argtopk, build_markov, derive_draft, tokenize_whitespace, train_ngram
from specgraft.retrieval import (
    COLD,
    TEMPLATE_DEPTH_COUNTS,
    builtin_templates,
    instantiate,
    new_matrix,
    template_from_depth_counts,
    template_prefix,
    warmup,
)
from specgraft.verify import first_token_frequencies, node_row_ids, verify_stochastic

from .conftest import grow, pruned
from .oracles import ar_greedy, context_row, enumerate_block_law, enumerate_first_token_marginal, stream_law
from .test_report_digests import at_root

TREE_METHODS = ("dense", "prune_only", "fixed_split", "graft", "graft_root", "graft_tail")


def announce(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} :: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# criterion 1 + shared data


@pytest.fixture(scope="module")
def lossless_data():
    t0 = time.time()
    reports = []
    mismatches = 0
    for s in range(30):
        vocab = VocabSpec(20 + (s % 3) * 8)
        target = build_markov(vocab, 1, seed=1000 + s, sparsity=0.25)
        draft = derive_draft(target, DraftDerivation("uniform-mix", 0.3 + (s % 7) * 0.05))
        rng = np.random.default_rng(s)
        prompt = [int(t) for t in rng.integers(0, vocab.size, size=2)]
        oracle = ar_greedy(target, prompt, 500)
        for method in TREE_METHODS:
            cfg = DecodeConfig(method=method, max_new_tokens=500, seed=s)
            tokens, report = decode_session(cfg, target, draft, new_matrix(vocab.size, 10), prompt)
            mismatches += tokens != oracle
            reports.append((method, s, report))
    return {"mismatches": mismatches, "reports": reports, "elapsed": time.time() - t0}


def test_criterion_1_greedy_losslessness(lossless_data):
    ok = lossless_data["mismatches"] == 0 and lossless_data["elapsed"] < 120
    announce(
        1,
        "greedy losslessness",
        ok,
        f"30 fixtures x 6 methods x 500 tokens, {lossless_data['mismatches']} mismatches, "
        f"{lossless_data['elapsed']:.1f}s (< 120s)",
    )


# ---------------------------------------------------------------------------
# criterion 2


def tiny_instance(i):
    vocab = VocabSpec(4 + i % 3)
    target = build_markov(vocab, 1, seed=2000 + i)
    draft = derive_draft(target, DraftDerivation("uniform-mix", 0.2 + (i % 5) * 0.15))
    prefix = [i % vocab.size]
    tree = grow(draft, prefix, 1 + i % 3, top_k=2, beam=3)
    keep = min(5 + i % 5, tree.n_nodes - 1)
    retained = select_retained(tree, keep)
    if i % 2:
        matrix = new_matrix(vocab.size, 3)
        for t in range(vocab.size):
            matrix.rows[t] = argtopk(context_row(target, (t,)), matrix.k)
        template = template_prefix(template_from_depth_counts((2, 1)), 3)
        hy = merge(tree, retained, 9, 0, template.parents, instantiate(matrix, template, tree.root_token))
    else:
        hy = pruned(tree, retained, 9)
    return target, prefix, flatten(hy, len(prefix) - 1)


def test_criterion_2_stochastic_exactness():
    t0 = time.time()
    worst_enum = 0.0
    worst_tv = 0.0
    n_emp = 0
    for i in range(20):
        target, prefix, pkg = tiny_instance(i)
        assert pkg.n_nodes <= 10
        dists = target.rows[node_row_ids(target, prefix, pkg)]
        kids = [j for j in range(1, pkg.n_nodes) if pkg.parents[j] == 0]
        marginal = enumerate_first_token_marginal(pkg.tokens.tolist(), pkg.parents.tolist(), dists[0], kids)
        worst_enum = max(worst_enum, float(np.abs(marginal - dists[0]).max()))
        if i % 4 == 0:
            counts = first_token_frequencies(target, prefix, pkg, 1_000_000, seed=300 + i)
            tv = 0.5 * float(np.abs(counts / counts.sum() - marginal).sum())
            worst_tv = max(worst_tv, tv)
            n_emp += 1
    elapsed = time.time() - t0
    ok = worst_enum <= 1e-12 and worst_tv <= 0.003 and elapsed < 180
    announce(
        2,
        "stochastic exactness",
        ok,
        f"20 instances, max |enumerated - target| = {worst_enum:.2e} (<= 1e-12); "
        f"{n_emp} instances x 1e6 trials, max TV = {worst_tv:.5f} (<= 0.003); {elapsed:.1f}s (< 180s)",
    )


def grafted_instance(rng):
    """A small tree with grafted nodes: a vocab 3-5, order 1 or 2 Markov
    target, its uniform-mix draft's envelope cut at random, and a branch of
    at most two levels read from a random matrix, grafted at the root or at
    a kept depth-1 node. Returns the target, the prefix and the tree."""
    vocab = VocabSpec(int(rng.integers(3, 6)))
    order = int(rng.integers(1, 3))
    target = build_markov(vocab, order, seed=int(rng.integers(2**31)), sparsity=float(rng.uniform(0.0, 0.5)))
    draft = derive_draft(target, DraftDerivation("uniform-mix", float(rng.uniform(0.2, 0.8))))
    prefix = [int(t) for t in rng.integers(0, vocab.size, size=order)]
    tree = grow(draft, prefix, int(rng.integers(1, 4)), top_k=int(rng.integers(2, 4)), beam=int(rng.integers(2, 5)))
    retained = select_retained(tree, int(rng.integers(0, tree.n_nodes)))
    matrix = new_matrix(vocab.size, 3)
    for row in matrix.rows:  # distinct successors, about a fifth of the slots cold
        row[:] = np.where(rng.random(matrix.k) < 0.8, rng.permutation(vocab.size)[: matrix.k], COLD)
    template = template_from_depth_counts((int(rng.integers(1, 4)), int(rng.integers(0, 4))))
    anchors = [int(i) for i in retained if tree.depths[i] <= 1]
    at = anchors[int(rng.integers(len(anchors)))]
    budget = retained.size - 1 + int(rng.integers(0, 8))
    tokens = instantiate(matrix, template, int(tree.tokens[at]))
    return target, prefix, merge(tree, retained, budget, at, template.parents, tokens)


def _grafted_deep(tree):
    """Whether the tree holds a grafted node below depth 1."""
    return bool(np.count_nonzero(tree.origin[tree.depths >= 2]))


def _stream_error(target, prefix, tree, horizon):
    """The largest gap between the law of the first ``horizon`` tokens, when
    the tree's emitted block is extended by target sampling, and the
    target's ``horizon``-token joint law."""
    law = enumerate_block_law(tree, target.rows, node_row_ids(target, prefix, tree))

    def next_row(seq):
        return context_row(target, tuple(seq[-target.order:]))

    got = stream_law(law, next_row, prefix, horizon)
    want = stream_law({(): 1.0}, next_row, prefix, horizon)
    return max(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in got.keys() | want.keys())


def test_block_law_stream_exact_on_grafted_trees():
    """Beside criterion 2: the law of the whole emitted block (accepted path
    plus correction), each block extended by target sampling to H = depth + 1
    tokens, is the target's H-token joint law to 1e-12, on random trees with
    grafted nodes."""
    rng = np.random.default_rng(2026)
    worst, deep = 0.0, 0
    for _ in range(150):
        target, prefix, hy = grafted_instance(rng)
        worst = max(worst, _stream_error(target, prefix, hy, int(hy.depths[-1]) + 1))
        deep += _grafted_deep(hy)
    assert deep >= 40
    assert worst <= 1e-12, f"max |stream law - target joint law| = {worst:.2e}"


def test_verify_stochastic_block_frequencies():
    """Beside criterion 2: over 30000 seeded ``verify_stochastic`` walks on
    each of three trees of 6 or more nodes with grafted nodes below depth 1,
    every emitted block has positive law, and the total variation between
    the block frequencies and the law is at most sqrt(K / N) (K blocks of
    positive law, N walks), twice a bound on its expectation."""
    rng = np.random.default_rng(11)
    n, checked = 30_000, 0
    while checked < 3:
        target, prefix, hy = grafted_instance(rng)
        if hy.n_nodes < 6 or not _grafted_deep(hy):
            continue
        law = enumerate_block_law(hy, target.rows, node_row_ids(target, prefix, hy))
        walks = np.random.default_rng(500 + checked)
        counts = Counter(tuple(verify_stochastic(target, prefix, hy, walks).emitted_tokens) for _ in range(n))
        assert counts.keys() <= law.keys()
        tv = 0.5 * sum(abs(counts[block] / n - p) for block, p in law.items())
        assert tv <= math.sqrt(len(law) / n), (checked, tv, len(law))
        checked += 1


def _root_decision_marginal(target, prefix, tree):
    """The first-token marginal of the audit's root decision, and the root's
    target row: root child j, tried with reach ``reach``, contributes
    ``reach * a_j`` and leaves ``reach *= 1 - a_j``; the rest is ``reach``
    times the root's residual."""
    row = residual = target.rows[node_row_ids(target, prefix, tree)[0]]
    ptr, tokens = tree.child_ptr.tolist(), tree.tokens.tolist()
    marginal = np.zeros_like(row)
    reach = 1.0
    for t in tokens[ptr[0] + 1:ptr[1] + 1]:
        a = residual.item(t)
        marginal[t] += reach * a
        reach *= 1.0 - a
        residual = _kernels._reject(residual, row, t, a)
    return marginal + reach * residual, row


def test_root_decision_exact_on_session_steps(monkeypatch):
    """Beside criterion 2: on every step of stochastic sessions of the six
    tree methods, the root decision the audit counts gives the target's row
    exactly, on quickstart.yaml and on a vocab-64 order-2 Markov target. On
    every 10th step, the whole emitted block, extended by target sampling to
    H = 2 tokens, gives the target's 2-token joint law to 1e-12 too."""
    worst, n_steps, worst_stream, n_streams = 0.0, 0, 0.0, 0

    def checked(target, prefix, tree, rng):
        nonlocal worst, n_steps, worst_stream, n_streams
        marginal, row = _root_decision_marginal(target, prefix, tree)
        worst = max(worst, float(np.abs(marginal - row).max()))
        if n_steps % 10 == 0:
            worst_stream = max(worst_stream, _stream_error(target, prefix, tree, 2))
            n_streams += 1
        n_steps += 1
        return verify_stochastic(target, prefix, tree, rng)

    monkeypatch.setattr(engine, "verify_stochastic", checked)
    with at_root():
        run = load_run_config("configs/quickstart.yaml")
    vocab = VocabSpec(64)
    target = build_markov(vocab, 2, seed=64, sparsity=0.3)
    wide = replace(
        run,
        vocab=vocab,
        target=target,
        draft=derive_draft(target, DraftDerivation("uniform-mix", 0.4)),
        prompt=[1, 2, 3],
        warmup_prompts=derive_prompts(None, vocab, 2, 32, seed=64),
    )
    for fixture in (run, wide):
        matrix = new_matrix(fixture.vocab.size, fixture.matrix_k)
        warmup(matrix, fixture.target, fixture.draft, fixture.warmup_prompts, fixture.warmup_rounds, config=fixture.decode)
        for method in TREE_METHODS:
            cfg = replace(fixture.decode, method=method, acceptance="stochastic")
            decode_session(cfg, fixture.target, fixture.draft, matrix.copy(), fixture.prompt)
    assert n_steps >= 500
    assert worst <= 1e-12, f"max |root-decision marginal - target row| = {worst:.2e} over {n_steps} steps"
    assert n_streams >= 50
    assert worst_stream <= 1e-12, f"max |stream law - target joint law| = {worst_stream:.2e} over {n_streams} steps"


# ---------------------------------------------------------------------------
# criterion 3


def test_criterion_3_monotonicity_suite():
    t0 = time.time()
    report = theory_checks(seed=7, n_monotonic=10_000, n_graft=10_000, n_coverage=10, overprune_trials=100)
    elapsed = time.time() - t0
    v1 = report["subset_monotonicity"]["violations"]
    v2 = report["graft_monotonicity"]["violations"]
    ok = v1 == 0 and v2 == 0 and elapsed < 120
    announce(
        3,
        "verification monotonicity",
        ok,
        f"10^4 subset pairs ({v1} violations), 10^4 graft additions ({v2} violations), {elapsed:.1f}s (< 120s)",
    )


# ---------------------------------------------------------------------------
# criterion 4


def test_criterion_4_coverage_gain():
    rng = np.random.default_rng(13)
    worst = 0.0
    violations = 0
    strict_cases = 0
    for _ in range(1000):
        v = int(rng.integers(4, 20))
        w = rng.gamma(1.0, 1.0, v)
        w[rng.random(v) < 0.3] = 0.0
        if w.sum() == 0:
            w[0] = 1.0
        p = w / w.sum()
        drafted = rng.choice(v, size=int(rng.integers(0, v)), replace=False).tolist()
        retrieved = rng.choice(v, size=int(rng.integers(0, v)), replace=False).tolist()
        gain = sg.coverage_gain(p, drafted, retrieved)
        oracle = float(sum(p[t] for t in set(retrieved) - set(drafted)))
        worst = max(worst, abs(gain - oracle))
        fresh_mass = [t for t in set(retrieved) - set(drafted) if p[t] > 0]
        if fresh_mass:
            strict_cases += 1
            if not gain > 0:
                violations += 1
        if gain < 0:
            violations += 1
    ok = worst <= 1e-12 and violations == 0 and strict_cases > 0
    announce(
        4,
        "coverage gain",
        ok,
        f"1000 random frontiers, max |gain - row-sum oracle| = {worst:.2e} (<= 1e-12), "
        f"{violations} sign violations, {strict_cases} strict cases",
    )


# ---------------------------------------------------------------------------
# criterion 5


def test_criterion_5_budget_conservation(lossless_data, frontier_data):
    oversize = [
        (m, s, r.max_tree_candidates)
        for m, s, r in lossless_data["reports"]
        if r.max_tree_candidates > 60
    ]
    for rows in (frontier_data["component"], frontier_data["sweep"]):
        for row in rows:
            if row["report"].max_tree_candidates > 60:
                oversize.append((row["variant"], row["seed"], row["report"].max_tree_candidates))
    cfg = PruneConfig()
    splits_ok = cfg.stage_budgets == {0: (8, 52), 1: (24, 36), 5: (40, 20)} and all(
        kd + kr == 60 for kd, kr in cfg.stage_budgets.values()
    )
    templates = builtin_templates()
    sizes_ok = {name: t.declared_size for name, t in templates.items()} == {
        "full": 80,
        "d0": 52,
        "d1": 36,
        "d5": 20,
    }
    counts_ok = all(tuple(t.depth_counts()) == TEMPLATE_DEPTH_COUNTS[name] for name, t in templates.items())
    from specgraft.cli import main as cli_main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli_main(["dump-templates"])
    dump = buf.getvalue()
    dump_ok = all(f"nodes={n}" in dump for n in (80, 52, 36, 20)) and "8+10+8+6+5+4+4+4+3" in dump
    ok = not oversize and splits_ok and sizes_ok and counts_ok and dump_ok
    announce(
        5,
        "budget conservation",
        ok,
        f"max verified tree <= 60 across criteria 1-4 runs ({len(oversize)} oversize), "
        f"stage splits (8,52)/(24,36)/(40,20) sum to 60, template dump matches the shipped table",
    )


# ---------------------------------------------------------------------------
# criteria 6 + 7 shared fixture: repetitive-corpus frontier runs


def repetitive_text(seed=11, size=50_000, n_phrases=120):
    """Deterministic ~50 KB text: a fixed phrase inventory sampled with heavy
    repetition; each phrase owns its words, so local transitions recur."""
    rng = np.random.default_rng(seed)
    syllables = ["ka", "lo", "ve", "ri", "ta", "mu", "se", "no", "pa", "di",
                 "ru", "fe", "go", "li", "za", "me", "tu", "ba", "ne", "so"]
    pool = []
    for a, b in itertools.product(syllables, syllables):
        pool.append(a + b)
        pool.append(a + b[0] + a)
    pool = list(dict.fromkeys(pool))
    rng.shuffle(pool)
    at = 0
    phrases = []
    for i in range(n_phrases):
        n = 4 + i % 4
        phrases.append(" ".join(pool[at:at + n]))
        at += n
    parts, n = [], 0
    while n < size:
        sent = phrases[int(rng.integers(n_phrases))] + " . "
        parts.append(sent)
        n += len(sent)
    return "".join(parts)


@pytest.fixture(scope="module")
def frontier_data():
    t0 = time.time()
    text = repetitive_text()
    assert len(text) >= 50_000
    tokens, vocab = tokenize_whitespace(text)
    target = train_ngram(vocab, tokens, order=2, smoothing=0.05)
    draft = derive_draft(target, DraftDerivation("uniform-mix", 0.4))
    cost = sg.CostModel()  # default cost model per the criterion

    warm_cfg = DecodeConfig(method="graft", max_new_tokens=96, cost=cost)
    warm_prompts = derive_prompts(tokens, vocab, count=8, length=24, seed=999)
    matrix = new_matrix(vocab.size, 10)
    warmup(matrix, target, draft, warm_prompts, rounds=5, config=warm_cfg)

    grid = {d: [0.02, 0.1, 0.3, 0.6, 0.9] for d in (0, 1, 5)}
    cal = calibrate(target, draft, matrix, [p[:24] for p in warm_prompts[:2]], grid, warm_cfg)
    prune = replace(PruneConfig(), thresholds=cal.thresholds)

    seeds = list(range(30))
    prompts = dict(zip(seeds, derive_prompts(tokens, vocab, count=30, length=8, seed=1234)))

    component = []
    base = DecodeConfig(method="graft", max_new_tokens=192, prune=prune, cost=cost)
    for method in ("graft", "prune_only", "fixed_split", "dense"):
        for s in seeds:
            cfg = replace(base, method=method, seed=s)
            _, report = decode_session(cfg, target, draft, matrix.copy(), prompts[s])
            component.append({"variant": method, "seed": s, "report": report})

    # warm-up sweep: short held-out sessions so the cold-start window is
    # what gets measured; updates stay on (the production pipeline)
    sweep = []
    sweep_prompts = dict(zip(seeds, derive_prompts(tokens, vocab, count=30, length=6, seed=4321)))
    for rounds in (0, 1, 5):
        m0 = new_matrix(vocab.size, 10)
        if rounds:
            warmup(m0, target, draft, warm_prompts, rounds=rounds, config=warm_cfg)
        for s in seeds:
            cfg = replace(base, method="graft", seed=s, max_new_tokens=48)
            _, report = decode_session(cfg, target, draft, m0.copy(), sweep_prompts[s])
            sweep.append({"variant": f"K={rounds}", "rounds": rounds, "seed": s, "report": report})

    return {
        "component": component,
        "sweep": sweep,
        "thresholds": cal.thresholds,
        "cost": cost,
        "elapsed": time.time() - t0,
    }


def _means(rows, variant):
    mats = [r["report"].mat for r in rows if r["variant"] == variant]
    proxies = [r["report"].speedup_proxy for r in rows if r["variant"] == variant]
    return float(np.mean(mats)), float(np.mean(proxies))


def _paired_effect(rows, a, b, field):
    xa = {r["seed"]: getattr(r["report"], field) for r in rows if r["variant"] == a}
    xb = {r["seed"]: getattr(r["report"], field) for r in rows if r["variant"] == b}
    diffs = np.array([xa[s] - xb[s] for s in xa])
    return float(diffs.mean()), float(diffs.std())


def test_criterion_6_frontier_reproduction(frontier_data):
    rows = frontier_data["component"]
    mat_g, proxy_g = _means(rows, "graft")
    mat_p, proxy_p = _means(rows, "prune_only")
    mat_d, proxy_d = _means(rows, "dense")
    d_pp, s_pp = _paired_effect(rows, "graft", "prune_only", "speedup_proxy")
    d_pd, s_pd = _paired_effect(rows, "graft", "dense", "speedup_proxy")
    d_mp, s_mp = _paired_effect(rows, "graft", "prune_only", "mat")
    ok = (
        proxy_g >= proxy_p
        and proxy_g >= proxy_d
        and mat_g >= mat_p
        and frontier_data["elapsed"] < 600
    )
    announce(
        6,
        "frontier reproduction",
        ok,
        f"30 paired seeds on the repetitive corpus: proxy graft {proxy_g:.3f} >= prune_only {proxy_p:.3f} "
        f"(effect {d_pp:+.3f}±{s_pp:.3f}) and >= dense {proxy_d:.3f} (effect {d_pd:+.3f}±{s_pd:.3f}); "
        f"mat graft {mat_g:.3f} >= prune_only {mat_p:.3f} (effect {d_mp:+.3f}±{s_mp:.3f}); "
        f"{frontier_data['elapsed']:.0f}s (< 600s)",
    )


def test_criterion_7_component_shape_and_warmup(frontier_data):
    rows = frontier_data["component"]
    _, proxy_g = _means(rows, "graft")
    _, proxy_wo_ret = _means(rows, "prune_only")
    _, proxy_wo_prune = _means(rows, "fixed_split")
    sweep = frontier_data["sweep"]
    stats = {}
    for rounds in (0, 1, 5):
        stats[rounds] = _means(sweep, f"K={rounds}")
    component_ok = proxy_g >= proxy_wo_ret and proxy_g >= proxy_wo_prune
    warm_ok = (
        stats[0][0] <= stats[1][0] <= stats[5][0]
        and stats[0][1] <= stats[1][1] <= stats[5][1]
    )
    ok = component_ok and warm_ok
    announce(
        7,
        "component ablation shape",
        ok,
        f"proxy graft {proxy_g:.3f} >= w/o-retrieval {proxy_wo_ret:.3f} and >= w/o-prune {proxy_wo_prune:.3f}; "
        f"warm-up K=0/1/5 mat {stats[0][0]:.3f}/{stats[1][0]:.3f}/{stats[5][0]:.3f} and "
        f"proxy {stats[0][1]:.3f}/{stats[1][1]:.3f}/{stats[5][1]:.3f} non-decreasing",
    )


# ---------------------------------------------------------------------------
# criterion 8


def test_criterion_8_overpruning_compounding():
    report = theory_checks(seed=21, n_monotonic=1, n_graft=1, n_coverage=1, overprune_trials=100_000)
    comp = report["overprune_compounding"]
    predicted = 1 - 0.9**3
    ok = abs(comp["measured"] - predicted) <= 0.01 and comp["trials"] == 100_000
    announce(
        8,
        "over-pruning compounding",
        ok,
        f"synthetic eps=(0.1,0.1,0.1): measured {comp['measured']:.4f} vs 1-0.9^3 = {predicted:.4f} "
        f"(|diff| = {abs(comp['measured'] - predicted):.4f} <= 0.01) at 1e5 trials",
    )


# ---------------------------------------------------------------------------
# criterion 9


def _recompute_proxy(report, cost):
    tokens = sum(len(s["emitted"]) for s in report.steps)
    total = sum(s["cost"] for s in report.steps)
    return cost.t_ar * tokens / total


def test_criterion_9_proxy_algebra(lossless_data, frontier_data):
    cost = DecodeConfig().cost
    worst = 0.0
    checked = 0
    for _, _, report in lossless_data["reports"]:
        worst = max(worst, abs(_recompute_proxy(report, cost) - report.speedup_proxy))
        checked += 1
    rows = frontier_data["component"]
    dense_by_seed = {r["seed"]: r["report"] for r in rows if r["variant"] == "dense"}
    for row in rows:
        report = row["report"]
        worst = max(worst, abs(_recompute_proxy(report, frontier_data["cost"]) - report.speedup_proxy))
        checked += 1
        dense = dense_by_seed[row["seed"]]
        ratio = report.speedup_proxy / dense.speedup_proxy
        mat_ratio = report.mat / dense.mat
        cost_ratio = (dense.cost_total / dense.steps_count) / (report.cost_total / report.steps_count)
        worst = max(worst, abs(ratio - mat_ratio * cost_ratio))
    ok = worst <= 1e-9
    announce(
        9,
        "speedup-proxy algebra",
        ok,
        f"{checked} runs: max |recomputed - reported| and |ratio - decomposition| = {worst:.2e} (<= 1e-9)",
    )

"""Benchmark the numba-jitted kernels against their pure-numpy fallbacks.

Usage: python3 benchmarks/bench_kernels.py [--trials 200000]
"""

import argparse
import time

import numpy as np

from specgraft import _kernels as K

if not K.NUMBA_ENABLED:
    raise SystemExit("numba path unavailable (SPECGRAFT_NUMBA=0 or numba missing); nothing to compare")


def timeit(fn, repeat):
    fn()  # warm any jit compile
    t0 = time.perf_counter()
    for _ in range(repeat):
        fn()
    return (time.perf_counter() - t0) / repeat


def bench_ancestor_mask(rows):
    rng = np.random.default_rng(0)
    n = 61
    parents = np.full(n, -1, dtype=np.int32)
    for i in range(1, n):
        parents[i] = rng.integers(0, i)
    a = timeit(lambda: K.ancestor_mask_nb(parents), rows)
    b = timeit(lambda: K.ancestor_mask_np(parents), rows)
    assert np.array_equal(K.ancestor_mask_nb(parents), K.ancestor_mask_np(parents))
    return "ancestor_mask (n=61)", a, b


def bench_trials(n_trials):
    tokens = np.array([0, 1, 3, 2, 1], dtype=np.int32)
    ptr = np.array([0, 2, 3, 3, 4, 4], dtype=np.int32)
    idx = np.array([1, 2, 3, 4], dtype=np.int32)
    rng = np.random.default_rng(2)
    dists = rng.dirichlet(np.ones(6), size=5)
    uniforms = rng.random((n_trials, 6))
    a_counts = K.stochastic_trials_nb(tokens, ptr, idx, dists, uniforms)
    b_counts = K.stochastic_trials_np(tokens, ptr, idx, dists, uniforms)
    assert np.array_equal(a_counts, b_counts)
    a = timeit(lambda: K.stochastic_trials_nb(tokens, ptr, idx, dists, uniforms), 3)
    b = timeit(lambda: K.stochastic_trials_np(tokens, ptr, idx, dists, uniforms), 1)
    return f"stochastic_trials ({n_trials} walks)", a, b


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=200_000, help="walks for the stochastic batch")
    args = ap.parse_args()

    results = [bench_ancestor_mask(2000), bench_trials(args.trials)]
    print(f"{'kernel':<36} {'numba':>12} {'numpy':>12} {'speedup':>9}")
    for name, a, b in results:
        print(f"{name:<36} {a * 1e6:>10.1f}us {b * 1e6:>10.1f}us {b / a:>8.1f}x")


if __name__ == "__main__":
    main()

"""The benchmark's workloads: owned inputs, timed loop, correctness gates.

Every workload is a closed loop in one process: the next session (or audit
call) starts only when the previous one has returned. Inputs come from the
benchmark's own files under ``perfbench/`` and from the workload seed; the
shipped ``configs/`` are never read. See README.md for why each workload
exists and which layers it stresses.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from host import HostMeter
from specgraft import engine, hybrid, retrieval, verify
from specgraft.config import derive_prompts, load_run_config

BYTE_NGRAM = "perfbench/configs/byte_ngram.yaml"
MARKOV64 = "perfbench/configs/markov64.yaml"
CORPUS = "perfbench/data/sample_corpus.txt"
CORPUS_SHA256 = "265e65b9482b5aa697f123e34d25d6e123782c756bbe50433b8206689311acc8"

# A walk count's empirical first-token share may stray this many standard
# errors from the exact target row before the audit counts it as a failure.
AUDIT_SIGMAS = 6.0


def _check_corpus() -> None:
    with open(CORPUS, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    if digest != CORPUS_SHA256:
        raise SystemExit(f"{CORPUS} changed (sha256 {digest}); the workloads would move")


class StepClock:
    """``tree_observer`` hook: the gap between consecutive calls is one step.

    It also probes the host when one is due (see host.py); the probe's time
    is kept in ``paused_ns`` and left out of every gap.
    """

    def __init__(self, meter):
        self.meter = meter
        self.stamps: list[int] = []  # call times less the probe time before them
        self.ends: list[float] = []  # call times as measured, in seconds
        self.paused_ns = 0

    def __call__(self, step, tree) -> None:
        now = time.perf_counter_ns()
        self.stamps.append(now - self.paused_ns)
        self.ends.append(now / 1e9)
        if self.meter.due():
            self.meter.sample()
            self.paused_ns += time.perf_counter_ns() - now

    def gaps_us(self) -> list[float]:
        s = self.stamps
        return [(b - a) / 1e3 for a, b in zip(s, s[1:])]


STEP_FIELDS = ("tree_candidates", "n_retrieved", "accepted_len", "declared", "realized")


@dataclass
class Session:
    """One session's output and step gaps, with its report reduced to sums so
    that memory does not grow with the number of sessions a window holds."""

    prompt: list[int]
    tokens: list[int]
    step_us: list[float]
    step_end: list[float]  # when each step gap ended, in perf_counter seconds
    seed: int
    steps: int
    sums: dict[str, int]

    @classmethod
    def of(cls, prompt, tokens, report: engine.DecodeReport, seed: int, clock: StepClock) -> "Session":
        sums = {key: sum(r.get(key, 0) for r in report.steps) for key in STEP_FIELDS}
        return cls(list(prompt), list(tokens), clock.gaps_us(), clock.ends[1:], seed, report.steps_count, sums)


@dataclass
class Unit:
    """One timed unit of work: a session or an audit call."""

    start: float
    seconds: float
    step_us: list[float]  # latency samples taken inside it, as measured
    tokens: int
    steps: int
    walks: int = 0
    paused_s: float = 0.0  # host probes run inside the unit, left out of ``seconds``
    step_end: list[float] = field(default_factory=list)  # per sample, if known
    factor: float = 1.0  # host normalization of ``seconds``, see host.py
    step_factor: list[float] = field(default_factory=list)  # per sample, if it has end times

    def normalize(self, meter) -> None:
        """Samples with known end times get their own factor, and the unit
        the gap-weighted mean of those; otherwise one factor for all."""
        if self.step_end:
            self.step_factor = [meter.factor(end - g / 1e6, g / 1e6) for g, end in zip(self.step_us, self.step_end)]
            self.factor = sum(f * g for f, g in zip(self.step_factor, self.step_us)) / sum(self.step_us)
        else:
            self.factor = meter.factor(self.start, self.seconds)

    def scaled_steps(self) -> list[float]:
        """Latency samples times their host factors."""
        factors = self.step_factor or [self.factor] * len(self.step_us)
        return [g * f for g, f in zip(self.step_us, factors)]


@dataclass
class Window:
    """What one timed window produced."""

    units: list[Unit] = field(default_factory=list)
    sessions: list[Session] = field(default_factory=list)
    audit_counts: dict[int, np.ndarray] = field(default_factory=dict)
    wall_s: float = 0.0  # measured seconds inside the units

    def add(self, unit: Unit) -> None:
        self.units.append(unit)
        self.wall_s += unit.seconds

    def add_session(self, start: float, seconds: float, session: Session, paused_s: float = 0.0) -> None:
        self.sessions.append(session)
        self.add(Unit(start, seconds, session.step_us, len(session.tokens), session.steps, 0, paused_s, session.step_end))

    def normalize(self, meter) -> None:
        for u in self.units:
            u.normalize(meter)

    @property
    def norm_s(self) -> float:
        return sum(u.seconds * u.factor for u in self.units)

    @property
    def tokens(self) -> int:
        return sum(u.tokens for u in self.units)

    @property
    def steps(self) -> int:
        return sum(u.steps for u in self.units)

    @property
    def walks(self) -> int:
        return sum(u.walks for u in self.units)

    def step_us(self, normalized: bool = True) -> list[float]:
        return [g for u in self.units for g in (u.scaled_steps() if normalized else u.step_us)]


def _load(path: str) -> tuple[object, retrieval.TransitionMatrix, dict]:
    """Config build plus warm-up, timed separately."""
    t0 = time.perf_counter()
    run = load_run_config(path)
    t1 = time.perf_counter()
    matrix = retrieval.new_matrix(run.vocab.size, run.matrix_k)
    retrieval.warmup(matrix, run.target, run.draft, run.warmup_prompts, run.warmup_rounds, config=run.decode)
    t2 = time.perf_counter()
    return run, matrix, {"config.load_run_config_s": t1 - t0, "retrieval.warmup_s": t2 - t1}


def greedy_oracle(target, prompt: list[int], n: int) -> list[int]:
    """Autoregressive argmax over the target rows (ties to the lowest id)."""
    seq = list(prompt)
    for _ in range(n):
        seq.append(int(np.argmax(target.next_distribution(seq))))
    return seq[len(prompt):]


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> dict:
        raise NotImplementedError

    def measure(self, seconds: float, meter) -> Window:
        """Run units of work until ``seconds`` are used up, probing the host
        between units (see host.py)."""
        raise NotImplementedError

    def check(self, window: Window) -> tuple[int, list[str]]:
        """(operations attempted, failure messages)."""
        raise NotImplementedError

    def tokens_per_step(self, window: Window) -> float:
        return window.tokens / window.steps


class _Decode(Workload):
    """Sessions one after another from a warmed matrix, step gaps observed."""

    config_path = ""
    new_tokens = 0

    def setup(self) -> dict:
        self.run, self.matrix, parts = _load(self.config_path)
        self.config = replace(self.run.decode, max_new_tokens=self.new_tokens)
        return parts

    def session_inputs(self, i: int) -> tuple[list[int], int]:
        raise NotImplementedError

    def run_session(self, i: int, meter) -> tuple[Session, float, float]:
        """Session ``i``, the seconds spent inside ``decode_session`` with host
        probes excluded, and the seconds those probes took."""
        prompt, seed = self.session_inputs(i)
        config = replace(self.config, seed=seed)
        matrix = self.matrix.copy()
        clock = StepClock(meter)
        t0 = time.perf_counter()
        tokens, report = engine.decode_session(config, self.run.target, self.run.draft, matrix, prompt, tree_observer=clock)
        paused = clock.paused_ns / 1e9
        elapsed = time.perf_counter() - t0 - paused
        return Session.of(prompt, tokens, report, seed, clock), elapsed, paused

    def measure(self, seconds: float, meter) -> Window:
        window = Window()
        while window.wall_s < seconds:
            meter.maybe_sample()
            start = time.perf_counter()
            session, elapsed, paused = self.run_session(len(window.sessions), meter)
            window.add_session(start, elapsed, session, paused)
        meter.sample()
        window.normalize(meter)
        return window


class GraftGreedyLong(_Decode):
    name = "graft-greedy-long"
    config_path = BYTE_NGRAM
    new_tokens = 4000
    n_prompts = 8

    def setup(self) -> dict:
        _check_corpus()
        parts = super().setup()
        self.prompts = derive_prompts(self.run.corpus_tokens, self.run.vocab, self.n_prompts, 32, seed=self.seed)
        self._oracle: dict[tuple[int, ...], list[int]] = {}
        return parts

    def session_inputs(self, i: int) -> tuple[list[int], int]:
        return self.prompts[i % self.n_prompts], 0

    def check(self, window: Window) -> tuple[int, list[str]]:
        failures = []
        for i, s in enumerate(window.sessions):
            key = tuple(s.prompt)
            if key not in self._oracle:
                self._oracle[key] = greedy_oracle(self.run.target, s.prompt, self.new_tokens)
            if s.tokens != self._oracle[key][: len(s.tokens)] or len(s.tokens) != self.new_tokens:
                failures.append(f"session {i}: greedy output differs from the argmax oracle")
        return len(window.sessions), failures


class DenseStochasticWide(_Decode):
    name = "dense-stochastic-wide"
    config_path = MARKOV64
    new_tokens = 150
    prompt_len = 8

    def session_inputs(self, i: int) -> tuple[list[int], int]:
        rng = np.random.default_rng([self.seed, i])
        prompt = [int(t) for t in rng.integers(0, self.run.vocab.size, size=self.prompt_len)]
        return prompt, int(rng.integers(0, 2**31))

    def check(self, window: Window) -> tuple[int, list[str]]:
        target = self.run.target
        failures = []
        for i, s in enumerate(window.sessions):
            seq = list(s.prompt)
            for t in s.tokens:
                if not target.next_distribution(seq)[t] > 0.0:
                    failures.append(f"session {i}: token {t} has zero target probability")
                    break
                seq.append(t)
            if len(s.tokens) != self.new_tokens:
                failures.append(f"session {i}: {len(s.tokens)} tokens, wanted {self.new_tokens}")
        again, _, _ = self.run_session(0, HostMeter())
        if window.sessions and again.tokens != window.sessions[0].tokens:
            failures.append("session 0 is not reproducible from its seed")
        return len(window.sessions), failures

    def digest(self, window: Window, n: int = 8) -> str:
        """sha256 over the first ``n`` sessions' outputs, fixed by the seed."""
        h = hashlib.sha256()
        for s in window.sessions[:n]:
            h.update(np.asarray(s.tokens, dtype=np.int32).tobytes())
        return h.hexdigest()


@dataclass
class AuditTree:
    prefix: list[int]
    package: hybrid.VerificationPackage
    root_row: np.ndarray


class AuditWalks(Workload):
    name = "audit-walks"
    n_capture = 2
    trees_per_session = 4
    min_nodes = 53
    walks_per_call = 500

    def setup(self) -> dict:
        run, matrix, parts = _load(MARKOV64)
        config = replace(run.decode, method="graft", acceptance="stochastic")
        rng = np.random.default_rng([self.seed, 0xA0D17])
        self.run = run
        self.trees: list[AuditTree] = []
        tokens = steps = 0
        for _ in range(self.n_capture):
            prompt = [int(t) for t in rng.integers(0, run.vocab.size, size=8)]
            captured = []
            _, report = engine.decode_session(
                replace(config, seed=int(rng.integers(0, 2**31))),
                run.target,
                run.draft,
                matrix.copy(),
                prompt,
                tree_observer=lambda step, hy: captured.append((step, hy)),
            )
            tokens += report.tokens_emitted
            steps += report.steps_count
            big = [(step, hy) for step, hy in captured if hy.n_nodes >= self.min_nodes]
            picks = np.linspace(0, len(big) - 1, self.trees_per_session).round().astype(int)
            for j in picks:
                step, hy = big[j]
                prefix = list(prompt)
                for record in report.steps[:step]:
                    prefix.extend(record["emitted"])
                package = hybrid.flatten(hy, len(prefix) - 1)
                self.trees.append(AuditTree(prefix, package, np.array(run.target.next_distribution(prefix))))
        self.capture_mat = tokens / steps
        return parts

    def measure(self, seconds: float, meter) -> Window:
        window = Window()
        target = self.run.target
        while window.wall_s < seconds:
            meter.maybe_sample()
            call = len(window.units)
            k = call % len(self.trees)
            tree = self.trees[k]
            t0 = time.perf_counter()
            counts = verify.first_token_frequencies(
                target, tree.prefix, tree.package, self.walks_per_call, seed=self.seed * 1_000_003 + call
            )
            elapsed = time.perf_counter() - t0
            # every walk decides one first token
            window.add(Unit(t0, elapsed, [elapsed * 1e6], self.walks_per_call, 0, self.walks_per_call))
            window.audit_counts[k] = window.audit_counts.get(k, 0) + np.asarray(counts)
        meter.sample()
        window.normalize(meter)
        return window

    def check(self, window: Window) -> tuple[int, list[str]]:
        failures = []
        for k, counts in sorted(window.audit_counts.items()):
            p = self.trees[k].root_row
            n = int(counts.sum())
            calls = len(range(k, len(window.units), len(self.trees)))
            if n != calls * self.walks_per_call:
                failures.append(f"tree {k}: {n} first tokens counted over {calls} calls")
                continue
            freq = counts / n
            slack = AUDIT_SIGMAS * np.sqrt(p * (1.0 - p) / n) + 1.0 / n
            bad = np.flatnonzero((np.abs(freq - p) > slack) | ((p == 0.0) & (counts > 0)))
            if bad.size:
                t = int(bad[0])
                failures.append(f"tree {k}: token {t} drawn {freq[t]:.5f} vs target {p[t]:.5f} over {n} walks")
        return len(window.audit_counts), failures

    def tokens_per_step(self, window: Window) -> float:
        return self.capture_mat


WORKLOADS = {w.name: w for w in (GraftGreedyLong, DenseStochasticWide, AuditWalks)}

"""The benchmark's tracer still finds every layer its CI gates read.

``perfbench/tracer.py`` rebinds each traced function by name across the
package, and skips a layer it cannot find, so a traced call that is inlined
or bound under another name reads 0 calls rather than failing. This runs a
short graft decode, a dense stochastic decode and one exactness-audit call
under the tracer and checks that each such span was entered, and that the
dense decode by itself enters its envelope and its tree build.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import specgraft
from specgraft import engine, retrieval, verify
from specgraft.config import load_run_config

ROOT = Path(__file__).resolve().parent.parent
SPANS = (
    "drafttree.resolve_stage",
    "drafttree.select_retained",
    "retrieval.instantiate",
    "hybrid.build",
    "verify.greedy",
    "verify.stochastic",
    "engine.build_next_tree",
    "_kernels.stochastic_trials",
)


def _tracer_class(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module.Tracer


def _traced_calls(tracer_class, *runs) -> dict[str, int]:
    """Calls per span while ``runs`` run, in order, under a fresh tracer."""
    tracer = tracer_class(specgraft)
    tracer.install()
    try:
        for run in runs:
            run()
    finally:
        tracer.remove()
    assert not hasattr(engine.build_next_tree, "__wrapped__")  # the original bindings are back
    return {name: span.calls for name, span in tracer.spans().items()}


def test_tracer_finds_every_gated_span(monkeypatch):
    run = load_run_config(str(ROOT / "configs" / "quickstart.yaml"))
    matrix = retrieval.new_matrix(run.vocab.size, run.matrix_k)
    retrieval.warmup(matrix, run.target, run.draft, run.warmup_prompts, 1, config=run.decode)
    tracer_class = _tracer_class(monkeypatch)

    def session(method, acceptance):
        config = replace(run.decode, method=method, acceptance=acceptance, max_new_tokens=30)
        return lambda: engine.decode_session(config, run.target, run.draft, matrix.copy(), run.prompt)

    def audit():
        tree = engine.build_next_tree(replace(run.decode, method="dense"), run.draft, matrix, run.prompt)[0]
        verify.first_token_frequencies(run.target, run.prompt, tree, 64, seed=0)

    calls = _traced_calls(tracer_class, session("graft", "greedy"), session("dense", "stochastic"), audit)
    assert [name for name in SPANS if not calls.get(name)] == []
    # a dense step drafts through resolve_stage and builds through merge, as a graft step does
    calls = _traced_calls(tracer_class, session("dense", "stochastic"))
    assert [name for name in ("drafttree.resolve_stage", "hybrid.build") if not calls.get(name)] == []

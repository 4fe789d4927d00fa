"""Command-line surface: decode, ablation, calibrate, theory, dump-templates, matrix.

Reports are byte-for-byte reproducible for identical configs and seeds;
timestamps only appear behind ``--timestamps``. The overrides
``--method`` and ``--seed`` win over file values and are echoed into
every report; ``--matrix-out`` and ``--dump-trees`` are output paths and
are not echoed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from datetime import datetime, timezone
from importlib import resources

import jsonschema

from .config import RunConfig, check_prompt_set, derive_prompts, load_run_config
from .drafttree import stage_label
from .engine import (
    ABLATION_SUITES,
    AblationFixture,
    calibrate,
    decode_session,
    run_ablation,
    run_row,
    theory_checks,
)
from .errors import AnalysisError, InputError, SpecGraftError, StructureError
from .hybrid import render_tree
from .retrieval import (
    TEMPLATE_DEPTH_COUNTS,
    builtin_templates,
    load_matrix,
    new_matrix,
    save_matrix,
    storage_bytes,
    touched_bytes,
    warmup,
)

OUT_DIR_ENV = "SPECGRAFT_OUT_DIR"


def _schema() -> dict:
    with resources.files("specgraft.schemas").joinpath("report.schema.json").open("r") as fh:
        return json.load(fh)


def _out_path(args, path: str) -> str:
    if os.path.isabs(path):
        return path
    out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV, "runs")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, path)


def _command_name(configured: str | None, default_name: str) -> str:
    """Report name for a command other than ``decode``.

    The configured ``output.json``/``output.csv`` names the ``decode``
    report; other commands insert their default name before its extension,
    so ``quickstart.json`` becomes ``quickstart.ablation_component.json``.
    """
    if not configured:
        return default_name
    return f"{os.path.splitext(configured)[0]}.{default_name}"


def _write_report(args, path: str, command: str, config: dict, runs: list[dict], **sections) -> None:
    """Write the ``command``'s report document: its config, the flag
    overrides, its run rows and any further top-level ``sections``."""
    document = {
        "schema": "specgraft-report-v1",
        "command": command,
        "config": config,
        "overrides": _overrides(args),
        "runs": runs,
        **sections,
        "generated_at": datetime.now(timezone.utc).isoformat() if args.timestamps else None,
    }
    jsonschema.validate(document, _schema())
    try:
        text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # an inf or NaN, say a speedup proxy overflowed by a huge cost
        raise AnalysisError(f"{path}: the report would hold a non-finite number, which JSON cannot store") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _csv_row(row: dict, stages: list[str]) -> dict:
    rep = row["report"]

    def fixed(key: str) -> str:  # six decimals, or empty for an absent metric
        return "" if rep[key] is None else f"{rep[key]:.6f}"

    return {
        "suite": row["suite"] or "",
        "variant": row["variant"] or "",
        "method": row["method"],
        "seed": row["seed"],
        "acceptance": row["acceptance"],
        "warmup_rounds": row["warmup_rounds"],
        "steps": rep["steps_count"],
        "tokens": rep["tokens_emitted"],
        "mat": fixed("mat"),
        "cost_total": fixed("cost_total"),
        "speedup_proxy": fixed("speedup_proxy"),
        **{f"stage_{stage}": rep["stage_histogram"].get(stage, 0) for stage in stages},
        "fill_ratio": fixed("realized_retrieval_fill"),
        "regret": fixed("regret_estimate"),
        "coverage_gain_mean": fixed("coverage_gain_mean"),
    }


def _write_csv(path: str, rows: list[dict], checkpoints: tuple[int, ...]) -> None:
    """One line per run, under a header of the first line's keys; the stage
    columns are the run's ``checkpoints`` and ``none``."""
    stages = [stage_label(d) for d in checkpoints] + [stage_label(None)]
    lines = [_csv_row(row, stages) for row in rows]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(lines[0]))
        writer.writeheader()
        writer.writerows(lines)


def _overrides(args) -> dict:
    out = {}
    if args.method is not None:
        out["method"] = args.method
    if args.seed is not None:
        out["seed"] = args.seed
    return out


def _load(args) -> RunConfig:
    if not args.config:
        raise SpecGraftError("--config is required for this command")
    return load_run_config(args.config, overrides=_overrides(args))


def _prepared_matrix(run: RunConfig):
    if run.matrix_load:
        matrix = load_matrix(run.matrix_load)
        if matrix.vocab_size != run.vocab.size:
            raise StructureError(
                f"{run.matrix_load}: snapshot vocab={matrix.vocab_size}, but the config's vocab is {run.vocab.size}"
            )
        if matrix.k != min(run.matrix_k, run.vocab.size):  # new_matrix clamps k to the vocab
            raise StructureError(
                f"{run.matrix_load}: snapshot k={matrix.k}, but the config's matrix.k is {run.matrix_k}"
            )
    else:
        matrix = new_matrix(run.vocab.size, run.matrix_k)
        warmup(matrix, run.target, run.draft, run.warmup_prompts, run.warmup_rounds, config=run.decode)
    return matrix


# ---------------------------------------------------------------------------
# commands


def cmd_decode(args) -> int:
    run = _load(args)
    matrix = _prepared_matrix(run)
    dump_path = args.dump_trees or run.dump_trees
    rendered = []
    observer = (lambda step, hy: rendered.append(render_tree(hy, run.vocab))) if dump_path else None
    _, report = decode_session(run.decode, run.target, run.draft, matrix, run.prompt, tree_observer=observer)
    if dump_path:
        with open(_out_path(args, dump_path), "w", encoding="utf-8") as fh:
            for i, text in enumerate(rendered):
                fh.write(f"# step {i}\n{text}\n\n")

    if args.matrix_out or run.matrix_save:
        save_matrix(_out_path(args, args.matrix_out or run.matrix_save), matrix)

    row = run_row(report, run.decode, run.warmup_rounds)
    _write_report(args, _out_path(args, run.output_json or "decode.json"), "decode", run.raw, [row])
    _write_csv(_out_path(args, run.output_csv or "decode.csv"), [row], run.decode.prune.checkpoints)
    print(f"method={run.decode.method} mat={report.mat:.3f} proxy={report.speedup_proxy:.3f}")
    return 0


def _ablation_fixture(run: RunConfig) -> AblationFixture:
    count, length = run.ablation_n_seeds, run.ablation_prompt_length
    check_prompt_set("ablation.n_seeds", "ablation.prompt_length", count, length)
    prompts = derive_prompts(run.corpus_tokens, run.vocab, count=count, length=length, seed=run.decode.seed ^ 0xAB1A)
    return AblationFixture(
        target=run.target,
        draft=run.draft,
        warmed_matrix=_prepared_matrix(run),
        prompts=dict(enumerate(prompts)),  # seeds 0 .. n_seeds - 1
        config=run.decode,
        warmup_prompts=run.warmup_prompts,
        warmup_rounds=run.warmup_rounds,
    )


def cmd_ablation(args) -> int:
    run = _load(args)
    rows = run_ablation(args.suite, _ablation_fixture(run))
    name = f"ablation_{args.suite}"
    _write_report(args, _out_path(args, _command_name(run.output_json, f"{name}.json")), "ablation", run.raw, rows)
    _write_csv(_out_path(args, _command_name(run.output_csv, f"{name}.csv")), rows, run.decode.prune.checkpoints)
    print(f"suite={args.suite} runs={len(rows)}")
    return 0


def cmd_calibrate(args) -> int:
    run = _load(args)
    matrix = _prepared_matrix(run)
    result = calibrate(run.target, run.draft, matrix, run.warmup_prompts, run.calibration_grid, run.decode)
    calibration = {
        "thresholds": {str(d): v for d, v in result.thresholds.items()},
        "objective_trace": [
            {"thresholds": {str(d): v for d, v in vec.items()}, "proxy": score} for vec, score in result.objective_trace
        ],
    }
    path = _out_path(args, _command_name(run.output_json, "calibrate.json"))
    _write_report(args, path, "calibrate", run.raw, [], calibration=calibration)
    print(" ".join(f"d{d}={v:.3f}" for d, v in sorted(result.thresholds.items())))
    return 0


def cmd_theory(args) -> int:
    if args.trials < 1:
        raise InputError(f"--trials must be >= 1, got {args.trials}")
    report = theory_checks(
        seed=args.seed if args.seed is not None else 0,
        n_monotonic=args.trials,
        n_graft=args.trials,
        n_coverage=max(args.trials // 10, 10),
    )
    _write_report(args, _out_path(args, args.out or "theory.json"), "theory", {}, [], theory=report)
    ok = (
        report["subset_monotonicity"]["violations"] == 0
        and report["graft_monotonicity"]["violations"] == 0
        and report["coverage_gain"]["negative"] == 0
        and report["coverage_gain"]["strict_violations"] == 0
    )
    print(f"theory checks {'pass' if ok else 'FAIL'}: {json.dumps(report, sort_keys=True)}")
    return 0 if ok else 1


def cmd_dump_templates(args) -> int:
    templates = builtin_templates()
    for name in ("full", "d0", "d1", "d5"):
        t = templates[name]
        counts = "+".join(str(c) for c in t.depth_counts())
        print(f"{name}: nodes={t.declared_size} depths={counts}")
        assert tuple(t.depth_counts()) == TEMPLATE_DEPTH_COUNTS[name]
        if args.full:
            for i, (parent, depth, rank) in enumerate(zip(t.parents.tolist(), t.depths.tolist(), t.ranks.tolist())):
                print(f"  {i:3d} parent={parent:3d} depth={depth} rank={rank} path={t.rank_path(i)}")
    return 0


def cmd_matrix(args) -> int:
    if args.action == "save":
        run = _load(args)
        matrix = _prepared_matrix(run)
        path = _out_path(args, args.path or run.matrix_save or "matrix.bin")
        save_matrix(path, matrix)
        print(f"saved {path} rows_touched={matrix.touched_rows()}")
        return 0
    if args.action == "load":
        if not args.path:
            raise InputError("matrix load needs --path")
        matrix = load_matrix(args.path)
        print(f"loaded vocab={matrix.vocab_size} k={matrix.k} rows_touched={matrix.touched_rows()}")
        return 0
    # stats
    matrix = load_matrix(args.path) if args.path else _prepared_matrix(_load(args))
    print(
        f"vocab={matrix.vocab_size} k={matrix.k} rows_touched={matrix.touched_rows()} "
        f"dense_bytes={storage_bytes(matrix)} touched_bytes={touched_bytes(matrix)}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="specgraft", description=__doc__)
    parser.add_argument("--config", help="run configuration file (YAML)")
    parser.add_argument("--seed", type=int, default=None, help="override decode seed")
    parser.add_argument("--out-dir", default=None, help=f"output directory (default ${OUT_DIR_ENV} or ./runs)")
    parser.add_argument("--method", default=None, help="override the decode method")
    parser.add_argument("--timestamps", action="store_true", help="stamp reports with generation time")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="run one decode session and write reports")
    p.add_argument("--matrix-out", default=None, help="save the post-session matrix snapshot")
    p.add_argument("--dump-trees", default=None, help="write a text rendering of each step's tree")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("ablation", help="run a paired ablation suite")
    p.add_argument("--suite", choices=ABLATION_SUITES, required=True)
    p.set_defaults(fn=cmd_ablation)

    p = sub.add_parser("calibrate", help="calibrate pruning thresholds on warm-up prompts")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("theory", help="run randomized property checks")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--out", default=None, help="report filename")
    p.set_defaults(fn=cmd_theory)

    p = sub.add_parser("dump-templates", help="print the builtin retrieval templates")
    p.add_argument("--full", action="store_true", help="also list every template node")
    p.set_defaults(fn=cmd_dump_templates)

    p = sub.add_parser("matrix", help="matrix snapshot save/load/stats")
    p.add_argument("action", choices=("save", "load", "stats"))
    p.add_argument("--path", default=None, help="snapshot path")
    p.set_defaults(fn=cmd_matrix)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise InputError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except (SpecGraftError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

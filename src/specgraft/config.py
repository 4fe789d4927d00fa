"""Run-configuration file loading with strict key and value validation.

Configs are YAML documents with fixed sections. Unknown keys are rejected,
every value must pass its key's rule (a null value counts as absent), and
every referenced file must exist at load time. The raw document is echoed
verbatim into every report for auditability.
"""

from __future__ import annotations

import math
import os
import reprlib
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np
import yaml

from .drafttree import PruneConfig
from .engine import CostModel, DecodeConfig
from .errors import ConfigError
from .models import (
    DraftDerivation,
    MarkovTableModel,
    VocabSpec,
    build_markov,
    derive_draft,
    load_corpus,
    tokenize_bytes,
    train_ngram,
)
from .retrieval import TEMPLATE_WIDTH

# Value rules. A rule takes the value's name (``section.key``) and the value,
# and returns the value as the program uses it or raises ConfigError naming it.


# YAML aliases nest without limit, so an offending value is shown two levels deep
_REPR = reprlib.Repr()
_REPR.maxlevel = 2
_REPR.maxlist = _REPR.maxtuple = _REPR.maxdict = _REPR.maxset = 6
_REPR.maxstring = _REPR.maxlong = _REPR.maxother = 80


def _bad(where: str, what: str, value) -> ConfigError:
    return ConfigError(f"{where} must be {what}, got {_REPR.repr(value)}")


def _int(minimum: int | None = None):
    def rule(where, value):
        if isinstance(value, bool) or not isinstance(value, int) or (minimum is not None and value < minimum):
            raise _bad(where, "an integer" if minimum is None else f"an integer >= {minimum}", value)
        return value

    return rule


def _number(where, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise _bad(where, "a finite number", value)
    return float(value)


def _of_type(kind, what: str):
    def rule(where, value):
        if not isinstance(value, kind):
            raise _bad(where, what, value)
        return value

    return rule


def _list(item, length: int | None = None, convert=list):
    def rule(where, value):
        if not isinstance(value, list) or (length is not None and len(value) != length):
            raise _bad(where, "a list" if length is None else f"a list of {length}", value)
        return convert(item(f"{where}[{i}]", v) for i, v in enumerate(value))

    return rule


def _such(item, test, what: str):
    """``item``'s rule, then ``test`` on the value it returns."""

    def rule(where, value):
        value = item(where, value)
        if not test(value):
            raise _bad(where, what, value)
        return value

    return rule


def _by_depth(item):
    depth = _int(0)

    def rule(where, value):
        if not isinstance(value, dict):
            raise _bad(where, "a mapping from depth to value", value)
        return {depth(f"{where} key", d): item(f"{where}[{d}]", v) for d, v in value.items()}

    return rule


def _fields(**rules):
    def rule(where, value):
        if not isinstance(value, dict) or not set(value) <= set(rules):
            raise _bad(where, f"a mapping with keys {', '.join(rules)}", value)
        return {k: rules[k](f"{where}.{k}", v) for k, v in value.items() if v is not None}

    return rule


_text = _of_type(str, "a string")
_flag = _of_type(bool, "true or false")
_tokens = _list(_int(0))
_pair = _list(_int(0), 2, tuple)
_prompt_text = _such(_text, len, "nonempty")
_prompt_tokens = _such(_tokens, len, "nonempty")
_fraction = _such(_number, lambda v: 0 < v < 1, "a number in (0, 1)")

_RULES = {
    "vocab": {"size": _int()},
    "target": {"kind": _text, "seed": _int(0), "order": _int(0), "sparsity": _number, "corpus": _text,
               "tokenizer": _text, "smoothing": _number},
    "draft": {"mode": _text, "strength": _number},
    "prune": {"checkpoints": _list(_int(), convert=tuple), "thresholds": _by_depth(_number),
              "stage_budgets": _by_depth(_pair), "total_budget": _int(), "top_k": _int(), "max_depth": _int(),
              "beam_width": _int()},
    "cost": dict.fromkeys((f.name for f in fields(CostModel)), _number),
    "decode": {"max_new_tokens": _int(), "acceptance": _text, "seed": _int(0), "prompt_text": _prompt_text,
               "prompt_tokens": _prompt_tokens, "end_token": _int(0), "updates_enabled": _flag, "prefill_update": _flag,
               "fixed_split": _pair, "root_branch_size": _int(), "tail_chain_len": _int()},
    "warmup": {"rounds": _int(0), "prompts_text": _such(_list(_prompt_text), len, "nonempty"),
               "prompts_tokens": _such(_list(_prompt_tokens), len, "nonempty"),
               "derive": _fields(count=_int(1), length=_int(1))},
    "matrix": {"k": _int(TEMPLATE_WIDTH), "load": _text, "save": _text},
    "calibration": {"grid": _by_depth(_such(_list(_fraction), len, "nonempty"))},
    "ablation": {"seeds": _such(_list(_int(0)), len, "nonempty"), "n_seeds": _int(1), "prompt_length": _int(1)},
    "output": {"json": _text, "csv": _text, "dump_trees": _text},
}
_TOP_KEYS = set(_RULES) | {"method"}

DEFAULT_CALIBRATION_GRID = [0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]
# ceiling on count x length of a derived prompt set, checked before it is built
MAX_PROMPT_TOKENS = 2**20


@dataclass
class RunConfig:
    raw: dict
    path: str
    vocab: VocabSpec
    target: MarkovTableModel
    draft: MarkovTableModel
    decode: DecodeConfig
    corpus_tokens: list[int] | None
    prompt: list[int]
    warmup_rounds: int
    warmup_prompts: list[list[int]]
    calibration_grid: dict[int, list[float]]
    ablation_seeds: Sequence[int]
    ablation_prompt_length: int
    matrix_k: int
    matrix_load: str | None
    matrix_save: str | None
    output_json: str | None
    output_csv: str | None
    dump_trees: str | None


def _checked_sections(doc: dict) -> dict[str, dict]:
    """Each section's non-null values, every one passed through its key's rule."""
    sections = {}
    for section, rules in _RULES.items():
        values = doc.get(section, {})
        if not isinstance(values, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        unknown = set(values) - set(rules)
        if unknown:
            raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown, key=str)}")
        sections[section] = {k: rules[k](f"{section}.{k}", v) for k, v in values.items() if v is not None}
    return sections


def _in_vocab(where: str, tokens: list[int], vocab: VocabSpec) -> list[int]:
    for t in tokens:
        if t >= vocab.size:
            raise ConfigError(f"{where} token {t} is out of range for vocab {vocab.size}")
    return tokens


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise ConfigError(f"{what} file does not exist: {path}")
    return path


def _build_models(sections: dict) -> tuple[VocabSpec, MarkovTableModel, list[int] | None, str]:
    cfg = sections["target"]
    kind = cfg.get("kind", "markov")
    tokenizer = cfg.get("tokenizer", "bytes")
    size = sections["vocab"].get("size")
    if kind == "markov":
        if size is None:
            raise ConfigError("markov targets need vocab.size")
        vocab = VocabSpec(size)
        target = build_markov(vocab, cfg.get("order", 1), cfg.get("seed", 0), cfg.get("sparsity", 0.0))
        return vocab, target, None, tokenizer
    if kind == "ngram":
        corpus_path = cfg.get("corpus")
        if corpus_path is None:
            raise ConfigError("ngram targets need target.corpus")
        _require_file(corpus_path, "corpus")
        tokens, vocab = load_corpus(corpus_path, tokenizer)
        if size is not None and size != vocab.size:
            raise ConfigError(f"vocab.size {size} != corpus-derived vocab {vocab.size}")
        target = train_ngram(vocab, tokens, cfg.get("order", 2), cfg.get("smoothing", 0.1))
        return vocab, target, tokens, tokenizer
    raise ConfigError(f"unknown target kind {kind!r}")


def _decode_prompt(decode_cfg: dict, tokenizer: str, vocab: VocabSpec, corpus: list[int] | None) -> list[int]:
    if "prompt_tokens" in decode_cfg:
        return _in_vocab("decode.prompt_tokens", decode_cfg["prompt_tokens"], vocab)
    if "prompt_text" in decode_cfg:
        if tokenizer != "bytes":
            raise ConfigError("prompt_text needs the byte tokenizer; use prompt_tokens")
        return _in_vocab("decode.prompt_text", tokenize_bytes(decode_cfg["prompt_text"]), vocab)
    if corpus:
        return corpus[: min(32, len(corpus) - 1)]
    return [0]


def check_prompt_set(count_key: str, length_key: str, count: int, length: int) -> None:
    """Reject a derived prompt set of more than ``MAX_PROMPT_TOKENS`` tokens."""
    if count * length > MAX_PROMPT_TOKENS:
        raise ConfigError(
            f"{count_key} x {length_key} must be <= {MAX_PROMPT_TOKENS} prompt tokens, got {count} x {length}"
        )


def derive_prompts(
    corpus: list[int] | None,
    vocab: VocabSpec,
    count: int,
    length: int,
    seed: int,
) -> list[list[int]]:
    """Seeded held-out prompts: corpus slices when available, random tokens otherwise."""
    rng = np.random.default_rng(seed)
    prompts = []
    for _ in range(count):
        if corpus and len(corpus) > length + 1:
            start = int(rng.integers(0, len(corpus) - length - 1))
            prompts.append([int(t) for t in corpus[start : start + length]])
        else:
            prompts.append([int(t) for t in rng.integers(0, vocab.size, size=length)])
    return prompts


def _warmup_prompts(warm: dict, tokenizer: str, vocab: VocabSpec, corpus: list[int] | None, seed: int) -> list[list[int]]:
    if "prompts_tokens" in warm:
        return [_in_vocab("warmup.prompts_tokens", p, vocab) for p in warm["prompts_tokens"]]
    if "prompts_text" in warm:
        if tokenizer != "bytes":
            raise ConfigError("warmup.prompts_text needs the byte tokenizer")
        return [_in_vocab("warmup.prompts_text", tokenize_bytes(p), vocab) for p in warm["prompts_text"]]
    derive = warm.get("derive", {})
    count = derive.get("count", max(3, warm.get("rounds", 0)))  # one fresh prompt per round
    length = derive.get("length", 64)
    count_key = "warmup.derive.count" if "count" in derive else "warmup.rounds"
    check_prompt_set(count_key, "warmup.derive.length", count, length)
    return derive_prompts(corpus, vocab, count, length, seed=seed ^ 0x5EED)


def load_run_config(path: str, overrides: dict | None = None) -> RunConfig:
    """Parse + validate a config file; ``overrides`` (CLI) win over the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {' '.join(str(exc).split())}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config root must be a mapping")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown, key=str)}")
    sections = _checked_sections(doc)
    method = _text("method", doc["method"]) if doc.get("method") is not None else "graft"

    overrides = overrides or {}
    unknown = set(overrides) - {"method", "seed"}
    if unknown:
        raise ConfigError(f"unknown override keys: {sorted(unknown, key=str)}; accepted: method, seed")
    vocab, target, corpus, tokenizer = _build_models(sections)
    draft_cfg = sections["draft"]
    draft = derive_draft(target, DraftDerivation(draft_cfg.get("mode", "uniform-mix"), draft_cfg.get("strength", 0.4)))
    prune = PruneConfig(**sections["prune"])
    cost = CostModel(**sections["cost"])

    decode_cfg, warm, matrix_cfg, ablation_cfg = (sections[s] for s in ("decode", "warmup", "matrix", "ablation"))
    seed = decode_cfg.get("seed", 0)
    if "seed" in overrides:
        seed = _RULES["decode"]["seed"]("decode.seed", overrides["seed"])
    if "method" in overrides:
        method = _text("method", overrides["method"])
    end_token = decode_cfg.get("end_token")
    if end_token is not None:
        _in_vocab("decode.end_token", [end_token], vocab)
    # a key the file leaves out takes DecodeConfig's default
    passed = ("acceptance", "updates_enabled", "prefill_update", "fixed_split", "root_branch_size", "tail_chain_len")
    decode = DecodeConfig(
        method=method,
        prune=prune,
        max_new_tokens=decode_cfg.get("max_new_tokens", 128),
        seed=seed,
        cost=cost,
        end_token=end_token,
        **{key: decode_cfg[key] for key in passed if key in decode_cfg},
    )

    grid = sections["calibration"].get("grid") or {d: list(DEFAULT_CALIBRATION_GRID) for d in prune.checkpoints}
    if set(grid) != set(prune.checkpoints):
        raise ConfigError(
            f"calibration.grid must have one key per prune checkpoint {list(prune.checkpoints)}, got {sorted(grid)}"
        )
    seeds = ablation_cfg.get("seeds")
    if seeds is None:
        seeds = range(ablation_cfg.get("n_seeds", 8))  # lazy: only ``ablation`` reads the seeds
    elif len(set(seeds)) < len(seeds):
        raise ConfigError(f"ablation.seeds must not repeat a seed, got {seeds}")

    matrix_load = matrix_cfg.get("load")
    if matrix_load:
        _require_file(matrix_load, "matrix snapshot")

    output_cfg = sections["output"]
    return RunConfig(
        raw=doc,
        path=path,
        vocab=vocab,
        target=target,
        draft=draft,
        decode=decode,
        corpus_tokens=corpus,
        prompt=_decode_prompt(decode_cfg, tokenizer, vocab, corpus),
        warmup_rounds=warm.get("rounds", 0),
        warmup_prompts=_warmup_prompts(warm, tokenizer, vocab, corpus, seed),
        calibration_grid=grid,
        ablation_seeds=seeds,
        ablation_prompt_length=ablation_cfg.get("prompt_length", 48),
        matrix_k=matrix_cfg.get("k", 10),
        matrix_load=matrix_load,
        matrix_save=matrix_cfg.get("save"),
        output_json=output_cfg.get("json"),
        output_csv=output_cfg.get("csv"),
        dump_trees=output_cfg.get("dump_trees"),
    )

import csv
import dataclasses
import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specgraft.cli import main
from specgraft.config import _RULES, check_prompt_set, load_run_config
from specgraft import engine
from specgraft.engine import CostModel, DecodeConfig, DecodeReport, build_next_tree
from specgraft.errors import ConfigError

BASE_DOC = {
    "vocab": {"size": 24},
    "target": {"kind": "markov", "seed": 42, "order": 1, "sparsity": 0.2},
    "draft": {"mode": "uniform-mix", "strength": 0.4},
    "method": "graft",
    "decode": {"max_new_tokens": 40, "seed": 0, "prompt_tokens": [3, 1]},
    "warmup": {"rounds": 1, "derive": {"count": 1, "length": 8}},
    "matrix": {"k": 10},
    "output": {"json": "run.json", "csv": "run.csv"},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(BASE_DOC), encoding="utf-8")
    return str(path)


def run_cli(*argv):
    return main(list(argv))


class TestConfigLoading:
    def test_round_trip(self, config_path):
        run = load_run_config(config_path)
        assert run.decode.method == "graft"
        assert run.vocab.size == 24
        assert run.prompt == [3, 1]
        assert run.raw == BASE_DOC

    def test_absent_decode_keys_take_the_decode_defaults(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        del doc["decode"]["max_new_tokens"]
        decode, default = load_run_config(_write_doc(tmp_path, doc)).decode, DecodeConfig()
        for key in ("acceptance", "max_new_tokens"):
            assert getattr(decode, key) == getattr(default, key), key

    def test_unknown_top_level_key(self, tmp_path):
        doc = dict(BASE_DOC, extra_section={})
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown top-level"):
            load_run_config(str(path))

    def test_unknown_section_key(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["decode"]["typo_key"] = 1
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        with pytest.raises(ConfigError, match=r"decode\.typo_key"):
            load_run_config(str(path))

    @pytest.mark.parametrize("key", ["fixed_split", "root_branch_size", "tail_chain_len"])
    def test_dropped_decode_key_rejected(self, tmp_path, key):
        # the static baselines' shapes are fixed, so a file that still sets one fails instead of being ignored
        doc = json.loads(json.dumps(BASE_DOC))
        doc["decode"][key] = [24, 36] if key == "fixed_split" else 8
        with pytest.raises(ConfigError, match=rf"^unknown keys: decode\.{key}$"):
            load_run_config(_write_doc(tmp_path, doc))

    def test_missing_corpus_rejected(self, tmp_path):
        doc = {
            "target": {"kind": "ngram", "corpus": str(tmp_path / "nope.txt")},
            "decode": {"prompt_tokens": [0]},
        }
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        with pytest.raises(ConfigError, match="does not exist"):
            load_run_config(str(path))

    def test_override_precedence(self, config_path):
        run = load_run_config(config_path, overrides={"method": "prune_only", "seed": 7})
        assert run.decode.method == "prune_only"
        assert run.decode.seed == 7

    @pytest.mark.parametrize(
        "overrides,name",
        [({"seed": -1}, "decode.seed"), ({"seed": "7"}, "decode.seed"), ({"method": 3}, "method")],
    )
    def test_bad_override_names_its_key(self, config_path, overrides, name):
        with pytest.raises(ConfigError, match=rf"^{name} must be"):
            load_run_config(config_path, overrides=overrides)

    @pytest.mark.parametrize("overrides", [{"acceptance": "stochastic"}, {"seed": 1, "max_new_tokens": 5}, {3: 1}])
    def test_unknown_override_key_rejected(self, config_path, overrides):
        bad = next(k for k in overrides if k not in ("method", "seed"))
        with pytest.raises(ConfigError, match=rf"^unknown override keys: \[{bad!r}\]; accepted: method, seed$"):
            load_run_config(config_path, overrides=overrides)


class TestDecodeCommand:
    def test_writes_reports_and_validates(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--config", config_path, "--out-dir", str(out), "decode") == 0
        doc = json.loads((out / "run.json").read_text())
        from specgraft.cli import _schema

        jsonschema.validate(doc, _schema())
        assert doc["command"] == "decode"
        assert doc["config"] == BASE_DOC
        assert doc["overrides"] == {}
        assert doc["generated_at"] is None
        assert (out / "run.csv").read_text().startswith("suite,variant,method")

    def test_schema_names_exactly_the_report_fields(self):
        from specgraft.cli import _schema

        report = _schema()["properties"]["runs"]["items"]["properties"]["report"]
        assert report["additionalProperties"] is False
        assert list(report["properties"]) == [f.name for f in dataclasses.fields(DecodeReport)]

    def test_byte_identical_reruns(self, config_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("--config", config_path, "--out-dir", str(out), "decode") == 0
            outs.append((out / "run.json").read_bytes())
        assert outs[0] == outs[1]

    def test_method_override_echoed(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--config", config_path, "--out-dir", str(out), "--method", "prune_only", "decode") == 0
        doc = json.loads((out / "run.json").read_text())
        assert doc["overrides"] == {"method": "prune_only"}
        assert doc["runs"][0]["method"] == "prune_only"

    def test_missing_config_file_nonzero_no_partial_report(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("--config", str(tmp_path / "missing.yaml"), "--out-dir", str(out), "decode")
        assert rc == 2
        assert not (out / "run.json").exists()

    def test_out_dir_env_default(self, config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("SPECGRAFT_OUT_DIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert run_cli("--config", config_path, "decode") == 0
        assert (tmp_path / "envout" / "run.json").exists()

    def test_timestamps_flag(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--config", config_path, "--out-dir", str(out), "--timestamps", "decode") == 0
        doc = json.loads((out / "run.json").read_text())
        assert doc["generated_at"] is not None

    def test_tree_dump(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--config", config_path, "--out-dir", str(out), "decode", "--dump-trees", "trees.txt") == 0
        text = (out / "trees.txt").read_text()
        assert text.startswith("# step 0")
        assert "parent=  -1" in text

    def test_decode_matrix_out_snapshot(self, config_path, tmp_path):
        out = tmp_path / "out"
        snap = tmp_path / "warm.bin"
        assert run_cli("--config", config_path, "--out-dir", str(out), "decode", "--matrix-out", str(snap)) == 0
        from specgraft.retrieval import load_matrix

        matrix = load_matrix(snap)
        assert matrix.vocab_size == 24 and matrix.touched_rows() > 0


class TestOtherCommands:
    def test_dump_templates_counts(self, capsys):
        assert run_cli("dump-templates") == 0
        out = capsys.readouterr().out
        for token in ("nodes=80", "nodes=52", "nodes=36", "nodes=20"):
            assert token in out

    def test_theory_deterministic_bytes(self, tmp_path):
        for name in ("a", "b"):
            assert run_cli("--out-dir", str(tmp_path / name), "--seed", "3", "theory", "--trials", "60") == 0
        a = (tmp_path / "a" / "theory.json").read_bytes()
        b = (tmp_path / "b" / "theory.json").read_bytes()
        assert a == b

    # recorded before the theory instances were drafted by the one-pass envelope
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["theory", "--trials", "300"], "864e46ed0c9d90b5a3791fc6c94e98ece8fb5542d7cf1d3598b613092ce9425c"),
            (["--seed", "3", "theory", "--trials", "60"], "12b2f80b9bb7bb98846687815ecd1e0c55b8aefe21fb572e4055d0f67cebc398"),
        ],
    )
    def test_theory_report_pinned(self, tmp_path, argv, digest):
        assert run_cli("--out-dir", str(tmp_path), *argv) == 0
        assert hashlib.sha256((tmp_path / "theory.json").read_bytes()).hexdigest() == digest

    def test_derived_ablation_seeds_stay_lazy(self, tmp_path):
        # 10**12 derived seeds: only ``ablation`` reads them, so ``decode`` never builds the list
        doc = json.loads(json.dumps(BASE_DOC))
        doc["ablation"] = {"n_seeds": 10**12}
        assert run_cli("--config", _write_doc(tmp_path, doc), "--out-dir", str(tmp_path / "out"), "decode") == 0

    def test_matrix_roundtrip_and_stats(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        snap = str(tmp_path / "m.bin")
        assert run_cli("--config", config_path, "--out-dir", str(out), "matrix", "save", "--path", snap) == 0
        assert run_cli("matrix", "load", "--path", snap) == 0
        assert run_cli("matrix", "stats", "--path", snap) == 0
        stats = capsys.readouterr().out
        assert "dense_bytes=" in stats and "touched_bytes=" in stats

    @pytest.mark.parametrize("with_config", [False, True])
    def test_matrix_load_without_path_exits_2(self, config_path, capsys, with_config):
        argv = ["--config", config_path] if with_config else []
        assert run_cli(*argv, "matrix", "load") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "--path" in err

    def test_matrix_stats_fresh_is_untouched(self, config_path, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["warmup"]["rounds"] = 0
        path = tmp_path / "cold.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert run_cli("--config", str(path), "matrix", "stats") == 0
        assert "rows_touched=0" in capsys.readouterr().out

    def test_matrix_stats_reports_the_warmed_matrix(self, config_path, tmp_path, capsys):
        snap = str(tmp_path / "m.bin")
        assert run_cli("--config", config_path, "matrix", "save", "--path", snap) == 0
        assert run_cli("matrix", "stats", "--path", snap) == 0
        saved = capsys.readouterr().out.splitlines()[-1]
        assert run_cli("--config", config_path, "matrix", "stats") == 0
        assert capsys.readouterr().out.splitlines() == [saved] and "rows_touched=0 " not in saved

    def test_calibrate_writes_thresholds(self, config_path, tmp_path):
        out = tmp_path / "out"
        doc = json.loads(json.dumps(BASE_DOC))
        del doc["output"]
        doc["calibration"] = {"grid": {0: [0.1, 0.3], 1: [0.1], 5: [0.1]}}
        doc["decode"]["max_new_tokens"] = 16
        path = tmp_path / "cal.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert run_cli("--config", str(path), "--out-dir", str(out), "calibrate") == 0
        report = json.loads((out / "calibrate.json").read_text())
        assert set(report["calibration"]["thresholds"]) == {"0", "1", "5"}

    def test_calibrate_two_checkpoints_searches_only_theirs(self, tmp_path, capsys):
        # the prune thresholds keep their default for depth 1, which no gate reads
        out = tmp_path / "out"
        doc = json.loads(json.dumps(BASE_DOC))
        del doc["output"]
        doc["prune"] = {"checkpoints": [0, 5]}
        doc["calibration"] = {"grid": {0: [0.1, 0.3], 5: [0.1]}}
        doc["decode"]["max_new_tokens"] = 16
        assert run_cli("--config", _write_doc(tmp_path, doc), "--out-dir", str(out), "calibrate") == 0
        assert [item.split("=")[0] for item in capsys.readouterr().out.split()] == ["d0", "d5"]
        calibration = json.loads((out / "calibrate.json").read_text())["calibration"]
        assert set(calibration["thresholds"]) == {"0", "5"}
        assert len(calibration["objective_trace"]) == 6  # (2 + 1) candidates x 2 sweeps
        assert all(set(entry["thresholds"]) == {"0", "5"} for entry in calibration["objective_trace"])

    def test_ablation_component(self, config_path, tmp_path):
        out = tmp_path / "out"
        doc = json.loads(json.dumps(BASE_DOC))
        del doc["output"]
        doc["decode"]["max_new_tokens"] = 16
        doc["ablation"] = {"n_seeds": 2, "prompt_length": 4}
        path = tmp_path / "abl.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert run_cli("--config", str(path), "--out-dir", str(out), "ablation", "--suite", "component") == 0
        doc = json.loads((out / "ablation_component.json").read_text())
        assert len(doc["runs"]) == 8
        csv_text = (out / "ablation_component.csv").read_text()
        assert csv_text.count("\n") == 9  # header + 8 rows

    def test_ablation_runs_seeds_zero_to_n_seeds(self, tmp_path):
        # ablation.n_seeds is the one way to give seeds: a count, run from seed 0
        out = tmp_path / "out"
        doc = json.loads(json.dumps(BASE_DOC))
        doc["decode"]["max_new_tokens"] = 8
        doc["ablation"] = {"n_seeds": 3, "prompt_length": 4}
        path = _write_doc(tmp_path, doc)
        assert run_cli("--config", path, "--out-dir", str(out), "ablation", "--suite", "component") == 0
        runs = json.loads((out / "run.ablation_component.json").read_text())["runs"]
        variants = {row["variant"] for row in runs}
        assert sorted(row["seed"] for row in runs) == sorted([0, 1, 2] * len(variants))


def _write_doc(tmp_path, doc, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


class TestSnapshotMatchesConfig:
    """A ``matrix.load`` snapshot must match the config's vocab and k."""

    def _run(self, tmp_path, snapshot_vocab, snapshot_k, config_k, command=("decode",)):
        from specgraft.retrieval import new_matrix, save_matrix

        snap = tmp_path / "snap.bin"
        save_matrix(snap, new_matrix(snapshot_vocab, snapshot_k))
        doc = json.loads(json.dumps(BASE_DOC))
        doc["matrix"] = {"k": config_k, "load": str(snap)}
        out = tmp_path / "out"
        return run_cli("--config", _write_doc(tmp_path, doc), "--out-dir", str(out), *command), out, str(snap)

    def test_k_mismatch_exits_2(self, tmp_path, capsys):
        rc, out, snap = self._run(tmp_path, 24, 10, 12)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and snap in err and "k=10" in err and "12" in err
        assert not (out / "run.json").exists()

    def test_vocab_mismatch_exits_2(self, tmp_path, capsys):
        rc, out, snap = self._run(tmp_path, 16, 10, 10)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and snap in err and "vocab=16" in err and "24" in err
        assert not (out / "run.json").exists()

    def test_matching_snapshot_decodes(self, tmp_path):
        rc, out, _ = self._run(tmp_path, 24, 10, 10)
        assert rc == 0
        assert (out / "run.json").exists()

    def test_ablation_vocab_mismatch_exits_2(self, tmp_path, capsys):
        rc, out, snap = self._run(tmp_path, 16, 10, 10, ("ablation", "--suite", "temperature"))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and snap in err and "vocab=16" in err
        assert not out.exists() or not any(out.iterdir())

    def test_stats_reports_the_snapshot(self, tmp_path, capsys):
        from specgraft.models import argtopk
        from specgraft.retrieval import new_matrix, save_matrix

        snap = tmp_path / "snap.bin"
        matrix = new_matrix(24, 10)
        matrix.rows[5] = argtopk(np.linspace(1.0, 0.1, 24), matrix.k)
        save_matrix(snap, matrix)
        doc = json.loads(json.dumps(BASE_DOC))
        doc["matrix"] = {"k": 10, "load": str(snap)}
        assert run_cli("--config", _write_doc(tmp_path, doc), "matrix", "stats") == 0
        assert run_cli("matrix", "stats", "--path", str(snap)) == 0
        from_config, from_path = capsys.readouterr().out.splitlines()
        assert from_config == from_path and "rows_touched=1 " in from_path

    def test_ablation_starts_from_the_snapshot(self, tmp_path):
        from specgraft.cli import _ablation_fixture
        from specgraft.models import argtopk
        from specgraft.retrieval import COLD, load_matrix, new_matrix, save_matrix

        snap = tmp_path / "snap.bin"
        matrix = new_matrix(24, 10)
        matrix.rows[5] = argtopk(np.linspace(1.0, 0.1, 24), matrix.k)
        save_matrix(snap, matrix)
        doc = json.loads(json.dumps(BASE_DOC))
        doc["matrix"] = {"k": 10, "load": str(snap)}
        warmed = _ablation_fixture(load_run_config(_write_doc(tmp_path, doc))).warmed_matrix
        loaded = load_matrix(snap)
        assert np.array_equal(warmed.rows, loaded.rows) and np.array_equal(warmed.rows != COLD, loaded.rows != COLD)


class TestReportNames:
    def test_decode_then_ablation_keep_both_reports(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["decode"]["max_new_tokens"] = 16
        doc["ablation"] = {"n_seeds": 2, "prompt_length": 4}
        path = _write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert run_cli("--config", path, "--out-dir", str(out), "decode") == 0
        assert run_cli("--config", path, "--out-dir", str(out), "ablation", "--suite", "component") == 0
        assert json.loads((out / "run.json").read_text())["command"] == "decode"
        assert (out / "run.csv").read_text().count("\n") == 2
        assert json.loads((out / "run.ablation_component.json").read_text())["command"] == "ablation"
        assert (out / "run.ablation_component.csv").read_text().count("\n") == 9


# (section, key, value): each must exit 2 with one "error:" line naming section.key
BAD_VALUES = [
    ("decode", "fixed_split", 5),
    ("decode", "max_new_tokens", [1]),
    ("decode", "prompt_tokens", 3),
    ("prune", "thresholds", [0.1]),
    ("prune", "stage_budgets", {0: 5}),
    ("calibration", "grid", [0.1]),
    ("warmup", "derive", [1]),
    ("prune", "beam_width", -3),
    ("prune", "beam_width", 0),
    ("cost", "t_ar", 0),
    ("decode", "root_branch_size", -5),
    ("decode", "tail_chain_len", -5),
    ("warmup", "rounds", -2),
    ("prune", "max_depth", 1_000_000),
    ("prune", "beam_width", 1_000_000),
    ("prune", "top_k", 2**20),
    ("matrix", "k", 5),  # narrower than the builtin templates' ranks
    # the prune policy's own checks
    ("prune", "checkpoints", [5, 1, 0]),
    ("prune", "checkpoints", [0, 0, 5]),  # a repeated gate depth
    ("prune", "checkpoints", [0, 1, 9]),  # past max_depth
    ("prune", "thresholds", {0: 1.5, 1: 0.13, 5: 0.51}),
    ("prune", "thresholds", {0: 0.15, 1: 0.13}),  # no threshold for checkpoint 5
    ("prune", "stage_budgets", {0: [8, 50], 1: [24, 36], 5: [40, 20]}),
    ("prune", "stage_budgets", {0: [8, 52], 1: [24, 36]}),  # no split for checkpoint 5
    # empty prompts, rejected where the config loads
    ("decode", "prompt_tokens", []),
    ("decode", "prompt_text", ""),
    # no seeds, which would leave a command nothing to run
    ("ablation", "n_seeds", 0),
    # calibration grids, rejected where the config loads, not only under calibrate
    ("calibration", "grid", {0: [0.1], 1: [1.5], 5: [0.5]}),
    ("calibration", "grid", {0: [0.1], 1: [], 5: [0.5]}),
    ("calibration", "grid", {0: [0.1], 5: [0.5]}),  # no candidates for checkpoint 1
    ("calibration", "grid", {0: [0.1], 1: [0.2], 3: [0.5], 5: [0.5]}),  # depth 3 is no checkpoint
    ("prune", "thresholds", {0: 0.15, 1: 0.13, 5: 0.51, 7: 0.5}),  # nor are depths 7 and 6
    ("prune", "stage_budgets", {0: [8, 52], 1: [24, 36], 5: [40, 20], 6: [30, 30]}),
    # values the models and the decode policy reject
    ("vocab", "size", 1),
    ("target", "kind", "foo"),
    ("target", "sparsity", 1.5),
    ("draft", "mode", "foo"),
    ("draft", "strength", 2),
    ("decode", "acceptance", "fuzzy"),
    ("matrix", "load", "missing.bin"),
    # keys a markov target does not read
    ("target", "corpus", "configs/sample_corpus.txt"),
    ("target", "tokenizer", "bytes"),
    ("target", "smoothing", 0.05),
    # keys that are gone: every session writes the matrix
    ("decode", "updates_enabled", True),
    ("decode", "prefill_update", False),
    # and warm-up prompts are derived and ablation seeds counted, whatever the value
    ("warmup", "prompts_tokens", [[1], []]),
    ("warmup", "prompts_text", ["\x01", ""]),
    ("warmup", "prompts_tokens", []),
    ("warmup", "prompts_text", []),
    ("ablation", "seeds", 3),
    ("ablation", "seeds", [1, 1, 2]),
    ("ablation", "seeds", []),
]

# one value given two ways beside BASE_DOC's decode.prompt_tokens, as (section, values,
# the keys the one error line names); every value is valid by itself
TWO_WAYS = [
    ("decode", {"prompt_text": "\x01"}, ("prompt_tokens", "prompt_text")),
]

# keys that are gone, each set to a value its old rule accepted
DROPPED_KEYS = [
    ("warmup", "prompts_tokens", [[1, 2]]),
    ("warmup", "prompts_text", ["\x01\x02"]),
    ("ablation", "seeds", [1, 2]),
]

NGRAM_DOC = {
    "target": {
        "kind": "ngram",
        "corpus": str(Path(__file__).resolve().parent.parent / "configs" / "sample_corpus.txt"),
        "tokenizer": "bytes",
        "order": 2,
        "smoothing": 0.05,
    },
    "draft": {"mode": "uniform-mix", "strength": 0.4},
    "method": "graft",
    "decode": {"max_new_tokens": 40, "seed": 0, "prompt_text": "the "},
    "warmup": {"rounds": 1, "derive": {"count": 1, "length": 8}},
    "matrix": {"k": 10},
    "output": {"json": "run.json", "csv": "run.csv"},
}

# the same over NGRAM_DOC, an n-gram target trained on the 4085-byte sample corpus
NGRAM_BAD_VALUES = [
    ("target", "tokenizer", "weird"),
    ("target", "tokenizer", "whitespace"),  # the document's decode.prompt_text needs bytes
    ("target", "smoothing", -1),
    ("target", "corpus", "missing.txt"),
    ("target", "order", 5000),  # past the corpus length
    # keys an n-gram target does not read
    ("target", "seed", 3),
    ("target", "sparsity", 0.9),
]


def _exits_2_naming_its_key(tmp_path, capsys, base, section, key, value):
    doc = json.loads(json.dumps(base))
    doc.setdefault(section, {})[key] = value
    out = tmp_path / "out"
    assert run_cli("--config", _write_doc(tmp_path, doc), "--out-dir", str(out), "decode") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{section}.{key}" in err
    assert not (out / "run.json").exists()


# corpus contents that are not tokens of the tokenizer, as (tokenizer, bytes)
NGRAM_BAD_CORPORA = [
    ("bytes", b"the \xff cat"),  # not UTF-8
]

# values that are gone, as (doc, section, key, value, corpus bytes or None); the
# draft is derived from the target, and a corpus is read as text
DROPPED_VALUES = [
    (BASE_DOC, "draft", "mode", "temperature-smooth", None),
    (NGRAM_DOC, "target", "tokenizer", "ints", None),
    (NGRAM_DOC, "target", "tokenizer", "ints", b"3\n1\n2\n"),  # an integer token file
    (NGRAM_DOC, "target", "tokenizer", "ints", b"1\n\xff\n"),  # named before the corpus is read
]


class TestBadValues:
    @pytest.mark.parametrize("section,key,value", BAD_VALUES, ids=[f"{s}.{k}={v!r}" for s, k, v in BAD_VALUES])
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, section, key, value):
        _exits_2_naming_its_key(tmp_path, capsys, BASE_DOC, section, key, value)

    @pytest.mark.parametrize("section,values,named", TWO_WAYS, ids=[f"{s}:{'+'.join(n)}" for s, _, n in TWO_WAYS])
    def test_a_value_given_two_ways_exits_2_naming_every_key(self, tmp_path, capsys, section, values, named):
        doc = json.loads(json.dumps(BASE_DOC))
        doc.setdefault(section, {}).update(values)
        out = tmp_path / "out"
        assert run_cli("--config", _write_doc(tmp_path, doc), "--out-dir", str(out), "decode") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [key for key in named if f"{section}.{key}" not in err] == []
        assert not (out / "run.json").exists()

    @pytest.mark.parametrize("section,key,value", DROPPED_KEYS, ids=[f"{s}.{k}" for s, k, _ in DROPPED_KEYS])
    def test_dropped_key_exits_2_naming_it(self, tmp_path, capsys, section, key, value):
        # a file that still sets a dropped key fails instead of being ignored
        doc = json.loads(json.dumps(BASE_DOC))
        doc.setdefault(section, {})[key] = value
        assert run_cli("--config", _write_doc(tmp_path, doc), "--out-dir", str(tmp_path / "out"), "decode") == 2
        assert capsys.readouterr().err == f"error: unknown keys: {section}.{key}\n"

    @pytest.mark.parametrize(
        "base,section,key,value,contents", DROPPED_VALUES,
        ids=[f"{s}.{k}={v}:{c!r}" for _, s, k, v, c in DROPPED_VALUES],
    )
    def test_dropped_value_exits_2_naming_its_key(self, tmp_path, capsys, base, section, key, value, contents):
        base = json.loads(json.dumps(base))
        if contents is not None:
            corpus = tmp_path / "corpus.txt"
            corpus.write_bytes(contents)
            base["target"]["corpus"] = str(corpus)
            base["decode"] = {"max_new_tokens": 40, "seed": 0, "prompt_tokens": [1]}
        _exits_2_naming_its_key(tmp_path, capsys, base, section, key, value)

    @pytest.mark.parametrize(
        "section,key,value", NGRAM_BAD_VALUES, ids=[f"{s}.{k}={v!r}" for s, k, v in NGRAM_BAD_VALUES]
    )
    def test_ngram_value_exits_2_with_one_error_line(self, tmp_path, capsys, section, key, value):
        _exits_2_naming_its_key(tmp_path, capsys, NGRAM_DOC, section, key, value)

    @pytest.mark.parametrize(
        "tokenizer,contents", NGRAM_BAD_CORPORA, ids=[f"{t}:{c!r}" for t, c in NGRAM_BAD_CORPORA]
    )
    def test_bad_corpus_exits_2_naming_target_corpus(self, tmp_path, capsys, tokenizer, contents):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(contents)
        base = json.loads(json.dumps(NGRAM_DOC))
        base["target"]["tokenizer"] = tokenizer
        base["decode"] = {"max_new_tokens": 40, "seed": 0, "prompt_tokens": [1]}
        _exits_2_naming_its_key(tmp_path, capsys, base, "target", "corpus", str(corpus))

    # values a run does not read, which the report could not echo (keys sorted)
    @pytest.mark.parametrize(
        "text",
        [
            "target: {smoothing: {0: 0, '': 0}}",  # a markov target reads no smoothing
            "decode: {prompt_text: 2020-01-01}",  # a date, beside prompt_tokens
            "decode: {1: 2, typo: 3}",  # unknown keys of mixed types
            "method: {0: 1, a: 2}",  # --method wins over the file
        ],
    )
    def test_unreportable_document_exits_2(self, tmp_path, capsys, text):
        base = json.loads(json.dumps(BASE_DOC))
        for section, values in yaml.safe_load(text).items():
            base[section] = {**base[section], **values} if isinstance(base[section], dict) else values
        path = tmp_path / "odd.yaml"
        path.write_text(yaml.safe_dump(base), encoding="utf-8")
        rc = run_cli("--config", str(path), "--out-dir", str(tmp_path / "out"), "--method", "graft", "decode")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    # finite costs whose speedup proxy overflows to inf, which JSON cannot hold
    @pytest.mark.parametrize(
        "cost",
        [
            {"t_ar": 1.0e308},
            {"verify_base": 1.0e-320, "draft_layer_cost": 0, "verify_per_node": 0, "overhead_cost": 0},
        ],
    )
    def test_non_finite_report_exits_2(self, tmp_path, capsys, cost):
        doc = {**json.loads(json.dumps(BASE_DOC)), "cost": cost}
        out = tmp_path / "out"
        assert run_cli("--config", _write_doc(tmp_path, doc), "--out-dir", str(out), "decode") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite" in err
        assert not (out / "run.json").exists() and not (out / "run.csv").exists()

    def test_malformed_yaml_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("decode: [1\n", encoding="utf-8")
        assert run_cli("--config", str(path), "decode") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "not valid YAML" in err

    def test_envelope_ceiling_rejects_before_allocating(self, tmp_path, capsys):
        # the envelope would preallocate 10**12 nodes (3.64 TiB of node arrays)
        prune = {"max_depth": 1_000_000, "beam_width": 1_000_000}
        _rejects_before_allocating(tmp_path, capsys, {"prune": prune}, ["decode"], ["prune.max_depth", "prune.beam_width"])

    @pytest.mark.parametrize("command", [["matrix", "stats"], ["matrix", "save"]])
    def test_narrow_matrix_exits_2_at_load(self, tmp_path, capsys, command):
        # commands that never decode reject matrix.k below TEMPLATE_WIDTH too
        doc = {**json.loads(json.dumps(BASE_DOC)), "matrix": {"k": 5}, "warmup": {"rounds": 0}}
        out = tmp_path / "out"
        assert run_cli("--config", _write_doc(tmp_path, doc), "--out-dir", str(out), *command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "matrix.k must be an integer >= 8, got 5" in err
        assert not out.exists()

    def test_markov_order_ceiling_rejects_before_allocating(self, tmp_path, capsys):
        # vocab**(order + 1) has about 1.4 billion digits: computing it took
        # minutes, and printing it failed on the integer string limit
        target = {**BASE_DOC["target"], "order": 10**9}
        _rejects_before_allocating(tmp_path, capsys, {"target": target}, ["decode"], ["markov table"])

    def test_ngram_table_ceiling_rejects_before_allocating(self, tmp_path, capsys):
        # 2001 distinct words, each once, give an order-1 table of 2000 seen
        # contexts and the fallback, 2001 x 2001 cells: past the 4,000,000-cell
        # ceiling, about 32 MB of float64
        corpus = tmp_path / "words.txt"
        corpus.write_text(" ".join(f"w{i}" for i in range(2001)), encoding="utf-8")
        target = {"kind": "ngram", "corpus": str(corpus), "tokenizer": "whitespace", "order": 1}
        _rejects_before_allocating(tmp_path, capsys, {"vocab": {}, "target": target}, ["decode"], ["n-gram table"])

    def test_budget_ceiling_rejects_before_allocating(self, tmp_path, capsys):
        # 3 * 10**6 candidates is past the ceiling; a hybrid tree takes about 65 B a node
        sections = {"method": "graft_tail", "prune": {"total_budget": 3_000_000}}
        _rejects_before_allocating(tmp_path, capsys, sections, ["decode"], ["prune.total_budget"])

    def test_nested_alias_value_is_shown_bounded(self, tmp_path, capsys):
        # safe_dump writes each repeated list once and then by alias, so a few
        # hundred bytes of YAML hold 10**7 tokens; the full repr of the bad
        # item decode.prompt_tokens[0] alone takes 3 MB
        tokens = [0] * 10
        for _ in range(6):
            tokens = [tokens] * 10
        decode = {**BASE_DOC["decode"], "prompt_tokens": tokens}
        _rejects_before_allocating(tmp_path, capsys, {"decode": decode}, ["decode"], ["decode.prompt_tokens[0]"])

    def test_layer_candidate_ceiling_rejects_before_allocating(self, tmp_path, capsys):
        # 4 x 262144 nodes fit the envelope, but a full layer scores 262144 x 256 candidates (about 2.4 GB)
        prune = {"max_depth": 4, "beam_width": 262144, "top_k": 256}
        _rejects_before_allocating(tmp_path, capsys, {"prune": prune}, ["decode"], ["prune.beam_width", "prune.top_k"])


_ABLATE = ["ablation", "--suite", "component"]
# (sections replaced, command, keys the error names): derived prompt sets past 2**20 tokens
PROMPT_CEILING = [
    ({"warmup": {"rounds": 10**12}}, ["decode"], ["warmup.rounds", "warmup.derive.length"]),
    ({"warmup": {"rounds": 1, "derive": {"length": 10**12}}}, ["decode"], ["warmup.rounds", "warmup.derive.length"]),
    ({"warmup": {"rounds": 1, "derive": {"count": 2**10 + 1, "length": 2**10}}}, ["decode"],
     ["warmup.derive.count", "warmup.derive.length"]),
    ({"ablation": {"prompt_length": 10**12}}, _ABLATE, ["ablation.n_seeds", "ablation.prompt_length"]),
    ({"ablation": {"n_seeds": 10**30}}, _ABLATE, ["ablation.n_seeds", "ablation.prompt_length"]),
]


class TestPromptCeiling:
    @pytest.mark.parametrize("sections,command,keys", PROMPT_CEILING, ids=[str(c[0]) for c in PROMPT_CEILING])
    def test_rejects_before_allocating(self, tmp_path, capsys, sections, command, keys):
        _rejects_before_allocating(tmp_path, capsys, sections, command, keys)

    def test_bound_is_inclusive(self):
        check_prompt_set("a", "b", 2**10, 2**10)
        with pytest.raises(ConfigError, match="a x b"):
            check_prompt_set("a", "b", 2**10 + 1, 2**10)


def _rejects_before_allocating(tmp_path, capsys, sections, command, keys):
    """Exit 2 with one error line naming ``keys``, at a traced peak under 1 MB, writing no report."""
    doc = {**json.loads(json.dumps(BASE_DOC)), **sections}
    out = tmp_path / "out"
    path = _write_doc(tmp_path, doc)
    tracemalloc.start()
    try:
        assert run_cli("--config", path, "--out-dir", str(out), *command) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(key in err for key in keys), err
    assert not out.exists() or not any(out.iterdir())


class TestGraftCheckpoints:
    """``graft`` grafts the builtin template of the stage a failed gate
    picks, and only d0, d1 and d5 have one."""

    def _path(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        del doc["output"]
        doc["decode"]["max_new_tokens"] = 16
        doc["prune"] = {"checkpoints": [2], "thresholds": {2: 0.9}, "stage_budgets": {2: [30, 30]}}
        doc["calibration"] = {"grid": {2: [0.5, 0.9]}}
        doc["ablation"] = {"n_seeds": 1, "prompt_length": 4}
        return _write_doc(tmp_path, doc)

    @pytest.mark.parametrize("command", [["decode"], ["calibrate"], ["ablation", "--suite", "component"]])
    def test_untemplated_checkpoint_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run_cli("--config", self._path(tmp_path), "--out-dir", str(out), *command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "prune.checkpoints [2]" in err and "d0, d1, d5" in err
        assert not out.exists() or not any(out.iterdir())

    def test_prune_only_decodes(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--config", self._path(tmp_path), "--out-dir", str(out), "--method", "prune_only", "decode") == 0
        report = json.loads((out / "decode.json").read_text())
        assert report["runs"][0]["method"] == "prune_only"

    def test_csv_stage_columns_follow_the_checkpoints(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--config", self._path(tmp_path), "--out-dir", str(out), "--method", "prune_only", "decode") == 0
        with open(out / "decode.csv", encoding="utf-8", newline="") as fh:
            (row,) = csv.DictReader(fh)
        stages = {key[len("stage_"):]: int(value) for key, value in row.items() if key.startswith("stage_")}
        assert list(stages) == ["d2", "none"]
        assert sum(stages.values()) == int(row["steps"])
        histogram = json.loads((out / "decode.json").read_text())["runs"][0]["report"]["stage_histogram"]
        assert {stage: n for stage, n in stages.items() if n} == histogram


class TestFixedSplitBudget:
    """``fixed_split`` grafts the 36-node ``d1`` and drafts the rest of the
    budget, so it runs under any budget."""

    def _path(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["decode"]["max_new_tokens"] = 16
        doc["prune"] = {"total_budget": 40, "stage_budgets": {0: [8, 32], 1: [24, 16], 5: [30, 10]}}
        doc["ablation"] = {"n_seeds": 1, "prompt_length": 4}
        return _write_doc(tmp_path, doc)

    def test_graft_decodes_under_a_smaller_budget(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--config", self._path(tmp_path), "--out-dir", str(out), "decode") == 0
        report = json.loads((out / "run.json").read_text())
        assert report["runs"][0]["method"] == "graft"
        assert report["runs"][0]["report"]["max_tree_candidates"] <= 40

    @pytest.mark.parametrize("command", [["--method", "fixed_split", "decode"], ["ablation", "--suite", "component"]])
    def test_fixed_split_drafts_what_d1_leaves(self, tmp_path, monkeypatch, command):
        trees = []  # (drafted, candidates) of every fixed_split tree

        def spy(config, *args):
            hy, info = build_next_tree(config, *args)
            if config.method == "fixed_split":
                trees.append((hy.counts_by_origin()[0], hy.n_candidates))
            return hy, info

        monkeypatch.setattr(engine, "build_next_tree", spy)
        out = tmp_path / "out"
        assert run_cli("--config", self._path(tmp_path), "--out-dir", str(out), *command) == 0
        assert trees and all(drafted <= 4 and candidates <= 40 for drafted, candidates in trees)


_CONFIG_KEYS = sorted((s, k) for s, rules in _RULES.items() for k in rules) + [(None, "method")]
_WORDS = st.text(alphabet="abxyz", max_size=4)
# small values only: max_new_tokens and warmup.rounds have no upper bound by design
_SMALL = st.integers(-2, 5) | _WORDS


class TestConfigFuzz:
    """Any one malformed value exits 0 or 2 with one error line, never a traceback."""

    @given(
        st.sampled_from(_CONFIG_KEYS),
        st.none()
        | _WORDS
        | st.lists(_SMALL, max_size=3)
        | st.dictionaries(st.integers(0, 5) | _WORDS, _SMALL, max_size=2),
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_one_replaced_value(self, tmp_path, capsys, place, value):
        section, key = place
        doc = json.loads(json.dumps(BASE_DOC))
        doc["decode"]["max_new_tokens"] = 4
        if section is None:
            doc[key] = value
        else:
            doc.setdefault(section, {})[key] = value
        capsys.readouterr()
        rc = run_cli("--config", _write_doc(tmp_path, doc), "--out-dir", str(tmp_path / "out"), "decode")
        err = capsys.readouterr().err
        assert rc in (0, 2)
        if rc == 2:
            assert err.startswith("error: ") and err.count("\n") == 1


class TestFlagValues:
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["theory", "--trials", "-5"], "--trials"),
            (["theory", "--trials", "0"], "--trials"),
            (["--seed", "-1", "theory", "--trials", "3"], "--seed"),
            (["--seed", "-1", "dump-templates"], "--seed"),
        ],
    )
    def test_exits_2_naming_the_flag(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        assert run_cli("--out-dir", str(out), *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and flag in err
        assert not out.exists()

    def test_negative_seed_override_of_a_config(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("--config", config_path, "--out-dir", str(out), "--seed", "-1", "decode") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "--seed" in err
        assert not out.exists()


_ANY_INT = st.integers(-5, 40) | st.integers(-(2**63), 2**63)


class TestFlagFuzz:
    """Any value of ``theory --trials`` (small: trials set the work), ``--seed``
    or a config's ``matrix.k`` exits 0 or 2 with one error line, never a traceback."""

    @given(
        st.one_of(
            st.tuples(st.just("trials"), st.integers(-5, 12)),
            st.tuples(st.just("k"), _ANY_INT),
            st.tuples(st.just("seed"), _ANY_INT),
        )
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_one_flag(self, tmp_path, capsys, case):
        flag, value = case
        if flag == "k":
            doc = {**json.loads(json.dumps(BASE_DOC)), "matrix": {"k": value}}
            doc["decode"]["max_new_tokens"] = 4
            argv = ["--config", _write_doc(tmp_path, doc), "decode"]
        else:
            argv = {
                "trials": ["theory", "--trials", str(value)],
                "seed": ["--seed", str(value), "theory", "--trials", "2"],
            }[flag]
        capsys.readouterr()
        rc = run_cli("--out-dir", str(tmp_path / "out"), *argv)
        err = capsys.readouterr().err
        assert rc in (0, 2)
        if rc == 2:
            assert err.startswith("error: ") and err.count("\n") == 1


def test_readme_configuration_table_names_exactly_the_loaders_keys():
    """The first column of the README's Configuration table names each key
    the loader checks, plus ``method``, and nothing else; ``cost.*`` stands
    for every ``CostModel`` field, and a bare key takes the row's section."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n| section.key |", 1)[1].split("\n\n", 1)[0]
    listed = set()
    for row in table.splitlines()[2:]:
        section = None
        for name in re.findall(r"`([^`]+)`", row.split("|")[1]):
            if "." in name:
                section, name = name.split(".")
            keys = [f.name for f in dataclasses.fields(CostModel)] if name == "*" else [name]
            listed |= {key if section is None else f"{section}.{key}" for key in keys}
    assert listed == {f"{section}.{key}" for section, rules in _RULES.items() for key in rules} | {"method"}

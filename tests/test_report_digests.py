"""Golden digests of full decode reports on the shipped configs.

Each case runs one session in-process the way ``specgraft decode`` does:
load the config with the method override, warm a fresh matrix, decode. The
stochastic cases decode with ``replace(run.decode, acceptance="stochastic")``
from the same warmed matrix. The sha256 covers ``DecodeReport.to_dict()``
plus the emitted tokens, so any change to a tree, a verification outcome, a
matrix update or an RNG draw changes a digest. The pinned values were
recorded before the decode step was made array-native; an optimization that
keeps reports byte-identical passes unchanged. They were re-pinned once,
when the report lost its never-filled trade-off ratio field: each new
value is the digest of the earlier report with that key removed. The
``beam_width: 4`` cases were pinned on the code before the envelope read
its first layer from the root-layer table.
"""

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest

from specgraft import engine
from specgraft.config import load_run_config
from specgraft.engine import METHODS, decode_session
from specgraft.models import DraftDerivation, derive_draft
from specgraft.retrieval import new_matrix, warmup

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("quickstart.yaml", "repetitive.yaml")
ACCEPTANCE = ("greedy", "stochastic")

DIGESTS = {
    ('quickstart.yaml', 'autoregressive', 'greedy'): '1fd515d53b88315906b045f743927bb8130a6b20a879e008baa36eb0e9848bfb',
    ('quickstart.yaml', 'autoregressive', 'stochastic'): '0ed7761d15aee327bac9d1d8b9d57b47fcdb84d938f27ad2c1e70302ef3e9441',
    ('quickstart.yaml', 'dense', 'greedy'): '3bfa015440353d363305699f0f99d98c37549f6d6e6adebe263324929946f7ef',
    ('quickstart.yaml', 'dense', 'stochastic'): '7f51b4380448ff9b46db7a9a29f059e8f41dd768c3ee21eaf3b6e88caed7a019',
    ('quickstart.yaml', 'prune_only', 'greedy'): '310264b4ae624ed613d0cebadbdb011a2e27c98c9608e83aa7acda3709c55b75',
    ('quickstart.yaml', 'prune_only', 'stochastic'): 'd3701136c60fc5250d0e4ccb1024724d3a40a9bb5b8deb722fb9984b32c8a7df',
    ('quickstart.yaml', 'fixed_split', 'greedy'): 'd9197cbe687d6a774ced77d36bdd45beb79051cede039544dc39ede863208d7e',
    ('quickstart.yaml', 'fixed_split', 'stochastic'): 'd8cbcccc5d4f5f025e4b09add3612443189e7fcdd42fd4cf1f3e1a019ed5a3ae',
    ('quickstart.yaml', 'graft', 'greedy'): 'c83c3682f648718de7d8a17468a2bf33060b43606608af7e19df2df5c5ddfa76',
    ('quickstart.yaml', 'graft', 'stochastic'): '52fc75409d798dc35d79f0e05e86e4c2cd0fe0a229930371a894bfcdd768748f',
    ('quickstart.yaml', 'graft_root', 'greedy'): 'cdfff01c97e9a318498b588b23967c408407e8945e4c445f3baab2124e82d773',
    ('quickstart.yaml', 'graft_root', 'stochastic'): '4af04430206246bb77537e6da0e22652d59d7c1f5fd40155c4129467a4751dd7',
    ('quickstart.yaml', 'graft_tail', 'greedy'): 'ac7beb8abe26cec40b169a651a3b584e95ef9c5c47ce8f1d77de92e56071f68d',
    ('quickstart.yaml', 'graft_tail', 'stochastic'): '615accc723ca014eca0927b192988babe8836b56e6ca33751de95e9a00fc08ee',
    ('repetitive.yaml', 'autoregressive', 'greedy'): 'd2baeb9b9db9ab9ff9a8285b619c984b9930c6a32cfae94bfabbd0290d51d072',
    ('repetitive.yaml', 'autoregressive', 'stochastic'): '8486e46dea1dc0d90a1263e0f2a37251ba0d71df677f9d73a452c7e264725782',
    ('repetitive.yaml', 'dense', 'greedy'): '319871fee621da5b3d8f43584f4d60463342361ce4567fe4eefa68da24a2ff0b',
    ('repetitive.yaml', 'dense', 'stochastic'): '06e736d2b91559fa3650b403f67a7c72215fa7883f8047d2acd55dd486a7d3c7',
    ('repetitive.yaml', 'prune_only', 'greedy'): '9a1768f25adc9fcbc18c38ced183c2d2ca97961218299ea185b9d216135a7788',
    ('repetitive.yaml', 'prune_only', 'stochastic'): '8d5a2ba4137dd50939a16958d30eb9ff753d35248c1a48ae4cd6f2baaef91b71',
    ('repetitive.yaml', 'fixed_split', 'greedy'): '8367f82bcdc538a6e397a56cfdf8daf8bfcb6424dede1a8fb40ddd022f41f5b3',
    ('repetitive.yaml', 'fixed_split', 'stochastic'): 'ce6d23600124c1c670ac12329871b94f4d106e7dc8bda77d46c2222357b67aaa',
    ('repetitive.yaml', 'graft', 'greedy'): '44998138bcc98f9d73f4c067d0b727d8dc5c0050e1fea5001665b76ebdf7d6ac',
    ('repetitive.yaml', 'graft', 'stochastic'): 'a6f2479aa0f2dfb2c4f1a9a7eed472974a56e40e17a1179675a9142dea29dc39',
    ('repetitive.yaml', 'graft_root', 'greedy'): '5fbfce01b7a0b70d6cd56625655934843986e8427ee7a30e30f87017552414c3',
    ('repetitive.yaml', 'graft_root', 'stochastic'): '144a7fb4ec20f388aa658a74223df697ea9f605d8d255d1097800ae674ae0ae0',
    ('repetitive.yaml', 'graft_tail', 'greedy'): '6f38cc4a893734823e9a573c858669e5426e6f1a5fc91d2d01a535928dd2afa6',
    ('repetitive.yaml', 'graft_tail', 'stochastic'): '73bbcf195fec61ad6f725bb32751bb332e50bfb4abb74a04b932c2a17c53ca15',
}


# A draft whose order differs from its target's: repetitive.yaml's order-2
# byte n-gram target under an order-1 context-truncate draft, built here
# rather than from the config. Pinned before contexts were keyed by integer
# codes, so row lookups where the two orders differ stay covered.
TRUNCATE_METHODS = ("dense", "graft", "graft_tail")
TRUNCATE_DIGESTS = {
    ('dense', 'greedy'): '5e561b2c262e4872abd7a345dc77d02be6a778e29187e9fc8964be23b531c17a',
    ('dense', 'stochastic'): '846f44ffeac7036c55a618a5fd6f69ed9ed68ae43b123d809d7b6b9953bc9037',
    ('graft', 'greedy'): '00d9499489457c0454cc244eb52bef4241dc7ac318450403344a5022937235f7',
    ('graft', 'stochastic'): 'f73fe981da4a173fdf4bf160e6a11cac92994a12b7f2b782acf9326f96a9466e',
    ('graft_tail', 'greedy'): '446e0f8872ee92c0be23c0d1748088353960f0c76b2bf3fcb0f91b3584c9b1cf',
    ('graft_tail', 'stochastic'): '8eb1aa1fba79609382d291b641c5aefb66a98d6359201fe1fb13ab290e67ccd8',
}


# quickstart.yaml with ``prune.beam_width: 4`` appended: the shipped configs
# all draft with beam_width == top_k, so only these cases cut the root
# layer's candidates at the beam.
BEAM4_PRUNE = "prune:\n  beam_width: 4\n"
BEAM4_METHODS = ("dense", "prune_only", "graft")
BEAM4_DIGESTS = {
    ('dense', 'greedy'): '2e9635d48aed84389e166ad8cd8a85297fc4a464f88e4d65080c3d19fedc7492',
    ('dense', 'stochastic'): '16161c0308ef4badb1d714f3b546e20f34c7031feae8ad665d0ea28fb4d5550d',
    ('prune_only', 'greedy'): '3f28f655c2b5843fb4af2e0a23dc702d27c08cda943a7392b3c48a9c09effb30',
    ('prune_only', 'stochastic'): 'b7fba5d16b002107088b98a204fdbb8ea1aa7200e1951ec6cb973cc432f1cc79',
    ('graft', 'greedy'): 'cfd28c6ee01cc5f7c5b8dceaa18704ec369c994ad41484cc64b91483cccdc9f4',
    ('graft', 'stochastic'): '3ca822e0c935868d20dc397e93ae57eef577b33aa3cc67527b209ac280eadc77',
}


@contextmanager
def at_root():
    """Run the block from the repository root, where configs name their corpus."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        yield
    finally:
        os.chdir(cwd)


@lru_cache(maxsize=None)
def _warmed(config: str, method: str, truncate: bool = False, beam4: bool = False):
    # configs name their corpus relative to the repository root
    with at_root(), tempfile.TemporaryDirectory() as tmp:
        path = Path("configs") / config
        if beam4:
            path = Path(tmp) / config
            path.write_text((ROOT / "configs" / config).read_text(encoding="utf-8") + BEAM4_PRUNE, encoding="utf-8")
        run = load_run_config(str(path), overrides={"method": method})
    if beam4:
        assert (run.decode.prune.beam_width, run.decode.prune.top_k) == (4, 10)
    if truncate:
        run = replace(run, draft=derive_draft(run.target, DraftDerivation("context-truncate", 0.5)))
        assert (run.target.order, run.draft.order) == (2, 1)
    matrix = new_matrix(run.vocab.size, run.matrix_k)
    warmup(matrix, run.target, run.draft, run.warmup_prompts, run.warmup_rounds, config=run.decode)
    return run, matrix


def report_digest(config: str, method: str, acceptance: str, truncate: bool = False, beam4: bool = False) -> str:
    run, warmed = _warmed(config, method, truncate, beam4)
    tokens, report = decode_session(
        replace(run.decode, acceptance=acceptance), run.target, run.draft, warmed.copy(), run.prompt
    )
    document = json.dumps({"report": report.to_dict(), "tokens": tokens}, sort_keys=True)
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("acceptance", ACCEPTANCE)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("config", CONFIGS)
def test_report_digest(config, method, acceptance):
    assert report_digest(config, method, acceptance) == DIGESTS[(config, method, acceptance)]


@pytest.mark.parametrize("acceptance", ACCEPTANCE)
@pytest.mark.parametrize("method", TRUNCATE_METHODS)
def test_report_digest_truncated_draft(method, acceptance):
    digest = report_digest("repetitive.yaml", method, acceptance, truncate=True)
    assert digest == TRUNCATE_DIGESTS[(method, acceptance)]


@pytest.mark.parametrize("acceptance", ACCEPTANCE)
@pytest.mark.parametrize("method", BEAM4_METHODS)
def test_report_digest_beam_below_top_k(method, acceptance):
    digest = report_digest("quickstart.yaml", method, acceptance, beam4=True)
    assert digest == BEAM4_DIGESTS[(method, acceptance)]


@pytest.mark.parametrize("method, below_fallback, roots", [("graft", 38, 287), ("dense", 44, 179)])
def test_stochastic_repetitive_sessions_draft_below_the_fallback_row(method, below_fallback, roots, monkeypatch):
    """The pinned stochastic ``repetitive.yaml`` sessions reach unseen
    contexts: an envelope rooted at the draft's fallback row reads only its
    first layer from the two-layer table and drafts the second per step, so
    the digests cover that path. Roots are counted over the warm-up and the
    session, the warm-up run afresh."""
    resolve, fallback = engine.resolve_stage, []

    def counted(draft, context, *rest):
        fallback.append(draft.row_ids([draft.code_of(context)])[0] == draft.rows.shape[0] - 1)
        return resolve(draft, context, *rest)

    monkeypatch.setattr(engine, "resolve_stage", counted)
    monkeypatch.setitem(globals(), "_warmed", _warmed.__wrapped__)
    assert report_digest("repetitive.yaml", method, "stochastic") == DIGESTS[("repetitive.yaml", method, "stochastic")]
    assert (sum(fallback), len(fallback)) == (below_fallback, roots)

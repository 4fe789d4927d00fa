"""Golden digests of full decode reports on the shipped configs.

Each case runs one session in-process the way ``specgraft decode`` does:
load the config with the method override, warm a fresh matrix, decode. The
stochastic cases decode with ``replace(run.decode, acceptance="stochastic")``
from the same warmed matrix. The sha256 covers ``DecodeReport.to_dict()``
plus the emitted tokens, so any change to a tree, a verification outcome, a
matrix update or an RNG draw changes a digest. The pinned values were
recorded before the decode step was made array-native; an optimization that
keeps reports byte-identical passes unchanged.
"""

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest

from specgraft.config import load_run_config
from specgraft.engine import METHODS, decode_session
from specgraft.models import DraftDerivation, derive_draft
from specgraft.retrieval import new_matrix, warmup

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("quickstart.yaml", "repetitive.yaml")
ACCEPTANCE = ("greedy", "stochastic")

DIGESTS = {
    ('quickstart.yaml', 'autoregressive', 'greedy'): '21e33529965e6d1127be916c142379ee3d2d34bdacc0104d6224ccb773957bc1',
    ('quickstart.yaml', 'autoregressive', 'stochastic'): 'a5d5aec8debeb5f7d352ff274c903230f3a61a99782f9000c16a907408e1671c',
    ('quickstart.yaml', 'dense', 'greedy'): '7f62e825ceca6aceb76d9073f7d97b9b617a29e1489ad7a91abe50207e13f77c',
    ('quickstart.yaml', 'dense', 'stochastic'): '5551c516b0f1db7c887c67e872500791e36130eae46a3469f774fd3ebed9e4d1',
    ('quickstart.yaml', 'prune_only', 'greedy'): '9815adf1a378a7780ab4b2ff854094b192b150fca71ac97cfa0c95b4456615d2',
    ('quickstart.yaml', 'prune_only', 'stochastic'): 'dca90c05bed330c203ada7203f0d839c0fb9957d64ddfc8accea23ed38a38b83',
    ('quickstart.yaml', 'fixed_split', 'greedy'): '55df287e87e8e154600468d4bd0868b212a88fe8fc4cbe438d0524474feaa296',
    ('quickstart.yaml', 'fixed_split', 'stochastic'): '06b9f72eeb695d161839cc8f18c968beee9f8b3ed6ba827ca806d9fc923d8044',
    ('quickstart.yaml', 'graft', 'greedy'): 'c1555a61abf06964d08c16db9cf0cfa14775f97fa22463a68b5bc2ace88010be',
    ('quickstart.yaml', 'graft', 'stochastic'): '16a4a770699d7b479375a225f5182b572aef669a4498142e19d8940029a28cea',
    ('quickstart.yaml', 'graft_root', 'greedy'): '7a248655ece47f2fe732f3c2c7d874fc1960c06328a74bb8c66380604c077aec',
    ('quickstart.yaml', 'graft_root', 'stochastic'): '66d47d19683ddce20bc7f38bff3bb7a22aa98735c661c9833868056614a1ee4c',
    ('quickstart.yaml', 'graft_tail', 'greedy'): '08f4f3dbf60d54d9f2f415af5a87a34a83949b6e75c166820a67e6654342f5c4',
    ('quickstart.yaml', 'graft_tail', 'stochastic'): 'daafb9e93d6d646383c18db7a58e88fbe807e4cdec38885290be3ba9e680eb41',
    ('repetitive.yaml', 'autoregressive', 'greedy'): '6ed7538e8c09b9eb43b02aa2a535f2aa74b83dd3de709f0864143907aae9b34d',
    ('repetitive.yaml', 'autoregressive', 'stochastic'): '9b43c025f50207fdbf7b8292aec60e3a989d058b9753d3b981528edbfbcb42f1',
    ('repetitive.yaml', 'dense', 'greedy'): '678506282ebdebd5906f19f839d775a469763ab8cd497e4a95dafe4b1315c5f2',
    ('repetitive.yaml', 'dense', 'stochastic'): 'cc2b0df8dca021b47d7010f7639a5dea1518ded052fe728a030220ea1cbaa4f7',
    ('repetitive.yaml', 'prune_only', 'greedy'): 'b4ed6099f0b79306016ceb8cd8a736f33e30a3a0ead04256f218e04878905928',
    ('repetitive.yaml', 'prune_only', 'stochastic'): 'c1b0df5470313c88d16ccfcd2a584f5b4a79eb193ffadc987db07c3a5472baa7',
    ('repetitive.yaml', 'fixed_split', 'greedy'): '64725a1ddb02d4624d8cb316cdb62318a9ca34cb65c4a50bd8e64aace08545ec',
    ('repetitive.yaml', 'fixed_split', 'stochastic'): 'ff9220615cb68870a86af937901721068c20edb6150d5d8119b4c6f81105a0de',
    ('repetitive.yaml', 'graft', 'greedy'): '661d4794ecc1cd3f7b4a4ef4f91a78d67ea62a8c0e8c9968de06218729b99747',
    ('repetitive.yaml', 'graft', 'stochastic'): '1ba739c653f5a04b5e13667416876d2cb99c8e28999bc4d5c13e56ae76f90df1',
    ('repetitive.yaml', 'graft_root', 'greedy'): '9fbf830f7020c8281d87afab86cecc28823fe880a97986a7b3fe6b50fac2e4d5',
    ('repetitive.yaml', 'graft_root', 'stochastic'): '20553b3d3e53bb9fe592c8e83e13f9ce2ac59d42e5a0ebb3ab21dc31c9a0f106',
    ('repetitive.yaml', 'graft_tail', 'greedy'): '5f0d9bdf7407172aa045d7d85c591bc5e40f0aeab0432a3c241799bb5eedf3b4',
    ('repetitive.yaml', 'graft_tail', 'stochastic'): '7613367c659d941be667e698b4866a62c56245e7f5ee7b7e0e51932521074222',
}


# A draft whose order differs from its target's: repetitive.yaml's order-2
# byte n-gram target under an order-1 context-truncate draft, built here
# rather than from the config. Pinned before contexts were keyed by integer
# codes, so row lookups where the two orders differ stay covered.
TRUNCATE_METHODS = ("dense", "graft", "graft_tail")
TRUNCATE_DIGESTS = {
    ('dense', 'greedy'): '6354a4277a53bc0ae1cee9733bcbe1b5a7ac10c5cc7671aef33a235dc8fdffa8',
    ('dense', 'stochastic'): '6267b7ebf7ba03e698ef915379a1bd8f87abb3f486aa105b1befe20ec9c304ae',
    ('graft', 'greedy'): 'fdf4b000ad638535fb654c8c043e2a1f325dc883bd2680ed0e7da92110b195ea',
    ('graft', 'stochastic'): 'c89c64d7271fa73dd51864449e92c8610c49f04e9fc39079dd6f91ae78e5de9d',
    ('graft_tail', 'greedy'): '7b5478fe387a67d373c597e06448c9bfc8c1aee9b71e56554aa8812a28776882',
    ('graft_tail', 'stochastic'): '8757c5dea1f02d6b0402c74c716e8202b4b7095265d36274a23d2f3fb79b1267',
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
def _warmed(config: str, method: str, truncate: bool = False):
    # configs name their corpus relative to the repository root
    with at_root():
        run = load_run_config(f"configs/{config}", overrides={"method": method})
    if truncate:
        run = replace(run, draft=derive_draft(run.target, DraftDerivation("context-truncate", 0.5)))
        assert (run.target.order, run.draft.order) == (2, 1)
    matrix = new_matrix(run.vocab.size, run.matrix_k)
    warmup(matrix, run.target, run.draft, run.warmup_prompts, run.warmup_rounds, config=run.decode)
    return run, matrix


def report_digest(config: str, method: str, acceptance: str, truncate: bool = False) -> str:
    run, warmed = _warmed(config, method, truncate)
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

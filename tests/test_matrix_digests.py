"""Golden digests of the successor matrix on the shipped configs.

The sha256 covers the ``save_matrix`` bytes of the matrix that
``tests/test_report_digests.py`` warms for each (config, method), and of
that matrix after one more decode session, the way ``specgraft decode
--matrix-out`` saves it. Warm-up runs full sessions of the configured
method, so both digests see where a session's writes land, including the
ones applied when it ends. The pinned values were recorded while every
session still wrote the matrix after each step. On quickstart's order-1
target a row depends on its token alone, so its digests agree once every
token has been written; the order-2 repetitive target tells the last
writer apart.
"""

import hashlib
from dataclasses import replace

import pytest

from specgraft.engine import METHODS, decode_session
from specgraft.retrieval import save_matrix

from .test_report_digests import ACCEPTANCE, CONFIGS, _warmed

WARM_DIGESTS = {
    ('quickstart.yaml', 'autoregressive'): '9c7419f5236c0295ca3d6c8831d7432e71ad6dafab76d6367d526af4fb511e7b',
    ('quickstart.yaml', 'dense'): 'fa79f5590ccfe9205482e8f78cd2fdde4812f2a5abe2f8d5091ae90f7a6064a8',
    ('quickstart.yaml', 'prune_only'): 'fa79f5590ccfe9205482e8f78cd2fdde4812f2a5abe2f8d5091ae90f7a6064a8',
    ('quickstart.yaml', 'fixed_split'): 'fa79f5590ccfe9205482e8f78cd2fdde4812f2a5abe2f8d5091ae90f7a6064a8',
    ('quickstart.yaml', 'graft'): 'fa79f5590ccfe9205482e8f78cd2fdde4812f2a5abe2f8d5091ae90f7a6064a8',
    ('quickstart.yaml', 'graft_root'): 'fa79f5590ccfe9205482e8f78cd2fdde4812f2a5abe2f8d5091ae90f7a6064a8',
    ('quickstart.yaml', 'graft_tail'): 'fa79f5590ccfe9205482e8f78cd2fdde4812f2a5abe2f8d5091ae90f7a6064a8',
    ('repetitive.yaml', 'autoregressive'): '682231b95d4675136e4842fcd7be228a0cae34bb5667f3d48e3f6692faf1c196',
    ('repetitive.yaml', 'dense'): 'd6d37e19b0eb37797209595dad658a227415c2d5eae9e7bdd5a117f187d4d53a',
    ('repetitive.yaml', 'prune_only'): 'c9fe385098909bb043b2fc9dade93f20663f86ef220c8f7c891906d77df78603',
    ('repetitive.yaml', 'fixed_split'): 'f6b2671b0551fca4f372ae3cf9dd0f3c33934371bdff53997515e131120658b8',
    ('repetitive.yaml', 'graft'): 'c25d0b344100a58778a54a890c8d382808864ab603a4a48b73081ef6ffa6087e',
    ('repetitive.yaml', 'graft_root'): 'db69378e8001168a8e44976befdc87d9b385ead2db752e08b00bb4b097eeba0a',
    ('repetitive.yaml', 'graft_tail'): 'bced17e0556204ed076649fc2658b1a921cb4c30f04b23c147f0bcd24ebdb48a',
}

DECODE_DIGESTS = {
    ('quickstart.yaml', 'autoregressive', 'greedy'): '9c7419f5236c0295ca3d6c8831d7432e71ad6dafab76d6367d526af4fb511e7b',
    ('quickstart.yaml', 'autoregressive', 'stochastic'): 'fa79f5590ccfe9205482e8f78cd2fdde4812f2a5abe2f8d5091ae90f7a6064a8',
    ('quickstart.yaml', 'dense', 'greedy'): 'fa79f5590ccfe9205482e8f78cd2fdde4812f2a5abe2f8d5091ae90f7a6064a8',
    ('quickstart.yaml', 'dense', 'stochastic'): 'fa79f5590ccfe9205482e8f78cd2fdde4812f2a5abe2f8d5091ae90f7a6064a8',
    ('quickstart.yaml', 'prune_only', 'greedy'): 'fa79f5590ccfe9205482e8f78cd2fdde4812f2a5abe2f8d5091ae90f7a6064a8',
    ('quickstart.yaml', 'prune_only', 'stochastic'): 'fa79f5590ccfe9205482e8f78cd2fdde4812f2a5abe2f8d5091ae90f7a6064a8',
    ('quickstart.yaml', 'fixed_split', 'greedy'): 'fa79f5590ccfe9205482e8f78cd2fdde4812f2a5abe2f8d5091ae90f7a6064a8',
    ('quickstart.yaml', 'fixed_split', 'stochastic'): 'fa79f5590ccfe9205482e8f78cd2fdde4812f2a5abe2f8d5091ae90f7a6064a8',
    ('quickstart.yaml', 'graft', 'greedy'): 'fa79f5590ccfe9205482e8f78cd2fdde4812f2a5abe2f8d5091ae90f7a6064a8',
    ('quickstart.yaml', 'graft', 'stochastic'): 'fa79f5590ccfe9205482e8f78cd2fdde4812f2a5abe2f8d5091ae90f7a6064a8',
    ('quickstart.yaml', 'graft_root', 'greedy'): 'fa79f5590ccfe9205482e8f78cd2fdde4812f2a5abe2f8d5091ae90f7a6064a8',
    ('quickstart.yaml', 'graft_root', 'stochastic'): 'fa79f5590ccfe9205482e8f78cd2fdde4812f2a5abe2f8d5091ae90f7a6064a8',
    ('quickstart.yaml', 'graft_tail', 'greedy'): 'fa79f5590ccfe9205482e8f78cd2fdde4812f2a5abe2f8d5091ae90f7a6064a8',
    ('quickstart.yaml', 'graft_tail', 'stochastic'): 'fa79f5590ccfe9205482e8f78cd2fdde4812f2a5abe2f8d5091ae90f7a6064a8',
    ('repetitive.yaml', 'autoregressive', 'greedy'): 'dfe6551a575af93c036d7fd4c82cc704e7cee2a991daca8c46e034d05febbaca',
    ('repetitive.yaml', 'autoregressive', 'stochastic'): 'b2c0e89026d7317c11ebd3502a61263f8d4183a5191af412b5e28a682ba8e461',
    ('repetitive.yaml', 'dense', 'greedy'): '9e2ffcf12d7608c36896d204073099bc356848464825a15e8f3c1916a39dc651',
    ('repetitive.yaml', 'dense', 'stochastic'): '352b12372cadf60520692c61ead4d170ddbe07bed7d8c285a494a60ca78db7d8',
    ('repetitive.yaml', 'prune_only', 'greedy'): '0f17a2d4e8e883fd47e303285468bcd1a971c5817e034e8afd97e77200b1c425',
    ('repetitive.yaml', 'prune_only', 'stochastic'): 'a78f887f12d3c99c98a9d912169c6a7096cbf3d9073f6bb89cc8078a0871144d',
    ('repetitive.yaml', 'fixed_split', 'greedy'): '85f6d34752f7ae628958f7eba5d0a3aaddf4ca8a35410941878ae22a0383c2fc',
    ('repetitive.yaml', 'fixed_split', 'stochastic'): '786adda34bc2ed4125cec7be8783902fd9d363e3a36e7d9e79509b55dd21396b',
    ('repetitive.yaml', 'graft', 'greedy'): '217d675fa450e83765c407ffc049a50abad099ec5a09b0cfcf783aee8199eee6',
    ('repetitive.yaml', 'graft', 'stochastic'): 'adedbaa165c27ce2d8181ccc36999d4e21eb129d19ebaa488d091a1869e2eba1',
    ('repetitive.yaml', 'graft_root', 'greedy'): '642d30717c9b5e882a9cd7c74ac40dbb1248b063da7e9bc9543d06e763688b8b',
    ('repetitive.yaml', 'graft_root', 'stochastic'): 'ad3642f23c0099acefe736c1a04922378e2960d4e0c3f85e059cb9f43356803a',
    ('repetitive.yaml', 'graft_tail', 'greedy'): 'bced17e0556204ed076649fc2658b1a921cb4c30f04b23c147f0bcd24ebdb48a',
    ('repetitive.yaml', 'graft_tail', 'stochastic'): '7647febc43dee204c93dc981dde98b831f79436fdcfe5bbd58f8e4f6e0e25a72',
}


def matrix_digest(path, matrix) -> str:
    save_matrix(path, matrix)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def decoded_matrix(config: str, method: str, acceptance: str):
    run, warmed = _warmed(config, method)
    matrix = warmed.copy()
    decode_session(replace(run.decode, acceptance=acceptance), run.target, run.draft, matrix, run.prompt)
    return matrix


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("config", CONFIGS)
def test_warmed_matrix_digest(tmp_path, config, method):
    assert matrix_digest(tmp_path / "m.bin", _warmed(config, method)[1]) == WARM_DIGESTS[(config, method)]


@pytest.mark.parametrize("acceptance", ACCEPTANCE)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("config", CONFIGS)
def test_decoded_matrix_digest(tmp_path, config, method, acceptance):
    digest = matrix_digest(tmp_path / "m.bin", decoded_matrix(config, method, acceptance))
    assert digest == DECODE_DIGESTS[(config, method, acceptance)]

"""Golden digests of the ablation reports and the template listing.

Each ablation case runs ``specgraft --config configs/quickstart.yaml
ablation --suite S`` in-process and hashes the JSON and the CSV it writes,
so a change to any variant's config, matrix, label or report changes a
digest. The template case hashes the stdout of ``dump-templates --full``.
The pinned values were recorded while the templates were still built per
successor width ``k`` and the ablation rows took their ``warmup_rounds``
from the decode config.
"""

import contextlib
import hashlib

import pytest

from specgraft.cli import main
from specgraft.engine import ABLATION_SUITES

from .test_report_digests import ROOT

ABLATION_DIGESTS = {
    ('component', 'json'): '992a13e26a23ab692cdb77ecef940f6bcef1dab18077c94e79d2fc268f78e436',
    ('component', 'csv'): 'fe8cfeecf4a3aabff9427f8572b3a6c9971ce9a3f0a27af58b6cbee393baf122',
    ('warmup', 'json'): 'ea1fc45bed83cc418e298d252b0902c3f5794e566960902862e00f7998ba3206',
    ('warmup', 'csv'): '122375b3032761744f96674993fbd15e4df62e7f09cb7a929dcb01aaf2cd6d00',
    ('template', 'json'): '6e9d6259da29c13786f1d291fe5b461c97a8af3f78d72b0e1cef832536709547',
    ('template', 'csv'): 'b1567e47b649098305b12455ff891e4dd85118783bfe50fd13b398a48c286218',
    ('temperature', 'json'): 'a3f33e04ec64f716d42d15a3362dabc8fb90f63d68251f881b7dd4eb85c1398c',
    ('temperature', 'csv'): 'eaab862fab15fec7cfb596c526c3af213fe093ddcbf10748b9d9915368c04b86',
}

TEMPLATES_DIGEST = '07176479c8e31cf1b6f6731ef8ccd594b7fd3a8e4420df25d7b06dcde0f34394'


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("suite", ABLATION_SUITES)
def test_ablation_digest(suite, tmp_path, capsys):
    with contextlib.chdir(ROOT):
        assert main(["--config", "configs/quickstart.yaml", "--out-dir", str(tmp_path), "ablation", "--suite", suite]) == 0
    capsys.readouterr()
    for ext in ("json", "csv"):
        data = (tmp_path / f"quickstart.ablation_{suite}.{ext}").read_bytes()
        assert _sha256(data) == ABLATION_DIGESTS[(suite, ext)], ext


def test_dump_templates_digest(capsys):
    assert main(["dump-templates", "--full"]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == TEMPLATES_DIGEST

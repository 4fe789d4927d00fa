"""Golden digests of the ablation reports and the template listing.

Each ablation case runs ``specgraft --config configs/quickstart.yaml
ablation --suite S`` in-process and hashes the JSON and the CSV it writes,
so a change to any variant's config, matrix, label or report changes a
digest. The template case hashes the stdout of ``dump-templates --full``.
The pinned values were recorded while the templates were still built per
successor width ``k`` and the ablation rows took their ``warmup_rounds``
from the decode config.

The tree-dump cases hash the file ``decode --dump-trees`` writes, the one
output that prints every node's depth and origin. Their values were
recorded while every tree still stored both. The ``repetitive.yaml`` cases
run the byte vocabulary; a greedy report there never reads node order, so
only its dumps pin the order ``hybrid.merge`` emits.

The report cases hash the JSON and CSV of ``decode``, the JSON of
``calibrate`` on ``configs/quickstart.yaml`` and the JSON of ``theory
--trials 50``. Their values were recorded while each command still spelled
out its own report envelope and run rows.

The ablation and decode values were re-pinned once, when reports lost the
never-filled trade-off ratio field and the CSV its column: each new
value is the digest of the earlier file with that key or column removed.
"""

import hashlib

import pytest

from specgraft.cli import main
from specgraft.engine import ABLATION_SUITES

from .test_report_digests import ROOT, at_root

ABLATION_DIGESTS = {
    ('component', 'json'): 'd88aed40b58672e3e5e3816995f2d739e051a4542b35108341e1bc1cfef5ed40',
    ('component', 'csv'): 'f7b010f9ecbec1cd45b6fcdaa7c7670ca46f95ebb308f69c31092a007d0102e0',
    ('warmup', 'json'): 'd261ece95b6642347aeaa1884443c0e8763dbcd5d921e49619bae69f7eb71b60',
    ('warmup', 'csv'): '8c1a97324f3984606ec99146c595e99f2e61ec05a685cf21cab52837f1b06e9d',
    ('template', 'json'): '21f69591d7c178a5e9bad74df2ca85199fe6cc5ec26aff781de398e958b54b14',
    ('template', 'csv'): '7d820e82b256b20b3050ae762ebf2d9997f41432e1ac4da7c856a6ac842f1912',
    ('temperature', 'json'): '93620bf5357592f7505fff72e80d4b5a829677ad08ea257795abb8187f787b34',
    ('temperature', 'csv'): 'a82cf0bb76f6b288c02aa27eca038d07489f98bf84194f97ca17490e30efad08',
}

# the stochastic cases decode the config with ``acceptance: stochastic``
TREE_DUMP_DIGESTS = {
    ('quickstart.yaml', 'autoregressive', 'greedy'): 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    ('quickstart.yaml', 'autoregressive', 'stochastic'): 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    ('quickstart.yaml', 'dense', 'greedy'): 'f42cfd0874f2b25d474812b1197f5134991df9bd45344e2419bffaef8bca6771',
    ('quickstart.yaml', 'dense', 'stochastic'): '7387640f64bf1b4cdef024fb9f7123eda150376cc29091dd950ce54eee76e53a',
    ('quickstart.yaml', 'prune_only', 'greedy'): '346016f0ebf4a73b1ac46f290236747eff0de4f786b353ffe4d6e2fae0872756',
    ('quickstart.yaml', 'prune_only', 'stochastic'): '58b05c560917ac800471f8b4561f235a7319e780b8f7b84fddb8cf8b56952d64',
    ('quickstart.yaml', 'fixed_split', 'greedy'): '3ede6d071191ad11d5f8ad7ddc7ace4ed0c81a10b9fdfe35a16a3972f00be7f5',
    ('quickstart.yaml', 'fixed_split', 'stochastic'): '71fd48b606e2079f5c1da1593907f9bb90173406be0c4e03a6b18f7e6d9bcdd7',
    ('quickstart.yaml', 'graft', 'greedy'): '1eb11ab639b636d6c63ce88e35b820f25549a5810605012f87794d101dcb6dd4',
    ('quickstart.yaml', 'graft', 'stochastic'): '687458bfee7adef91af8020e98e0beab90bebdf2b60a5c896762fe9b11b2320d',
    ('quickstart.yaml', 'graft_root', 'greedy'): 'c3247c7baa678547e5bf6ee7cf95efbe2a87bae08534b4f03d68520def10d006',
    ('quickstart.yaml', 'graft_root', 'stochastic'): 'f931f056ced096d3188c070dcc6199b8905cf3e962ab0fdf4fbe0a1e47bda33a',
    ('quickstart.yaml', 'graft_tail', 'greedy'): '415aa4b9e8d31edfefd507cf9a8f02139d06a7bc33cbc245b71691a51fbe0394',
    ('quickstart.yaml', 'graft_tail', 'stochastic'): '560ab3209ee9924a4e7e5286672514a1f15646b4a229a51c0c5a3f149d0ef39c',
    ('repetitive.yaml', 'prune_only', 'greedy'): '1a9722e771d337fc4726af589676fedbb0ee3fa4e6214aa2f4dd0e3499ad8273',
    ('repetitive.yaml', 'fixed_split', 'greedy'): '37b12c6ca80db91650997ca2f30f883f95f54736deff4e4ca3f623c830948f4d',
    ('repetitive.yaml', 'graft', 'greedy'): '8761720a74c22f0780fca3aa8501b39935684622e7a5508f8ad54f66b2222ed1',
    ('repetitive.yaml', 'graft', 'stochastic'): 'ef5baf75f5c22d4bf992d35d26b2e981ad192c4ad69dce6ebfd15c766b6bee52',
    ('repetitive.yaml', 'graft_root', 'greedy'): 'a49199ed341e5b120f29b7be7697bde6b345921fb6bbbeee2449e036d2196fc6',
    ('repetitive.yaml', 'graft_tail', 'greedy'): '4f2ef40a2e5ba75d26eebd0728f25bcf4878af673419fccf305d746451b43dfc',
}

REPORT_DIGESTS = {
    'quickstart.json': 'fc39054f49588191cbe624e4f2c3ab5788190d056cdb6ca0466110c36d32ac79',
    'quickstart.csv': '7ea53360043c8568a60e7e888ce47f2a3a6f2640c7c23bc434b0f6c432c4ddaf',
    'quickstart.calibrate.json': 'c101cf7586fcc125977f99ac2a9444f4a2b51c5be2209f9f39c9c10058d52322',
    'theory.json': 'd0563327455cf438b34e03a1eec1508f964b75a3444a8834ef9d59f97b40d08e',
}

TEMPLATES_DIGEST = '07176479c8e31cf1b6f6731ef8ccd594b7fd3a8e4420df25d7b06dcde0f34394'


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("suite", ABLATION_SUITES)
def test_ablation_digest(suite, tmp_path, capsys):
    with at_root():
        assert main(["--config", "configs/quickstart.yaml", "--out-dir", str(tmp_path), "ablation", "--suite", suite]) == 0
    capsys.readouterr()
    for ext in ("json", "csv"):
        data = (tmp_path / f"quickstart.ablation_{suite}.{ext}").read_bytes()
        assert _sha256(data) == ABLATION_DIGESTS[(suite, ext)], ext


def test_dump_templates_digest(capsys):
    assert main(["dump-templates", "--full"]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == TEMPLATES_DIGEST


@pytest.mark.parametrize("config, method, acceptance", list(TREE_DUMP_DIGESTS))
def test_tree_dump_digest(config, method, acceptance, tmp_path, capsys):
    path = f"configs/{config}"
    if acceptance == "stochastic":
        text = (ROOT / path).read_text(encoding="utf-8")
        assert "acceptance: greedy" in text
        path = tmp_path / "stochastic.yaml"
        path.write_text(text.replace("acceptance: greedy", "acceptance: stochastic"), encoding="utf-8")
    argv = ["--config", str(path), "--out-dir", str(tmp_path), "--method", method, "decode", "--dump-trees", "trees.txt"]
    with at_root():
        assert main(argv) == 0
    capsys.readouterr()
    assert _sha256((tmp_path / "trees.txt").read_bytes()) == TREE_DUMP_DIGESTS[(config, method, acceptance)]


@pytest.mark.parametrize(
    "argv, files",
    [
        (["--config", "configs/quickstart.yaml", "decode"], ("quickstart.json", "quickstart.csv")),
        (["--config", "configs/quickstart.yaml", "calibrate"], ("quickstart.calibrate.json",)),
        (["theory", "--trials", "50"], ("theory.json",)),
    ],
    ids=["decode", "calibrate", "theory"],
)
def test_report_digest(argv, files, tmp_path, capsys):
    with at_root():
        assert main(["--out-dir", str(tmp_path), *argv]) == 0
    capsys.readouterr()
    for name in files:
        assert _sha256((tmp_path / name).read_bytes()) == REPORT_DIGESTS[name], name

"""Golden memo keys: the on-disk store's addresses must not drift.

Every persisted artifact lives at ``<kind>/<key_digest(key)>.pkl`` and the
sweep service uses the same digests as task ids, so a key that changes by
one byte orphans every existing cache entry and renames every sweep task.
The digests below were computed for ``ExperimentConfig.smoke()`` on PR/lj
(GRASP where a scheme is keyed, the default chunk budget where the budget
is) and pin both the key functions and the entries the runner really writes.
"""

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.memo import MEMO_VERSION, DiskMemo, key_digest
from repro.experiments.runner import (
    CorunSpec,
    build_workload,
    corun_memo_key,
    llc_chunks,
    llcstream_memo_key,
    llcstream_summary_memo_key,
    policystream_memo_key,
    set_disk_memo,
    simulate_corun,
    simulate_scheme,
    stream_summary,
    workload_memo_key,
)

pytestmark = pytest.mark.usefixtures("memo_isolation")

CONFIG = ExperimentConfig.smoke()
CORUN = CorunSpec(pairs=(("PR", "lj"), ("PR", "lj")))

#: The memo kinds a run writes; nothing else may appear under the store.
LIVE_KINDS = {"workload", "llcchunk", "llcstream", "policystream", "corun"}

#: (memo kind, key, golden digest), ROI rows first.  Each scope's
#: ``llcstream`` kind holds a budget-less summary and a manifest (the ROI's
#: keyed by ``None``, the execution's by the default chunk budget);
#: ``llcchunk`` is chunk 0 of the stored stream.
GOLDEN = [
    ("workload", workload_memo_key("PR", "lj", "dbg", CONFIG),
     "8f3ed7053d0cd5254a3d8d44fc8e6b5499ffdb2022ccee6910fff747b82654a0"),
    ("llcstream", llcstream_summary_memo_key("PR", "lj", "dbg", CONFIG, streaming=False),
     "ad5d21662ef59064e337d0f4186ea4b36778f722d73a3c137a879941a63dc42c"),
    ("llcstream", llcstream_memo_key("PR", "lj", "dbg", CONFIG, streaming=False),
     "921d3255f23465be166ac6332dd2e7dfae95a89c24a49dd8ddcd358714212609"),
    ("llcchunk", llcstream_memo_key("PR", "lj", "dbg", CONFIG, streaming=False) + (0,),
     "0dd1cb0a258d283bbba2c17e95f20b4a7fff28c4ada89033d32ad90f62922eee"),
    ("policystream",
     policystream_memo_key("PR", "lj", "dbg", "GRASP", CONFIG, streaming=False),
     "73598754dc48f249a76cdc1122725808f274f099058fe968a802729255e0970e"),
    ("llcstream", llcstream_summary_memo_key("PR", "lj", "dbg", CONFIG, streaming=True),
     "d38651dd8c1bddb0bb7c0929371f96fea8c9770ef5a016a029d1aa01b254ea88"),
    ("llcstream", llcstream_memo_key("PR", "lj", "dbg", CONFIG, streaming=True),
     "22cb1cc88afb8ee929dd00806efb591ac91b3acb0ea9b9f7971959a76a9c7f39"),
    ("llcchunk", llcstream_memo_key("PR", "lj", "dbg", CONFIG, streaming=True) + (0,),
     "60019a8025b2eb80271a11d743308da0686bdf91c9fc150f0cb2cd160684aa32"),
    ("policystream",
     policystream_memo_key("PR", "lj", "dbg", "GRASP", CONFIG, streaming=True),
     "557a7c93740393b91b4c9157486aa153899f4e2f4d85e6a204adb507b2931666"),
    ("corun", corun_memo_key(CORUN, "dbg", "GRASP", CONFIG),
     "215317d78471d8293f62ccf1d872713949d4fd03761cc8f2c93a371effaa1af4"),
]
IDS = [
    "workload", "llcstream-roi", "llcstream-roi-manifest", "llcchunk-roi",
    "policystream-roi", "llcstream", "llcstream-budget", "llcchunk", "policystream",
    "corun",
]


def test_memo_version_is_4():
    assert MEMO_VERSION == 4


@pytest.mark.parametrize("kind,key,digest", GOLDEN, ids=IDS)
def test_key_digest_is_golden(kind, key, digest):
    assert key_digest(key) == digest


def test_runs_write_entries_at_the_golden_keys(tmp_path):
    """Both scopes' staged paths (each filtered stream stored first, as a
    staged replay under the disk memo stores it) and a co-run write every
    kind, and nothing but the five live kinds."""
    memo = DiskMemo(tmp_path)
    set_disk_memo(memo)
    workload = build_workload("PR", "lj", config=CONFIG)
    for streaming in (False, True):
        for _ in llc_chunks(workload, CONFIG, streaming):
            pass
        simulate_scheme(workload, "GRASP", CONFIG, streaming=streaming)
    stream_summary(workload, CONFIG)
    simulate_corun(CORUN, "GRASP", CONFIG)
    for kind, _, digest in GOLDEN:
        assert (memo.root / kind / f"{digest}.pkl").is_file(), kind
    assert {path.name for path in memo.root.iterdir()} == LIVE_KINDS

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
    DEFAULT_CHUNK_ACCESSES,
    CorunSpec,
    build_workload,
    corun_memo_key,
    llcstream_summary_memo_key,
    llctrace_memo_key,
    policy_memo_key,
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

#: (memo kind, key, golden digest).  ``llctrace`` doubles as the
#: ``roisummary`` key; ``llcchunk`` is chunk 0 of the budget-keyed stream.
GOLDEN = [
    ("workload", workload_memo_key("PR", "lj", "dbg", CONFIG),
     "8f3ed7053d0cd5254a3d8d44fc8e6b5499ffdb2022ccee6910fff747b82654a0"),
    ("llctrace", llctrace_memo_key("PR", "lj", "dbg", CONFIG),
     "d35b82e4f071093192f5f8756ba65ac5073d4530d3ce606324ef23ed3248d42d"),
    ("roisummary", llctrace_memo_key("PR", "lj", "dbg", CONFIG),
     "d35b82e4f071093192f5f8756ba65ac5073d4530d3ce606324ef23ed3248d42d"),
    ("policy", policy_memo_key("PR", "lj", "dbg", "GRASP", CONFIG),
     "3077c2ca869a872c0ec78d35b2969b193ebfc4248d2e0ee8bbcd0da6c0583deb"),
    ("llcstream", llcstream_summary_memo_key("PR", "lj", "dbg", CONFIG),
     "d38651dd8c1bddb0bb7c0929371f96fea8c9770ef5a016a029d1aa01b254ea88"),
    ("llcstream",
     llcstream_summary_memo_key("PR", "lj", "dbg", CONFIG) + (DEFAULT_CHUNK_ACCESSES,),
     "22cb1cc88afb8ee929dd00806efb591ac91b3acb0ea9b9f7971959a76a9c7f39"),
    ("llcchunk",
     llcstream_summary_memo_key("PR", "lj", "dbg", CONFIG) + (DEFAULT_CHUNK_ACCESSES, 0),
     "60019a8025b2eb80271a11d743308da0686bdf91c9fc150f0cb2cd160684aa32"),
    ("policystream", policystream_memo_key("PR", "lj", "dbg", "GRASP", CONFIG),
     "557a7c93740393b91b4c9157486aa153899f4e2f4d85e6a204adb507b2931666"),
    ("corun", corun_memo_key(CORUN, "dbg", "GRASP", CONFIG),
     "215317d78471d8293f62ccf1d872713949d4fd03761cc8f2c93a371effaa1af4"),
]
IDS = [
    "workload", "llctrace", "roisummary", "policy", "llcstream",
    "llcstream-budget", "llcchunk", "policystream", "corun",
]


def test_memo_version_is_4():
    assert MEMO_VERSION == 4


@pytest.mark.parametrize("kind,key,digest", GOLDEN, ids=IDS)
def test_key_digest_is_golden(kind, key, digest):
    assert key_digest(key) == digest


def test_runs_write_entries_at_the_golden_keys(tmp_path):
    """Both scopes' staged paths (``shared``) and a co-run write every kind."""
    memo = DiskMemo(tmp_path)
    set_disk_memo(memo)
    workload = build_workload("PR", "lj", config=CONFIG)
    simulate_scheme(workload, "GRASP", CONFIG, shared=True)
    stream_summary(workload, CONFIG)
    simulate_scheme(workload, "GRASP", CONFIG, streaming=True, shared=True)
    simulate_corun(CORUN, "GRASP", CONFIG)
    for kind, _, digest in GOLDEN:
        assert (memo.root / kind / f"{digest}.pkl").is_file(), kind

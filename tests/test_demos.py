"""Every narrative demo runs to completion and prints what it printed when
its digest was recorded.

The demos are deterministic, so a changed digest means some output of the
library changed.  After an intended change, record the new digests with

    for d in demos/*.py; do PYTHONPATH=src python "$d" | sha256sum; done
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout
STDOUT_SHA256 = {
    "01_build_and_sample.py": "4e772e755c226aead38a1b9960b291cb869b4b19439de7b63af84fbbea63bb4d",
    "02_recovery_threshold.py": "e18743d7d809b8d45b4275a91f048a6837d923f5ada725178558fdc7d28db02b",
    "03_two_stage_recovery.py": "5871f613cf18e04bddb10f7430a3e60bc43bd0e7e6fa32899c425c56ff46b8bb",
    "04_phase_transition.py": "ab94845a7d4c05d315a51a0b1d7154435176817215c95e9067b59efd1ddb9735",
    "05_count_and_aggregate.py": "63f5eccaf7bcf84a9548da017d3a62370d584e8af68ffae242c369a3c665b0c2",
}


def test_every_demo_has_a_digest():
    assert sorted(STDOUT_SHA256) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo.name]

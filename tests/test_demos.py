"""Each narrative script under demos/ runs to completion and prints what it
printed when its digest below was taken."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout. checkpoint_surgery.py prints the temporary
# directory it made under TMPDIR, which is replaced by TMPDIR_TOKEN first.
STDOUT_SHA256 = {
    "checkpoint_surgery.py": "7e52cd880bc993d4d7e2af473655e06a14ecd6a2c9cda6f351a3876895d8dcb4",
    "filtering_walkthrough.py": "a3ecd13014c3051087b43e2ac8cb1db39cdad69c0134510dd1d94600b453af15",
    "loss_playground.py": "61c01ef39dfd32b541832d69e695d5116fd5ce90d59c451451f24aaa8e916016",
    "motion_model_training.py": "5784d063e0f0ef85928121c8f7ee3705c002fed434564e0b8e54a838221b0179",
}
TMPDIR_TOKEN = "<tmpdir>"


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    argv = [sys.executable, "-W", "error::RuntimeWarning", str(script)]
    result = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    stdout = re.sub(re.escape(str(tmp_path)) + r"/\S+", TMPDIR_TOKEN, result.stdout)
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_SHA256[script.name], stdout

"""Start-up import weight: the CLI and the daemon must not pull in the
replay kernel or numpy.

``repro serve`` start-up time is measured up to the daemon's first
``/healthz``, and every command pays ``import repro.cli``; numpy alone
costs a sizeable share of that.  The kernel (and with it numpy) is
imported lazily where a columnar replay needs it, so a fresh
interpreter that only imports the package, the CLI and the daemon, and
builds the smoke scenario's cache, must never load either.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import sys
import repro
import repro.cli
import repro.serve.server
from repro.serve import load_scenario
load_scenario("scenarios/smoke.json").build_cache()
print(sorted({"repro.sim.kernel", "numpy"} & set(sys.modules)))
"""


def test_cli_and_daemon_imports_skip_kernel_and_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        cwd=str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

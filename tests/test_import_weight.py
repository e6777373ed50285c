"""Start-up import weight: the CLI and the daemon must not pull in the
replay kernel, numpy or the standard library's HTTP stack.

``repro serve`` start-up time is measured up to the daemon's first
``/healthz``, and every command pays ``import repro.cli``; numpy alone
costs a sizeable share of that.  The kernel (and with it numpy) is
imported lazily where a columnar replay needs it, and the served path
frames HTTP itself (``repro.obs.host``), so a fresh interpreter that
imports the package, the CLI and the daemon, builds the smoke
scenario's cache and starts and stops a daemon must never load any of
them.
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
from repro.serve import CacheDaemon, load_scenario
scenario = load_scenario("scenarios/smoke.json")
scenario.build_cache()
CacheDaemon(scenario).start().close()
heavy = {"repro.sim.kernel", "numpy", "http.server", "http.client", "email.parser"}
print(sorted(heavy & set(sys.modules)))
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

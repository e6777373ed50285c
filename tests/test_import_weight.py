"""Start-up import weight: each command loads only what it runs.

``repro serve`` start-up time is measured up to the daemon's first
``/healthz``, and every command pays ``import repro.cli``.  The package
roots resolve their public names lazily (``repro._lazy``), the CLI
imports a subcommand's front end only when that subcommand is parsed,
and the evaluation table names its runners without importing them.  So
a started daemon has loaded the serving stack and nothing else,
``repro --help`` loads no runner, and no start-up loads the replay
kernel, numpy or the standard library's HTTP stack.  The columnar
replay itself runs on the standard library alone: it never even tries
to import numpy.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ)
ENV["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + ENV.get("PYTHONPATH", "")

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
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        cwd=str(REPO_ROOT),
        env=ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


NUMPY_TRAP = """
import json
import sys

attempts = []


class Trap:
    # Consulted before every other finder, so an import of numpy is
    # recorded whether or not numpy is installed.
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            attempts.append(name)
        return None


sys.meta_path.insert(0, Trap)

from repro.obs import collecting
from repro.sim.engine import DistributedFileSystem
from repro.traces.columnar import ColumnarTrace
from repro.workloads.synthetic import make_workload

trace = make_workload("write", 3000)
ctrace = ColumnarTrace.from_trace(trace)
with collecting() as registry:
    DistributedFileSystem(client_capacity=60, server_capacity=90).replay(ctrace)
print(json.dumps({
    "kernel_v2": registry.snapshot()["counters"].get("engine.replay.path.kernel_v2"),
    "unique_files": [ctrace.unique_files(), trace.unique_files()],
    "attempts": attempts,
}))
"""


def test_columnar_replay_never_imports_numpy():
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_TRAP],
        cwd=str(REPO_ROOT),
        env=ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["kernel_v2"] == 1
    unique, expected = report["unique_files"]
    assert unique == expected > 0
    assert report["attempts"] == []


def _repro_modules(importtime: str) -> set:
    """The ``repro`` modules named by ``python -X importtime`` output."""
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in importtime.splitlines()
        if line.startswith("import time:")
    }
    return {name for name in names if name == "repro" or name.startswith("repro.")}


def _in_layer(module: str, *layers: str) -> bool:
    return any(module == f"repro.{layer}" or module.startswith(f"repro.{layer}.")
               for layer in layers)


def test_daemon_start_imports_only_the_serving_stack(tmp_path):
    port_file = tmp_path / "port"
    stderr = tmp_path / "stderr"
    with stderr.open("w") as sink:
        process = subprocess.Popen(
            [
                sys.executable, "-X", "importtime", "-m", "repro", "serve",
                "scenarios/smoke.json", "--port-file", str(port_file),
            ],
            cwd=str(REPO_ROOT),
            env=ENV,
            stdout=subprocess.DEVNULL,
            stderr=sink,
        )
        try:
            deadline = time.monotonic() + 30
            while not (port_file.exists() and port_file.read_text().endswith("\n")):
                assert process.poll() is None, stderr.read_text()
                assert time.monotonic() < deadline, "daemon never wrote its port"
                time.sleep(0.05)
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0, stderr.read_text()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
    modules = _repro_modules(stderr.read_text())
    assert "repro.serve.server" in modules
    offlayer = {
        module
        for module in modules
        if _in_layer(
            module, "experiments", "analysis", "workloads", "sim", "hoarding", "placement"
        )
    }
    assert not offlayer
    caching = {module for module in modules if _in_layer(module, "caching")}
    assert caching <= {"repro.caching", "repro.caching.base", "repro.caching.lru"}
    assert len(modules) <= 25, sorted(modules)


def test_help_imports_no_runner():
    import repro.experiments

    runners = {
        getattr(repro.experiments, name).__module__
        for name in repro.experiments.__all__
        if name.startswith("run_")
    }
    assert "repro.experiments.fig3" in runners
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "--help"],
        cwd=str(REPO_ROOT),
        env=ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "fig3" in result.stdout and "serve" in result.stdout
    modules = _repro_modules(result.stderr)
    assert "repro.experiments.studies" in modules
    assert not modules & runners
    assert not {module for module in modules if _in_layer(module, "sim")}


EXPORTS_PROBE = """
import json, pkgutil, sys
from importlib import import_module

import repro

PACKAGES = ["repro"] + [
    "repro." + name
    for name in ("analysis", "caching", "core", "experiments", "hoarding", "obs",
                 "placement", "serve", "sim", "traces", "workloads")
]
if sys.argv[1] == "walked":
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            import_module(info.name)
checked, failures = 0, []
for package_name in PACKAGES:
    package = import_module(package_name)
    origin = {
        name: module for module, names in package._EXPORTS.items() for name in names
    }
    if sorted(origin) != sorted(package.__all__):
        failures.append([package_name, "__all__ differs from the export table"])
    for name in package.__all__:
        checked += 1
        value = getattr(package, name)
        defining = import_module(package_name + "." + origin[name])
        if value is not getattr(defining, name):
            failures.append([package_name, name, "not the defining module's object"])
        if name not in dir(package):
            failures.append([package_name, name, "missing from dir()"])
print(json.dumps({"checked": checked, "failures": failures}))
"""


def test_every_exported_name_resolves_to_its_definition():
    for mode in ("fresh", "walked"):
        result = subprocess.run(
            [sys.executable, "-c", EXPORTS_PROBE, mode],
            cwd=str(REPO_ROOT),
            env=ENV,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["failures"] == [], mode
        # The 12 package roots export 378 names; a name dropped from an
        # export table (or added without its row) changes the count.
        assert report["checked"] == 378, mode

"""Run a test on a host with numpy loaded and on one without it.

The replay kernel and the array eviction core are pure Python, so
their counts must not depend on whether numpy is around.  A test
parametrized over :data:`NUMPY_HOSTS` runs its body twice:

* ``numpy`` — numpy is imported first, as on a host whose other
  libraries load it (only where numpy is installed);
* ``pure`` — numpy cannot be imported, and the body fails if anything
  it runs even tries.
"""

import contextlib
import importlib
import importlib.util
import sys

NUMPY_HOSTS = ("numpy", "pure") if importlib.util.find_spec("numpy") else ("pure",)


class _NumpyTrap:
    """A meta-path finder that refuses numpy and records each attempt."""

    def __init__(self):
        self.attempts = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            self.attempts.append(name)
            raise ImportError(f"numpy is not importable on the pure host: {name}")
        return None


@contextlib.contextmanager
def numpy_host(host):
    """Run the body on *host*, one of :data:`NUMPY_HOSTS`.

    A context manager rather than a fixture so that hypothesis tests
    can enter it in their body without tripping the
    function-scoped-fixture health check.
    """
    if host == "numpy":
        importlib.import_module("numpy")
        yield
        return
    trap = _NumpyTrap()
    # An already imported numpy would satisfy ``import numpy`` from
    # sys.modules before any finder is asked, so hide it for the body.
    hidden = sys.modules.pop("numpy", None)
    sys.meta_path.insert(0, trap)
    try:
        yield
    finally:
        sys.meta_path.remove(trap)
        if hidden is not None:
            sys.modules["numpy"] = hidden
    assert trap.attempts == [], f"tried to import {trap.attempts}"

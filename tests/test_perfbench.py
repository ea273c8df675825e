"""The benchmark harness still runs against the library: its self-test
passes and every tracer site names a function that exists, so a
library change that would break traced benchmark runs fails here
first."""

import importlib.util
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def test_selftest_passes():
    done = subprocess.run([sys.executable, os.path.join(PERFBENCH, "selftest.py")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and "selftest passed" in done.stdout, done.stdout + done.stderr


@pytest.mark.parametrize("owner, attr, name", tracer.SITES)
def test_tracer_site_resolves(owner, attr, name):
    """``Tracer.install`` wraps ``owner.__dict__[attr]``."""
    assert callable(tracer._resolve(owner).__dict__[attr])

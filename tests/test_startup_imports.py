"""Start-up stays free of numpy (the optional ``[fast]`` extra).

numpy costs tens of milliseconds to import; only the zipf workload
sampler and the vector kernel use it, and both import it on first use.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_facade_cli_and_reliability_do_not_import_numpy():
    code = (
        "import sys\n"
        "import repro.api, repro.cli, repro.reliability\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"


def test_lazy_exports_still_resolve():
    import repro.reliability as reliability
    from repro.reliability import vector

    assert reliability.HAVE_NUMPY is vector.HAVE_NUMPY
    assert reliability.run_trials_vector is vector.run_trials_vector


def test_workloads_do_not_import_reliability():
    """The generators share ``randbelow`` through the leaf ``repro.rng``,
    not through :mod:`repro.reliability` and its dozens of modules."""
    code = (
        "import sys\n"
        "import repro.workloads\n"
        "print(sorted(m for m in sys.modules if m.startswith("
        "'repro.reliability')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]"

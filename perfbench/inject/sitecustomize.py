"""Known extra cost for the self-test's known-cost check.

``run.py`` puts this directory on the ``PYTHONPATH`` of the measured
process and of the ``repro serve`` replicas only when
``PERFBENCH_INJECT_SETUP`` or ``PERFBENCH_INJECT_REQUEST`` is set.  Each
gives a number of runs of the calibration kernel (``calibrate.kernel``),
whose uncontended cost is known (``calibrate.REFERENCE_S`` a run):

* ``PERFBENCH_INJECT_SETUP`` runs at interpreter start, so set-up grows;
* ``PERFBENCH_INJECT_REQUEST`` runs after every ``repro.api.execute``:
  each request of the in-process workloads, each job a server executes.

If the normalization hid part of the program's own cost, normalized
times would rise by less than the known cost
(``python3 perfbench/selftest.py --known-cost``).
"""

import importlib.util
import os

_spec = importlib.util.spec_from_file_location(
    "perfbench_calibrate",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "calibrate.py"),
)
_calibrate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_calibrate)


def _burn(runs: int) -> None:
    for _ in range(runs):
        _calibrate.kernel()


def _wrap_execute(runs: int) -> None:
    import repro.api as api

    inner = api.execute

    def execute(kind, request, **kwargs):
        try:
            return inner(kind, request, **kwargs)
        finally:
            _burn(runs)

    api.execute = execute


_burn(int(os.environ.get("PERFBENCH_INJECT_SETUP") or 0))
if int(os.environ.get("PERFBENCH_INJECT_REQUEST") or 0):
    _wrap_execute(int(os.environ["PERFBENCH_INJECT_REQUEST"]))

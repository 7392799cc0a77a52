"""Self-test of the benchmark harness at tiny sizes.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py               # under a minute
    python3 perfbench/selftest.py --known-cost  # about five minutes

Checks that

* ``BENCHMARK.json`` names the harness's workloads and one
  ``reliability.kernel.<name>.trials_per_s`` per kernel in
  ``repro.reliability.campaign.KERNELS``;
* every workload, untraced and traced, prints every metric named in
  ``BENCHMARK.json`` with its unit, and reports no failed operation;
* in every written trace, self times are non-negative and no larger
  than their own span or their parent span;
* the autotune grid makes 12 simulations of which 3 are distinct;
* an injected digest mismatch counts as failed operations;
* without ``src/repro`` the harness exits non-zero and prints no result.

``--known-cost`` instead checks that normalized times belong to the
program: it adds a known amount of work (``inject/sitecustomize.py``)
to start-up and to every request, in the measured process and in the
servers, and checks that ``setup_s``, ``latency_p50_s`` and (in
process) ``wall_s`` rise by that amount, within
:data:`KNOWN_COST_TOLERANCE`, over full-size runs.  A normalization
that counted the program's own load as a slow machine would hide part
of it.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
from workloads import FACTORIES, WORKLOADS  # noqa: E402

#: Request size factor and window of the tiny runs.
SCALE = "0.02"
SECONDS = "0.3"
EPS = 1e-6

#: Known-cost check: calibration-kernel runs added at each interpreter
#: start and after each ``api.execute``, per workload.
KNOWN_COST = {"campaign": (180, 180), "service-mix": (180, 18)}
#: Plain/injected run pairs (one seed each) and their window.
KNOWN_COST_PAIRS = 3
KNOWN_COST_SECONDS = "6"
#: Largest accepted deviation of a measured rise from the known cost.
KNOWN_COST_TOLERANCE = 0.3


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", SECONDS,
         "--trace", str(trace), "--scale", SCALE],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def check_spec() -> None:
    from repro.reliability.campaign import KERNELS

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in doc["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json lists the harness's workloads")
    kernels = [
        m["name"].split(".")[2] for m in doc["per_layer"]
        if m["name"].startswith("reliability.kernel.")
    ]
    check(kernels == list(KERNELS),
          f"one kernel throughput metric per kernel {list(KERNELS)}")


def check_trace(path: Path) -> None:
    doc = json.loads(path.read_text())
    durations = {s["id"]: s["end"] - s["start"] for s in doc["spans"]}
    for span in doc["spans"]:
        own = span["self_s"]
        check_quiet(own >= -EPS, f"span {span['name']} self {own} < 0")
        check_quiet(own <= durations[span["id"]] + EPS,
                    f"span {span['name']} self exceeds its duration")
        if span["parent"] is not None:
            check_quiet(own <= durations[span["parent"]] + EPS,
                        f"span {span['name']} self exceeds its parent")
    for agg in doc["aggregates"]:
        check_quiet(-EPS <= agg["self_s"] <= agg["total_s"] + EPS,
                    f"aggregate {agg['name']} self outside [0, total]")
    check(True, f"{path.name}: {len(doc['spans'])} spans and "
                f"{len(doc['aggregates'])} aggregates have consistent "
                "self times")


def check_quiet(condition: bool, message: str) -> None:
    if not condition:
        check(False, message)


def check_runs() -> None:
    spec = metrics.load_spec()
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = run(workload, trace)
            check(out.returncode == 0,
                  f"{workload} trace={trace} exits 0 {out.stderr[-1500:]}")
            doc = json.loads(out.stdout.strip().splitlines()[-1])
            check(set(doc) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} trace={trace}: result keys")
            check(doc["correct"] and doc["failed"] == 0
                  and doc["attempted"] >= 1,
                  f"{workload} trace={trace}: correct, nothing failed")
            emitted = {k: v["unit"] for k, v in doc["metrics"].items()}
            check(emitted == spec[kind],
                  f"{workload} trace={trace}: every {kind} metric with "
                  "its unit")
            if not trace:
                check(all(v["value"] > 0 for v in doc["metrics"].values()),
                      f"{workload}: end-to-end metrics are positive")
                continue
            check_trace(HERE / "out" / f"trace-{workload}-seed1.json")
            values = {k: v["value"] for k, v in doc["metrics"].items()}
            if workload == "autotune-grid":
                check(values["experiments.runner.sim_calls"] == 12
                      and values["experiments.runner.distinct_sims"] == 3,
                      "autotune-grid: 12 simulations, 3 distinct")


def check_mismatch() -> None:
    import worker
    from service_mix import MixRun

    workload = FACTORIES["campaign"](1, float(SCALE))
    wrong = ["0" * 64] * len(workload.requests)
    passes, _, failed, errors = worker.run_passes(workload, 0.0, wrong)
    check(failed == passes[0].attempted and "digest" in errors[0],
          "an injected digest mismatch fails every request of the pass")
    mix = MixRun(1, golden=["0" * 64])
    check(mix.check(0, {"doc": 1}) is not None,
          "an injected service golden mismatch is reported")
    check(mix.check(1, {"doc": 1}) is None
          and mix.check(1, {"doc": 2}) is not None,
          "a repeated service request must return the same document")


def check_no_src() -> None:
    bare = HERE / "out" / "selftest-no-src"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run("campaign", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(out.returncode != 0 and "{" not in out.stdout,
          "without src/repro the harness fails and prints no result")


def measure(workload: str, seed: int, inject: dict) -> dict:
    """End-to-end metrics of one full-size untraced run."""
    env = dict(os.environ)
    for name in ("PERFBENCH_INJECT_SETUP", "PERFBENCH_INJECT_REQUEST"):
        env.pop(name, None)
    env.update(inject)
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", KNOWN_COST_SECONDS,
         "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=300, env=env,
    )
    check_quiet(out.returncode == 0,
                f"{workload} seed {seed} {inject}: {out.stderr[-1500:]}")
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    check_quiet(doc["failed"] == 0, f"{workload} seed {seed}: failed ops")
    return {k: v["value"] for k, v in doc["metrics"].items()}


def check_known_cost() -> None:
    from calibrate import REFERENCE_S
    from run import REPLICAS

    for workload, (setup_runs, request_runs) in KNOWN_COST.items():
        inject = {"PERFBENCH_INJECT_SETUP": str(setup_runs),
                  "PERFBENCH_INJECT_REQUEST": str(request_runs)}
        expected = {
            "setup_s": setup_runs * REFERENCE_S
            * (REPLICAS if workload == "service-mix" else 1),
            "latency_p50_s": request_runs * REFERENCE_S,
        }
        if workload in FACTORIES:
            requests = len(FACTORIES[workload](1).requests)
            expected["wall_s"] = request_runs * REFERENCE_S * requests
        rises = {name: [] for name in expected}
        for seed in range(1, KNOWN_COST_PAIRS + 1):
            plain = measure(workload, seed, {})
            injected = measure(workload, seed, inject)
            for name in expected:
                rises[name].append(injected[name] - plain[name])
        for name, want in expected.items():
            got = statistics.median(rises[name])
            check(abs(got / want - 1.0) <= KNOWN_COST_TOLERANCE,
                  f"{workload}: {name} rises by {got:.4g} s for a known "
                  f"{want:.4g} s ({got / want:.2f}x; pairs "
                  + ", ".join(f"{r:.4g}" for r in rises[name]) + ")")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--known-cost", action="store_true",
                        help="only check that a known added cost shows "
                             "in the normalized times (full-size runs)")
    if parser.parse_args(argv).known_cost:
        check_known_cost()
        print("known-cost check passed")
        return 0
    check_spec()
    check_mismatch()
    check_no_src()
    check_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

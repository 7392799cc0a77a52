"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric (``setup_s`` from several
fresh start-ups, the rest from one untraced measured process);
``--trace 1`` prints every per-layer metric from a traced run and
writes its spans to ``perfbench/out/``.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is run from this checkout's ``src``; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh start-ups timed for ``setup_s``, before the measured process
#: starts; ``setup_s`` is their lower quartile (``metrics.setup_floor``).
SETUP_SAMPLES = 9
#: Replicas of ``repro serve`` the service-mix clients talk to.
REPLICAS = 2
#: Environment variables of the self-test's known-cost check: fixed
#: extra work at interpreter start and after every ``api.execute``, in
#: the measured process and the servers alike (``inject/``).
INJECT_VARS = ("PERFBENCH_INJECT_SETUP", "PERFBENCH_INJECT_REQUEST")
#: Ceiling on set-up plus the measured process, leaving time under the
#: 180 s a run may take to stop the processes.
RUN_LIMIT_S = 150.0


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    if any(env.get(name) for name in INJECT_VARS):
        # The self-test's known extra cost (inject/sitecustomize.py).
        env["PYTHONPATH"] += os.pathsep + str(HERE / "inject")
    env["PYTHONUNBUFFERED"] = "1"
    # Keep every default cache location inside the checkout.
    env["REPRO_CACHE_DIR"] = str(OUT / "sweep-cache")
    env["REPRO_SERVICE_DIR"] = str(OUT / "service")
    return env


def _readline(proc: subprocess.Popen, deadline: float) -> Optional[str]:
    """Next stdout line of ``proc``, or None at EOF or ``deadline``."""
    box: List[Optional[str]] = [None]

    def read() -> None:
        line = proc.stdout.readline()
        box[0] = line if line else None

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(max(0.0, deadline - time.monotonic()))
    return box[0]


def _stop(proc: subprocess.Popen, sig: int = signal.SIGTERM) -> None:
    """Ask ``proc`` to exit, then make sure it has.

    SIGTERM, not SIGINT: a benchmark started in the background from a
    non-interactive shell inherits an ignored SIGINT, and so would the
    servers it starts.
    """
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def _worker_cmd(args, extra: List[str]) -> List[str]:
    return [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", str(args.scale), *extra,
    ]


Stamps = Tuple[float, float]


def _start_worker(args, extra: List[str]) -> Tuple[subprocess.Popen, Stamps]:
    """Start a worker; returns it and its set-up (spawn, READY) stamps."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        _worker_cmd(args, extra), stdout=subprocess.PIPE, text=True,
        env=_env(), cwd=ROOT,
    )
    line = _readline(proc, time.monotonic() + 60)
    if line is None or line.strip() != "READY":
        _stop(proc, signal.SIGKILL)
        raise RuntimeError(f"worker did not become ready: {line!r}")
    return proc, (t0, time.perf_counter())


# -- service replicas ---------------------------------------------------------


class Replicas:
    """``REPLICAS`` ``repro serve`` processes on one fresh data dir."""

    def __init__(self, tag: str) -> None:
        self.data_dir = OUT / f"service-{os.getpid()}-{tag}"
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.procs: List[subprocess.Popen] = []
        self.urls: List[str] = []
        self.logs = []

    def start(self) -> Stamps:
        """Start the replicas one after the other; returns (first
        spawn, last healthy) stamps.

        Not concurrently: two replicas opening a fresh ``fabric.db`` at
        the same moment can fail with ``database is locked`` on the
        first ``PRAGMA journal_mode=WAL`` (a start-up race in
        ``repro.service.fabric``, seen twice in about forty concurrent
        starts), and a replica that does not start leaves nothing to
        measure.
        """
        t0 = time.perf_counter()
        self.data_dir.mkdir(parents=True)
        deadline = time.monotonic() + 60
        for i in range(REPLICAS):
            log = open(self.data_dir / f"replica-{i}.log", "w")
            self.logs.append(log)
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--data-dir", str(self.data_dir),
                 "--replica-id", f"bench-{i}"],
                stdout=subprocess.PIPE, stderr=log, text=True,
                env=_env(), cwd=ROOT,
            )
            self.procs.append(proc)
            line = _readline(proc, deadline)
            if not line or "http://" not in line:
                log.flush()
                text = (self.data_dir / f"replica-{i}.log").read_text()
                raise RuntimeError(
                    f"repro serve did not start: {line!r}\n{text[-2000:]}"
                )
            url = "http://" + line.split("http://", 1)[1].split()[0]
            self._wait_healthy(url, deadline)
            self.urls.append(url)
        return t0, time.perf_counter()

    @staticmethod
    def _wait_healthy(url: str, deadline: float) -> None:
        while True:
            try:
                with urllib.request.urlopen(url + "/v1/healthz",
                                            timeout=5) as resp:
                    if resp.status == 200:
                        return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"{url} never became healthy")
            time.sleep(0.01)

    def stop(self) -> None:
        for proc in self.procs:
            _stop(proc)
        for log in self.logs:
            log.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)


# -- one run ------------------------------------------------------------------


def _probe(args, i: int) -> Stamps:
    """One fresh start-up that is then shut down; its stamps."""
    if args.workload == "service-mix":
        replicas = Replicas(f"probe{i}")
        try:
            return replicas.start()
        finally:
            replicas.stop()
    proc, stamps = _start_worker(args, ["--probe"])
    proc.wait(timeout=30)
    _stop(proc)
    return stamps


def _collect(proc: subprocess.Popen, deadline: float) -> dict:
    """The worker's last stdout line, parsed; raises on failure."""
    lines = []
    while True:
        line = _readline(proc, deadline)
        if line is None:
            break
        lines.append(line)
    if time.monotonic() > deadline:
        raise RuntimeError("worker exceeded the run time limit")
    code = proc.wait(timeout=30)
    if code != 0 or not lines:
        raise RuntimeError(f"worker exited with status {code}")
    return json.loads(lines[-1])


def setup_samples(args) -> Tuple[List[float], List[float]]:
    """Raw and normalized durations of ``SETUP_SAMPLES`` fresh start-ups.

    This process, the start-ups and the calibrator all run pinned to one
    CPU: the machine's CPUs slow down independently, and a start-up
    lasts only a fraction of a second, so the kernel must sample the
    CPU the start-up runs on (``calibrate.py``).  The calibrator costs
    that CPU about 2% of its time, the same on every commit.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        with calibrate.Calibrator() as cal:
            stamps = [_probe(args, i) for i in range(SETUP_SAMPLES)]
    finally:
        os.sched_setaffinity(0, cpus)
    return [b - a for a, b in stamps], [cal.normalize(a, b) for a, b in stamps]


def measure(args) -> Tuple[dict, Dict[str, float]]:
    """Run the workload once; returns (worker result, metrics)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    extra = ["--trace-out", str(trace_out)] if args.trace else []
    if args.record_golden:
        extra.append("--record-golden")
    raw_setup, setup = setup_samples(args) if not args.trace else ([], [])
    replicas = None
    proc = None
    try:
        if args.workload == "service-mix":
            replicas = Replicas("run")
            replicas.start()
            extra += [
                "--urls", ",".join(replicas.urls),
                "--server-pids",
                ",".join(str(p.pid) for p in replicas.procs),
            ]
        proc, _ = _start_worker(args, extra)
        result = _collect(proc, deadline)
    finally:
        if proc is not None:
            _stop(proc, signal.SIGKILL)
        if replicas is not None:
            replicas.stop()
    if args.trace:
        return result, result["layers"]
    result["raw"]["setup_s"] = metrics.setup_floor(raw_setup)
    return result, metrics.end_to_end(
        setup=setup,
        pass_walls=result["pass_walls"],
        work=result["work"],
        measured_s=result["measured_s"],
        latencies=result["latencies"],
        peak_rss_mb=result["peak_rss_mb"],
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="request size factor (the self-test's tiny "
                             "runs; digests are checked only at 1)")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this run's digests in golden.json "
                             "(after an intended change of results)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        result, values = measure(args)
    except (RuntimeError, OSError, ValueError) as err:
        print(f"error: {args.workload}: {err}", file=sys.stderr)
        return 1

    units = metrics.load_spec()["per_layer" if args.trace else "end_to_end"]
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not computed: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    for error in result.get("errors", []):
        print(f"failed: {error}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"golden {'checked' if result['golden_checked'] else 'not checked'}")
    for name, unit in units.items():
        print(f"  {name:<44} {values[name]:>16.6g} {unit}")
    if not args.trace:
        raw = result["raw"]
        print(f"  raw (not normalized): setup_s {raw['setup_s']:.4g} s, "
              f"wall_s {statistics.median(raw['pass_walls']):.4g} s, "
              f"measured {raw['measured_s']:.4g} s")
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

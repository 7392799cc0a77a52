"""The measured process of one benchmark run.

Started by ``run.py`` as a fresh interpreter with the checkout's
``src`` on ``PYTHONPATH``.  It imports the facade, builds the
workload's requests from the seed, prints ``READY`` (the end of
set-up), then runs passes for the measured window and prints one JSON
document of its samples, raw and normalized (``calibrate.py``), as its
last stdout line.

``--probe`` stops after ``READY``: ``run.py`` starts several probes to
time set-up.  ``--trace 1`` splits the window into an untraced half and
a traced half and reports per-layer numbers from the traced half.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"


def _ready() -> None:
    sys.stdout.write("READY\n")
    sys.stdout.flush()


def load_golden(workload: str, seed: int, scale: float) -> Optional[list]:
    """Committed digests of ``workload``, or None when not applicable."""
    from workloads import GOLDEN_SEED

    if seed != GOLDEN_SEED or scale != 1.0 or not GOLDEN_PATH.exists():
        return None
    return json.loads(GOLDEN_PATH.read_text())["workloads"].get(workload)


def record_golden(workload: str, digests: List[str]) -> None:
    doc = (
        json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists()
        else {"seed": 0, "workloads": {}}
    )
    doc["workloads"][workload] = digests
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- in-process workloads -----------------------------------------------------


def run_passes(workload, seconds: float, reference: Optional[list]):
    """Passes until ``seconds`` have elapsed (at least one).

    ``reference`` holds the expected per-request digests; None means
    the first pass sets them, so later passes are checked against it.
    Returns (passes, reference, failed, errors).
    """
    passes = []
    failed = 0
    errors: List[str] = []
    start = time.perf_counter()
    while True:
        result = workload.run_pass()
        if reference is None and not result.errors:
            reference = list(result.digests)
        for i, digest in enumerate(result.digests):
            if digest is not None and reference is not None \
                    and digest != reference[i]:
                result.failed += 1
                result.errors.append(
                    f"request {i}: digest {digest[:12]} != "
                    f"expected {reference[i][:12]}"
                )
        failed += result.failed
        errors.extend(result.errors)
        passes.append(result)
        if time.perf_counter() - start >= seconds:
            return passes, reference, failed, errors


#: Workloads that run campaigns, where a kernel change should show;
#: only they time the kernels they did not run themselves.
KERNEL_PROBE_WORKLOADS = ("campaign", "autotune-grid")


def probe_kernels(seed: int, skip: set, cal) -> Dict[str, float]:
    """Normalized trials/s of each kernel the workload did not run, on
    one shard of the nominal non-uniform cell."""
    from repro.reliability import FaultModelConfig, ShardSpec, run_shard
    from repro.reliability.campaign import KERNELS

    trials = {"batch": 20_000, "reference": 2_000, "vector": 50_000}
    rates = {}
    for kernel in KERNELS:
        if kernel in skip:
            continue
        spec = ShardSpec(
            scheme="non-uniform", index=0, trials=trials.get(kernel, 2_000),
            seed=seed, model=FaultModelConfig(), kernel=kernel,
        )
        try:
            t0 = time.perf_counter()
            run_shard(spec)
            rates[kernel] = spec.trials / cal.normalize(
                t0, time.perf_counter()
            )
        except Exception:  # e.g. the vector kernel without numpy
            rates[kernel] = 0.0
    return rates


def _timings(cal, requests, passes, work) -> Dict[str, Any]:
    """Raw and normalized timings of a measured phase.

    ``requests`` holds one list of ``(start, end)`` stamps per kind of
    request: the latency sample of a kind is its median, so the
    percentiles of a few heterogeneous requests repeated each pass do
    not fall between two kinds.  ``passes`` holds per-pass stamps and
    ``work`` the work units they did; each pass is normalized on its
    own, so the measured time is their sum.
    """
    walls = [cal.normalize(a, b) for a, b in passes]
    return {
        "pass_walls": walls,
        "latencies": [
            statistics.median(cal.normalize(a, b) for a, b in stamps)
            for stamps in requests
        ],
        "measured_s": sum(walls),
        "work": work,
        "raw": {
            "pass_walls": [b - a for a, b in passes],
            "measured_s": sum(b - a for a, b in passes),
        },
    }


def measure_inprocess(args, workload, golden, cal) -> Dict[str, Any]:
    if not args.trace:
        passes, reference, failed, errors = run_passes(
            workload, args.seconds, golden
        )
        return {
            "attempted": sum(p.attempted for p in passes),
            "failed": failed,
            "errors": errors[:10],
            "digests": reference,
            "peak_rss_mb": _peak_rss_mb(),
            **_timings(
                cal,
                [list(kind) for kind in zip(*(p.stamps for p in passes))],
                [(p.start, p.end) for p in passes],
                sum(p.work for p in passes),
            ),
        }

    import metrics
    import spans

    half = args.seconds / 2.0
    plain, reference, failed, errors = run_passes(workload, half, golden)
    tracer = spans.install(spans.Tracer())
    try:
        traced, _, traced_failed, traced_errors = run_passes(
            workload, half, reference
        )
    finally:
        tracer.uninstall()
    ran = {
        name.split(".")[2] for name in tracer.layer_times()
        if name.startswith("reliability.kernel.")
    }
    traced_wall = sum(p.end - p.start for p in traced)
    layers = metrics.layer_metrics(
        tracer,
        passes=len(traced),
        traced_wall=traced_wall,
        overhead_ratio=(
            statistics.median(cal.normalize(p.start, p.end) for p in traced)
            / statistics.median(cal.normalize(p.start, p.end) for p in plain)
        ),
        factor=traced_wall / sum(
            cal.normalize(p.start, p.end) for p in traced
        ),
        kernel_rates=(
            probe_kernels(args.seed, ran, cal)
            if args.workload in KERNEL_PROBE_WORKLOADS else {}
        ),
        service={},
    )
    tracer.dump(args.trace_out, {"workload": args.workload,
                                 "seed": args.seed, "layers": layers})
    return {
        "attempted": sum(p.attempted for p in plain + traced),
        "failed": failed + traced_failed,
        "errors": (errors + traced_errors)[:10],
        "digests": reference,
        "layers": layers,
    }


# -- service-mix --------------------------------------------------------------


def run_mix(urls: List[str], run, seconds: float, trace: bool) -> float:
    """Both client threads until ``seconds``; returns the start time."""
    from service_mix import client_loop

    start = time.perf_counter()
    threads = [
        threading.Thread(
            target=client_loop, args=(url, run, start + seconds, trace),
            name=f"client-{i}",
        )
        for i, url in enumerate(urls)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start


def mix_passes(finished: list, start: float) -> List[Tuple[float, float]]:
    """``(start, end)`` of each consecutive block of JOBS_PER_PASS jobs;
    one partial block when fewer jobs finished."""
    from service_mix import JOBS_PER_PASS

    stamps = [start] + sorted(t for t, _, _ in finished)
    if len(stamps) <= JOBS_PER_PASS:
        return [(start, stamps[-1])]
    return [
        (stamps[k * JOBS_PER_PASS], stamps[(k + 1) * JOBS_PER_PASS])
        for k in range((len(stamps) - 1) // JOBS_PER_PASS)
    ]


def measure_service(args, golden, cal) -> Dict[str, Any]:
    from service_mix import (
        GOLDEN_FRESH, JOBS_PER_PASS, MixRun, fresh_digests,
        servers_peak_rss_mb,
    )

    urls = args.urls.split(",")
    if not args.trace:
        pids = [int(p) for p in args.server_pids.split(",")]
        run = MixRun(args.seed, golden, pids)
        start = run_mix(urls, run, args.seconds, trace=False)
        passes = mix_passes(run.finished, start)
        return {
            "attempted": len(run.finished),
            "failed": len(run.errors),
            "errors": run.errors[:10],
            "digests": fresh_digests(run)[:GOLDEN_FRESH],
            # Read at a fixed job count; at the end only when the
            # window was too short to reach it (the self-test's runs).
            "peak_rss_mb": (
                run.peak_rss_mb if run.peak_rss_mb is not None
                else servers_peak_rss_mb(pids)
            ),
            **_timings(
                cal,
                # Every job is its own kind: fresh requests differ.
                [[(t - lat, t)] for t, lat, _ in run.finished],
                passes,
                float(min(len(run.finished),
                          JOBS_PER_PASS * len(passes))),
            ),
        }

    import metrics
    import spans

    half = args.seconds / 2.0
    # The traced half continues the same job sequence on the same
    # servers, so its repeats and digests stay consistent.
    run = MixRun(args.seed, golden)
    plain_start = run_mix(urls, run, half, trace=False)
    plain = list(run.finished)
    tracer = spans.install(spans.Tracer())
    try:
        start = run_mix(urls, run, half, trace=True)
    finally:
        tracer.uninstall()
    traced = run.finished[len(plain):]

    def median_pass(finished, begin) -> float:
        return statistics.median(
            cal.normalize(a, b) for a, b in mix_passes(finished, begin)
        )

    end = max(t for t, _, _ in traced)
    layers = metrics.layer_metrics(
        tracer,
        passes=len(traced) / JOBS_PER_PASS,
        traced_wall=end - start,
        overhead_ratio=(
            median_pass(traced, start) / median_pass(plain, plain_start)
        ),
        factor=cal.factor(start, end),
        kernel_rates={},
        service={
            "queue_waits": run.queue_waits,
            "dedupe": run.dedupe,
            "submitted": run.submitted,
        },
        threads=len(urls),
    )
    tracer.dump(args.trace_out, {"workload": args.workload,
                                 "seed": args.seed, "layers": layers})
    return {
        "attempted": len(run.finished),
        "failed": len(run.errors),
        "errors": run.errors[:10],
        "digests": fresh_digests(run)[:GOLDEN_FRESH],
        "layers": layers,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="request size factor (the self-test's tiny runs)")
    parser.add_argument("--urls", default=None,
                        help="service-mix: comma-separated server URLs")
    parser.add_argument("--server-pids", default="",
                        help="service-mix: comma-separated server pids")
    parser.add_argument("--probe", action="store_true",
                        help="exit after set-up (READY)")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this run's digests as the golden ones")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import repro.api  # noqa: F401  (set-up: the facade import)
    from calibrate import Calibrator
    from workloads import FACTORIES

    workload = None
    if args.workload in FACTORIES:
        workload = FACTORIES[args.workload](args.seed, args.scale)
    else:
        import repro.service.client  # noqa: F401
    _ready()
    if args.probe:
        return 0

    golden = None
    if not args.record_golden:
        golden = load_golden(args.workload, args.seed, args.scale)
    with Calibrator() as cal:
        if workload is None:
            out = measure_service(args, golden, cal)
        else:
            out = measure_inprocess(args, workload, golden, cal)
    out["golden_checked"] = golden is not None
    if args.record_golden:
        if out["failed"]:
            print(f"not recording: {out['errors']}", file=sys.stderr)
            return 1
        record_golden(args.workload, out["digests"])
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

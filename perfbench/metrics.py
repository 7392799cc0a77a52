"""How each metric is computed.

Names and units come from ``BENCHMARK.json``; ``run.py`` prints exactly
the metrics listed there and fails when one of them is not computed.

End-to-end metrics are host time (simulator wall clock) from untraced
runs, normalized to the machine's uncontended speed (``calibrate.py``).
Per-layer metrics come from the traced run and are given *per traced
pass*, so a count that the simulator repeats exactly reads the same on
every run.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``
    from ``BENCHMARK.json``, in file order."""
    doc = json.loads(BENCHMARK_JSON.read_text())
    return {
        kind: {m["name"]: m["unit"] for m in doc[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def setup_floor(samples: Sequence[float]) -> float:
    """Lower quartile of the set-up samples: start-up is a fixed amount
    of work that the machine's slow periods only lengthen, so the floor
    of several start-ups is steadier than their median."""
    return statistics.quantiles(samples, n=4)[0]


def end_to_end(
    setup: Sequence[float],
    pass_walls: Sequence[float],
    work: float,
    measured_s: float,
    latencies: Sequence[float],
    peak_rss_mb: float,
) -> Dict[str, float]:
    return {
        "setup_s": setup_floor(setup),
        "wall_s": statistics.median(pass_walls),
        "work_per_s": work / measured_s,
        "latency_p50_s": percentile(latencies, 0.5),
        "latency_p90_s": percentile(latencies, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer,
    passes: int,
    traced_wall: float,
    overhead_ratio: float,
    factor: float,
    kernel_rates: Dict[str, float],
    service: Dict[str, List[float]],
    threads: int = 1,
) -> Dict[str, float]:
    """Per-layer numbers of a traced phase of ``passes`` passes.

    Times and rates are normalized by ``factor``, the phase's mean
    slowdown against the uncontended machine (``calibrate.py``).
    ``traced_wall`` is the traced phase's raw wall time;
    ``overhead_ratio`` the median traced pass over the median untraced
    pass of the same run (both normalized).
    ``trace.unattributed_s`` is the thread time of the ``threads``
    measuring threads that neither a span nor span bookkeeping covers.
    ``kernel_rates`` gives normalized trials/s for kernels the workload
    did not run (timed on a probe shard); ``service`` the client-side samples
    of the service-mix workload (``queue_waits``, ``dedupe``).
    """
    times = tracer.layer_times()
    _, _, counts, values = tracer.merged()
    per = 1.0 / passes

    def t(name: str, kind: str = "total_s") -> float:
        return times.get(name, {}).get(kind, 0.0) * per

    shard_s = sum(
        v["total_s"] for k, v in times.items()
        if k.startswith("reliability.kernel.")
    )
    campaign_s = times.get("reliability.campaign", {}).get("total_s", 0.0)
    bus = values.get("bus_utilization", [])
    out = {
        "workloads.gen_s": t("workloads.gen"),
        "workloads.refs": counts["workloads.refs"] * per,
        "cache.hierarchy.self_s": t("cache.hierarchy", "self_s"),
        "cache.l1d.access_s": t("cache.l1d.access"),
        "cache.l1d.calls": counts["l1d.calls"] * per,
        "cache.l1d.hit_ratio": _ratio(counts["l1d.hits"], counts["l1d.calls"]),
        "cache.write_buffer.push_s": t("cache.write_buffer.push"),
        "cache.write_buffer.coalesce_ratio": _ratio(
            counts["write_buffer.coalesced"], counts["write_buffer.pushes"]
        ),
        "cache.memory.s": t("cache.memory"),
        "cache.memory.transactions": counts["memory.transactions"] * per,
        "cache.memory.bus_utilization": (
            sum(bus) / len(bus) if bus else 0.0
        ),
        "core.l2.access_s": t("core.l2.access"),
        "core.l2.calls": counts["l2.calls"] * per,
        "core.l2.miss_rate": _ratio(
            counts["l2.calls"] - counts["l2.hits"], counts["l2.calls"]
        ),
        "core.cleaning.advance_s": t("core.cleaning.advance"),
        "core.cleaning.calls": (
            times.get("core.cleaning.advance", {}).get("calls", 0) * per
        ),
        "core.cleaning.checks_per_call": _ratio(
            counts["cleaning.checks"],
            times.get("core.cleaning.advance", {}).get("calls", 0),
        ),
        "cpu.ooo.self_s": t("cpu.ooo", "self_s"),
        "cpu.ooo.insts_per_s": _ratio(
            counts["ooo.insts"],
            times.get("cpu.ooo", {}).get("total_s", 0.0),
        ),
        "ecc.check_calls": times.get("ecc.check", {}).get("calls", 0) * per,
        "ecc.check_s": t("ecc.check"),
        "reliability.run_shard_s": shard_s * per,
        "reliability.shards": counts["reliability.shards"] * per,
        "reliability.campaign.overhead_ratio": _ratio(campaign_s, shard_s),
        "experiments.runner.sim_calls": counts["runner.sim_calls"] * per,
        # Passes repeat their inputs, so the distinct set is per pass.
        "experiments.runner.distinct_sims": float(len(tracer.sim_keys)),
        "experiments.pool.cache_hit_ratio": _ratio(
            counts["pool.hits"], counts["pool.lookups"]
        ),
        "autotune.explore.self_s": t("autotune.explore", "self_s"),
        "autotune.pareto_s": t("autotune.pareto"),
        "service.submit_s": t("service.submit"),
        "service.result_wait_s": t("service.result_wait"),
        "service.queue_wait_s": (
            statistics.median(service["queue_waits"])
            if service.get("queue_waits") else 0.0
        ),
        "service.dedupe_ratio": _ratio(
            service.get("dedupe", 0), service.get("submitted", 0)
        ),
        "trace.overhead_ratio": overhead_ratio,
        "trace.unattributed_s": (
            traced_wall * threads
            - sum(v["self_s"] for v in times.values())
            - tracer.overhead_s()
        ) * per,
    }
    from repro.reliability.campaign import KERNELS

    for kernel in KERNELS:
        name = f"reliability.kernel.{kernel}"
        ran = times.get(name, {}).get("total_s", 0.0)
        if ran:
            out[f"{name}.trials_per_s"] = _ratio(
                counts[f"kernel.{kernel}.trials"], ran
            )
    for name in out:
        if name.endswith("_per_s"):
            out[name] *= factor
        elif name.endswith("_s") or name.endswith(".s"):
            out[name] /= factor
    for kernel in KERNELS:
        out.setdefault(
            f"reliability.kernel.{kernel}.trials_per_s",
            kernel_rates.get(kernel, 0.0),
        )
    return out

"""Run every workload over several seeds and record the baseline.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py --runs 10 [--workloads campaign,...]

For each workload: ``--runs`` untraced runs with seeds ``0..runs-1`` and
one traced run with seed 0.  Prints every metric by name with its unit,
median, quartiles and sample count, and each end-to-end metric's spread
(interquartile range / median) against a third of its bound.  Writes
``baseline.json`` and appends one line to ``history.jsonl``.  Exits 1
when a run fails or reports a failed operation.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=ROOT, timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if out.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} trace {trace}: exit {out.returncode}\n"
            f"{out.stderr[-2000:]}"
        )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _summary(values: List[float]) -> Dict[str, float]:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]
    ok = True
    record: Dict[str, Dict] = {}
    for workload in args.workloads.split(","):
        samples: Dict[str, List[float]] = {}
        attempted = failed = 0
        for seed in range(args.runs):
            doc = _run(workload, seed, seconds, 0)
            attempted += doc["attempted"]
            failed += doc["failed"]
            for name, metric in doc["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in doc["metrics"].items()
            ), flush=True)
        entry = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {n: _summary(v) for n, v in samples.items()},
        }
        traced = _run(workload, 0, seconds, 1)
        entry["per_layer"] = {
            n: m["value"] for n, m in traced["metrics"].items()
        }
        failed += traced["failed"]
        ok = ok and failed == 0
        record[workload] = entry
        print(f"\n{workload}: attempted {attempted}, failed {failed}")
        for name, s in entry["end_to_end"].items():
            spread = (s["q3"] - s["q1"]) / s["median"]
            flag = "" if spread < bounds[name] / 3 else "  (spread >= bound/3)"
            print(f"  {name:<16} {s['median']:>12.6g} {units[name]:<6} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}  "
                  f"spread {spread:.4f} / bound {bounds[name]}{flag}")
        for name, value in entry["per_layer"].items():
            print(f"  {name:<44} {value:>14.6g} {units[name]}")
        print(flush=True)

    meta = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "commit": _commit(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "run_seconds": seconds,
        "runs": args.runs,
    }
    path = HERE / "baseline.json"
    # Workloads not run this time keep their earlier entries.
    workloads = json.loads(path.read_text())["workloads"] \
        if path.exists() else {}
    workloads.update(record)
    path.write_text(
        json.dumps({**meta, "workloads": workloads}, indent=1) + "\n"
    )
    with open(HERE / "history.jsonl", "a") as fh:
        fh.write(json.dumps({**meta, "medians": {
            w: {n: s["median"] for n, s in e["end_to_end"].items()}
            for w, e in record.items()
        }}) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads: inputs from a seed, one pass, digests.

Every workload is a list of facade requests generated from ``--seed``
and replayed pass after pass for the measured window.  A *pass* is the
workload's unit of repeated work:

* ``paper-sweep``   -- four reference-mode runs (one per generator kind
  and L2 regime), a silent-write run and one small IPC comparison;
* ``campaign``      -- four fixed-trial reliability campaigns
  (scenario x codec), three schemes each, no simulation;
* ``autotune-grid`` -- the 12-point autotune grid, uncached;
* ``service-mix``   -- 16 jobs through the HTTP job service
  (see :mod:`service_mix`).

Simulated statistics are deterministic for a fixed seed, so each pass
is checked by digest, never timed: :func:`doc_digest` hashes the
canonical JSON of a response document with timing fields stripped.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Keys that carry host time (or wall-clock stamps) rather than a
#: simulated or sampled statistic; dropped before hashing.
TIMING_KEYS = frozenset({
    "wall_s", "elapsed_s", "seconds", "created_at", "started_at",
    "finished_at",
})

WORKLOADS = ("paper-sweep", "campaign", "autotune-grid", "service-mix")

#: The seed the committed golden digests were recorded under.
GOLDEN_SEED = 0


def _strip(doc: Any) -> Any:
    if isinstance(doc, dict):
        return {
            k: _strip(v) for k, v in doc.items() if k not in TIMING_KEYS
        }
    if isinstance(doc, list):
        return [_strip(v) for v in doc]
    return doc


def doc_digest(docs: Any) -> str:
    """sha256 of the canonical JSON of ``docs`` minus timing fields."""
    blob = json.dumps(_strip(docs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class PassResult:
    """What one pass did: requests, failures, work and latencies."""

    start: float
    end: float
    attempted: int
    failed: int
    #: Work units of the pass (refs, trials, grid points or jobs).
    work: float
    #: ``(start, end)`` perf_counter stamps of each request.
    stamps: List[Tuple[float, float]] = field(default_factory=list)
    #: One digest per request (None where the request raised).
    digests: List[Optional[str]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


@dataclass
class Workload:
    """One named workload: its requests and how a pass runs them."""

    name: str
    #: ``(kind, request)`` pairs of one pass, in order.
    requests: List[Tuple[str, Any]]
    #: Work units one response contributes.
    work_of: Callable[[str, Any, Any], float]

    def run_pass(self) -> PassResult:
        """Execute every request once on an uncached inline engine."""
        from repro import api
        from repro.experiments.pool import SweepEngine

        digests: List[Optional[str]] = []
        stamps: List[Tuple[float, float]] = []
        errors: List[str] = []
        work = 0.0
        start = time.perf_counter()
        for kind, request in self.requests:
            t0 = time.perf_counter()
            try:
                kwargs = {}
                if kind in api.ENGINE_KINDS:
                    kwargs["engine"] = SweepEngine(jobs=1)
                response = api.execute(kind, request, **kwargs)
            except Exception as err:  # counted as failed, run goes on
                stamps.append((t0, time.perf_counter()))
                errors.append(f"{kind}: {type(err).__name__}: {err}")
                digests.append(None)
                continue
            stamps.append((t0, time.perf_counter()))
            digests.append(doc_digest(response.as_dict()))
            work += self.work_of(kind, request, response)
        return PassResult(
            start=start,
            end=time.perf_counter(),
            attempted=len(self.requests),
            failed=len(errors),
            work=work,
            stamps=stamps,
            digests=digests,
            errors=errors,
        )


# -- paper-sweep --------------------------------------------------------------

#: One benchmark per generator kind and L2 regime: streaming (L2 miss
#: rate 1.0), pointer chasing (slowest per ref), blocked and
#: L2-resident (store-heavy), zipf.
SWEEP_BENCHMARKS = ("swim", "mcf", "mesa", "parser")


def paper_sweep(seed: int, scale: float = 1.0) -> Workload:
    from repro import api

    refs = max(1, int(100_000 * scale))
    warmup = int(20_000 * scale)
    requests: List[Tuple[str, Any]] = [
        ("run", api.RunRequest(
            benchmark=name, refs=refs, warmup=warmup, seed=seed,
        ))
        for name in SWEEP_BENCHMARKS
    ]
    requests.append(("run", api.RunRequest(
        benchmark="parser", refs=refs, warmup=warmup, seed=seed,
        variant="silent-write",
    )))
    requests.append(("ipc", api.IpcRequest(
        benchmark="mesa", insts=max(1, int(20_000 * scale)),
        refs=max(1, int(10_000 * scale)), warmup=int(2_000 * scale),
        seed=seed,
    )))

    def work_of(kind: str, request: Any, response: Any) -> float:
        if kind == "run":
            return request.refs + request.warmup
        return 0.0

    return Workload("paper-sweep", requests, work_of)


# -- campaign -----------------------------------------------------------------

CAMPAIGN_SCHEMES = ("uniform-ecc", "non-uniform", "parity-only")
CAMPAIGN_SCENARIOS = ("nominal", "burst-heavy")
CAMPAIGN_CODECS = ("secded", "dected")


def campaign(seed: int, scale: float = 1.0) -> Workload:
    from repro import api

    trials = max(500, int(20_000 * scale))
    requests = [
        ("reliability", api.ReliabilityRequest(
            schemes=CAMPAIGN_SCHEMES, trials=trials, seed=seed,
            scenario=scenario, codec=codec,
        ))
        for scenario in CAMPAIGN_SCENARIOS
        for codec in CAMPAIGN_CODECS
    ]

    def work_of(kind: str, request: Any, response: Any) -> float:
        return float(response.result.total_trials)

    return Workload("campaign", requests, work_of)


# -- autotune-grid ------------------------------------------------------------


def autotune_grid(seed: int, scale: float = 1.0) -> Workload:
    from repro import api

    request = api.AutotuneRequest(
        benchmarks=("swim",),
        schemes=("uniform-ecc", "non-uniform"),
        codecs=("secded", "dected"),
        scenarios=("nominal", "low-voltage"),
        objectives=("area", "fit"),
        trials=max(500, int(20_000 * scale)),
        refs=max(1, int(60_000 * scale)),
        warmup=int(20_000 * scale),
        seed=seed,
    )

    def work_of(kind: str, request: Any, response: Any) -> float:
        return float(len(response.points))

    return Workload("autotune-grid", [("autotune", request)], work_of)


FACTORIES: Dict[str, Callable[[int, float], Workload]] = {
    "paper-sweep": paper_sweep,
    "campaign": campaign,
    "autotune-grid": autotune_grid,
}

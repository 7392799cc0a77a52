"""The ``service-mix`` workload: a closed loop against ``repro serve``.

Two client threads, each talking to its own ``repro serve`` replica on
one shared fresh ``--data-dir``, submit a job and wait for its result
(the two halves of ``ServiceClient.run_to_completion``) before sending
the next (closed loop, two outstanding jobs at most).  Job ``j`` of the sequence is a pure function
of ``(seed, j)``:

* two in three fresh requests are small ``run`` jobs and one in three a
  small ``reliability`` job, each with its own derived seed;
* a quarter of the jobs (:data:`REPEAT_SHARE`) repeat an earlier fresh
  request instead, at least :data:`REPEAT_LAG` fresh requests back so
  it has finished.  A repeat sent to the replica that ran it is shared
  by that replica's dedupe; one sent to the other replica is served
  from the fabric's cluster-wide result cache.  Both paths run beside
  fresh executions.

Every fresh request's result document is hashed; a repeat must return
the identical document, and under the golden seed the first
:data:`GOLDEN_FRESH` fresh digests must match the committed ones.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from workloads import doc_digest

REPEAT_SHARE = 0.25
REPEAT_LAG = 16
#: Fresh requests whose digests are pinned for the golden seed.
GOLDEN_FRESH = 48
#: Jobs per pass: ``wall_s`` is the median time to complete this many.
JOBS_PER_PASS = 16
#: Completed jobs after which the servers' peak memory is read.  The
#: job store keeps every job for the life of a server, so memory grows
#: with the jobs done; read at a fixed count that every run reaches, it
#: does not depend on how many jobs fit in the window.
RSS_AT_JOBS = 160

_RUN_BENCHMARKS = ("swim", "mcf", "mesa", "parser")
_SCENARIOS = ("nominal", "burst-heavy")


def fresh_request(seed: int, index: int) -> Tuple[str, Dict[str, Any]]:
    """The ``index``-th distinct request of the mix."""
    job_seed = seed * 1_000_003 + index
    if index % 3 == 2:
        return "reliability", {
            "schemes": ["uniform-ecc", "non-uniform"],
            "trials": 2000,
            "trials_per_shard": 500,
            "seed": job_seed,
            "scenario": _SCENARIOS[(index // 3) % 2],
        }
    return "run", {
        "benchmark": _RUN_BENCHMARKS[index % 4],
        "refs": 2000,
        "warmup": 500,
        "seed": job_seed,
    }


class _Plan:
    """Which fresh request each job of the sequence sends.

    Fresh requests are numbered in job order; a repeat re-sends an
    earlier one.  Job ``j``'s choice depends only on the seed and the
    jobs before it, so the same seed gives the same input sequence.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._indices: List[int] = []
        self._fresh = 0

    def index(self, job: int) -> int:
        while len(self._indices) <= job:
            j = len(self._indices)
            rng = random.Random(f"{self.seed}:{j}")
            if self._fresh > REPEAT_LAG and rng.random() < REPEAT_SHARE:
                self._indices.append(
                    rng.randrange(self._fresh - REPEAT_LAG)
                )
            else:
                self._indices.append(self._fresh)
                self._fresh += 1
        return self._indices[job]


class MixRun:
    """Shared state of one closed-loop run (thread-safe)."""

    def __init__(
        self, seed: int, golden: Optional[List[str]],
        server_pids: Sequence[int] = (),
    ) -> None:
        self.seed = seed
        self.golden = golden
        self.server_pids = list(server_pids)
        #: Servers' peak memory at ``RSS_AT_JOBS`` completed jobs.
        self.peak_rss_mb: Optional[float] = None
        self.plan = _Plan(seed)
        self.lock = threading.Lock()
        self.next_job = 0
        self.digests: Dict[int, str] = {}
        #: (finish time, latency, ok) per completed job.
        self.finished: List[Tuple[float, float, bool]] = []
        self.errors: List[str] = []
        self.dedupe = 0
        self.submitted = 0
        self.queue_waits: List[float] = []

    def take(self) -> Tuple[int, int]:
        with self.lock:
            job = self.next_job
            self.next_job += 1
            return job, self.plan.index(job)

    def check(self, index: int, doc: Any) -> Optional[str]:
        """Digest check of one result; returns an error or None."""
        digest = doc_digest(doc)
        with self.lock:
            first = self.digests.setdefault(index, digest)
        if first != digest:
            return f"fresh request {index}: repeat returned another document"
        if self.golden is not None and index < len(self.golden):
            if self.golden[index] != digest:
                return f"fresh request {index}: golden digest mismatch"
        return None


def client_loop(
    url: str, run: MixRun, deadline: float, trace: bool,
) -> None:
    """One client thread: submit, wait, check, repeat until ``deadline``."""
    from repro.service import ServiceClient

    client = ServiceClient(url, timeout=60.0)
    while time.perf_counter() < deadline:
        job, index = run.take()
        kind, request = fresh_request(run.seed, index)
        t0 = time.perf_counter()
        error = None
        try:
            submitted = client.submit(kind, request)
            job_id = submitted["job"]["id"]
            doc = client.result(job_id, timeout=120.0)
            if trace:
                # Executed here, or shared (dedupe / fabric result
                # cache)?  Job start minus submit from the job stamps.
                final = client.job(job_id)
                started = final.get("started_at")
                with run.lock:
                    run.submitted += 1
                    if submitted["created"] and started is not None:
                        run.queue_waits.append(
                            started - final["created_at"]
                        )
                    else:
                        run.dedupe += 1
            error = run.check(index, doc)
        except Exception as err:  # counted as failed, loop goes on
            error = f"job {job}: {type(err).__name__}: {err}"
        t1 = time.perf_counter()
        with run.lock:
            run.finished.append((t1, t1 - t0, error is None))
            if error is not None:
                run.errors.append(error)
            at_count = len(run.finished) == RSS_AT_JOBS
        if at_count and run.server_pids:
            run.peak_rss_mb = servers_peak_rss_mb(run.server_pids)


def servers_peak_rss_mb(pids: Sequence[int]) -> float:
    """Largest peak resident set (VmHWM) among the server processes."""
    peak = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]) / 1024.0)
    return peak


def fresh_digests(run: MixRun) -> List[str]:
    """Digests of the fresh requests 0.. up to the first gap."""
    out = []
    while len(out) in run.digests:
        out.append(run.digests[len(out)])
    return out

"""The dispatch worker: claim, heartbeat, execute, record, release.

``repro work DIR`` runs this loop.  A worker is deliberately dumb and
stateless — everything it knows comes from the shared directory:

1. wait for the coordinator's ``queue/QUEUE.json`` and rebuild the job
   (config, shard plan, task) from it — every worker derives the same
   ordered shard labels and payloads;
2. claim one unfinished shard (an ``O_EXCL`` lease file) — one lease
   per claim, so a worker never holds shards it is not running and
   an idle peer can always take the next one;
3. renew that lease from a background heartbeat thread while the
   shard runs through the engine's retry loop
   (:func:`~repro.engine.pool.run_with_retry`) under its fault plan;
4. record the finished shard into the run ledger exactly as a
   single-box checkpointed run would (atomic checksummed artifact,
   then an fsync'd journal line), then release the lease;
5. exit once every planned shard is journaled.

Step 4 before step 5 is the crash-safety argument: a worker that dies
*after* recording has merely leaked a lease (reclaimed by TTL, and the
next claimant sees the shard journaled and skips it); a worker that
dies *before* recording loses nothing but time — the lease expires and
the shard re-runs elsewhere.  Since every shard replays a
deterministic stream, a shard that runs twice writes identical
artifact bytes, and the journal's last-entry-wins read keeps the merge
single-valued.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.dispatch.jobs import job_from_spec
from repro.dispatch.queue import (
    DispatchError,
    LeaseLost,
    WorkQueue,
    heartbeat_interval_from_env,
)
from repro.engine.pool import (
    Instrumented,
    RetryPolicy,
    ShardError,
    fold_shard,
    run_with_retry,
)
from repro.faults import fault_point, plan_from_env, use_fault_plan
from repro.metrics import MetricsRegistry
from repro.runstate import JOURNAL_NAME, RunCheckpoint, read_journal


@dataclass
class WorkerSummary:
    """What one worker did, for logs and the ``work`` CLI."""

    worker_id: str
    executed: int = 0
    requeued: int = 0
    lost: int = 0
    records: int = 0
    wall_seconds: float = 0.0
    shards: list[str] = field(default_factory=list)


class _Heartbeat:
    """Background renewal of the one lease a worker holds.

    The thread renews :attr:`lease` every *interval* seconds, so after
    the context exits :attr:`lease` is the freshest copy to release.  A
    renewal that discovers the lease was reclaimed (this worker was
    presumed dead) stops renewing and sets :attr:`lost` — the shard may
    run twice, which determinism makes harmless.
    """

    def __init__(self, queue: WorkQueue, lease, interval: float):
        self.queue = queue
        self.lease = lease
        self.interval = interval
        self.lost = False
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.lease = self.queue.renew(self.lease)
            except LeaseLost:
                self.lost = True
                return
            except OSError:
                continue  # transient fs trouble; retry next beat

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def run_worker(
    directory: Path | str,
    *,
    worker_id: str | None = None,
    metrics: MetricsRegistry | None = None,
    retry: RetryPolicy | None = None,
    fault_plan=None,
    poll_interval: float = 0.2,
    startup_timeout: float | None = None,
    heartbeat_interval: float | None = None,
    max_idle: float | None = None,
) -> WorkerSummary:
    """Work the queue at *directory* until every planned shard is done.

    *startup_timeout* bounds the wait for a coordinator to seed the
    queue; *max_idle* bounds how long the worker idles while other
    workers hold every remaining lease (``None`` trusts lease expiry
    for liveness and waits indefinitely).

    Each leased shard runs through the engine's retry loop starting at
    the lease attempt.  The ``worker.kill`` fault site fires first,
    under the lease attempt — the chaos harness's hook for killing a
    worker that has just claimed a shard, which is precisely the state
    a reclaim must recover from.  A shard that fails its whole retry
    budget is released back to the queue (a ``requeue`` event) and the
    worker exits with :class:`~repro.engine.pool.ShardError` — strict
    semantics, matching the single-box default.
    """
    directory = Path(directory)
    queue = WorkQueue(directory, worker_id)
    manifest = queue.wait_for_manifest(timeout=startup_timeout)
    job = job_from_spec(manifest["job"])
    if heartbeat_interval is None:
        heartbeat_interval = heartbeat_interval_from_env(
            max(queue.ttl() / 3.0, 0.05)
        )
    if retry is None:
        retry = RetryPolicy.from_env()
    if fault_plan is None:
        fault_plan = plan_from_env()

    labels = job.labels()
    payloads = job.payloads()
    task = Instrumented(job.task())
    # A lock-less RunCheckpoint: record() only appends to the shared
    # journal and writes pid-unique artifacts, so workers share the
    # ledger without touching the coordinator's LOCK.
    ledger = RunCheckpoint(directory, job.fingerprint())
    summary = WorkerSummary(worker_id=queue.worker_id)
    journal_path = directory / JOURNAL_NAME
    idle_since: float | None = None

    def publish(state: str, holding: list[str]) -> None:
        queue.write_worker_status({
            "state": state,
            "executed": summary.executed,
            "requeued": summary.requeued,
            "lost": summary.lost,
            "records": summary.records,
            "holding": holding,
            "heartbeat_interval": heartbeat_interval,
        })

    while True:
        done = set(read_journal(journal_path))
        remaining = [label for label in labels if label not in done]
        if not remaining:
            break
        lease = queue.claim(remaining)
        if lease is None:
            now = time.monotonic()
            idle_since = idle_since or now
            if max_idle is not None and now - idle_since >= max_idle:
                raise DispatchError(
                    f"worker {queue.worker_id} idled {max_idle:g}s with "
                    f"{len(remaining)} shard(s) still leased elsewhere"
                )
            publish("idle", [])
            time.sleep(poll_interval)
            continue
        idle_since = None
        shard_id = lease.shard_id
        publish("running", [shard_id])
        if fault_plan is not None:
            with use_fault_plan(
                fault_plan, shard_id=shard_id, attempt=lease.attempt
            ):
                fault_point("worker.kill")
        failure = None
        with _Heartbeat(queue, lease, heartbeat_interval) as heartbeat:
            try:
                run = run_with_retry(
                    task, payloads[shard_id], shard_id, retry, fault_plan,
                    metrics, first_attempt=lease.attempt,
                )
            except Exception as error:
                failure = error
            else:
                run.record(ledger, shard_id)
        summary.lost += heartbeat.lost
        if failure is not None:
            queue.release(heartbeat.lease, completed=False)
            summary.requeued += 1
            raise ShardError(shard_id, failure) from failure
        queue.release(heartbeat.lease, completed=True)
        summary.executed += 1
        summary.records += run.records
        summary.wall_seconds += run.wall_seconds
        summary.shards.append(shard_id)
        if metrics is not None:
            fold_shard(metrics, shard_id, run)
            metrics.inc("dispatch.shards.executed")
    publish("done", [])
    return summary

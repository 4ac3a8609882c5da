"""Process-pool execution with shard-aware error handling and retry.

The engine's unit of parallelism is a *shard*: a self-contained piece
of work (one log-day to simulate, one log file to analyze) whose result
can be merged with its siblings afterwards.  :func:`run_sharded` is the
single dispatch point:

* ``workers=1`` is a pure serial loop — no pool, no pickling, no
  multiprocessing dependency at all;
* with more workers, shards fan out over a ``ProcessPoolExecutor``;
* a pool that cannot start or that breaks mid-run (a worker killed by
  the OS, a sandbox that forbids semaphores) degrades gracefully to the
  serial loop with an :class:`EngineFallbackWarning`, so parallelism is
  an optimization, never a new failure mode;
* a shard that raises is **retried** with capped exponential backoff
  (:class:`RetryPolicy`) — because every shard replays a deterministic
  stream, a retried shard produces the exact bytes the first attempt
  would have, so transient failures are invisible in the output;
* a shard that still fails after its retry budget either aborts the
  run wrapped in :class:`ShardError` (``strict=True``, the default) or
  is **quarantined** into a
  :class:`~repro.faults.ShardFailure` record while the survivors
  complete (``strict=False``, partial-results mode);
* with a :class:`~repro.runstate.RunCheckpoint` (``checkpoint=``),
  every completed shard is persisted to a durable run ledger and a
  resumed run loads verified completed shards into the merge instead
  of re-executing them — retries cover transient faults, quarantine
  covers poisoned shards, and the checkpoint covers process death.

Every shard attempt executes under the active
:class:`~repro.faults.FaultPlan` (explicit ``fault_plan=`` argument or
the ``REPRO_FAULT_PLAN`` environment knob), which is how the chaos
suite injects crashes, transient exceptions, corrupt reads, and slow
shards through the same code paths production runs use.

Results are always returned in shard order, which is what makes the
parallel paths bit-reproducible: callers merge in a fixed order no
matter which worker finished first.
"""

from __future__ import annotations

import os
import time
import warnings
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any, TypeVar

from repro.faults import (
    FaultPlan,
    ShardFailure,
    ShardFailureReport,
    fault_point,
    plan_from_env,
    use_fault_plan,
)
from repro.metrics import MetricsRegistry, ShardMetrics, use_registry
from repro.runstate import RunCheckpoint, ShardArtifact

P = TypeVar("P")
R = TypeVar("R")

#: What a quarantined shard leaves in the results list (partial mode).
QUARANTINED = None


class EngineFallbackWarning(RuntimeWarning):
    """The pool was unavailable and the engine degraded to serial."""


class ShardError(RuntimeError):
    """A worker failed while processing one shard.

    Carries the shard's label in :attr:`shard_id` and the underlying
    exception in :attr:`error`.  The exception that triggered this
    raise is chained as ``__cause__`` — usually the same object as
    :attr:`error`, except on the pool-fallback path, where ``error``
    is the *original* pool-run exception and ``__cause__`` the serial
    re-run's failure.
    """

    def __init__(self, shard_id: str, error: BaseException):
        super().__init__(f"shard {shard_id!r} failed: {error!r}")
        self.shard_id = shard_id
        self.error = error


class ShardTimeout(RuntimeError):
    """A shard exceeded the per-shard timeout (pool execution only)."""

    #: Site label used in quarantine reports.
    site = "timeout"

    def __init__(self, shard_id: str, seconds: float):
        super().__init__(
            f"shard {shard_id!r} timed out after {seconds:g}s"
        )
        self.shard_id = shard_id
        self.seconds = seconds


@dataclass(frozen=True)
class RetryPolicy:
    """Per-shard retry budget, backoff shape, and timeout.

    ``max_retries`` counts *re*-executions: a shard runs at most
    ``max_retries + 1`` times.  Backoff is capped exponential —
    ``min(backoff_cap, backoff_base * 2**attempt)`` — with no jitter,
    because the engine's reproducibility contract extends to its
    failure handling.  ``timeout`` bounds one attempt's wall time on
    the pool path (a timed-out attempt counts as a failure and is
    retried); the serial path cannot interrupt a running shard, so
    timeouts only apply when ``workers > 1``.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    timeout: float | None = None

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    def backoff_seconds(self, attempt: int) -> float:
        """How long to wait before re-running attempt ``attempt + 1``."""
        if self.backoff_base <= 0.0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """The default policy, honouring ``REPRO_MAX_SHARD_RETRIES``
        and ``REPRO_SHARD_TIMEOUT`` (see :func:`env_number`)."""
        retries = env_number("REPRO_MAX_SHARD_RETRIES", integer=True)
        return cls(
            max_retries=2 if retries is None else retries,
            timeout=env_number("REPRO_SHARD_TIMEOUT"),
        )


def env_number(name: str, *, integer: bool = False):
    """An optional numeric environment knob; None when unset or empty.

    An ``integer`` knob is a count and must be >= 0; any other knob is
    a number of seconds and must be > 0.  A malformed value raises a
    :class:`ValueError` naming the variable and quoting the bad text,
    never a bare parse traceback.
    """
    text = os.environ.get(name)
    if not text:
        return None
    try:
        value = int(text) if integer else float(text)
    except ValueError:
        value = None
    if value is None or value < 0 or (value == 0 and not integer):
        expected = (
            "a non-negative integer" if integer
            else "a positive number of seconds"
        )
        raise ValueError(f"{name} must be {expected}, got {text!r}")
    return value


def _make_executor(workers: int):
    """Pool factory, isolated so tests (and broken environments) can
    observe creation failures."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _warn_fallback(reason: str) -> None:
    warnings.warn(
        f"engine: {reason}; falling back to serial execution",
        EngineFallbackWarning,
        stacklevel=3,
    )


def _run_attempt(
    task: Callable[[P], R],
    payload: P,
    label: str,
    attempt: int,
    plan: FaultPlan | None,
) -> R:
    """Execute one attempt of one shard under the fault-plan context.

    Module-level and picklable — this is the callable the pool actually
    submits, so injected faults fire inside the worker exactly where
    real failures would.
    """
    if plan is None:
        return task(payload)
    with use_fault_plan(plan, shard_id=label, attempt=attempt):
        fault_point("shard.start")
        return task(payload)


@dataclass
class ShardRun:
    """One settled shard: its result plus how it ran.

    An :class:`Instrumented` task returns one with the shard's
    worker-local registry, wall time and pid; a bare result wrapped
    for the run ledger carries only the result.
    """

    result: Any
    registry: MetricsRegistry | None = None
    wall_seconds: float = 0.0
    worker_pid: int = 0

    @property
    def records(self) -> int:
        """How many records the shard produced.

        Instrumented shard functions declare it via the
        ``shard.records`` counter; otherwise a sized result is its own
        count.
        """
        if self.registry is not None:
            count = self.registry.counters.get("shard.records")
            if count is not None:
                return count
        try:
            return len(self.result)  # type: ignore[arg-type]
        except TypeError:
            return 0

    def record(self, checkpoint: RunCheckpoint, label: str) -> None:
        """Persist this shard into *checkpoint*'s run ledger."""
        checkpoint.record(
            label, self.result,
            records=self.records,
            wall_seconds=self.wall_seconds,
            registry=self.registry,
        )


class Instrumented:
    """Picklable task wrapper: runs the shard under a fresh registry
    and returns the result together with the shard's metrics."""

    __slots__ = ("task",)

    def __init__(self, task: Callable[[P], R]):
        self.task = task

    def __call__(self, payload: P) -> ShardRun:
        registry = MetricsRegistry()
        start = time.perf_counter()
        with use_registry(registry):
            result = self.task(payload)
        return ShardRun(
            result=result,
            registry=registry,
            wall_seconds=time.perf_counter() - start,
            worker_pid=os.getpid(),
        )


def fold_shard(metrics: MetricsRegistry, label: str, run) -> None:
    """Fold one shard's worker registry and its
    :class:`~repro.metrics.ShardMetrics` row into *metrics*.

    *run* is a :class:`ShardRun` or a ledger
    :class:`~repro.runstate.ShardArtifact`.  An artifact carries a
    registry only when the original run was instrumented, and its row
    gets ``worker_pid`` 0 — no process ran it this time.
    """
    if isinstance(run.registry, MetricsRegistry):
        metrics.merge(run.registry)
    metrics.add_shard(ShardMetrics(
        shard_id=label,
        records=run.records,
        wall_seconds=run.wall_seconds,
        worker_pid=getattr(run, "worker_pid", 0),
    ))


def _collect_metrics(
    metrics: MetricsRegistry, runs: Sequence[Any], labels: Sequence[str]
) -> list:
    """Unwrap instrumented results, folding shard metrics into
    *metrics* in shard order.

    Called only after dispatch fully succeeded, so shards that ran in a
    pool that later broke are never folded in — the serial re-run's
    metrics are the only ones counted (no double counting across the
    fallback).  Quarantined shards contribute no metrics and stay
    ``QUARANTINED`` in the result list.

    A :class:`~repro.runstate.ShardArtifact` slot is a shard resumed
    from a checkpoint ledger: it folds in like a fresh shard, so
    aggregate counters match an uninterrupted run, and counts into
    ``engine.shards.resumed``.
    """
    results = []
    for label, run in zip(labels, runs):
        if run is QUARANTINED:
            results.append(QUARANTINED)
            continue
        if isinstance(run, ShardArtifact):
            metrics.inc("engine.shards.resumed")
        fold_shard(metrics, label, run)
        results.append(run.result)
    return results


def _note_retry(metrics: MetricsRegistry | None) -> None:
    if metrics is not None:
        metrics.inc("engine.shard_retries")


def _settle_failure(
    label: str,
    error: BaseException,
    attempts: int,
    strict: bool,
    failures: ShardFailureReport | None,
    metrics: MetricsRegistry | None,
) -> None:
    """A shard exhausted its retry budget: abort or quarantine."""
    if strict:
        raise ShardError(label, error) from error
    failure = ShardFailure(
        shard_id=label,
        site=getattr(error, "site", "task"),
        attempts=attempts,
        error=repr(error),
    )
    if failures is not None:
        failures.add(failure)
    if metrics is not None:
        metrics.add_failure(failure)
        metrics.inc("engine.shards.quarantined")


def run_sharded(
    task: Callable[[P], R],
    payloads: Iterable[P],
    *,
    workers: int = 1,
    labels: Sequence[str] | None = None,
    metrics: MetricsRegistry | None = None,
    retry: RetryPolicy | None = None,
    strict: bool = True,
    failures: ShardFailureReport | None = None,
    fault_plan: FaultPlan | None = None,
    checkpoint: RunCheckpoint | None = None,
) -> list[R]:
    """Run *task* over every payload, returning results in input order.

    *task* must be a module-level callable and the payloads picklable
    when ``workers > 1`` (the serial path has no such constraint).
    *labels* name the shards in error messages; they default to
    ``shard-<index>``.

    *retry* governs per-shard re-execution (default:
    :meth:`RetryPolicy.from_env`).  With ``strict=True`` a shard that
    fails every attempt aborts the run in :class:`ShardError`; with
    ``strict=False`` it is quarantined — its slot in the returned list
    is :data:`QUARANTINED` (``None``), a
    :class:`~repro.faults.ShardFailure` is appended to *failures* (when
    given) and recorded into *metrics*, and the surviving shards
    complete normally.

    *fault_plan* injects deterministic faults into every attempt (the
    chaos suite's entry point); when ``None``, the
    ``REPRO_FAULT_PLAN`` environment knob is consulted, and when that
    is unset too, the fault sites are inert.

    With a *metrics* registry, every shard executes under a fresh
    worker-local registry (activated via
    :func:`repro.metrics.use_registry`, so the hot-path hooks record
    into it); the per-shard registries are merged into *metrics* in
    shard order after the whole dispatch succeeds, along with one
    :class:`~repro.metrics.ShardMetrics` per shard.  Merging last means
    a pool that breaks mid-run and falls back to serial counts each
    shard exactly once, and a failed attempt's partial metrics are
    never counted at all.

    A *checkpoint* (:class:`~repro.runstate.RunCheckpoint`) makes the
    dispatch crash-safe across process death: on start the ledger's
    fingerprint and shard plan are verified (mismatch refuses the
    run), every journaled shard whose artifact still hashes clean is
    loaded into its result slot instead of being dispatched (counted
    as ``engine.shards.resumed`` when *metrics* is given), and every
    freshly completed shard is durably recorded — atomic artifact
    write, then an fsync'd journal line — the moment it settles.
    Quarantined shards are never recorded; they re-run on resume.
    """
    payloads = list(payloads)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if labels is None:
        labels = [f"shard-{index}" for index in range(len(payloads))]
    else:
        labels = [str(label) for label in labels]
        if len(labels) != len(payloads):
            raise ValueError(
                f"{len(labels)} labels for {len(payloads)} payloads"
            )
    if retry is None:
        retry = RetryPolicy.from_env()
    if fault_plan is None:
        fault_plan = plan_from_env()

    resumed: dict[str, ShardArtifact] = {}
    record = None
    if checkpoint is not None:
        resumed = checkpoint.begin(labels)

        def record(label: str, outcome) -> None:
            if not isinstance(outcome, ShardRun):
                outcome = ShardRun(outcome)
            outcome.record(checkpoint, label)

    pending = [
        index for index, label in enumerate(labels)
        if label not in resumed
    ]
    pending_payloads = [payloads[index] for index in pending]
    pending_labels = [labels[index] for index in pending]
    try:
        if metrics is not None:
            runs = _dispatch(
                Instrumented(task), pending_payloads, pending_labels,
                workers, retry, fault_plan, strict, failures, metrics,
                record,
            )
            return _collect_metrics(
                metrics, _weave(labels, resumed, runs), labels
            )
        results = _dispatch(
            task, pending_payloads, pending_labels, workers, retry,
            fault_plan, strict, failures, None, record,
        )
        return [
            part.result if isinstance(part, ShardArtifact) else part
            for part in _weave(labels, resumed, results)
        ]
    finally:
        if checkpoint is not None:
            checkpoint.close()


def _weave(
    labels: Sequence[str],
    resumed: dict[str, ShardArtifact],
    dispatched: Sequence[Any],
) -> list:
    """Interleave resumed artifacts with dispatched results back into
    full shard order."""
    if not resumed:
        return list(dispatched)
    parts = iter(dispatched)
    return [
        resumed[label] if label in resumed else next(parts)
        for label in labels
    ]


class _PoolBroke(Exception):
    """Internal signal: the pool died; fall back to serial.

    Carries the pool-level error plus every *original* shard exception
    observed before the break, so the serial re-run can re-raise the
    original failure (with its shard id) instead of only the pool
    error when the re-run fails too.
    """

    def __init__(
        self, error: BaseException, originals: dict[int, BaseException]
    ):
        super().__init__(repr(error))
        self.error = error
        self.originals = originals


def _dispatch(
    task: Callable[[P], R],
    payloads: Sequence[P],
    labels: Sequence[str],
    workers: int,
    retry: RetryPolicy,
    plan: FaultPlan | None,
    strict: bool,
    failures: ShardFailureReport | None,
    metrics: MetricsRegistry | None,
    record: Callable[[str, Any], None] | None = None,
) -> list[R]:
    """The execution core: serial loop, pool fan-out, or fallback."""
    effective = min(workers, len(payloads))
    if effective <= 1:
        return _run_serial(
            task, payloads, labels, retry, plan, strict, failures,
            metrics, record=record,
        )

    try:
        executor = _make_executor(effective)
    except Exception as error:  # no pool available in this environment
        _warn_fallback(f"could not start a {effective}-worker pool ({error!r})")
        return _run_serial(
            task, payloads, labels, retry, plan, strict, failures,
            metrics, record=record,
        )

    try:
        try:
            return _run_pool(
                executor, task, payloads, labels, retry, plan, strict,
                failures, metrics, record,
            )
        except _PoolBroke as broke:
            _warn_fallback(f"worker pool broke ({broke.error!r})")
            return _run_serial(
                task, payloads, labels, retry, plan, strict, failures,
                metrics, originals=broke.originals, record=record,
            )
    finally:
        executor.shutdown(wait=False, cancel_futures=True)


def _run_pool(
    executor,
    task: Callable[[P], R],
    payloads: Sequence[P],
    labels: Sequence[str],
    retry: RetryPolicy,
    plan: FaultPlan | None,
    strict: bool,
    failures: ShardFailureReport | None,
    metrics: MetricsRegistry | None,
    record: Callable[[str, Any], None] | None = None,
) -> list[R]:
    """Pool fan-out with per-shard retries and timeouts.

    All shards are submitted up front (attempt 0); results are
    consumed in shard order, and a failed shard is re-submitted while
    the later shards keep running.  Any ``BrokenProcessPool`` converts
    to :class:`_PoolBroke` so the caller can degrade to serial.
    *record* (the checkpoint hook) fires as each shard's result is
    consumed, so a crash loses only the not-yet-consumed shards.
    """
    from concurrent.futures import TimeoutError as FutureTimeout
    from concurrent.futures.process import BrokenProcessPool

    count = len(payloads)
    attempts = [0] * count
    originals: dict[int, BaseException] = {}

    def submit(index: int):
        try:
            return executor.submit(
                _run_attempt, task, payloads[index], labels[index],
                attempts[index], plan,
            )
        except BrokenProcessPool as pool_error:
            raise _PoolBroke(pool_error, dict(originals)) from pool_error

    futures = [submit(index) for index in range(count)]
    results: list[Any] = [QUARANTINED] * count
    for index in range(count):
        while True:
            try:
                results[index] = futures[index].result(timeout=retry.timeout)
                if record is not None:
                    record(labels[index], results[index])
                break
            except BrokenProcessPool as pool_error:
                raise _PoolBroke(pool_error, dict(originals)) from pool_error
            except FutureTimeout:
                futures[index].cancel()
                error: BaseException = ShardTimeout(
                    labels[index], retry.timeout or 0.0
                )
            except Exception as caught:
                error = caught
            originals.setdefault(index, error)
            if attempts[index] < retry.max_retries:
                _note_retry(metrics)
                time.sleep(retry.backoff_seconds(attempts[index]))
                attempts[index] += 1
                futures[index] = submit(index)
                continue
            _settle_failure(
                labels[index], error, attempts[index] + 1, strict,
                failures, metrics,
            )
            break
    return results


def _run_serial(
    task: Callable[[P], R],
    payloads: Sequence[P],
    labels: Sequence[str],
    retry: RetryPolicy,
    plan: FaultPlan | None,
    strict: bool,
    failures: ShardFailureReport | None,
    metrics: MetricsRegistry | None,
    originals: dict[int, BaseException] | None = None,
    record: Callable[[str, Any], None] | None = None,
) -> list[R]:
    """Serial loop with the same retry/quarantine semantics.

    *originals* carries shard exceptions observed before a pool break:
    if the serial re-run of such a shard also fails, the raised
    :class:`ShardError` surfaces the *original* exception (with the
    shard id) rather than only the re-run's error — the pool failure
    stays in the ``__cause__`` chain for forensics.
    """
    results: list[Any] = []
    for index, (label, payload) in enumerate(zip(labels, payloads)):
        try:
            results.append(run_with_retry(
                task, payload, label, retry, plan, metrics, record=record,
            ))
        except Exception as error:
            original = (originals or {}).get(index)
            if strict and original is not None:
                raise ShardError(label, original) from error
            _settle_failure(
                label, error, retry.max_retries + 1, strict, failures,
                metrics,
            )
            results.append(QUARANTINED)
    return results


def run_with_retry(
    task: Callable[[P], R],
    payload: P,
    label: str,
    retry: RetryPolicy,
    plan: FaultPlan | None,
    metrics: MetricsRegistry | None = None,
    *,
    first_attempt: int = 0,
    record: Callable[[str, Any], None] | None = None,
) -> R:
    """Run one shard in this process until an attempt succeeds.

    The engine's one in-process retry loop: the serial path and the
    dispatch worker both run every shard through it.  Local attempt
    ``k`` executes under fault-plan attempt ``first_attempt + k`` (a
    leased shard starts at its lease attempt, so fault gating stays
    monotone across reclaims); each retry counts
    ``engine.shard_retries`` and sleeps the policy's backoff.  *record*
    (the checkpoint hook) runs inside the attempt.  Once the budget is
    spent the last error propagates.
    """
    attempt = 0
    while True:
        try:
            outcome = _run_attempt(
                task, payload, label, first_attempt + attempt, plan
            )
            if record is not None:
                record(label, outcome)
            return outcome
        except Exception:
            if attempt >= retry.max_retries:
                raise
            _note_retry(metrics)
            time.sleep(retry.backoff_seconds(attempt))
            attempt += 1

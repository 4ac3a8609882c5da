"""One benchmark step in a fresh interpreter: ``prep`` or ``iter``.

``run.py`` starts this script once to prepare a run's inputs and then
once per measured iteration, so that import time, scenario set-up and
peak RSS belong to that iteration alone and no warm in-process cache
(``registered_domain``'s memo, the scenario context) carries over from
an earlier pass.  The last line of standard output is one JSON object.

    python3 perfbench/child.py prep --workload W --seed S --records N --work DIR
    python3 perfbench/child.py iter --workload W --seed S --records N --work DIR
        [--traced] [--card] [--spans PATH]
"""

from __future__ import annotations

import time

START = time.perf_counter()  # setup_s counts from here: imports included

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import ExitStack, contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer, patch_method, patch_module_functions  # noqa: E402

#: Column batch size of the batched entry points (investigate, report).
BATCH_SIZE = 1024

#: Workers spawned by the distributed workload.
SPAWN = 2


def scenario_config(records: int, seed: int):
    """The boosted Syria scenario every workload runs."""
    from repro.workload.config import DEFAULT_BOOSTS, ScenarioConfig

    return ScenarioConfig(
        total_requests=records, seed=seed, boosts=dict(DEFAULT_BOOSTS)
    )


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def sha256_text(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def log_paths(directory: Path) -> list[Path]:
    return sorted(directory.glob("*.log"))


# -- workload: simulate ------------------------------------------------------


def scenario_setup(records, seed):
    from repro.engine import scenario_context

    config = scenario_config(records, seed)
    scenario_context(config)
    return config


def simulate_run(config, out: Path) -> dict:
    from repro.engine import simulate_to_logs

    start = time.perf_counter()
    written = simulate_to_logs(config, out)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "records": sum(n for _, n in written),
            "paths": [p for p, _ in written]}


def check_log_reread(paths, expected: int, config) -> tuple[bool, str]:
    """A strict re-read returns *expected* records with 0 skipped, and
    every configured day shard is in the log."""
    from repro.logmodel.elff import ReadStats, read_log_batches

    stats = ReadStats()
    count, days = 0, set()
    for path in paths:
        for batch in read_log_batches(path, 4096, lenient=False, stats=stats):
            count += len(batch)
            per_day = records_per_day(batch.col("epoch"), config)
            days.update(day for day, n in per_day.items() if n)
    missing = len(config.days) - len(days)
    ok = count == expected > 0 and stats.skipped == 0 and not missing
    return ok, (f"re-read {count} of {expected} records, {stats.skipped} "
                f"skipped, {missing} days missing")


def records_per_day(epochs, config) -> dict[str, int]:
    """How many of *epochs* fall in each configured log-day."""
    from repro.timeline import day_span

    counts = {}
    for day in config.days:
        start, end = day_span(day)
        counts[day] = int(((epochs >= start) & (epochs < end)).sum())
    return counts


@contextmanager
def fleet_timers(tracer: Tracer):
    """Per-call timers on the fleet's layers; yields the policy-key set.

    The distinct-key set uses every :class:`RequestView` field except
    ``epoch`` (only the time-scheduled Tor rule reads it), per policy
    engine — the ceiling on what a verdict memo could reuse.
    """
    from repro.policy.cache import CacheModel
    from repro.policy.engine import PolicyEngine
    from repro.policy.errors import ErrorModel
    from repro.proxy.fleet import RoutingPolicy
    from repro.proxy.sg9000 import SG9000

    keys: set = set()

    def observe_evaluate(_verdict, engine, view):
        keys.add((id(engine), view.host, view.path, view.query, view.port,
                  view.scheme, view.method, view.user_agent))

    def observe_lookup(hit, *_args):
        tracer.count("cache.hits" if hit else "cache.misses")

    with ExitStack() as stack:
        for owner, attribute, name, observe in (
            (RoutingPolicy, "route", "proxy.route", None),
            (SG9000, "process", "proxy.sg9000", None),
            (PolicyEngine, "evaluate", "policy.evaluate", observe_evaluate),
            (ErrorModel, "sample", "policy.errors_sample", None),
            (CacheModel, "lookup", "proxy.cache_lookup", observe_lookup),
        ):
            stack.enter_context(
                patch_method(owner, attribute, tracer, name, observe)
            )
        yield keys


def traced_shard_records(tracer: Tracer, context, shard) -> list:
    """Generate and filter one day shard as the fused pipeline would,
    with the same child seeds, one public call per stage."""
    import numpy as np

    from repro.engine import child_seed

    with tracer.span("workload.generate", shard.shard_id):
        requests = list(context.generator.generate_day(
            shard.day, np.random.default_rng(child_seed(shard.seed, 0))
        ))
    tracer.count("workload.requests", len(requests))
    with tracer.span("proxy.fleet", shard.shard_id):
        return context.fleet.process_all(
            requests, np.random.default_rng(child_seed(shard.seed, 1))
        )


def simulate_traced(config, out: Path, tracer: Tracer) -> dict:
    from repro.engine import plan_shards, scenario_context
    from repro.pipeline import AnonymizeStage, GroupedElffSink

    context = scenario_context(config)
    start = time.perf_counter()
    parts = []
    with fleet_timers(tracer) as keys:
        for shard in plan_shards(config).shards:
            with tracer.span("engine.shard", shard.shard_id):
                records = traced_shard_records(tracer, context, shard)
                stage = AnonymizeStage(context.user_spans)
                with tracer.span("pipeline.anonymize", shard.shard_id):
                    records = [stage.anonymize(r) for r in records]
                with tracer.span("elff.serialize", shard.shard_id):
                    parts.append(GroupedElffSink().consume(records))
    with tracer.span("engine.merge"):
        merged = GroupedElffSink()
        for part in parts:
            merged.merge(part)
    with tracer.span("elff.write"):
        written = merged.write_dir(out)
    seconds = time.perf_counter() - start
    tracer.count("elff.bytes_written", sum(p.stat().st_size for p, _ in written))
    return {"seconds": seconds, "records": sum(n for _, n in written),
            "paths": [p for p, _ in written], "policy_keys": len(keys)}


# -- workload: report --------------------------------------------------------


def report_digest(report) -> str:
    import numpy as np

    with np.printoptions(threshold=sys.maxsize):
        return sha256_text(report)


def report_run(config) -> dict:
    from repro.analysis.report import build_report
    from repro.engine import build_scenario_sharded

    start = time.perf_counter()
    datasets = build_scenario_sharded(config, batch_size=BATCH_SIZE)
    report = build_report(datasets)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "records": len(datasets.full),
            "datasets": datasets, "report": report}


#: Analysis modules timed by name in the traced report; the rest of
#: build_report's time is its own self time.
REPORT_MODULES = ("overview", "stringfilter", "temporal", "socialmedia",
                  "ipfilter", "toranalysis", "users", "proxies", "categories")


def report_traced(config, tracer: Tracer) -> dict:
    import importlib

    import numpy as np

    from repro.analysis.report import build_report
    from repro.datasets.builder import (
        DEFAULT_SAMPLE_FRACTION,
        assemble_datasets_from_frame,
    )
    from repro.engine import plan_shards, scenario_context
    from repro.frame import RecordBatch
    from repro.pipeline import AnonymizeStage, FrameSink

    context = scenario_context(config)
    plan = plan_shards(config)
    start = time.perf_counter()
    parts, records_by_day = [], {}
    with fleet_timers(tracer) as keys:
        for shard in plan.shards:
            with tracer.span("engine.shard", shard.shard_id):
                records = traced_shard_records(tracer, context, shard)
                with tracer.span("pipeline.from_records", shard.shard_id):
                    batches = [
                        RecordBatch.from_records(records[i:i + BATCH_SIZE])
                        for i in range(0, len(records), BATCH_SIZE)
                    ]
                stage = AnonymizeStage(context.user_spans)
                with tracer.span("pipeline.anonymize", shard.shard_id):
                    batches = [stage.anonymize_batch(b) for b in batches]
                with tracer.span("frame.load", shard.shard_id):
                    part = FrameSink()
                    for batch in batches:
                        part.add_batch(batch)
            parts.append(part)
            records_by_day[shard.day] = len(part)
    with tracer.span("engine.merge"):
        sink = FrameSink()
        for part in parts:
            sink.merge(part)
    with tracer.span("frame.load"):
        frame = sink.frame()
    with tracer.span("datasets.assemble"):
        datasets = assemble_datasets_from_frame(
            frame, records_by_day, config, context.generator, context.policy,
            np.random.default_rng(plan.sampling_seed), DEFAULT_SAMPLE_FRACTION,
        )
    with ExitStack() as stack:
        for name in REPORT_MODULES:
            module = importlib.import_module(f"repro.analysis.{name}")
            stack.enter_context(
                patch_module_functions(module, tracer, f"analysis.{name}")
            )
        with tracer.span("analysis.report"):
            report = build_report(datasets)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "records": len(datasets.full),
            "datasets": datasets, "report": report, "policy_keys": len(keys)}


def check_report(datasets, report) -> tuple[bool, str]:
    """The Table 3 total equals the simulated record count, and every
    configured day shard was simulated."""
    by_day = datasets.records_by_day
    simulated = sum(by_day.values())
    total = report.table3["full"].total
    missing = sum(1 for day in datasets.config.days if not by_day.get(day))
    ok = total == simulated == len(datasets.full) > 0 and not missing
    return ok, (f"table 3 total {total}, simulated {simulated}, "
                f"{missing} days missing")


# -- workload: investigate ---------------------------------------------------


def investigate_prep(records: int, seed: int, work: Path) -> dict:
    """Write the leak-layout logs (per proxy x per day) for the session."""
    from repro.engine import simulate_to_logs

    config = scenario_config(records, seed)
    written = simulate_to_logs(config, work / "logs", per_proxy=True,
                               per_day=True)
    paths = [p for p, _ in written]
    return {"records": sum(n for _, n in written), "files": len(paths),
            "input_sha256": sha256_files(paths)}


def investigate_session(paths) -> dict:
    """The analyst's closed loop: stream, frame tables, then recover."""
    from repro.engine import analyze_logs, load_frames

    streaming, stats = analyze_logs(paths, batch_size=BATCH_SIZE)
    frame = load_frames(paths, batch_size=BATCH_SIZE)
    return frame_queries(streaming, stats, frame)


def frame_queries(streaming, stats, frame) -> dict:
    """The session's frame queries, called through the module attributes
    so that the traced run's timers see them."""
    from repro.analysis import overview, stringfilter

    breakdown = overview.traffic_breakdown(frame)
    domains = overview.top_domains(frame)
    suspected = stringfilter.recover_censored_domains(frame)
    exclusion = {
        row.domain
        for row in stringfilter.recover_censored_domains(frame, min_censored=1)
    }
    hosts = stringfilter.recover_censored_hosts(
        frame, exclude_domains=exclusion, min_censored=1
    )
    keywords = stringfilter.recover_keywords(
        frame, exclude_domains=exclusion,
        exclude_hosts={row.host for row in hosts},
    )
    return {"streaming": streaming, "stats": stats, "frame": frame,
            "breakdown": breakdown, "domains": domains,
            "suspected": suspected, "hosts": hosts, "keywords": keywords}


def session_errors() -> tuple[type[Exception], ...]:
    """What a damaged log raises: the strict frame load's shard error,
    or the traced replay's direct strict read."""
    from repro.engine import ShardError
    from repro.logmodel.elff import LogFormatError

    return ShardError, LogFormatError


def investigate_digest(result) -> str:
    streaming = result["streaming"]
    return sha256_text((
        streaming.breakdown(), streaming.top_censored(10),
        streaming.top_allowed(10), result["breakdown"], result["domains"],
        result["suspected"], result["hosts"], result["keywords"],
    ))


def check_investigate(result, expected: int) -> tuple[bool, str]:
    """Streaming and frame totals agree with the generated record count,
    nothing was skipped, and keyword recovery finds only true keywords,
    led by ``proxy``."""
    from repro.policy.syria import KEYWORDS

    streaming = result["streaming"].breakdown()
    frame = result["breakdown"]
    stats = result["stats"]
    keywords = [k.keyword for k in result["keywords"]]
    problems = []
    if not (streaming.total == frame.total == expected > 0):
        problems.append(f"totals streaming {streaming.total} frame "
                        f"{frame.total} generated {expected}")
    if (streaming.allowed, streaming.censored) != (frame.allowed,
                                                   frame.censored):
        problems.append("streaming and frame breakdowns disagree")
    if stats.skipped or stats.corrupted:
        problems.append(f"{stats.skipped} skipped, {stats.corrupted} corrupted")
    if not keywords or keywords[0] != "proxy" or not set(keywords) <= set(
        KEYWORDS
    ):
        problems.append(f"recovered keywords {keywords}")
    return not problems, "; ".join(problems) or (
        f"{frame.total} records, keywords {keywords}"
    )


def investigate_traced(paths, tracer: Tracer) -> dict:
    from repro.analysis import overview, streaming as streaming_module
    from repro.analysis import stringfilter
    from repro.analysis.streaming import StreamingAnalysis
    from repro.frame import concat
    from repro.logmodel.elff import ReadStats, read_log_batches
    from repro.pipeline import FrameSink, StreamingAnalysisSink

    start = time.perf_counter()
    parts = []
    with patch_method(streaming_module, "censor_mask", tracer,
                      "classify.batch"):
        for path in paths:
            stats = ReadStats()
            with tracer.span("elff.read", path.name):
                batches = list(read_log_batches(path, BATCH_SIZE,
                                                lenient=True, stats=stats))
            tracer.count("elff.read_rows", sum(len(b) for b in batches))
            with tracer.span("streaming.fold", path.name):
                sink = StreamingAnalysisSink()
                for batch in batches:
                    sink.add_batch(batch)
            parts.append((sink.analysis, stats))
    with tracer.span("streaming.merge"):
        streaming, stats = StreamingAnalysis(), ReadStats()
        for part_analysis, part_stats in parts:
            streaming += part_analysis
            stats += part_stats
    frames = []
    for path in paths:
        with tracer.span("frame.load", path.name):
            with tracer.span("elff.read", path.name):
                batches = list(read_log_batches(path, BATCH_SIZE))
            tracer.count("elff.read_rows", sum(len(b) for b in batches))
            sink = FrameSink()
            for batch in batches:
                sink.add_batch(batch)
            frames.append(sink.frame())
    with tracer.span("frame.load"):
        frame = concat(frames) if len(frames) > 1 else frames[0]
    with patch_module_functions(overview, tracer, "analysis.overview"), \
            patch_module_functions(stringfilter, tracer,
                                   "analysis.stringfilter"):
        result = frame_queries(streaming, stats, frame)
    result["seconds"] = time.perf_counter() - start
    return result


# -- workload: distributed ---------------------------------------------------


def distributed_prep(records: int, seed: int, work: Path) -> dict:
    """The in-process simulate output the distributed merge must equal."""
    from repro.engine import simulate_to_logs

    written = simulate_to_logs(scenario_config(records, seed),
                               work / "reference")
    return {"records": sum(n for _, n in written),
            "reference_sha256": sha256_files(p for p, _ in written)}


def distributed_run(config, out: Path, queue: Path, metrics=None) -> dict:
    from repro.dispatch import run_distributed, simulate_job_for

    job = simulate_job_for(config, out)
    wall0 = time.time()
    start = time.perf_counter()
    run_distributed(job, queue, spawn=SPAWN, metrics=metrics)
    seconds = time.perf_counter() - start
    wall_end = wall0 + seconds
    paths = log_paths(out)
    return {"seconds": seconds, "wall0": wall0, "wall_end": wall_end,
            "start": start, "job": job, "paths": paths}


def lease_timeline(queue: Path, wall0: float, wall_end: float) -> dict:
    """Scheduler figures from the queue's ``events.jsonl``.

    A lease runs from its grant to the same worker's completion of that
    shard.  A worker is busy while it holds at least one lease (the
    union of its leases); its idle share is the rest of the window from
    the first grant to the last completion.  A spawned worker that was
    never granted a lease is idle from the first grant on.
    """
    from repro.dispatch import WorkQueue

    events = WorkQueue(queue).read_events()
    grants = [e for e in events if e["event"] == "grant"]
    completes = [e for e in events if e["event"] == "complete"]
    leases = []  # (worker, shard_id, start, end)
    for grant in grants:
        ends = [c["at"] for c in completes
                if c["shard_id"] == grant["shard_id"]
                and c["worker"] == grant["worker"] and c["at"] >= grant["at"]]
        if ends:
            leases.append((grant["worker"], grant["shard_id"], grant["at"],
                           min(ends)))
    first_grant = min(e["at"] for e in grants)
    last_complete = max(e["at"] for e in completes)
    workers = sorted({lease[0] for lease in leases})
    busy = [union_length([(b, e) for w, _, b, e in leases if w == worker])
            for worker in workers]
    last_ends = [max(e for w, _, _, e in leases if w == worker)
                 for worker in workers]
    never_leased = max(SPAWN - len(workers), 0)
    busy += [0.0] * never_leased
    window = max(last_complete - first_grant, 1e-9)
    first_idle = first_grant if never_leased else min(last_ends)
    return {
        "dispatch.spawn_s": first_grant - wall0,
        "dispatch.merge_s": wall_end - last_complete,
        "dispatch.first_idle_s": first_idle - wall0,
        "dispatch.worker_busy_s.max": max(busy),
        "dispatch.worker_busy_s.min": min(busy),
        "dispatch.shards_per_worker_max": max(
            sum(1 for c in completes if c["worker"] == worker)
            for worker in workers
        ),
        "dispatch.worker_idle_share": 1.0 - sum(busy) / (len(busy) * window),
        "first_grant": first_grant,
        "last_complete": last_complete,
        "leases": leases,
    }


def union_length(intervals) -> float:
    total, cursor = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def check_distributed(queue: Path, paths, reference: str) -> tuple[bool, str]:
    """``audit_run`` is clean and the merged bytes equal simulate's."""
    from repro.runstate import audit_run

    audit = audit_run(queue)
    digest = sha256_files(paths)
    ok = audit.ok and audit.completed == len(audit.entries) and (
        digest == reference
    )
    return ok, (f"audit ok={audit.ok} completed {audit.completed}/"
                f"{len(audit.entries)}, sha256 "
                f"{'matches' if digest == reference else 'differs from'} "
                "simulate's")


def distributed_layers(run: dict, timeline: dict, queue: Path, registry,
                       work: Path, tracer: Tracer) -> dict:
    """Per-layer figures of one distributed run: the lease timeline,
    the journal's shard timings, the ledger's artifacts (re-recorded
    into a scratch ledger to time the write path) and the coordinator's
    merged metrics registry."""
    from repro.runstate import (
        ARTIFACT_DIR,
        JOURNAL_NAME,
        RunCheckpoint,
        read_journal,
    )

    to_perf = run["start"] - run["wall0"]
    spans = [("dispatch.spawn", run["wall0"], timeline["first_grant"], None)]
    spans += [("dispatch.lease", begin, end, shard)
              for _, shard, begin, end in timeline["leases"]]
    spans.append(("dispatch.merge", timeline["last_complete"],
                  run["wall_end"], None))
    for name, begin, end, shard in spans:
        tracer.spans.append({"name": name, "start": begin + to_perf,
                             "end": end + to_perf, "parent": None,
                             "shard": shard, "self": None})
    job = run["job"]
    labels = job.labels()
    journal = read_journal(queue / JOURNAL_NAME)
    shard_seconds = sorted(journal[label]["wall_seconds"] for label in labels)
    artifact_bytes = sum(
        p.stat().st_size for p in (queue / ARTIFACT_DIR).iterdir()
    )
    source = RunCheckpoint(queue, job.fingerprint(), resume=True)
    try:
        artifacts = source.begin(labels)
    finally:
        source.close()
    replay = RunCheckpoint(work / "ledger-replay", job.fingerprint())
    replay.begin(labels)
    try:
        write_start = time.perf_counter()
        for label in labels:
            artifact = artifacts[label]
            replay.record(label, artifact.result, records=artifact.records,
                          wall_seconds=artifact.wall_seconds,
                          registry=artifact.registry)
        write_seconds = time.perf_counter() - write_start
    finally:
        replay.close()
    counters = registry.counters
    hits, misses = counters["cache.hits"], counters["cache.misses"]
    covered = union_length([(begin, end) for _, begin, end, _ in spans])
    layers = {k: v for k, v in timeline.items() if k.startswith("dispatch.")}
    layers.update({
        "dispatch.lease_granted": counters["dispatch.lease.granted"],
        "dispatch.lease_reclaimed": counters["dispatch.lease.reclaimed"],
        "runstate.artifact_bytes": artifact_bytes,
        "runstate.artifact_write_s": write_seconds,
        "engine.shard_s.p50": statistics.median(shard_seconds),
        "engine.shard_s.max": shard_seconds[-1],
        "proxy.cache_hit_share": hits / max(hits + misses, 1),
        "workload.requests": counters["fleet.requests"],
        "trace.coverage_share": covered / run["seconds"],
    })
    return layers


# -- per-layer figures of the traced replays ---------------------------------


def replay_layers(tracer: Tracer, seconds: float, policy_keys: int) -> dict:
    totals, self_totals, calls, counts = (
        tracer.totals, tracer.self_totals, tracer.calls, tracer.counts
    )
    layers = {
        name + "_s": totals[name]
        for name in (
            "workload.generate", "proxy.fleet", "proxy.route",
            "policy.evaluate", "policy.errors_sample", "proxy.cache_lookup",
            "pipeline.anonymize", "pipeline.from_records", "elff.serialize",
            "elff.write", "elff.read", "classify.batch", "streaming.fold",
            "frame.load", "datasets.assemble", "engine.merge",
            *(f"analysis.{m}" for m in REPORT_MODULES), "analysis.report",
        )
        if name in totals
    }
    if "proxy.sg9000" in totals:
        layers["proxy.sg9000_self_s"] = self_totals["proxy.sg9000"]
    if calls["policy.evaluate"]:
        layers["policy.evaluate_calls"] = calls["policy.evaluate"]
        layers["policy.distinct_key_share"] = (
            policy_keys / calls["policy.evaluate"]
        )
    lookups = counts["cache.hits"] + counts["cache.misses"]
    if lookups:
        layers["proxy.cache_hit_share"] = counts["cache.hits"] / lookups
    for name in ("workload.requests", "elff.bytes_written", "elff.read_rows"):
        if name in counts:
            layers[name] = counts[name]
    shards = sorted(tracer.span_durations("engine.shard"))
    if shards:
        layers["engine.shard_s.p50"] = statistics.median(shards)
        layers["engine.shard_s.max"] = shards[-1]
    layers["trace.coverage_share"] = tracer.covered_seconds() / seconds
    return layers


# -- the workload card -------------------------------------------------------


def environment_stamp() -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": sha256_files(
            p for p in (ROOT / "src").rglob("*.py")
        ) if commit is None else None,
    }


def input_properties(frame, config, paths=()) -> dict:
    """The input properties later speed claims must cite."""
    import numpy as np

    rows = len(frame)
    per_day = records_per_day(frame.col("epoch"), config)
    lines = quoted = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if not line.startswith("#"):
                    lines += 1
                    quoted += '"' in line
    key_columns = ("s_ip", "cs_host", "cs_uri_path", "cs_uri_query",
                   "cs_uri_port", "cs_uri_scheme", "cs_method",
                   "cs_user_agent")
    keys = {tuple(row) for row in zip(*(frame.col(c).tolist()
                                        for c in key_columns))}
    return {
        "records": rows,
        "files": len(paths),
        "largest_day_share": max(per_day.values()) / max(rows, 1),
        "records_by_day": per_day,
        "quoted_line_share": quoted / lines if lines else None,
        "distinct": {
            name: int(len(np.unique(frame.col(name).astype(str))))
            for name in ("s_ip", "x_exception_id", "cs_user_agent", "c_ip",
                         "cs_host", "cs_uri_path")
        },
        # Approximates the traced run's policy.distinct_key_share from
        # the log alone: proxy address in place of its policy engine.
        "policy.distinct_key_share_from_log": len(keys) / max(rows, 1),
    }


# -- the two roles -----------------------------------------------------------


def prep(args) -> dict:
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    result = {"workload": args.workload, "seed": args.seed,
              "records": args.records}
    if args.workload == "investigate":
        result.update(investigate_prep(args.records, args.seed, work))
    elif args.workload == "distributed":
        result.update(distributed_prep(args.records, args.seed, work))
    else:  # import and compile everything the iterations will touch
        import repro.analysis.report  # noqa: F401
        import repro.dispatch  # noqa: F401
        import repro.engine  # noqa: F401
    from repro.runstate import config_digest

    result["config_sha256"] = config_digest(
        scenario_config(args.records, args.seed)
    )
    return result


def iterate(args) -> dict:
    """One measured pass; traced when ``--traced``."""
    work = Path(args.work)
    manifest = json.loads((work / "prep.json").read_text())
    scratch = work / f"iter-{os.getpid()}"
    tracer = Tracer() if args.traced else None
    out: dict = {"traced": bool(args.traced)}
    try:
        if args.workload in ("simulate", "report", "distributed"):
            config = scenario_setup(args.records, args.seed)
        else:
            import repro.analysis.overview  # noqa: F401
            import repro.analysis.stringfilter  # noqa: F401
            import repro.engine  # noqa: F401
            config = scenario_config(args.records, args.seed)
        out["setup_s"] = time.perf_counter() - START

        if args.workload == "simulate":
            run = (simulate_traced(config, scratch / "out", tracer)
                   if tracer else simulate_run(config, scratch / "out"))
            out["ok"], out["detail"] = check_log_reread(
                run["paths"], run["records"], config
            )
            out["digest"] = sha256_files(run["paths"])
            card_source = (None, run["paths"])
        elif args.workload == "report":
            run = (report_traced(config, tracer) if tracer
                   else report_run(config))
            out["ok"], out["detail"] = check_report(run["datasets"],
                                                    run["report"])
            out["digest"] = report_digest(run["report"])
            card_source = (run["datasets"].full, ())
        elif args.workload == "investigate":
            paths = log_paths(work / "logs")
            try:
                run = (investigate_traced(paths, tracer) if tracer
                       else timed_session(paths))
            except session_errors() as error:  # a damaged log fails the check
                out["ok"], out["detail"] = False, f"session failed: {error}"
                return out
            run["records"] = manifest["records"]
            out["ok"], out["detail"] = check_investigate(run,
                                                         manifest["records"])
            out["digest"] = investigate_digest(run)
            card_source = (run["frame"], paths)
        else:  # distributed
            from repro.metrics import MetricsRegistry

            registry = MetricsRegistry() if tracer else None
            queue = scratch / "queue"
            run = distributed_run(config, scratch / "out", queue, registry)
            timeline = lease_timeline(queue, run["wall0"], run["wall_end"])
            out["setup_s"] += timeline["dispatch.spawn_s"]
            out["ok"], out["detail"] = check_distributed(
                queue, run["paths"], manifest["reference_sha256"]
            )
            out["digest"] = sha256_files(run["paths"])
            run["records"] = manifest["records"]
            out["scheduler"] = {
                k: timeline[k] for k in ("dispatch.shards_per_worker_max",
                                         "dispatch.worker_idle_share")
            }
            if tracer:
                out["layers"] = distributed_layers(run, timeline, queue,
                                                   registry, scratch, tracer)
            card_source = (None, run["paths"])
        out["seconds"] = run["seconds"]
        out["records"] = run["records"]
        out["peak_rss_mb"] = peak_rss_mb(
            include_children=args.workload == "distributed"
        )
        if tracer and "layers" not in out:
            out["layers"] = replay_layers(tracer, run["seconds"],
                                          run.get("policy_keys", 0))
        if tracer and args.spans:
            Path(args.spans).write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed,
                 "spans": tracer.export(START)}
            ))
        if args.card:
            out["card"] = make_card(card_source, config, manifest)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return out


def timed_session(paths) -> dict:
    start = time.perf_counter()
    result = investigate_session(paths)
    result["seconds"] = time.perf_counter() - start
    return result


def make_card(source, config, manifest) -> dict:
    """The workload card from the pass's frame, or from its logs."""
    from repro.engine import load_frames

    frame, paths = source
    if frame is None:
        frame = load_frames(paths, batch_size=4096)
    card = {"environment": environment_stamp(),
            "inputs": input_properties(frame, config, paths)}
    for key in ("input_sha256", "config_sha256", "reference_sha256"):
        if key in manifest:
            card["inputs"][key] = manifest[key]
    return card


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("prep", "iter"))
    parser.add_argument("--workload", required=True,
                        choices=("simulate", "investigate", "report",
                                 "distributed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--records", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--card", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.role == "prep":
        result = prep(args)
        Path(args.work, "prep.json").write_text(json.dumps(result))
    else:
        result = iterate(args)
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())

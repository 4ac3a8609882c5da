"""The benchmark's own tests, at a tiny scale.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import child  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = 3000

#: Where each per-layer metric is measured; it reads 0 elsewhere.
FLEET = {"simulate", "report"}
APPLIES = {
    **dict.fromkeys(
        ["workload.generate_s", "proxy.fleet_s", "proxy.route_s",
         "policy.evaluate_s", "policy.errors_sample_s",
         "proxy.cache_lookup_s", "proxy.sg9000_self_s",
         "policy.evaluate_calls", "policy.distinct_key_share",
         "pipeline.anonymize_s", "engine.merge_s"], FLEET),
    "workload.requests": FLEET | {"distributed"},
    "proxy.cache_hit_share": FLEET | {"distributed"},
    "engine.shard_s.p50": FLEET | {"distributed"},
    "engine.shard_s.max": FLEET | {"distributed"},
    "pipeline.from_records_s": {"report"},
    "elff.serialize_s": {"simulate"},
    "elff.write_s": {"simulate"},
    "elff.bytes_written": {"simulate"},
    **dict.fromkeys(["elff.read_s", "elff.read_rows", "classify.batch_s",
                     "streaming.fold_s"], {"investigate"}),
    **dict.fromkeys(["frame.load_s", "analysis.overview_s",
                     "analysis.stringfilter_s"], {"investigate", "report"}),
    **dict.fromkeys([f"analysis.{m}_s" for m in (
        "temporal", "socialmedia", "ipfilter", "toranalysis", "users",
        "proxies", "categories", "report")] + ["datasets.assemble_s"],
        {"report"}),
    **dict.fromkeys(
        ["runstate.artifact_bytes", "runstate.artifact_write_s",
         "dispatch.lease_granted", "dispatch.shards_per_worker_max",
         "dispatch.worker_busy_s.max", "dispatch.first_idle_s",
         "dispatch.spawn_s", "dispatch.merge_s"], {"distributed"}),
    **dict.fromkeys(["trace.coverage_share", "wall.records_per_s",
                     "wall.setup_s", "reference.kernel_s"], set(WORKLOADS)),
}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_passes_its_check(workload):
    results = {}
    for trace in ("0", "1"):
        done = run_bench("--workload", workload, "--seed", "3",
                         "--seconds", "0", "--records", str(TINY),
                         "--trace", trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        results[trace] = result["metrics"]
    section = {"0": "end_to_end", "1": "per_layer"}
    for trace, metrics in results.items():
        specs = SPEC[section[trace]]
        assert list(metrics) == [m["name"] for m in specs]
        for spec in specs:
            assert metrics[spec["name"]]["unit"] == spec["unit"]
    for name, value in results["0"].items():
        assert value["value"] > 0, name
    for name, where in APPLIES.items():
        if workload in where:
            assert results["1"][name]["value"] > 0, name


def test_every_layer_metric_has_a_workload():
    names = {m["name"] for m in SPEC["per_layer"]}
    unmeasured = {"dispatch.lease_reclaimed", "dispatch.worker_busy_s.min",
                  "dispatch.worker_idle_share", "trace.overhead_share"}
    assert names - unmeasured == set(APPLIES)


@pytest.fixture
def session_logs(tmp_path):
    manifest = child.investigate_prep(TINY, 5, tmp_path)
    return child.log_paths(tmp_path / "logs"), manifest["records"]


def session_check(paths, expected) -> bool:
    try:
        result = child.timed_session(paths)
    except child.session_errors():
        return False
    return child.check_investigate(result, expected)[0]


def test_investigate_check_passes_on_clean_logs(session_logs):
    assert session_check(*session_logs)


def test_truncated_log_fails_investigate_check(session_logs):
    paths, expected = session_logs
    data = paths[10].read_bytes()
    paths[10].write_bytes(data[:-40])
    assert not session_check(paths, expected)


@pytest.mark.parametrize("edit", ["garble", "drop"])
def test_edited_log_fails_investigate_check(session_logs, edit):
    paths, expected = session_logs
    lines = paths[10].read_text().splitlines(keepends=True)
    body = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    if edit == "garble":
        lines[body] = "not,an,elff,row\n"
    else:
        del lines[body]
    paths[10].write_text("".join(lines))
    assert not session_check(paths, expected)


def test_seed_changes_input_digest(tmp_path):
    first = child.investigate_prep(TINY, 1, tmp_path / "a")
    second = child.investigate_prep(TINY, 2, tmp_path / "b")
    again = child.investigate_prep(TINY, 1, tmp_path / "c")
    assert first["input_sha256"] != second["input_sha256"]
    assert first["input_sha256"] == again["input_sha256"]


def test_distributed_bytes_equal_simulate(tmp_path):
    reference = child.distributed_prep(TINY, 4, tmp_path)
    config = child.scenario_config(TINY, 4)
    run = child.distributed_run(config, tmp_path / "out", tmp_path / "queue")
    assert child.sha256_files(run["paths"]) == reference["reference_sha256"]
    assert child.check_distributed(tmp_path / "queue", run["paths"],
                                   reference["reference_sha256"])[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = run_bench("--workload", "simulate", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_union_length_merges_overlaps():
    assert child.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert child.union_length([]) == 0


def test_trimmed_mean_drops_one_stalled_pass():
    import run

    assert run.trimmed_mean([1.0, 1.2, 1.1, 9.0, 0.1]) == pytest.approx(1.1)
    assert run.trimmed_mean([2.0, 4.0]) == 3.0


def test_hung_pass_is_killed_with_its_workers(tmp_path, monkeypatch):
    import argparse
    import time

    import run

    # Big enough that the workers would outlive the check by seconds.
    args = argparse.Namespace(workload="distributed", seed=6, records=60_000)
    (tmp_path / "prep.json").write_text(json.dumps({"records": 0}))
    spawned = []
    real_popen = run.subprocess.Popen

    def recording_popen(*popen_args, **kwargs):
        child = real_popen(*popen_args, **kwargs)
        spawned.append(child.pid)
        return child

    monkeypatch.setattr(run.subprocess, "Popen", recording_popen)
    monkeypatch.setattr(run, "CHILD_TIMEOUT", 2.0)  # workers are running
    assert run.run_child("iter", args, tmp_path) is None
    deadline = time.monotonic() + 1.0
    while live_in_group(spawned[0]):  # killed processes take a moment
        assert time.monotonic() < deadline, "the pass's workers survived"
        time.sleep(0.05)


def live_in_group(pgid: int) -> list[int]:
    """Processes of group *pgid* that are not zombies (Linux /proc)."""
    live = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        state, group = fields[0], int(fields[2])
        if group == pgid and state != "Z":
            live.append(int(stat.parent.name))
    return live

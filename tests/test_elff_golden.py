"""Golden digests of the ELFF bytes ``simulate_to_logs`` writes.

The analysis goldens hash *parsed* results, which a quoting, field
order or timestamp slip in the serializer can pass unchanged.  These
pin the written files themselves — every file name and every byte — for
each registered regime in the three layouts the CLI offers: the
combined ``proxies.log``, the leak's per-proxy × per-day split, and
deterministic gzip.  CI also runs this file under two string-hash
seeds.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import pytest

from repro.engine import simulate_to_logs
from repro.workload.config import small_config

LAYOUTS = {
    "combined": {},
    "per_proxy_day": {"per_proxy": True, "per_day": True},
    "compressed": {"compress": True},
}

GOLDEN_SHA256 = {
    ("syria", "combined"):
        "c35da2449de95548d604df18f5d0a641b4aca801392544c86ca780deb7b87de7",
    ("syria", "per_proxy_day"):
        "d5d6a301c096142bbf4011ce6643f67af7265062b5228839af6f304c2506c9a7",
    ("syria", "compressed"):
        "4a227a3cb0da76a5b6b2b1b295a0f05d01e24e22e31244f91d36fe3835461861",
    ("pakistan", "combined"):
        "3f3481d72333e19e214d066c7a824f19ab13569d4348c60cd6d7750ca2d6b952",
    ("pakistan", "per_proxy_day"):
        "2663f177e723fb40780b77a36661263c0f81bc111fb412d5742860ae2d720366",
    ("pakistan", "compressed"):
        "7c16de17107ec6c895c3036ba10f03546beac4fd0a977f8b86c886bb5ceb699f",
    ("turkmenistan", "combined"):
        "c9463c2cb9bd724be0fcfc6abd5c7e31fae1dfebe88f98c907c9a191f97bbbd7",
    ("turkmenistan", "per_proxy_day"):
        "0176d11fa4a219065194707d9ceb10fbc65b057ec9049a049ed479833d28d2d0",
    ("turkmenistan", "compressed"):
        "695b0d537e615767ab0a5d787f6e22377520c5fb7f62793f5094811e1ca38390",
}


def directory_digest(directory: Path) -> str:
    """SHA-256 over every file's name and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


# Regime-major order, so the per-process scenario context is built
# once per regime rather than once per case.
@pytest.mark.parametrize("regime, layout", list(GOLDEN_SHA256))
def test_simulate_elff_digest(regime, layout, tmp_path):
    config = dataclasses.replace(small_config(3000, seed=23), regime=regime)
    simulate_to_logs(config, tmp_path, **LAYOUTS[layout])
    assert directory_digest(tmp_path) == GOLDEN_SHA256[regime, layout]


def test_batched_simulate_matches_golden(tmp_path):
    """Column-batch execution serializes through ``RecordBatch.to_rows``
    and the batch stems; the bytes must not move either."""
    config = small_config(3000, seed=23)
    simulate_to_logs(config, tmp_path, batch_size=64, **LAYOUTS["per_proxy_day"])
    assert directory_digest(tmp_path) == GOLDEN_SHA256["syria", "per_proxy_day"]

"""Golden digests of the analysis layer's output.

The SHA-256 of the full report's ``repr`` and of the investigate-style
frame queries are pinned on the shared seeded scenario.  Any change to
the group-by or string-scan machinery must leave these bytes exactly
as they are; the digests also must not depend on ``PYTHONHASHSEED``
(CI runs this file under two hash seeds).
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from repro.analysis import overview, stringfilter

REPORT_SHA256 = "0f23c1603ac4122f95a604633899fc1def42ffe1f3db86e64099a4bf70775b9d"
QUERIES_SHA256 = "c3be72c9b6f95ba0d6cbf6a9e2967457668909736d4fa5dca4062e6d84e0e179"


def _digest(value) -> str:
    with np.printoptions(threshold=sys.maxsize):
        return hashlib.sha256(repr(value).encode()).hexdigest()


def investigate_queries(frame):
    """The investigate workflow's frame queries, in the analyst's order."""
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
    return (
        overview.traffic_breakdown(frame), overview.top_domains(frame),
        suspected, hosts, keywords,
    )


def test_report_digest(report):
    assert _digest(report) == REPORT_SHA256


def test_investigate_queries_digest(scenario):
    assert _digest(investigate_queries(scenario.full)) == QUERIES_SHA256

"""Shared test helpers: compact frame/record construction."""

from __future__ import annotations

import numpy as np

from repro.frame import LogFrame, frame_from_records
from repro.logmodel.fields import FIELDS
from repro.logmodel.record import LogRecord, epoch_to_date_time
from repro.timeline import day_epoch

DEFAULT_EPOCH = day_epoch("2011-08-03") + 10 * 3600


def make_record(**overrides) -> LogRecord:
    """A LogRecord with sensible defaults, overridable per field."""
    values = dict(
        epoch=DEFAULT_EPOCH,
        c_ip="0.0.0.0",
        s_ip="82.137.200.42",
        cs_host="www.example.com",
        cs_uri_path="/",
        cs_uri_query="",
        sc_filter_result="OBSERVED",
        x_exception_id="-",
    )
    values.update(overrides)
    return LogRecord(**values)


def reference_row(record: LogRecord) -> list[str]:
    """Oracle for :meth:`LogRecord.to_row`: every wire field keyed by
    its ELFF name, then read back in ``FIELDS`` order."""
    date, time = epoch_to_date_time(record.epoch)
    values = {
        "date": date,
        "time": time,
        "time-taken": str(record.time_taken),
        "c-ip": record.c_ip,
        "cs-username": record.cs_username,
        "cs-auth-group": record.cs_auth_group,
        "x-exception-id": record.x_exception_id,
        "sc-filter-result": record.sc_filter_result,
        "cs-categories": record.cs_categories,
        "cs-referer": record.cs_referer,
        "sc-status": str(record.sc_status),
        "s-action": record.s_action,
        "cs-method": record.cs_method,
        "rs-content-type": record.rs_content_type,
        "cs-uri-scheme": record.cs_uri_scheme,
        "cs-host": record.cs_host,
        "cs-uri-port": str(record.cs_uri_port),
        "cs-uri-path": record.cs_uri_path,
        "cs-uri-query": record.cs_uri_query,
        "cs-uri-ext": record.cs_uri_ext,
        "cs-user-agent": record.cs_user_agent,
        "s-ip": record.s_ip,
        "sc-bytes": str(record.sc_bytes),
        "cs-bytes": str(record.cs_bytes),
        "x-virus-id": record.x_virus_id,
        "s-supplier-name": record.s_supplier_name,
    }
    return [values[name] for name in FIELDS]


def make_frame(rows: list[dict]) -> LogFrame:
    """Build a LogFrame from partial row dicts (record defaults)."""
    return frame_from_records([make_record(**row) for row in rows])


def censored_row(**overrides) -> dict:
    row = dict(sc_filter_result="DENIED", x_exception_id="policy_denied")
    row.update(overrides)
    return row


def allowed_row(**overrides) -> dict:
    row = dict(sc_filter_result="OBSERVED", x_exception_id="-")
    row.update(overrides)
    return row


def error_row(exception: str = "tcp_error", **overrides) -> dict:
    row = dict(sc_filter_result="DENIED", x_exception_id=exception)
    row.update(overrides)
    return row


def proxied_row(**overrides) -> dict:
    row = dict(sc_filter_result="PROXIED", x_exception_id="-")
    row.update(overrides)
    return row


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)

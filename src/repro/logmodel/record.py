"""The in-memory log record type.

A :class:`LogRecord` carries one line of an SG-9000 access log.  The
simulator produces records, :mod:`repro.logmodel.elff` round-trips them
through the leaked CSV format, and :mod:`repro.frame` loads batches of
them into columnar form for analysis.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

from repro.logmodel.classify import NO_EXCEPTION, TrafficClass, classify
from repro.logmodel.fields import FIELDS
from repro.timeline import SECONDS_PER_DAY, day_string

_EPOCH = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)


#: ``HH:MM:`` for every minute of a day and ``SS`` for every second of
#: a minute: a time-of-day string is two lookups and one concatenation.
MINUTE_STAMPS = tuple(f"{h:02d}:{m:02d}:" for h in range(24) for m in range(60))
SECOND_STAMPS = tuple(f"{s:02d}" for s in range(60))


def epoch_to_date_time(epoch: int) -> tuple[str, str]:
    """Split an epoch timestamp into the log's (date, time) strings."""
    day, second = divmod(int(epoch), SECONDS_PER_DAY)
    minute, second = divmod(second, 60)
    return day_string(day), MINUTE_STAMPS[minute] + SECOND_STAMPS[second]


def date_time_to_epoch(date: str, time: str) -> int:
    """Inverse of :func:`epoch_to_date_time`."""
    stamp = dt.datetime.strptime(f"{date} {time}", "%Y-%m-%d %H:%M:%S")
    return int((stamp.replace(tzinfo=dt.timezone.utc) - _EPOCH).total_seconds())


@dataclass(slots=True)
class LogRecord:
    """One access-log line.

    Timestamps are held as integer epoch seconds (``epoch``); the
    ``date``/``time`` strings of the wire format are derived on
    serialization.  All other attributes map 1:1 to schema fields, with
    dashes in attribute names replaced by underscores.
    """

    epoch: int
    c_ip: str
    s_ip: str
    cs_host: str
    cs_uri_scheme: str = "http"
    cs_uri_port: int = 80
    cs_uri_path: str = "/"
    cs_uri_query: str = ""
    cs_uri_ext: str = ""
    cs_method: str = "GET"
    cs_user_agent: str = "-"
    cs_referer: str = "-"
    sc_filter_result: str = "OBSERVED"
    x_exception_id: str = NO_EXCEPTION
    cs_categories: str = "unavailable"
    sc_status: int = 200
    s_action: str = "TCP_NC_MISS"
    rs_content_type: str = "text/html"
    time_taken: int = 100
    sc_bytes: int = 0
    cs_bytes: int = 0
    cs_username: str = "-"
    cs_auth_group: str = "-"
    x_virus_id: str = "-"
    s_supplier_name: str = "-"

    @property
    def traffic_class(self) -> TrafficClass:
        """The paper's headline classification of this request."""
        return classify(self.sc_filter_result, self.x_exception_id)

    def matchable_text(self) -> str:
        """Text scanned by the keyword-filtering engine (Section 5.4)."""
        return f"{self.cs_host}{self.cs_uri_path}?{self.cs_uri_query}"

    def to_row(self) -> list[str]:
        """Serialize to the 26-column CSV row, in schema order."""
        date, time = epoch_to_date_time(self.epoch)
        return [
            date,
            time,
            str(self.time_taken),
            self.c_ip,
            self.cs_username,
            self.cs_auth_group,
            self.x_exception_id,
            self.sc_filter_result,
            self.cs_categories,
            self.cs_referer,
            str(self.sc_status),
            self.s_action,
            self.cs_method,
            self.rs_content_type,
            self.cs_uri_scheme,
            self.cs_host,
            str(self.cs_uri_port),
            self.cs_uri_path,
            self.cs_uri_query,
            self.cs_uri_ext,
            self.cs_user_agent,
            self.s_ip,
            str(self.sc_bytes),
            str(self.cs_bytes),
            self.x_virus_id,
            self.s_supplier_name,
        ]

    @classmethod
    def from_row(cls, row: list[str]) -> "LogRecord":
        """Parse a 26-column CSV row (inverse of :meth:`to_row`)."""
        if len(row) != len(FIELDS):
            raise ValueError(f"expected {len(FIELDS)} columns, got {len(row)}")
        values = dict(zip(FIELDS, row))
        return cls(
            epoch=date_time_to_epoch(values["date"], values["time"]),
            time_taken=int(values["time-taken"]),
            c_ip=values["c-ip"],
            cs_username=values["cs-username"],
            cs_auth_group=values["cs-auth-group"],
            x_exception_id=values["x-exception-id"],
            sc_filter_result=values["sc-filter-result"],
            cs_categories=values["cs-categories"],
            cs_referer=values["cs-referer"],
            sc_status=int(values["sc-status"]),
            s_action=values["s-action"],
            cs_method=values["cs-method"],
            rs_content_type=values["rs-content-type"],
            cs_uri_scheme=values["cs-uri-scheme"],
            cs_host=values["cs-host"],
            cs_uri_port=int(values["cs-uri-port"]),
            cs_uri_path=values["cs-uri-path"],
            cs_uri_query=values["cs-uri-query"],
            cs_uri_ext=values["cs-uri-ext"],
            cs_user_agent=values["cs-user-agent"],
            s_ip=values["s-ip"],
            sc_bytes=int(values["sc-bytes"]),
            cs_bytes=int(values["cs-bytes"]),
            x_virus_id=values["x-virus-id"],
            s_supplier_name=values["s-supplier-name"],
        )

"""The leak's timeline (Section 3.1 of the paper).

The logs cover two periods: July 22, 23 and 31, 2011 (proxy SG-42
only) and August 1–6, 2011 (all seven proxies).  Client addresses are
hashed — rather than zeroed — for July 22–23, enabling the D_user
analysis.
"""

from __future__ import annotations

import datetime as dt
from functools import lru_cache

_EPOCH = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)

SECONDS_PER_DAY = 86400


def day_epoch(date: str) -> int:
    """Epoch seconds at 00:00 UTC of *date* (``YYYY-MM-DD``)."""
    stamp = dt.datetime.strptime(date, "%Y-%m-%d").replace(tzinfo=dt.timezone.utc)
    return int((stamp - _EPOCH).total_seconds())


def epoch_day(epoch: int) -> str:
    """Inverse of :func:`day_epoch` (date of the timestamp)."""
    return day_string(int(epoch) // SECONDS_PER_DAY)


@lru_cache(maxsize=4096)
def day_string(day: int) -> str:
    """``YYYY-MM-DD`` of UTC day number *day* (whole days since the epoch).

    Every date string the program writes comes from here.  Hot paths
    ask once per record while a log covers a handful of days, so the
    ``strftime`` runs once per distinct day.
    """
    return (_EPOCH + dt.timedelta(days=day)).strftime("%Y-%m-%d")


def hour_of_day(epoch: int) -> int:
    return (int(epoch) % 86400) // 3600


#: Days for which only proxy SG-42 logs exist.
SG42_ONLY_DAYS: tuple[str, ...] = ("2011-07-22", "2011-07-23", "2011-07-31")

#: Days covered by all seven proxies.
ALL_PROXY_DAYS: tuple[str, ...] = (
    "2011-08-01",
    "2011-08-02",
    "2011-08-03",
    "2011-08-04",
    "2011-08-05",
    "2011-08-06",
)

#: The full 9-day coverage, in order.
LOG_DAYS: tuple[str, ...] = SG42_ONLY_DAYS + ALL_PROXY_DAYS

#: Days whose client IPs were hashed (not zeroed) in the release.
USER_SLICE_DAYS: tuple[str, ...] = ("2011-07-22", "2011-07-23")

#: The protest day the paper zooms into (Fig. 6, Table 5).
PROTEST_DAY = "2011-08-03"

#: The Friday with the weekly-protest slowdown (Fig. 5).
FRIDAY_SLOWDOWN_DAY = "2011-08-05"


def day_span(date: str) -> tuple[int, int]:
    """Epoch range [start, end) of a date."""
    start = day_epoch(date)
    return start, start + SECONDS_PER_DAY

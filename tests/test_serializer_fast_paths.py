"""Property tests: simulate's per-record fast paths equal their references.

* the day-memoized, table-built timestamps equal ``strftime``;
* :meth:`LogRecord.to_row` equals the dict-keyed-by-``FIELDS`` oracle
  in :mod:`tests.helpers`;
* the ``bisect_right`` bin draw equals ``np.searchsorted(side="right")``
  for the same single uniform, thresholds included, and consumes the
  generator exactly like the numpy form.
"""

from __future__ import annotations

import datetime as dt

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logmodel.record import LogRecord, epoch_to_date_time
from repro.policy.errors import (
    ALLOWED_STATUSES,
    DEFAULT_ERROR_RATES,
    TOR_ERROR_RATES,
    USER_SLICE_ERROR_RATES,
    ErrorModel,
    draw_allowed_status,
    draw_bin,
)
from repro.timeline import SECONDS_PER_DAY, epoch_day

from tests.helpers import reference_row

MAX_EPOCH = 2**31

#: Epochs on and next to UTC day boundaries, where a day memo keyed
#: wrongly would show.
boundary_epochs = st.integers(0, MAX_EPOCH // SECONDS_PER_DAY).flatmap(
    lambda day: st.sampled_from(
        [day * SECONDS_PER_DAY + offset for offset in (-1, 0, 1, 86399)]
    )
).filter(lambda epoch: 0 <= epoch <= MAX_EPOCH)

epochs = st.one_of(st.integers(0, MAX_EPOCH), boundary_epochs)


def strftime_reference(epoch: int) -> tuple[str, str]:
    stamp = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc) + dt.timedelta(
        seconds=epoch
    )
    return stamp.strftime("%Y-%m-%d"), stamp.strftime("%H:%M:%S")


@settings(max_examples=500, deadline=None)
@given(epoch=epochs)
def test_epoch_to_date_time_matches_strftime(epoch):
    assert epoch_to_date_time(epoch) == strftime_reference(epoch)
    assert epoch_day(epoch) == strftime_reference(epoch)[0]


def test_epoch_to_date_time_range_ends():
    for epoch in (0, SECONDS_PER_DAY - 1, SECONDS_PER_DAY, MAX_EPOCH):
        assert epoch_to_date_time(epoch) == strftime_reference(epoch)


cells = st.text(max_size=12)
numbers = st.integers(0, 10**9)

log_records = st.builds(
    LogRecord,
    epoch=epochs,
    c_ip=cells,
    s_ip=cells,
    cs_host=cells,
    cs_uri_scheme=cells,
    cs_uri_port=numbers,
    cs_uri_path=cells,
    cs_uri_query=cells,
    cs_uri_ext=cells,
    cs_method=cells,
    cs_user_agent=cells,
    cs_referer=cells,
    sc_filter_result=cells,
    x_exception_id=cells,
    cs_categories=cells,
    sc_status=numbers,
    s_action=cells,
    rs_content_type=cells,
    time_taken=numbers,
    sc_bytes=numbers,
    cs_bytes=numbers,
    cs_username=cells,
    cs_auth_group=cells,
    x_virus_id=cells,
    s_supplier_name=cells,
)


@settings(max_examples=200, deadline=None)
@given(record=log_records)
def test_to_row_matches_field_keyed_oracle(record):
    assert record.to_row() == reference_row(record)


class FixedDraw:
    """Stands in for a generator whose next ``random()`` is *value*."""

    def __init__(self, value: float):
        self.value = value
        self.calls = 0

    def random(self) -> float:
        self.calls += 1
        return self.value


def searchsorted_reference(cumulative: list[float], draw: float) -> int:
    index = int(np.searchsorted(np.asarray(cumulative), draw, side="right"))
    return min(index, len(cumulative) - 1)


PROGRAM_THRESHOLDS = [
    ErrorModel(rates)._cumulative
    for rates in (DEFAULT_ERROR_RATES, TOR_ERROR_RATES, USER_SLICE_ERROR_RATES)
] + [np.cumsum((0.82, 0.11, 0.04, 0.03)).tolist()]

random_thresholds = st.lists(
    st.floats(0.0, 1.0), min_size=1, max_size=12
).map(lambda values: np.cumsum(sorted(values)).tolist())

thresholds = st.one_of(st.sampled_from(PROGRAM_THRESHOLDS), random_thresholds)


@settings(max_examples=500, deadline=None)
@given(data=st.data(), cumulative=thresholds)
def test_draw_bin_matches_searchsorted(data, cumulative):
    draw = data.draw(st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from(cumulative),  # exactly on a threshold
    ))
    rng = FixedDraw(draw)
    assert draw_bin(cumulative, rng) == searchsorted_reference(cumulative, draw)
    assert rng.calls == 1


@given(seed=st.integers(0, 2**32 - 1))
def test_draws_consume_the_generator_like_numpy(seed):
    """Same indices from the same stream, one uniform per draw, so every
    later draw of the record stays where it was."""
    model = ErrorModel()
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(50):
        assert model.sample(ours) == model._outcomes[
            searchsorted_reference(model._cumulative, theirs.random())
        ]
        assert draw_allowed_status(ours) == ALLOWED_STATUSES[
            searchsorted_reference(PROGRAM_THRESHOLDS[-1], theirs.random())
        ]
    assert ours.random() == theirs.random()

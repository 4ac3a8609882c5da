"""Stream stages: the proxy-fleet verdict pass and anonymization."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.frame.batch import RecordBatch
from repro.logmodel.anonymize import hash_client_ip, zero_client_ip
from repro.logmodel.record import LogRecord
from repro.pipeline.core import Stage
from repro.timeline import SECONDS_PER_DAY


class FleetStage(Stage):
    """Map requests to log records through a proxy fleet.

    Consumes the fleet's *rng* one request at a time in stream order —
    exactly the draws the batch loop ``[fleet.process(r, rng) for r in
    requests]`` makes, so fusing changes no output byte.
    """

    def __init__(self, fleet, rng: np.random.Generator):
        self.fleet = fleet
        self.rng = rng

    def process(self, stream: Iterator) -> Iterator[LogRecord]:
        fleet, rng = self.fleet, self.rng
        for request in stream:
            yield fleet.process(request, rng)


class AnonymizeStage(Stage):
    """Apply the Telecomix release treatment to client addresses.

    Records with an epoch inside a user slice get keyed hashes, all
    others zeroed addresses.  Draws no randomness, so it can interleave
    with the fleet stage without perturbing any stream.  The spans must
    be whole UTC days (``day_span``), so the per-record test is one
    lookup of the record's day number.
    """

    def __init__(self, user_spans: list[tuple[int, int]]):
        for start, end in user_spans:
            if start % SECONDS_PER_DAY or end % SECONDS_PER_DAY:
                raise ValueError(
                    f"user span {start}..{end} is not whole UTC days"
                )
        self._user_days = frozenset(
            day
            for start, end in user_spans
            for day in range(start // SECONDS_PER_DAY, end // SECONDS_PER_DAY)
        )

    def anonymize(self, record: LogRecord) -> LogRecord:
        """Anonymize one record in place; returns it."""
        if record.epoch // SECONDS_PER_DAY in self._user_days:
            record.c_ip = hash_client_ip(record.c_ip)
        else:
            record.c_ip = zero_client_ip(record.c_ip)
        return record

    def process(self, stream: Iterator) -> Iterator[LogRecord]:
        for record in stream:
            yield self.anonymize(record)

    def anonymize_batch(self, batch: RecordBatch) -> RecordBatch:
        """Anonymize a whole column batch.

        The keyed hash / zeroing runs once per *distinct* client
        address on each side of the user-slice split (client addresses
        repeat massively within a day), then broadcasts back — value
        for value what :meth:`anonymize` produces per record.
        """
        if not len(batch):
            return batch
        in_user_slice = np.isin(
            batch.col("epoch") // SECONDS_PER_DAY, list(self._user_days)
        )
        c_ips = batch.col("c_ip")
        anonymized = np.empty(len(batch), dtype=object)
        anonymized[in_user_slice] = _map_distinct(
            c_ips[in_user_slice], hash_client_ip
        )
        anonymized[~in_user_slice] = _map_distinct(
            c_ips[~in_user_slice], zero_client_ip
        )
        return batch.with_column("c_ip", anonymized)

    def process_batch(
        self, batches: Iterator[RecordBatch]
    ) -> Iterator[RecordBatch]:
        for batch in batches:
            yield self.anonymize_batch(batch)


def _map_distinct(values: np.ndarray, func) -> np.ndarray:
    """Apply *func* once per distinct value, broadcast to all rows."""
    if not len(values):
        return values
    uniques, inverse = np.unique(values, return_inverse=True)
    mapped = np.array(
        [func(value) for value in uniques.tolist()], dtype=object
    )
    return mapped[inverse]

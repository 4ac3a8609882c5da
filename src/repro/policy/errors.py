"""Network-error injection model.

The paper's Table 3 breaks the denied traffic into eight network-error
exceptions.  The model injects these at calibrated per-request rates;
components with distinct error profiles (e.g. Tor OR connections,
16.2 % of which fail with TCP errors) override the default profile.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

# Default per-request error probabilities, calibrated to Table 3's
# D_full column (fractions of total traffic).
DEFAULT_ERROR_RATES: dict[str, float] = {
    "tcp_error": 0.0286,
    "internal_error": 0.0196,
    "invalid_request": 0.0036,
    "unsupported_protocol": 0.0010,
    "dns_unresolved_hostname": 0.0002,
    "dns_server_failure": 0.0001,
    "unsupported_encoding": 0.0000004,
    "invalid_response": 0.00000001,
}

# Tor OR connections observed in the paper fail far more often.
TOR_ERROR_RATES: dict[str, float] = {
    "tcp_error": 0.162,
    "internal_error": 0.004,
}

# The D_user slice (proxy SG-42, July 22-23) shows a different error
# mix: fewer TCP errors, more internal errors (Table 3, D_user column).
USER_SLICE_ERROR_RATES: dict[str, float] = {
    "tcp_error": 0.0088,
    "internal_error": 0.0325,
    "invalid_request": 0.0059,
    "unsupported_protocol": 0.0002,
    "dns_unresolved_hostname": 0.0006,
    "dns_server_failure": 0.0001,
}


#: Status codes of allowed responses and their shares, shared by every
#: appliance model.
ALLOWED_STATUSES = (200, 304, 302, 404)
_ALLOWED_STATUS_CUMULATIVE = np.cumsum((0.82, 0.11, 0.04, 0.03)).tolist()


def draw_bin(cumulative: list[float], rng: np.random.Generator) -> int:
    """The bin one ``rng.random()`` draw falls in, given ascending
    cumulative thresholds (clamped to the last bin).

    ``bisect_right`` on the thresholds as a list returns the index
    ``np.searchsorted(..., side="right")`` would, for the same single
    draw, at a fraction of the cost of a numpy call per record.
    """
    return min(bisect_right(cumulative, rng.random()), len(cumulative) - 1)


def draw_allowed_status(rng: np.random.Generator) -> int:
    """The HTTP status of one allowed response (one uniform draw)."""
    return ALLOWED_STATUSES[draw_bin(_ALLOWED_STATUS_CUMULATIVE, rng)]


class ErrorModel:
    """Samples a network-error exception (or None) per request."""

    def __init__(self, rates: dict[str, float] | None = None):
        self._rates = dict(DEFAULT_ERROR_RATES if rates is None else rates)
        total = sum(self._rates.values())
        if total >= 1.0:
            raise ValueError(f"error rates sum to {total} >= 1")
        self._exceptions = list(self._rates)
        self._probabilities = np.array(
            [self._rates[e] for e in self._exceptions] + [1.0 - total]
        )
        self._outcomes = self._exceptions + [None]
        # Cumulative thresholds for a single-uniform draw: cheaper than
        # rng.choice(p=...) in the per-request hot path.
        self._cumulative = np.cumsum(self._probabilities).tolist()

    @property
    def rates(self) -> dict[str, float]:
        return dict(self._rates)

    def sample(self, rng: np.random.Generator) -> str | None:
        """One draw: an exception id, or None for no error."""
        return self._outcomes[draw_bin(self._cumulative, rng)]

    def sample_many(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Vectorized draws (object array of exception ids / None)."""
        draws = rng.random(count)
        indices = np.minimum(
            np.searchsorted(self._cumulative, draws, side="right"),
            len(self._outcomes) - 1,
        )
        lookup = np.array(self._outcomes, dtype=object)
        return lookup[indices]

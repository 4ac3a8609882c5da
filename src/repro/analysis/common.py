"""Shared building blocks for the analyses."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.frame import LogFrame
from repro.logmodel.classify import CENSOR_EXCEPTIONS, NO_EXCEPTION
from repro.net.url import is_ip_like, registered_domain


def isin_mask(
    frame: LogFrame, name: str, members, key: Callable | None = None
) -> np.ndarray:
    """Rows whose column value (mapped through *key*, as in
    :meth:`LogFrame.factorize`) is in *members*, decided once per
    distinct value."""
    values, codes = frame.factorize(name, key)
    return np.array([value in members for value in values.tolist()], dtype=bool)[codes]


def censored_mask(frame: LogFrame) -> np.ndarray:
    """Requests denied by policy (policy_denied / policy_redirect)."""
    return isin_mask(frame, "x_exception_id", CENSOR_EXCEPTIONS)


def allowed_mask(frame: LogFrame) -> np.ndarray:
    """Requests with no exception."""
    return frame.col("x_exception_id") == NO_EXCEPTION


def denied_mask(frame: LogFrame) -> np.ndarray:
    """Requests with any exception (censored or error)."""
    return frame.col("x_exception_id") != NO_EXCEPTION


def error_mask(frame: LogFrame) -> np.ndarray:
    """Requests denied by a network error."""
    return denied_mask(frame) & ~censored_mask(frame)


def proxied_mask(frame: LogFrame) -> np.ndarray:
    """Requests answered from the proxy cache."""
    return frame.col("sc_filter_result") == "PROXIED"


def observed_allowed_mask(frame: LogFrame) -> np.ndarray:
    """Allowed *and* OBSERVED — the conservative allowed set the
    paper's string-recovery uses (PROXIED rows are excluded because a
    missing exception there does not prove the URL is allowed)."""
    return allowed_mask(frame) & (frame.col("sc_filter_result") == "OBSERVED")


def domain_column(frame: LogFrame) -> np.ndarray:
    """Registered domain of every row's ``cs_host``.

    IP-address hosts map to themselves.  ``registered_domain`` runs
    once per distinct host, through the frame's memoized factorization.
    """
    values, codes = frame.factorize("cs_host", registered_domain)
    return values[codes]


def with_domain(frame: LogFrame) -> LogFrame:
    """The frame with a ``domain`` column added (cached pattern)."""
    if "domain" in frame:
        return frame
    return frame.with_column("domain", domain_column(frame))


def ip_host_mask(frame: LogFrame) -> np.ndarray:
    """Rows whose ``cs_host`` is a raw IPv4 address (the D_IPv4 set)."""
    values, codes = frame.factorize("cs_host", is_ip_like)
    return values.astype(bool)[codes]


def group_counts(
    frame: LogFrame, name: str, mask: np.ndarray, key: Callable | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(column[mask], return_counts=True)`` for a frame
    column (optionally mapped through *key*, as in
    :meth:`LogFrame.factorize`), served from the frame's memoized
    factorization instead of a sort of the masked rows."""
    values, codes = frame.factorize(name, key)
    counts = np.bincount(codes[mask], minlength=len(values))
    present = counts > 0
    return values[present], counts[present]


def https_mask(frame: LogFrame) -> np.ndarray:
    """CONNECT/443 traffic (the paper's HTTPS slice)."""
    return (frame.col("cs_method") == "CONNECT") | (
        frame.col("cs_uri_port") == 443
    )


def percent(part: int | float, whole: int | float) -> float:
    """Percentage helper that tolerates empty denominators."""
    return 100.0 * part / whole if whole else 0.0

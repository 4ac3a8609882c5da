"""The seven-proxy deployment.

The paper's Section 5.2 shows load fairly balanced across proxies,
with evidence of *domain-based redirection*: more than 95 % of
metacafe.com requests are processed by SG-48, SG-44 alone censors Tor,
and the proxies fall into similarity clusters (Table 6).  The fleet
model reproduces this: uniform balancing by default, with per-domain
routing overrides, per-proxy category naming, and day-dependent
availability (July days exist only for SG-42).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.logmodel.classify import NO_EXCEPTION
from repro.logmodel.fields import PROXY_NAMES
from repro.logmodel.record import LogRecord
from repro.metrics import current_registry
from repro.net.url import registered_domain
from repro.policy.cache import CacheModel
from repro.policy.errors import (
    ErrorModel,
    TOR_ERROR_RATES,
    USER_SLICE_ERROR_RATES,
)
from repro.policy.syria import SyrianPolicy
from repro.proxy.sg9000 import SG9000, CategoryNaming
from repro.timeline import (
    SECONDS_PER_DAY,
    SG42_ONLY_DAYS,
    USER_SLICE_DAYS,
    day_epoch,
)
from repro.traffic import Request

#: Proxies that log the default category as ``none`` (the paper finds
#: this configuration on SG-43 and SG-48 only).
_NONE_LABEL_PROXIES = frozenset({"SG-43", "SG-48"})

#: Default domain-based routing overrides: registered domain ->
#: list of (proxy, probability); residual probability is balanced
#: uniformly.  Calibrated to reproduce Table 6's similarity structure.
DEFAULT_ROUTING_OVERRIDES: dict[str, tuple[tuple[str, float], ...]] = {
    "metacafe.com": (("SG-48", 0.95), ("SG-45", 0.04)),
    "skype.com": (("SG-48", 0.60), ("SG-45", 0.10)),
    "trafficholder.com": (("SG-47", 0.90),),
    "conduitapps.com": (("SG-47", 0.85),),
    "hotsptshld.com": (("SG-47", 0.85),),
    "live.com": (("SG-42", 0.40),),
}


class RoutingPolicy:
    """Chooses the appliance for a request."""

    def __init__(
        self,
        overrides: dict[str, tuple[tuple[str, float], ...]] | None = None,
        proxies: Iterable[str] = PROXY_NAMES,
    ):
        self.proxies = tuple(proxies)
        self.overrides = dict(
            DEFAULT_ROUTING_OVERRIDES if overrides is None else overrides
        )
        for domain, targets in self.overrides.items():
            total = sum(share for _, share in targets)
            if total > 1.0 + 1e-9:
                raise ValueError(f"override shares for {domain} exceed 1: {total}")

    def route(
        self,
        request: Request,
        active: tuple[str, ...],
        rng: np.random.Generator,
    ) -> str:
        """Pick the proxy that handles *request*."""
        if len(active) == 1:
            return active[0]
        domain = registered_domain(request.host)
        targets = self.overrides.get(domain)
        if targets:
            draw = rng.random()
            cumulative = 0.0
            for proxy, share in targets:
                cumulative += share
                if draw < cumulative and proxy in active:
                    return proxy
        return active[int(rng.integers(len(active)))]


class ProxyFleet:
    """The deployed fleet: routing + seven configured appliances."""

    def __init__(
        self,
        policy: SyrianPolicy,
        routing: RoutingPolicy | None = None,
        cache: CacheModel | None = None,
        error_model: ErrorModel | None = None,
    ):
        self.policy = policy
        self.routing = routing or RoutingPolicy()
        cache = cache or CacheModel()
        base_errors = error_model or ErrorModel()
        component_errors = {
            "tor-onion": ErrorModel(TOR_ERROR_RATES),
            "tor-http": ErrorModel(TOR_ERROR_RATES),
        }
        self.proxies: dict[str, SG9000] = {}
        for name in PROXY_NAMES:
            naming = (
                CategoryNaming("none", "Blocked sites")
                if name in _NONE_LABEL_PROXIES
                else CategoryNaming("unavailable", "Blocked sites; unavailable")
            )
            self.proxies[name] = SG9000(
                name,
                policy.engine_for(name),
                cache=cache,
                error_model=base_errors,
                component_error_models=component_errors,
                naming=naming,
            )
        user_slice_errors = ErrorModel(USER_SLICE_ERROR_RATES)
        self._user_slice_proxies = {
            name: SG9000(
                name,
                proxy.engine,
                cache=proxy.cache,
                error_model=user_slice_errors,
                component_error_models=proxy.component_error_models,
                naming=proxy.naming,
            )
            for name, proxy in self.proxies.items()
        }
        # Availability (July: SG-42 only) and the user slice (July
        # 22-23: Table 3's D_user error mix on the variant appliances,
        # which keep the per-component Tor models) are whole UTC days,
        # so both resolve from the day number alone.
        sg42_days = {day_epoch(day) // SECONDS_PER_DAY for day in SG42_ONLY_DAYS}
        user_days = {day_epoch(day) // SECONDS_PER_DAY for day in USER_SLICE_DAYS}
        self._default_day = (PROXY_NAMES, self.proxies)
        self._days = {
            day: (
                ("SG-42",) if day in sg42_days else PROXY_NAMES,
                self._user_slice_proxies if day in user_days else self.proxies,
            )
            for day in sg42_days | user_days
        }

    def active_proxies(self, epoch: int) -> tuple[str, ...]:
        """Proxies whose logs exist at *epoch* (July = SG-42 only)."""
        return self._days.get(epoch // SECONDS_PER_DAY, self._default_day)[0]

    def process(self, request: Request, rng: np.random.Generator) -> LogRecord:
        """Route and filter one request."""
        active, appliances = self._days.get(
            request.epoch // SECONDS_PER_DAY, self._default_day
        )
        name = self.routing.route(request, active, rng)
        record = appliances[name].process(request, rng)
        registry = current_registry()
        if registry is not None:
            registry.inc("fleet.requests")
            registry.inc("fleet.verdict." + record.sc_filter_result)
            if record.x_exception_id != NO_EXCEPTION:
                registry.inc("fleet.exception." + record.x_exception_id)
        return record

    def process_all(
        self, requests: Iterable[Request], rng: np.random.Generator
    ) -> list[LogRecord]:
        """Filter a request stream."""
        return [self.process(request, rng) for request in requests]

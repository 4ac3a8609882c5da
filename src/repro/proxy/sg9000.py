"""One SG-9000 appliance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.logmodel.fields import proxy_ip
from repro.logmodel.record import LogRecord
from repro.metrics import current_registry
from repro.policy.cache import CacheModel
from repro.policy.engine import PolicyEngine
from repro.policy.errors import ErrorModel, draw_allowed_status
from repro.policy.rules import Action
from repro.traffic import Request


@dataclass(frozen=True, slots=True)
class CategoryNaming:
    """Per-proxy category labels.

    The paper observes two configurations: five proxies log the default
    category as ``unavailable`` and the custom one as
    ``Blocked sites; unavailable``; SG-43 and SG-48 log ``none`` and
    ``Blocked sites`` instead (Sections 4 and 5.2).
    """

    default_label: str = "unavailable"
    custom_label: str = "Blocked sites; unavailable"

    def label(self, custom_category: str | None) -> str:
        return self.custom_label if custom_category else self.default_label


# Status code per exception id (SGOS conventions).
_STATUS_BY_EXCEPTION = {
    "policy_denied": 403,
    "policy_redirect": 302,
    "tcp_error": 503,
    "internal_error": 500,
    "invalid_request": 400,
    "unsupported_protocol": 501,
    "dns_unresolved_hostname": 503,
    "dns_server_failure": 503,
    "unsupported_encoding": 415,
    "invalid_response": 502,
}


class SG9000:
    """One filtering appliance.

    ``process`` turns a :class:`~repro.traffic.Request` into the log
    record the appliance would emit: policy first, then (for allowed
    requests) error injection, then the cache layer, then log-field
    synthesis.
    """

    def __init__(
        self,
        name: str,
        engine: PolicyEngine,
        cache: CacheModel | None = None,
        error_model: ErrorModel | None = None,
        component_error_models: dict[str, ErrorModel] | None = None,
        naming: CategoryNaming | None = None,
    ):
        if not name.startswith("SG-"):
            raise ValueError(f"proxy names look like SG-42; got {name!r}")
        self.name = name
        self.s_ip = proxy_ip(int(name.split("-")[1]))
        self.engine = engine
        self.cache = cache or CacheModel()
        self.error_model = error_model or ErrorModel()
        self.component_error_models = dict(component_error_models or {})
        self.naming = naming or CategoryNaming()

    def _error_model_for(self, request: Request) -> ErrorModel:
        return self.component_error_models.get(request.component, self.error_model)

    def process(self, request: Request, rng: np.random.Generator) -> LogRecord:
        """Filter one request and emit its log record."""
        registry = current_registry()
        if registry is not None:
            registry.inc("proxy.requests." + self.name)
        verdict = self.engine.evaluate(request)

        exception = verdict.exception_id
        if verdict.action is Action.ALLOW:
            error = self._error_model_for(request).sample(rng)
            if error is not None:
                exception = error

        cached = False
        if self.cache.cacheable(request.method, request.content_type):
            cache_key = f"{request.host}{request.path}?{request.query}"
            cached = self.cache.lookup(cache_key, rng)
        if cached and exception != "-" and self.cache.exception_cleared(rng):
            # The paper's PROXIED inconsistency: a cached, censored
            # request whose log line carries no exception id.
            exception = "-"

        return self._emit(request, verdict.action, exception, verdict.category, cached, rng)

    def _emit(
        self,
        request: Request,
        action: Action,
        exception: str,
        custom_category: str | None,
        cached: bool,
        rng: np.random.Generator,
    ) -> LogRecord:
        if exception == "-":
            status = draw_allowed_status(rng)
            sc_bytes = int(rng.lognormal(8.0, 1.3))
            supplier = request.host
        else:
            status = _STATUS_BY_EXCEPTION.get(exception, 503)
            sc_bytes = int(rng.integers(0, 700))
            supplier = "-"

        if cached:
            filter_result = "PROXIED"
            s_action = "TCP_HIT"
        elif exception == "-":
            filter_result = "OBSERVED"
            s_action = "TCP_TUNNELED" if request.method == "CONNECT" else "TCP_NC_MISS"
        else:
            filter_result = "DENIED"
            if action is Action.REDIRECT and exception == "policy_redirect":
                s_action = "TCP_POLICY_REDIRECT"
            elif exception in ("policy_denied",):
                s_action = "TCP_DENIED"
            else:
                s_action = "TCP_ERR_MISS"

        return LogRecord(
            epoch=request.epoch,
            c_ip=request.c_ip,
            s_ip=self.s_ip,
            cs_host=request.host,
            cs_uri_scheme=request.scheme,
            cs_uri_port=request.port,
            cs_uri_path=request.path if request.method != "CONNECT" else "-",
            cs_uri_query=request.query if request.method != "CONNECT" else "-",
            cs_uri_ext=request.ext,
            cs_method=request.method,
            cs_user_agent=request.user_agent,
            cs_referer=request.referer,
            sc_filter_result=filter_result,
            x_exception_id=exception,
            cs_categories=self.naming.label(custom_category),
            sc_status=status,
            s_action=s_action,
            rs_content_type=request.content_type if exception == "-" else "-",
            time_taken=int(rng.lognormal(4.5, 1.0)),
            sc_bytes=sc_bytes,
            cs_bytes=int(rng.integers(200, 900)),
            s_supplier_name=supplier,
        )

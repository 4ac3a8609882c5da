"""Pakistan: ISP-level DNS injection and HTTP block pages.

Models the architecture of "The Anatomy of Web Censorship in Pakistan"
(PAPERS.md): blocking happens in the ISP's resolver/gateway path, not
in a caching proxy.  Blacklisted *domains* never resolve — the
injector answers NXDOMAIN before any TCP connection exists — while
blacklisted *URLs/hosts* on plain HTTP are answered with a 302
redirect to a government block page.  There is no proxy cache, so this
regime's logs contain no PROXIED rows at all, and no categorizer, so
``cs-categories`` is always ``-``.

Distinct verdict signatures (members of
:data:`repro.logmodel.classify.CENSOR_EXCEPTIONS`):

* ``dns_injected_nxdomain`` — status 0, ``DNS_INJECT_NXDOMAIN``;
* ``http_blockpage`` — status 302, ``TCP_BLOCKPAGE_REDIRECT``, with
  the block-page host as the supplier.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.frame import LogFrame
from repro.logmodel.record import LogRecord
from repro.metrics import current_registry
from repro.net.url import is_ip_like, registered_domain
from repro.policy.engine import PolicyEngine
from repro.policy.errors import ErrorModel, draw_allowed_status
from repro.policy.rules import Action, RequestView, Verdict
from repro.policy.syria import (
    blocked_domains_from_sites,
    blocked_hosts_from_sites,
)
from repro.regimes.base import (
    STATUS_BY_ERROR_EXCEPTION,
    RegimeProfile,
    RuleRecovery,
    register_regime,
)
from repro.traffic import Request
from repro.workload import TrafficGenerator

DNS_INJECTED = "dns_injected_nxdomain"
BLOCKPAGE = "http_blockpage"

#: Where the 302 block pages point (the surveyed ISPs redirect to a
#: handful of government notice hosts; one stands in for them here).
BLOCKPAGE_HOST = "block.pta.gov.pk"


class DnsInjectionRule:
    """Domain blacklist enforced at resolution time.

    Applies to every scheme — HTTPS included, since the name never
    resolves — but not to raw-IP requests, which bypass DNS entirely
    (the paper's evasion observation).
    """

    def __init__(self, domains: Iterable[str], name: str = "dns"):
        self.domains = frozenset(domains)
        self.name = name

    def evaluate(self, request: RequestView) -> Verdict | None:
        if is_ip_like(request.host):
            return None
        domain = registered_domain(request.host)
        if domain in self.domains:
            return Verdict(Action.DENY, DNS_INJECTED, f"{self.name}:{domain}")
        return None


class BlockpageRule:
    """Host blacklist answered with a 302 block page.

    Plain HTTP only: the gateway cannot forge a response inside a TLS
    stream, so CONNECT requests to these hosts pass (the paper's
    HTTPS-evasion finding).
    """

    def __init__(self, hosts: Iterable[str], name: str = "blockpage"):
        self.hosts = frozenset(hosts)
        self.name = name

    def evaluate(self, request: RequestView) -> Verdict | None:
        if request.method == "CONNECT" or request.scheme == "https":
            return None
        if request.host in self.hosts:
            return Verdict(
                Action.REDIRECT, BLOCKPAGE, f"{self.name}:{request.host}"
            )
        return None


@dataclass(frozen=True)
class PakistanPolicy:
    """The deployed rule set plus its ground truth."""

    engine: PolicyEngine
    dns_blocked_domains: frozenset[str]
    blockpage_hosts: frozenset[str]
    blockpage_host: str = BLOCKPAGE_HOST


def build_pakistan_policy(generator: TrafficGenerator) -> PakistanPolicy:
    """Assemble the Pakistani policy over the workload's site universe.

    The same tagged sites that seed Syria's URL filtering stand in for
    the court-ordered blocklists: ``suspected``-tagged domains go to
    the DNS injector, individually ``blocked-host``-tagged hosts to
    the block-page list.  DNS wins when both would match — resolution
    happens before any HTTP exchange.
    """
    dns_domains = blocked_domains_from_sites(generator.sites)
    page_hosts = blocked_hosts_from_sites(generator.sites)
    engine = PolicyEngine(
        [DnsInjectionRule(dns_domains), BlockpageRule(page_hosts)],
        name="pakistan-isp",
    )
    return PakistanPolicy(
        engine=engine,
        dns_blocked_domains=dns_domains,
        blockpage_hosts=page_hosts,
    )


class DnsInjectorFleet:
    """The ISP gateway: resolver injection + inline HTTP filtering.

    Satisfies :class:`~repro.regimes.base.ApplianceFleet`.  One
    logical appliance (the logs of the Pakistani vantage points come
    from a single ISP path), no cache, no category layer.
    """

    name = "PK-GW-1"
    s_ip = "202.125.128.1"

    def __init__(self, policy: PakistanPolicy, error_model: ErrorModel | None = None):
        self.policy = policy
        self.error_model = error_model or ErrorModel()

    def process(self, request: Request, rng: np.random.Generator) -> LogRecord:
        verdict = self.policy.engine.evaluate(request)
        exception = verdict.exception_id
        if verdict.action is Action.ALLOW:
            error = self.error_model.sample(rng)
            if error is not None:
                exception = error
        record = self._emit(request, exception, rng)
        registry = current_registry()
        if registry is not None:
            registry.inc("fleet.requests")
            registry.inc("fleet.verdict." + record.sc_filter_result)
            if record.x_exception_id != "-":
                registry.inc("fleet.exception." + record.x_exception_id)
        return record

    def _emit(
        self, request: Request, exception: str, rng: np.random.Generator
    ) -> LogRecord:
        supplier = "-"
        content_type = "-"
        if exception == "-":
            status = draw_allowed_status(rng)
            sc_bytes = int(rng.lognormal(8.0, 1.3))
            supplier = request.host
            content_type = request.content_type
            filter_result = "OBSERVED"
            s_action = (
                "TCP_TUNNELED" if request.method == "CONNECT" else "TCP_MISS"
            )
        elif exception == DNS_INJECTED:
            # The forged NXDOMAIN: no TCP connection ever exists, so
            # there is no HTTP status and almost no bytes.
            status = 0
            sc_bytes = int(rng.integers(60, 140))
            filter_result = "DENIED"
            s_action = "DNS_INJECT_NXDOMAIN"
        elif exception == BLOCKPAGE:
            status = 302
            sc_bytes = int(rng.integers(300, 600))
            supplier = self.policy.blockpage_host
            content_type = "text/html"
            filter_result = "DENIED"
            s_action = "TCP_BLOCKPAGE_REDIRECT"
        else:
            status = STATUS_BY_ERROR_EXCEPTION.get(exception, 503)
            sc_bytes = int(rng.integers(0, 700))
            filter_result = "DENIED"
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
            cs_categories="-",
            sc_status=status,
            s_action=s_action,
            rs_content_type=content_type,
            time_taken=int(rng.lognormal(4.5, 1.0)),
            sc_bytes=sc_bytes,
            cs_bytes=int(rng.integers(200, 900)),
            s_supplier_name=supplier,
        )


def _recover(frame: LogFrame, policy: PakistanPolicy) -> tuple[RuleRecovery, ...]:
    """Re-derive the blocklists from the injector's own signatures.

    The mechanisms identify themselves in the logs (the paper's
    fingerprinting step): every NXDOMAIN-injected row names a
    DNS-blocked domain, every 302-to-block-page row names a filtered
    host.  Recall falls short of 1.0 exactly where the workload never
    touched a blacklisted name — unobserved rules are unrecoverable.
    """
    exceptions = frame.col("x_exception_id")
    hosts = frame.col("cs_host")
    dns_hosts = hosts[exceptions == DNS_INJECTED]
    page_hosts = hosts[exceptions == BLOCKPAGE]
    return (
        RuleRecovery(
            kind="dns-domains",
            recovered=tuple(sorted({registered_domain(h) for h in dns_hosts})),
            truth=tuple(sorted(policy.dns_blocked_domains)),
        ),
        RuleRecovery(
            kind="blockpage-hosts",
            recovered=tuple(sorted(set(page_hosts))),
            truth=tuple(sorted(policy.blockpage_hosts)),
        ),
    )


PAKISTAN = register_regime(RegimeProfile(
    name="pakistan",
    description="ISP-level DNS NXDOMAIN injection + HTTP 302 block pages",
    mechanisms=("dns-injection", "http-blockpage"),
    censor_exceptions=frozenset({DNS_INJECTED, BLOCKPAGE}),
    build_workload=TrafficGenerator,
    build_policy=build_pakistan_policy,
    build_fleet=DnsInjectorFleet,
    recover_rules=_recover,
))

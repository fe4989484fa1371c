"""Polite HTTP fetch executor shared by the discovery and probe layers.

Redirects are followed manually (up to 5 hops) so the full chain is
recorded; retries with exponential backoff apply to transport errors and
5xx responses only. Politeness (minimum delay between requests to the same
host) is keyed to the *logical* host of the original URL, so an offline run
with --base-url rewriting still schedules like a live one.

The transport is stdlib `http.client`: each thread keeps a few keep-alive
connections, one per transport origin. Environment proxies are not used,
and HTTPS verifies against the system's CA store.
"""

from __future__ import annotations

import http.client
import ssl
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from urllib.parse import quote, urlsplit, urljoin

from .urlnorm import host_of, origin_of

MAX_REDIRECTS = 5
BODY_PREFIX_LIMIT = 256 * 1024

TRANSPORT_ERROR = 0  # http_status marker for failures below HTTP

# Idle keep-alive connections kept per thread; the least recently used is
# closed first, so a live run over many hosts holds few sockets.
CONNECTIONS_PER_THREAD = 4

# ValueError covers what cannot go on the wire at all, e.g. a newline in a
# header value taken from a manifest or a non-numeric port.
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException, ValueError)
# A reused keep-alive connection the server has already closed.
_STALE_CONNECTION = (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError)
# Dropped when a redirect leaves the origin, as browsers and `requests` do.
_CREDENTIAL_HEADERS = {"authorization", "cookie", "proxy-authorization"}
# Characters left as they are in the request target (as `requests` did);
# everything else, e.g. spaces and non-ASCII, is percent-encoded.
_TARGET_SAFE = "!#$%&'()*+,/:;=?@[]~"


@dataclass(frozen=True)
class FetchResult:
    url: str                      # requested URL (original space)
    final_url: str                # after redirects (original space)
    status: int                   # TRANSPORT_ERROR (0) when no response
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    content_type: str = ""
    redirect_chain: tuple[str, ...] = ()
    error: str | None = None
    attempts: int = 1
    truncated: bool = False       # body was cut at BODY_PREFIX_LIMIT

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def rewrite_to_base(url: str, base_url: str) -> str:
    """Map an original-space URL onto the fixture server.

    https://host/path?q -> {base_url}/host/path?q ; the logical host rides
    in the first path segment so the fixture can route per virtual host.
    """
    parts = urlsplit(url)
    path = parts.path or "/"
    query = f"?{parts.query}" if parts.query else ""
    return f"{base_url.rstrip('/')}/{parts.netloc}{path}{query}"


def _close_pools(pools: dict[threading.Thread, OrderedDict]) -> None:
    for thread, pool in list(pools.items()):
        for conn in pool.values():
            conn.close()
        pool.clear()
        if not thread.is_alive():
            del pools[thread]


class Fetcher:
    """Thread-safe fetch executor with per-host politeness and a global cap."""

    def __init__(
        self,
        max_concurrency: int = 8,
        per_host_delay_ms: int = 500,
        timeout_ms: int = 10000,
        retries: int = 2,
        base_url: str | None = None,
        log_fn=None,
    ):
        self.max_concurrency = max(1, int(max_concurrency))
        self.per_host_delay = max(0, int(per_host_delay_ms)) / 1000.0
        self.timeout = max(1, int(timeout_ms)) / 1000.0
        self.retries = max(0, int(retries))
        self.base_url = base_url.rstrip("/") if base_url else None
        self._log_fn = log_fn
        self._host_locks: dict[str, threading.Lock] = {}
        self._host_last: dict[str, float] = {}
        self._registry_lock = threading.Lock()
        self._local = threading.local()
        self._pools: dict[threading.Thread, OrderedDict] = {}
        self._ssl_context: ssl.SSLContext | None = None
        # A Fetcher dropped without close() still closes its sockets.
        weakref.finalize(self, _close_pools, self._pools)

    def _connection(self, scheme: str, netloc: str) -> http.client.HTTPConnection:
        """This thread's keep-alive connection to one transport origin."""
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = OrderedDict()
            with self._registry_lock:
                self._pools[threading.current_thread()] = pool
        conn = pool.pop((scheme, netloc), None)
        if conn is None:
            parts = urlsplit(f"//{netloc}")
            if not parts.hostname:
                raise http.client.InvalidURL(f"no host in {netloc!r}")
            if scheme == "https":
                if self._ssl_context is None:
                    self._ssl_context = ssl.create_default_context()
                conn = http.client.HTTPSConnection(
                    parts.hostname, parts.port, timeout=self.timeout, context=self._ssl_context
                )
            else:
                conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=self.timeout)
        pool[(scheme, netloc)] = conn
        while len(pool) > CONNECTIONS_PER_THREAD:
            pool.popitem(last=False)[1].close()
        return conn

    def close(self) -> None:
        """Close every pooled connection. Call only while no fetch is in flight."""
        with self._registry_lock:
            _close_pools(self._pools)

    def _host_lock(self, host: str) -> threading.Lock:
        with self._registry_lock:
            return self._host_locks.setdefault(host, threading.Lock())

    def _transport_url(self, url: str) -> str:
        if self.base_url:
            return rewrite_to_base(url, self.base_url)
        return url

    def _single_request(
        self, method: str, url: str, headers: dict[str, str], body: bytes | None
    ) -> tuple[http.client.HTTPResponse, bytes]:
        # Per-host serial queue: the lock spans the request so one logical
        # host never sees overlapping traffic from this process.
        host = host_of(url)
        with self._host_lock(host):
            last = self._host_last.get(host, 0.0)
            wait = last + self.per_host_delay - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            try:
                return self._exchange(method, self._transport_url(url), headers, body)
            finally:
                self._host_last[host] = time.monotonic()

    def _exchange(
        self, method: str, url: str, headers: dict[str, str], body: bytes | None
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """One request/response on a pooled connection.

        Returns the (closed) response and up to BODY_PREFIX_LIMIT + 1 body
        bytes, so the caller can tell a cut-off body from a whole one.
        """
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https"):
            raise http.client.InvalidURL(f"unsupported URL scheme in {url!r}")
        target = quote(parts.path or "/", safe=_TARGET_SAFE)
        if parts.query:
            target += "?" + quote(parts.query, safe=_TARGET_SAFE)
        conn = self._connection(parts.scheme, parts.netloc)
        reused = conn.sock is not None
        try:
            try:
                conn.request(method, target, body=body, headers=headers)
                response = conn.getresponse()
            except _STALE_CONNECTION:
                if not reused:
                    raise
                # The server closed the idle connection; reconnecting once is
                # not a retry attempt.
                conn.close()
                conn.request(method, target, body=body, headers=headers)
                response = conn.getresponse()
            payload = response.read(BODY_PREFIX_LIMIT + 1)
        except _TRANSPORT_ERRORS:
            conn.close()
            raise
        if not response.isclosed():
            # Unread bytes (or a body cut at the cap) remain on the socket,
            # so this connection is never reused.
            conn.close()
        response.close()
        return response, payload

    def fetch(
        self,
        url: str,
        method: str = "GET",
        headers: dict[str, str] | None = None,
        body: bytes | None = None,
    ) -> FetchResult:
        """Fetch one URL, following redirects manually and retrying politely.

        A hop to another origin drops the credential headers; a 303, or a
        301/302 after a POST, continues as a GET without a body.
        """
        headers = dict(headers or {})
        headers.setdefault("User-Agent", "plugin-store-audit/0.1")
        # Bodies are read as sent: ask for no compression, any media type.
        headers.setdefault("Accept", "*/*")
        headers.setdefault("Accept-Encoding", "identity")
        chain: list[str] = []
        current = url
        hop_method = method
        attempts_total = 0
        last_error = None

        for hop in range(MAX_REDIRECTS + 1):
            response = None
            for attempt in range(self.retries + 1):
                attempts_total += 1
                try:
                    response, payload = self._single_request(hop_method, current, headers, body)
                except _TRANSPORT_ERRORS as exc:
                    last_error = f"{type(exc).__name__}: {exc}"
                    response = None
                if response is not None and response.status < 500:
                    break
                if response is not None:
                    last_error = f"server error {response.status}"
                    if attempt >= self.retries:
                        break
                    response = None
                if attempt < self.retries:
                    time.sleep(min(2.0, 0.2 * (2 ** attempt)))
            if response is None:
                result = FetchResult(
                    url=url,
                    final_url=current,
                    status=TRANSPORT_ERROR,
                    redirect_chain=tuple(chain),
                    error=last_error or "transport failure",
                    attempts=attempts_total,
                )
                self._log(method, result)
                return result

            status = response.status
            location = response.getheader("Location")
            if 300 <= status < 400 and location and hop < MAX_REDIRECTS:
                chain.append(current)
                target = urljoin(current, location)
                if origin_of(target) != origin_of(current):
                    headers = {k: v for k, v in headers.items() if k.lower() not in _CREDENTIAL_HEADERS}
                if status == 303 or (status in (301, 302) and hop_method == "POST"):
                    hop_method, body = "GET", None
                    headers = {k: v for k, v in headers.items() if k.lower() != "content-type"}
                current = target
                continue

            result = FetchResult(
                url=url,
                final_url=current,
                status=status,
                headers=dict(response.getheaders()),
                body=payload[:BODY_PREFIX_LIMIT],
                content_type=response.getheader("Content-Type", ""),
                redirect_chain=tuple(chain),
                attempts=attempts_total,
                truncated=len(payload) > BODY_PREFIX_LIMIT,
            )
            self._log(method, result)
            return result

        result = FetchResult(
            url=url,
            final_url=current,
            status=TRANSPORT_ERROR,
            redirect_chain=tuple(chain),
            error="redirect limit exceeded",
            attempts=attempts_total,
        )
        self._log(method, result)
        return result

    def _log(self, method: str, result: FetchResult) -> None:
        if self._log_fn is not None:
            self._log_fn(method, result)

    def map_concurrent(self, func, items):
        """Run func over items with the configured global concurrency cap."""
        if not items:
            return []
        try:
            with ThreadPoolExecutor(max_workers=self.max_concurrency) as pool:
                return list(pool.map(func, items))
        finally:
            # The workers are gone; their connections would only idle.
            self.close()

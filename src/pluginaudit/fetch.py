"""Polite HTTP fetch executor shared by the discovery and probe layers.

Redirects are followed manually so the full chain is recorded, and every
redirect rule lives in one pure function, `next_hop`. After MAX_REDIRECTS
(5) redirects the 6th response is the result, whatever its status, with no
error. Retries with exponential backoff apply to transport errors and 5xx
responses only; a 5xx on the last attempt is the response. Politeness
(minimum delay between requests to the same host) is keyed to the
*logical* host of the original URL, so an offline run with --base-url
rewriting still schedules like a live one.

`Fetcher.map_concurrent` runs a stage on at most max_concurrency plain
worker threads, which take the next item from one shared cursor.

The transport is a small HTTP/1.1 client on plain sockets; each worker
thread keeps a few keep-alive connections, one per transport origin, and
one receive buffer that they all read into. A request goes out in one
write. The status line and header fields are read here, at most 100
lines of at most 64 KiB per header block as `http.client` reads them;
trailers and 1xx responses, which are skipped, get the same
limits. The body is framed by `Transfer-Encoding: chunked`, else
`Content-Length`, else the server closing the connection; HEAD, 1xx, 204
and 304 responses have none. At most BODY_PREFIX_LIMIT + 1 body bytes are
read. A connection is reused only when its last body was read to its
framed end and nothing arrived after it. Environment proxies are not used,
and HTTPS verifies against the system's CA store; `ssl` is loaded at the
first https origin. Failures raise this module's `HTTPException` classes,
which carry the names and messages of `http.client`'s.
"""

from __future__ import annotations

import re
import select
import socket
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple
from urllib.parse import SplitResult, quote, urljoin, urlsplit

if TYPE_CHECKING:
    import ssl

MAX_REDIRECTS = 5
BODY_PREFIX_LIMIT = 256 * 1024

TRANSPORT_ERROR = 0  # http_status marker for failures below HTTP

# Idle keep-alive connections kept per thread; the least recently used is
# closed first, so a live run over many hosts holds few sockets.
CONNECTIONS_PER_THREAD = 4

# Dropped when a redirect leaves the origin, as browsers and `requests` do.
_CREDENTIAL_HEADERS = {"authorization", "cookie", "proxy-authorization"}
# Characters left as they are in the request target (as `requests` did);
# everything else, e.g. spaces and non-ASCII, is percent-encoded.
_TARGET_SAFE = "!#$%&'()*+,/:;=?@[]~"

# `http.client`'s limits: lines per header block, bytes per line.
_MAX_LINES = 100
_MAX_LINE = 65536
_RECV_SIZE = 16384  # the largest TLS record
_BODY_METHODS = {"PATCH", "POST", "PUT"}
# What `http.client` refuses to send.
_METHOD_CTL = re.compile("[\x00-\x1f]")
_HOST_CTL = re.compile("[\x00-\x20\x7f]")
_LEGAL_NAME = re.compile(rb"[^:\s][^:\r\n]*").fullmatch
_ILLEGAL_VALUE = re.compile(rb"\n(?![ \t])|\r(?![ \t\n])").search
# A field name as `http.client`'s `email` parsing accepts it: visible ASCII.
_FIELD_NAME = re.compile(r"[!-9;-~]+").fullmatch


class HTTPException(Exception):
    """A URL or response the transport cannot handle. It and its subclasses
    carry the names and messages of `http.client`'s, so `FetchResult.error`
    reads as it did when `http.client` was the transport."""


class InvalidURL(HTTPException):
    pass


class BadStatusLine(HTTPException):
    pass


class UnknownProtocol(HTTPException):
    pass


class LineTooLong(HTTPException):
    def __init__(self, what: str):
        super().__init__(f"got more than {_MAX_LINE} bytes when reading {what}")


class IncompleteRead(HTTPException):
    def __init__(self, partial: bytes):
        super().__init__(f"IncompleteRead({len(partial)} bytes read)")


class RemoteDisconnected(ConnectionResetError, HTTPException):
    """The server closed the connection before a status line."""


# ValueError covers what cannot go on the wire at all, e.g. a newline in a
# header value taken from a manifest or a non-numeric port.
_TRANSPORT_ERRORS = (OSError, HTTPException, ValueError)
# Sending again would fail the same way (a certificate that fails to verify
# is a ValueError too), so these end a fetch without retries.
_UNSENDABLE = (ValueError, InvalidURL)
# A reused keep-alive connection the server has already closed
# (RemoteDisconnected is a ConnectionResetError).
_STALE_CONNECTION = (BrokenPipeError, ConnectionResetError)


@dataclass(frozen=True)
class FetchResult:
    url: str                      # requested URL (original space)
    final_url: str                # after redirects (original space)
    status: int                   # TRANSPORT_ERROR (0) when no response
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    redirect_chain: tuple[str, ...] = ()
    error: str | None = None
    attempts: int = 1
    truncated: bool = False       # body was cut at BODY_PREFIX_LIMIT

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class Hop(NamedTuple):
    """One request of a fetch: the first, or one a redirect makes."""

    method: str
    url: str
    headers: dict[str, str]
    body: bytes | None = None


def _origin(url: str) -> tuple[str, str]:
    """Scheme and netloc, compared case-insensitively (urlsplit lowercases the scheme)."""
    parts = urlsplit(url)
    return parts.scheme, parts.netloc.lower()


def next_hop(hop: Hop, status: int, location: str | None) -> Hop | None:
    """The request a response to hop redirects to, or None when it does not redirect.

    Every redirect rule is here, after the Fetch standard's HTTP-redirect
    fetch and RFC 9110 section 15.4. A 3xx with a Location redirects to the
    Location resolved against the hop's URL. A 303, or a 301/302 after a
    POST, continues as a GET without a body or Content-Type. A hop to
    another origin drops the credential headers, the body and Content-Type,
    and a 307/308 keeps its method. A Location that cannot be split raises
    ValueError. Nothing is sent.
    """
    if not (300 <= status < 400 and location):
        return None
    url = urljoin(hop.url, location)
    cross_origin = _origin(url) != _origin(hop.url)
    to_get = status == 303 or (status in (301, 302) and hop.method == "POST")
    keeps_body = not (to_get or cross_origin)
    dropped = (_CREDENTIAL_HEADERS if cross_origin else set()) | (set() if keeps_body else {"content-type"})
    headers = {name: value for name, value in hop.headers.items() if name.lower() not in dropped}
    return Hop("GET" if to_get else hop.method, url, headers, hop.body if keeps_body else None)


class _Response(NamedTuple):
    status: int
    fields: list[tuple[str, str]]  # header fields in arrival order
    body: bytes                    # at most BODY_PREFIX_LIMIT + 1 bytes

    def header(self, name: str) -> str | None:
        """Every value of one field (name in lower case) joined by ", ", or None."""
        values = [value for key, value in self.fields if key.lower() == name]
        return ", ".join(values) if values else None


class _Connection:
    """A keep-alive socket to one transport origin, and the bytes read from
    it but not yet parsed. Every request on it carries host_header."""

    def __init__(self, host: str, port: int, host_header: bytes, context: ssl.SSLContext | None, received: memoryview):
        self.address = (host, port)
        self.host_header = host_header
        self.context = context
        self.received = received  # the receive buffer of the thread that owns the connection
        self.sock: socket.socket | None = None
        self.buf = b""
        self.pos = 0

    def open(self, timeout: float) -> None:
        self.sock = socket.create_connection(self.address, timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.context is not None:
            self.sock = self.context.wrap_socket(self.sock, server_hostname=self.address[0])

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self.buf, self.pos = b"", 0

    def idle(self) -> bool:
        """The server has neither closed the kept-alive socket nor sent on it.

        select() takes descriptors below FD_SETSIZE (1024 on Linux); an audit
        holds a few dozen."""
        return not select.select([self.sock], [], [], 0)[0]

    def _fill(self) -> bool:
        # Every read asks for a whole TLS record, so no decrypted byte is
        # left behind in the TLS layer; only the bytes read are copied out.
        size = self.sock.recv_into(self.received)
        if not size:
            return False
        self.buf = self.buf[self.pos:] + self.received[:size]
        self.pos = 0
        return True

    def readline(self, what: str) -> bytes:
        """One line with its LF, or what is left before EOF (b"" at EOF)."""
        while True:
            end = self.buf.find(b"\n", self.pos, self.pos + _MAX_LINE)
            if end >= 0:
                line, self.pos = self.buf[self.pos:end + 1], end + 1
                return line
            if len(self.buf) - self.pos > _MAX_LINE:
                raise LineTooLong(what)
            if not self._fill():
                line, self.pos = self.buf[self.pos:], len(self.buf)
                return line

    def read(self, size: int) -> bytes:
        """size bytes, fewer only at EOF."""
        data = self.buf[self.pos:self.pos + size]
        self.pos += len(data)
        parts = [data]
        missing = size - len(data)
        while missing > 0 and self._fill():
            data = self.buf[:missing]
            self.pos = len(data)
            parts.append(data)
            missing -= len(data)
        return b"".join(parts)


def _host_header(host: str, port: int, default_port: int) -> bytes:
    """The Host value `http.client` sends: IDNA, IPv6 in brackets without its
    zone, and no port when it is the scheme's default."""
    try:
        value = host.encode("ascii")
    except UnicodeEncodeError:
        value = host.encode("idna")
    if ":" in host:
        value = b"[" + value.partition(b"%")[0] + b"]"
    return value if port == default_port else b"%s:%d" % (value, port)


def _request_bytes(method: str, target: str, host: bytes, headers: dict[str, str], body: bytes | None) -> bytes:
    """Request line, headers and body in one buffer; what `http.client`
    would refuse to send raises ValueError."""
    match = _METHOD_CTL.search(method)
    if match:
        raise ValueError(f"method can't contain control characters. {method!r} (found at least {match.group()!r})")
    lines = [f"{method} {target} HTTP/1.1".encode("ascii")]
    names = {name.lower() for name in headers}
    if "host" not in names:
        lines.append(b"Host: " + host)
    if "content-length" not in names and "transfer-encoding" not in names:
        if body is not None:
            lines.append(b"Content-Length: %d" % len(body))
        elif method.upper() in _BODY_METHODS:
            lines.append(b"Content-Length: 0")
    for name, value in headers.items():
        name_bytes = name.encode("ascii")
        if not _LEGAL_NAME(name_bytes):
            raise ValueError(f"Invalid header name {name_bytes!r}")
        value_bytes = value.encode("latin-1")
        if _ILLEGAL_VALUE(value_bytes):
            raise ValueError(f"Invalid header value {value_bytes!r}")
        lines.append(name_bytes + b": " + value_bytes)
    head = b"\r\n".join(lines) + b"\r\n\r\n"
    return head + body if body else head


def _read_status(conn: _Connection) -> tuple[int, int]:
    """Status code and HTTP version (10 or 11) of one status line."""
    line = conn.readline("status line").decode("latin-1")
    if not line:
        raise RemoteDisconnected("Remote end closed connection without response")
    words = line.split(None, 2)
    if len(words) < 2 or not words[0].startswith("HTTP/"):
        raise BadStatusLine(line)
    try:
        status = int(words[1])
    except ValueError:
        raise BadStatusLine(line) from None
    if not 100 <= status <= 999:
        raise BadStatusLine(line)
    if words[0] in ("HTTP/1.0", "HTTP/0.9"):
        return status, 10
    if words[0].startswith("HTTP/1."):
        return status, 11
    raise UnknownProtocol(words[0])


def _read_lines(conn: _Connection, what: str) -> list[bytes]:
    """The lines of one header block or trailer, up to its blank line or EOF."""
    lines = []
    while True:
        line = conn.readline(what)
        if line in (b"\r\n", b"\n", b""):
            return lines
        lines.append(line)
        if len(lines) >= _MAX_LINES:
            raise HTTPException(f"got more than {_MAX_LINES} headers")


def _parse_fields(lines: list[bytes]) -> list[tuple[str, str]]:
    """Header fields as `http.client` returned them: a folded value keeps its
    line breaks, a line with no name is skipped, and any other line that is
    not `name: value` ends the fields."""
    fields: list[list[str]] = []
    current = None
    for raw in lines:
        line = raw.decode("latin-1")
        if line[0] in " \t":
            if current is not None:
                current[1] += line
            continue
        name, colon, value = line.partition(":")
        if colon and not name:
            current = None
            continue
        if not colon or not _FIELD_NAME(name):
            break
        current = [name, value.lstrip(" \t")]
        fields.append(current)
    return [(name, value.rstrip("\r\n")) for name, value in fields]


def _read_chunked(conn: _Connection) -> tuple[bytes, bool]:
    """A chunked body up to the cap, and whether it was read to its end."""
    limit = BODY_PREFIX_LIMIT + 1
    body = bytearray()
    while True:
        line = conn.readline("chunk size")
        try:
            size = int(line.partition(b";")[0], 16)
        except ValueError:
            size = -1
        if size < 0:
            raise IncompleteRead(bytes(body))
        if size == 0:
            _read_lines(conn, "trailer line")
            return bytes(body), True
        want = min(size, limit - len(body))
        data = conn.read(want)
        body += data
        if len(data) < want:
            raise IncompleteRead(bytes(body))
        if len(body) == limit:
            return bytes(body), False
        if len(conn.read(2)) < 2:  # the line break after the chunk's data
            raise IncompleteRead(bytes(body))


def _read_response(conn: _Connection, method: str) -> tuple[_Response, bool]:
    """One response, and whether the connection may carry the next request."""
    for _ in range(_MAX_LINES):
        status, version = _read_status(conn)
        fields = _parse_fields(_read_lines(conn, "header line"))
        if not 100 <= status < 200:
            break
    else:
        raise HTTPException(f"got more than {_MAX_LINES} interim responses")
    first: dict[str, str] = {}
    for name, value in fields:
        first.setdefault(name.lower(), value)
    connection = first.get("connection", "").lower()
    if version == 11:
        close = "close" in connection
    else:
        close = not (
            first.get("keep-alive")
            or "keep-alive" in connection
            or "keep-alive" in first.get("proxy-connection", "").lower()
        )
    limit = BODY_PREFIX_LIMIT + 1
    if method == "HEAD" or status in (204, 304):
        body, framed = b"", True
    elif first.get("transfer-encoding", "").lower() == "chunked":
        body, framed = _read_chunked(conn)
    else:
        try:
            length = int(first.get("content-length", ""))
        except ValueError:
            length = -1
        if length >= 0:
            body = conn.read(min(length, limit))
            framed = len(body) == length
        else:  # delimited by the server closing the connection
            body, framed = conn.read(limit), False
    keep = framed and not close and conn.pos == len(conn.buf)
    return _Response(status, fields, body), keep


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
        self._base = urlsplit(self.base_url) if self.base_url else None
        self._log_fn = log_fn
        self._host_locks: dict[str, threading.Lock] = {}
        self._host_last: dict[str, float] = {}
        self._registry_lock = threading.Lock()
        self._local = threading.local()
        self._pools: dict[threading.Thread, OrderedDict] = {}
        self._ssl_context: ssl.SSLContext | None = None
        # A Fetcher dropped without close() still closes its sockets.
        weakref.finalize(self, _close_pools, self._pools)

    def _connection(self, origin: SplitResult) -> _Connection:
        """This thread's keep-alive connection to one transport origin."""
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = OrderedDict()
            self._local.received = memoryview(bytearray(_RECV_SIZE))
            with self._registry_lock:
                self._pools[threading.current_thread()] = pool
        key = (origin.scheme, origin.netloc)
        conn = pool.pop(key, None)
        if conn is None:
            host = origin.hostname
            if not host:
                raise InvalidURL(f"no host in {origin.netloc!r}")
            match = _HOST_CTL.search(host)
            if match:
                raise InvalidURL(f"URL can't contain control characters. {host!r} (found at least {match.group()!r})")
            default_port = 443 if origin.scheme == "https" else 80
            port = default_port if origin.port is None else origin.port
            context = None
            if origin.scheme == "https":
                if self._ssl_context is None:
                    import ssl

                    self._ssl_context = ssl.create_default_context()
                context = self._ssl_context
            conn = _Connection(host, port, _host_header(host, port, default_port), context, self._local.received)
        pool[key] = conn
        while len(pool) > CONNECTIONS_PER_THREAD:
            pool.popitem(last=False)[1].close()
        return conn

    def close(self) -> None:
        """Close every pooled connection. Call only while no fetch is in flight."""
        with self._registry_lock:
            _close_pools(self._pools)

    def _host_lock(self, host: str) -> threading.Lock:
        with self._registry_lock:
            lock = self._host_locks.get(host)
            if lock is None:
                lock = self._host_locks[host] = threading.Lock()
            return lock

    def _single_request(
        self, method: str, parts: SplitResult, headers: dict[str, str], body: bytes | None
    ) -> _Response:
        # Per-host serial queue: the lock spans the request so one logical
        # host never sees overlapping traffic from this process.
        host = parts.hostname or ""
        with self._host_lock(host):
            last = self._host_last.get(host, 0.0)
            wait = last + self.per_host_delay - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            try:
                return self._exchange(method, parts, headers, body)
            finally:
                self._host_last[host] = time.monotonic()

    def _exchange(
        self, method: str, parts: SplitResult, headers: dict[str, str], body: bytes | None
    ) -> _Response:
        """One request/response on a pooled connection.

        The response carries up to BODY_PREFIX_LIMIT + 1 body bytes, so the
        caller can tell a cut-off body from a whole one. With a base URL the
        request goes to the fixture server, the logical host in its path.
        """
        origin = self._base or parts
        if origin.scheme not in ("http", "https"):
            raise InvalidURL(f"unsupported URL scheme in {parts.geturl()!r}")
        path = parts.path or "/"
        target = f"{self._base.path}/{parts.netloc}{path}" if self._base else path
        if parts.query:
            target += "?" + parts.query
        conn = self._connection(origin)
        request = _request_bytes(method, quote(target, safe=_TARGET_SAFE), conn.host_header, headers, body)
        try:
            if conn.sock is not None and not conn.idle():
                conn.close()  # closed by the server, or it sent bytes nobody asked for
            reused = conn.sock is not None
            try:
                if not reused:
                    conn.open(self.timeout)
                conn.sock.sendall(request)
                response, keep = _read_response(conn, method)
            except _STALE_CONNECTION:
                if not reused:
                    raise
                # The server closed the idle connection; reconnecting once is
                # not a retry attempt.
                conn.close()
                conn.open(self.timeout)
                conn.sock.sendall(request)
                response, keep = _read_response(conn, method)
        except _TRANSPORT_ERRORS:
            conn.close()
            raise
        if keep:
            conn.buf, conn.pos = b"", 0
        else:
            conn.close()
        return response

    def _send(self, hop: Hop) -> tuple[_Response | None, str | None, int]:
        """One hop with its retries: the response (None after a transport
        error), the error, and the attempts made. A 5xx on the last attempt
        is the response; a request that cannot be sent is not retried."""
        for attempt in range(self.retries + 1):
            try:
                response = self._single_request(hop.method, urlsplit(hop.url), hop.headers, hop.body)
            except _UNSENDABLE as exc:
                return None, f"{type(exc).__name__}: {exc}", attempt + 1
            except _TRANSPORT_ERRORS as exc:
                response, error = None, f"{type(exc).__name__}: {exc}"
            if response is not None and (response.status < 500 or attempt == self.retries):
                return response, None, attempt + 1
            if attempt < self.retries:
                time.sleep(min(2.0, 0.2 * (2 ** attempt)))
        return None, error, self.retries + 1

    def fetch(
        self, url: str, method: str = "GET", headers: dict[str, str] | None = None, body: bytes | None = None
    ) -> FetchResult:
        """Fetch one URL, following redirects manually and retrying politely.

        Each redirect is the hop `next_hop` makes; the response to the 6th
        hop (after MAX_REDIRECTS redirects) is the result, even a 3xx. A URL
        or Location that cannot be split ends the fetch as a transport error.
        """
        headers = dict(headers or {})
        headers.setdefault("User-Agent", "plugin-store-audit/0.1")
        # Bodies are read as sent: ask for no compression, any media type.
        headers.setdefault("Accept", "*/*")
        headers.setdefault("Accept-Encoding", "identity")
        hop, chain, attempts = Hop(method, url, headers, body), [], 0
        while True:
            response, error, tries = self._send(hop)
            attempts += tries
            if response is None or len(chain) == MAX_REDIRECTS:
                break
            try:
                following = next_hop(hop, response.status, response.header("location"))
            except ValueError as exc:  # a Location that cannot be split
                response, error, following = None, f"{type(exc).__name__}: {exc}", None
            if following is None:
                break
            chain.append(hop.url)
            hop = following
        status, fields, raw = response or (TRANSPORT_ERROR, [], b"")
        result = FetchResult(
            url=url,
            final_url=hop.url,
            status=status,
            headers=dict(fields),
            body=raw[:BODY_PREFIX_LIMIT],
            redirect_chain=tuple(chain),
            error=error,
            attempts=attempts,
            truncated=len(raw) > BODY_PREFIX_LIMIT,
        )
        if self._log_fn is not None:
            self._log_fn(method, result)
        return result

    def map_concurrent(self, func, items):
        """func over items on at most max_concurrency worker threads; the
        results come back in input order. Once an item raises, no new item
        starts, and when the running ones have ended the exception of the
        lowest-index failed item is raised. Ctrl-C in the waiting thread stops
        the workers the same way. Pooled connections are closed on return."""
        items = list(items)
        results: list = [None] * len(items)
        errors: dict[int, BaseException] = {}
        changed = threading.Condition()
        claimed = finished = 0  # items handed to a worker, and items ended

        def work() -> None:
            nonlocal claimed, finished
            while True:
                with changed:
                    if errors or claimed == len(items):
                        return
                    index = claimed
                    claimed += 1
                try:
                    results[index] = func(items[index])
                except BaseException as exc:  # raised in the waiting thread
                    with changed:
                        errors[index] = exc
                with changed:
                    finished += 1
                    changed.notify()  # also lets the waiting thread raise a pending Ctrl-C

        workers = [threading.Thread(target=work) for _ in range(min(self.max_concurrency, len(items)))]
        try:
            for worker in workers:
                worker.start()
            with changed:
                while finished < len(items) and not errors:
                    changed.wait()
        finally:
            with changed:
                claimed = len(items)  # no new item starts
            for worker in workers:
                if worker.is_alive():
                    worker.join()
            # The workers are gone; their connections would only idle.
            self.close()
        if errors:
            raise errors[min(errors)]
        return results

from __future__ import annotations

import _thread
import contextlib
import http.client
import io
import select
import socket
import ssl
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from unittest import mock
from urllib.parse import urljoin, urlsplit

import pytest
from hypothesis import example, given, settings, strategies as st

from pluginaudit.fetch import (
    _RECV_SIZE,
    _TRANSPORT_ERRORS,
    BODY_PREFIX_LIMIT,
    CONNECTIONS_PER_THREAD,
    MAX_REDIRECTS,
    Fetcher,
    Hop,
    _Connection,
    next_hop,
)
from pluginaudit.fixture import FixtureEndpoint, FixturePlan, FixtureSite, serve_fixtures


def _plan() -> FixturePlan:
    site = FixtureSite(host="f.example")
    site.endpoints = [
        FixtureEndpoint(path="/ok", method="GET", body_ok={"ok": True}),
        FixtureEndpoint(path="/boom", method="GET", status_ok=500, body_ok={"err": 1}),
    ]
    plan = FixturePlan(profile="t", seed=0)
    plan.sites["f.example"] = site
    plan.sites["r.example"] = FixtureSite(host="r.example", redirect_to="https://landing.adsite.example/welcome")
    return plan


def test_fetch_through_base_override_keeps_original_urls():
    server = serve_fixtures(_plan(), 0)
    try:
        fetcher = Fetcher(per_host_delay_ms=0, retries=0, base_url=server.base_url)
        result = fetcher.fetch("https://f.example/ok")
        assert result.status == 200
        assert result.url == "https://f.example/ok"
        assert result.final_url == "https://f.example/ok"
        assert result.body.strip().startswith(b"{")
    finally:
        server.stop()


def test_redirect_chain_recorded_in_original_space():
    server = serve_fixtures(_plan(), 0)
    try:
        fetcher = Fetcher(per_host_delay_ms=0, retries=0, base_url=server.base_url)
        result = fetcher.fetch("https://r.example/.well-known/ai-plugin.json")
        assert result.status == 200
        assert result.final_url == "https://landing.adsite.example/welcome"
        assert result.redirect_chain == ("https://r.example/.well-known/ai-plugin.json",)
        assert b"<html" in result.body.lower()
    finally:
        server.stop()


def test_server_errors_retried_with_attempt_count():
    server = serve_fixtures(_plan(), 0)
    try:
        fetcher = Fetcher(per_host_delay_ms=0, retries=2, base_url=server.base_url)
        result = fetcher.fetch("https://f.example/boom")
        assert result.status == 500
        assert result.attempts == 3
    finally:
        server.stop()


def test_transport_failure_reported_not_raised():
    fetcher = Fetcher(per_host_delay_ms=0, retries=0, timeout_ms=300, base_url="http://127.0.0.1:1")
    result = fetcher.fetch("https://nowhere.example/x")
    assert result.status == 0
    assert result.error


def test_per_host_delay_spaces_requests():
    server = serve_fixtures(_plan(), 0)
    try:
        fetcher = Fetcher(per_host_delay_ms=120, retries=0, base_url=server.base_url)
        start = time.monotonic()
        fetcher.fetch("https://f.example/ok")
        fetcher.fetch("https://f.example/ok")
        same_host = time.monotonic() - start
        assert same_host >= 0.12
    finally:
        server.stop()


def test_politeness_key_is_the_registrable_domain():
    from pluginaudit.fetch import politeness_key

    assert politeness_key("a.shared.example") == politeness_key("b.shared.example") == "shared.example"
    assert politeness_key("api.shop.co.uk") == "shop.co.uk"
    assert politeness_key("Shared.Example") == "shared.example"
    for literal in ("127.0.0.1", "10.1.2.3", "::1", "localhost"):
        assert politeness_key(literal) == literal


def test_host_lock_is_built_once_per_host():
    fetcher = Fetcher()
    first = fetcher._host_lock("f.example")
    no_new_lock = mock.Mock(Lock=mock.Mock(side_effect=AssertionError("a second lock for a known host")))
    with mock.patch("pluginaudit.fetch.threading", no_new_lock):
        assert fetcher._host_lock("f.example") is first
    assert fetcher._host_lock("g.example") is not first


def test_log_fn_called_per_fetch():
    server = serve_fixtures(_plan(), 0)
    seen = []
    try:
        fetcher = Fetcher(
            per_host_delay_ms=0, retries=0, base_url=server.base_url, log_fn=lambda m, r: seen.append((m, r.status))
        )
        fetcher.fetch("https://f.example/ok")
        assert seen == [("GET", 200)]
    finally:
        server.stop()


class _CountingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self):
        self.timeout = self.server.idle_timeout  # socket timeout: closes idle keep-alives
        super().setup()

    def log_message(self, fmt, *args):  # noqa: ARG002 - silence stdlib logging
        pass

    def do_GET(self):
        length = int(self.headers.get("Content-Length", 0) or 0)
        self.server.requests.append((self.path, self.headers, self.command, self.rfile.read(length)))
        if self.path == "/big":
            self._send(200, b"z" * (BODY_PREFIX_LIMIT + 100))
        elif self.path == "/loop":
            self._send(302, b"", {"Location": "/loop"})
        elif self.path == "/lower-redirect":
            self._send(302, b"", {"location": "/ok"})
        elif self.path.startswith("/redirect-"):
            # /redirect-<status>?<location>
            status, _, location = self.path[len("/redirect-"):].partition("?")
            self._send(int(status), b"", {"Location": location})
        else:
            self._send(200, b'{"ok": true}')

    do_POST = do_GET

    def _send(self, status, body, headers=None):
        self.send_response(status)
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class _CountingServer(ThreadingHTTPServer):
    """Origin that counts the TCP connections it accepts."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _CountingHandler)
        self.connections = 0
        self.idle_timeout = None
        self.requests = []
        self.url = f"http://127.0.0.1:{self.server_address[1]}"

    def get_request(self):
        request = super().get_request()
        self.connections += 1  # only the serve_forever thread accepts
        return request


@contextlib.contextmanager
def _serving():
    server = _CountingServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture
def origin():
    with _serving() as server:
        fetcher = Fetcher(per_host_delay_ms=0, retries=2, timeout_ms=2000)
        try:
            yield server, fetcher
        finally:
            fetcher.close()


def test_sequential_fetches_share_one_connection(origin):
    server, fetcher = origin
    results = [fetcher.fetch(f"{server.url}/ok") for _ in range(10)]
    assert [r.status for r in results] == [200] * 10
    assert server.connections == 1


def test_idle_close_by_server_costs_no_extra_attempts(origin):
    server, fetcher = origin
    server.idle_timeout = 0.2
    results = []
    for _ in range(3):
        results.append(fetcher.fetch(f"{server.url}/ok"))
        time.sleep(0.4)  # the server drops the idle connection meanwhile
    assert [(r.status, r.attempts) for r in results] == [(200, 1)] * 3
    assert server.connections == 3


def test_body_over_cap_closes_connection_and_next_fetch_is_clean(origin):
    server, fetcher = origin
    big = fetcher.fetch(f"{server.url}/big")
    assert big.truncated and len(big.body) == BODY_PREFIX_LIMIT
    after = fetcher.fetch(f"{server.url}/ok")
    assert (after.status, after.body, after.truncated) == (200, b'{"ok": true}', False)
    assert server.connections == 2


def test_lowercase_location_redirect_is_followed(origin):
    server, fetcher = origin
    result = fetcher.fetch(f"{server.url}/lower-redirect")
    assert result.status == 200
    assert result.final_url == f"{server.url}/ok"
    assert result.redirect_chain == (f"{server.url}/lower-redirect",)
    assert server.connections == 1  # the empty redirect body left the connection reusable


@pytest.mark.parametrize(
    "url, slash, target",
    [("https://a.io/x/y?q=1", "", "/a.io/x/y?q=1"), ("https://a.io", "/", "/a.io/")],
    ids=["query-kept", "empty-path"],
)
def test_base_url_request_target_names_the_logical_host(origin, url, slash, target):
    server, _ = origin
    fetcher = Fetcher(per_host_delay_ms=0, retries=0, base_url=server.url + slash)
    try:
        result = fetcher.fetch(url)
    finally:
        fetcher.close()
    assert (result.status, result.url, result.final_url) == (200, url, url)
    assert [request[0] for request in server.requests] == [target]


def test_redirect_loop_ends_with_the_response_after_the_last_hop(origin):
    server, fetcher = origin  # retries=2
    result = fetcher.fetch(f"{server.url}/loop")
    assert len(server.requests) == MAX_REDIRECTS + 1 == 6
    assert (result.status, result.error, result.attempts) == (302, None, 6)
    assert result.redirect_chain == (f"{server.url}/loop",) * 5
    assert result.final_url == f"{server.url}/loop"


def test_identity_encoding_requested(origin):
    server, fetcher = origin
    fetcher.fetch(f"{server.url}/ok")
    assert server.requests[-1][1]["Accept-Encoding"] == "identity"


def test_unsendable_urls_and_headers_are_quoted_or_transport_errors(origin):
    server, _ = origin
    fetcher = Fetcher(per_host_delay_ms=0, retries=0, timeout_ms=2000)
    try:
        # Store-supplied URLs may hold spaces or non-ASCII; they are percent-encoded.
        assert fetcher.fetch(f"{server.url}/a b/\u00e9?q=x y").status == 200
        assert server.requests[-1][0] == "/a%20b/%C3%A9?q=x%20y"
        # A header value with a newline (e.g. a token from a manifest) cannot be sent.
        bad_header = fetcher.fetch(f"{server.url}/ok", headers={"Authorization": "Bearer a\r\nX: y"})
        assert bad_header.status == 0 and bad_header.error.startswith("ValueError")
        unsupported = fetcher.fetch("ftp://files.example/x")
        assert unsupported.status == 0 and unsupported.error.startswith("InvalidURL")
    finally:
        fetcher.close()
    assert len(server.requests) == 1


@pytest.mark.parametrize(
    "url, headers, error",
    [
        ("/ok", {"Authorization": "Bearer a\r\nb"}, "ValueError"),
        ("ftp://files.example/x", {}, "InvalidURL"),
        ("http://127.0.0.1:port/x", {}, "ValueError"),
        ("http:///x", {}, "InvalidURL: no host in ''"),
        ("http://:80/x", {}, "InvalidURL: no host in ':80'"),
        ("http://a\x01b.example/x", {}, "InvalidURL: URL can't contain control characters. 'a\\x01b.example' (found at least '\\x01')"),
        ("http://a b.example/x", {}, "InvalidURL: URL can't contain control characters. 'a b.example' (found at least ' ')"),
    ],
    ids=["newline-in-header", "unsupported-scheme", "non-numeric-port", "no-host", "port-only", "control-character", "space"],
)
def test_unsendable_request_ends_the_fetch_on_its_first_attempt(origin, url, headers, error):
    server, fetcher = origin  # retries=2
    with mock.patch("pluginaudit.fetch.time.sleep") as sleep:
        result = fetcher.fetch(server.url + url if url.startswith("/") else url, headers=headers)
    assert (result.status, result.attempts) == (0, 1)
    assert result.error.startswith(error)
    sleep.assert_not_called()
    assert server.requests == []


def test_connection_errors_keep_their_retries():
    fetcher = Fetcher(per_host_delay_ms=0, retries=2, timeout_ms=300)
    with mock.patch("pluginaudit.fetch.time.sleep") as sleep:
        result = fetcher.fetch("http://127.0.0.1:1/x")
    assert (result.status, result.attempts) == (0, 3)
    assert result.error.startswith("ConnectionRefusedError")
    assert sleep.call_count == 2


_CREDENTIALS = {"Authorization": "Bearer LEAKED", "Cookie": "session=1", "Proxy-Authorization": "Basic eDp5"}


def test_cross_origin_redirect_drops_credentials(origin):
    server, fetcher = origin
    with _serving() as other:
        result = fetcher.fetch(f"{server.url}/redirect-302?{other.url}/ok", headers=dict(_CREDENTIALS))
        assert (result.status, result.final_url) == (200, f"{other.url}/ok")
        assert server.requests[-1][1]["Authorization"] == "Bearer LEAKED"
        delivered = other.requests[-1][1]
        assert [delivered[name] for name in _CREDENTIALS] == [None, None, None]


def test_same_origin_redirect_keeps_credentials(origin):
    server, fetcher = origin
    result = fetcher.fetch(f"{server.url}/redirect-302?/ok", headers=dict(_CREDENTIALS))
    assert (result.status, result.final_url) == (200, f"{server.url}/ok")
    delivered = server.requests[-1][1]
    assert [delivered[name] for name in _CREDENTIALS] == list(_CREDENTIALS.values())


@pytest.mark.parametrize("status", [303, 302, 301])
def test_redirect_after_post_continues_as_bodiless_get(origin, status):
    server, fetcher = origin
    result = fetcher.fetch(
        f"{server.url}/redirect-{status}?/ok",
        method="POST",
        headers={"Content-Type": "application/json"},
        body=b'{"query": "x"}',
    )
    assert result.status == 200
    path, headers, command, body = server.requests[-1]
    assert (path, command, body) == ("/ok", "GET", b"")
    assert headers["Content-Type"] is None and headers["Content-Length"] is None
    assert server.requests[0][2:] == ("POST", b'{"query": "x"}')


def test_temporary_redirect_keeps_method_and_body(origin):
    server, fetcher = origin
    fetcher.fetch(f"{server.url}/redirect-307?/ok", method="POST", body=b"{}")
    assert [request[2:] for request in server.requests] == [("POST", b"{}"), ("POST", b"{}")]


@pytest.mark.parametrize("status", [307, 308])
def test_cross_origin_temporary_redirect_keeps_method_but_drops_body(origin, status):
    server, fetcher = origin
    with _serving() as other:
        result = fetcher.fetch(
            f"{server.url}/redirect-{status}?{other.url}/ok",
            method="POST",
            headers={"Content-Type": "application/json"},
            body=b'{"query": "x"}',
        )
        assert (result.status, result.final_url) == (200, f"{other.url}/ok")
        assert server.requests[-1][2:] == ("POST", b'{"query": "x"}')
        path, headers, command, body = other.requests[-1]
        assert (path, command, body) == ("/ok", "POST", b"")
        assert headers["Content-Type"] is None


def test_unfollowable_location_is_a_transport_error(origin):
    server, fetcher = origin
    result = fetcher.fetch(f"{server.url}/redirect-302?http://[::1")
    assert (result.status, result.error) == (0, "ValueError: Invalid IPv6 URL")
    assert (result.final_url, result.redirect_chain) == (f"{server.url}/redirect-302?http://[::1", ())


# --- next_hop: the redirect rules ----------------------------------------------

_FROM = "https://a.example/p/q"
# Location -> whether it leaves the origin of _FROM
_LOCATIONS = {
    "/next": False,
    "next?x=1": False,
    "https://a.example/other": False,
    "HTTPS://A.Example/other": False,
    "https://b.example/": True,
    "//b.example/x": True,
    "http://a.example/p/q": True,
    "https://a.example:8443/p": True,
}
_SENSITIVE = {"authorization", "cookie", "proxy-authorization", "content-type"}


def _mixed_case(name: str):
    flips = st.lists(st.booleans(), min_size=len(name), max_size=len(name))
    return flips.map(lambda upper: "".join(c.upper() if u else c.lower() for c, u in zip(name, upper)))


_HEADER_NAME = st.sampled_from(["Authorization", "Cookie", "Proxy-Authorization", "Content-Type", "Accept", "X-Api-Key"])
_HOPS = st.builds(
    Hop,
    method=st.sampled_from(["GET", "POST", "PUT", "PATCH", "DELETE", "HEAD"]),
    url=st.just(_FROM),
    headers=st.dictionaries(_HEADER_NAME.flatmap(_mixed_case), st.sampled_from(["v", "Bearer t"]), max_size=6),
    body=st.one_of(st.none(), st.binary(max_size=8)),
)


@settings(max_examples=150, deadline=None)
@given(hop=_HOPS, status=st.integers(300, 399), location=st.sampled_from(list(_LOCATIONS)))
def test_next_hop_redirect_rules(hop, status, location):
    following = next_hop(hop, status, location)
    assert following.url == urljoin(_FROM, location)
    names = {name.lower() for name in following.headers}
    if _LOCATIONS[location]:
        assert not names & _SENSITIVE and following.body is None
    if status == 303 or (status in (301, 302) and hop.method == "POST"):
        assert (following.method, following.body) == ("GET", None) and "content-type" not in names
    else:
        assert following.method == hop.method
    if status in (307, 308) and not _LOCATIONS[location]:
        assert following == hop._replace(url=following.url)


# (status, Location) of responses that do not redirect
_NO_REDIRECT = st.one_of(
    st.tuples(st.one_of(st.integers(100, 299), st.integers(400, 599)), st.sampled_from([None, "", *_LOCATIONS])),
    st.tuples(st.integers(300, 399), st.sampled_from([None, ""])),
)


@settings(max_examples=50, deadline=None)
@given(hop=_HOPS, response=_NO_REDIRECT)
def test_next_hop_without_a_redirect_is_none(hop, response):
    assert next_hop(hop, *response) is None


def test_next_hop_raises_on_a_location_that_cannot_be_split():
    with pytest.raises(ValueError, match="Invalid IPv6 URL"):
        next_hop(Hop("GET", _FROM, {}), 302, "http://[::1")


def test_no_http_client_connection_or_response_is_made(origin):
    server, fetcher = origin
    with mock.patch.object(http.client, "HTTPConnection", side_effect=AssertionError), \
            mock.patch.object(http.client, "HTTPResponse", side_effect=AssertionError):
        assert fetcher.fetch(f"{server.url}/ok").status == 200


# --- The HTTP/1.1 exchange against http.client -------------------------------

_FOLLOW_UP = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nfollow-up"
_OVER = BODY_PREFIX_LIMIT + 100


class _ScriptedOrigin:
    """Raw-socket origin. It answers the first request on its first
    connection with the script's exact bytes (and hangs up after them if
    `hang_up`), and any other request with _FOLLOW_UP. It counts connections."""

    def __init__(self, script: bytes, hang_up: bool):
        self.script, self.hang_up = script, hang_up
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.connections = 0
        self._accepting = threading.Thread(target=self._accept, daemon=True)

    def __enter__(self):
        self._accepting.start()
        return self

    def __exit__(self, *exc):
        self.listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        self.listener.close()
        self._accepting.join(timeout=5)
        assert not self._accepting.is_alive()

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.connections += 1
            reply = self.script if self.connections == 1 else _FOLLOW_UP
            threading.Thread(target=self._serve, args=(conn, reply), daemon=True).start()

    def _serve(self, conn, reply):
        with conn, conn.makefile("rb") as requests:
            try:
                while _read_request_head(requests):
                    conn.sendall(reply)
                    if self.hang_up and reply is self.script:
                        return
                    reply = _FOLLOW_UP
            except OSError:  # the client hung up mid-body
                pass


def _read_request_head(requests) -> bool:
    while True:
        line = requests.readline()
        if not line:
            return False
        if line == b"\r\n":
            return True


def _chunked(body: bytes, size: int, trailer: bytes = b"") -> bytes:
    chunks = [b"%x\r\n%s\r\n" % (len(body[i:i + size]), body[i:i + size]) for i in range(0, len(body), size)]
    return b"".join(chunks) + b"0\r\n" + trailer + b"\r\n"


_OK_CHUNKED = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Type: text/plain\r\n\r\n"

# id: (method, response bytes, origin hangs up after them, connection reused)
_EXCHANGES = {
    "chunked": ("GET", _OK_CHUNKED + b"5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\n\r\n", False, True),
    "chunked-trailers": ("GET", _OK_CHUNKED + _chunked(b"hello world", 4, b"Retry-After: 9\r\nX-Sum: 1\r\n"), False, True),
    "chunked-over-cap": ("GET", _OK_CHUNKED + _chunked(b"z" * _OVER, 50000), False, False),
    "chunked-at-cap": ("GET", _OK_CHUNKED + _chunked(b"z" * BODY_PREFIX_LIMIT, 65536), False, True),
    "length-over-cap": ("GET", b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % _OVER + b"z" * _OVER, False, False),
    "length-cap-plus-one": (
        "GET", b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (BODY_PREFIX_LIMIT + 1) + b"z" * (BODY_PREFIX_LIMIT + 1),
        False, True,
    ),
    "close-delimited": ("GET", b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n<html>until close</html>", True, False),
    "http-1.0": ("GET", b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", True, False),
    "http-1.0-keep-alive": ("GET", b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok", False, True),
    "connection-close": ("GET", b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", True, False),
    "100-continue": ("GET", b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 201 Created\r\nContent-Length: 2\r\n\r\nok", False, True),
    "head": ("HEAD", b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 1234\r\n\r\n", False, True),
    "204": ("GET", b"HTTP/1.1 204 No Content\r\nContent-Length: 5\r\n\r\n", False, True),
    "304": ("GET", b"HTTP/1.1 304 Not Modified\r\nContent-Type: text/plain\r\nContent-Length: 10\r\n\r\n", False, True),
    "folded-header": (
        "GET", b"HTTP/1.1 200 OK\r\nContent-Type: text/plain;\r\n charset=utf-8\r\nX-Note: a\r\n\tb\r\nContent-Length: 2\r\n\r\nok",
        False, True,
    ),
    "duplicate-location": (
        "GET", b"HTTP/1.1 302 Found\r\nLocation: /a\r\nlocation: /b\r\nContent-Length: 0\r\n\r\n", False, True,
    ),
    "429-retry-after": (
        "GET", b"HTTP/1.1 429 Too Many Requests\r\nretry-after: 1\r\nContent-Length: 2\r\n\r\n{}", False, True,
    ),
    "bare-lf": ("GET", b"HTTP/1.1 200 OK\nContent-Length: 2\nContent-Type: a/b\n\nok", False, True),
    "line-without-colon": (
        "GET", b"HTTP/1.1 200 OK\r\nX-A: 1\r\nNo colon\r\nContent-Length: 2\r\n\r\nuntil close", True, False,
    ),
    "nameless-field": (
        "GET", b"HTTP/1.1 200 OK\r\n: v\r\n folded\r\nX-A: 1\r\nContent-Length: 2\r\n\r\nok", False, True,
    ),
}


def _view(status, getheader, fields, body):
    return {
        "status": status,
        "location": getheader("Location"),
        "content-type": getheader("Content-Type"),
        "retry-after": getheader("Retry-After"),
        "headers": dict(fields),
        "body": body[:BODY_PREFIX_LIMIT],
        "truncated": len(body) > BODY_PREFIX_LIMIT,
    }


def _new_exchange(method, script, hang_up):
    with _ScriptedOrigin(script, hang_up) as origin:
        fetcher = Fetcher(per_host_delay_ms=0, retries=0, timeout_ms=2000)
        try:
            parts = urlsplit(f"http://127.0.0.1:{origin.port}/")
            first = fetcher._exchange(method, parts, {}, None)
            second = fetcher._exchange("GET", parts, {}, None)
        finally:
            fetcher.close()
        view = _view(first.status, lambda name: first.header(name.lower()), first.fields, first.body)
        return view, second.body, origin.connections


def _http_client_exchange(method, script, hang_up):
    """The same two requests through http.client, handled as the fetcher
    handled them before it spoke HTTP itself."""
    with _ScriptedOrigin(script, hang_up) as origin:
        conn = http.client.HTTPConnection("127.0.0.1", origin.port, timeout=2)
        try:
            conn.request(method, "/")
            response = conn.getresponse()
            body = response.read(BODY_PREFIX_LIMIT + 1)
            if not response.isclosed():
                conn.close()
            first = _view(response.status, response.getheader, response.getheaders(), body)
            conn.request("GET", "/")
            second = conn.getresponse().read()
        finally:
            conn.close()
        return first, second, origin.connections


@pytest.mark.parametrize("case", list(_EXCHANGES))
def test_exchange_agrees_with_http_client(case):
    method, script, hang_up, reused = _EXCHANGES[case]
    new = _new_exchange(method, script, hang_up)
    oracle = _http_client_exchange(method, script, hang_up)
    assert new[0] == oracle[0]
    assert new[1] == oracle[1] == b"follow-up"
    assert new[2] == oracle[2] == (1 if reused else 2)


def test_interim_responses_are_skipped():
    # http.client returns a 103 as the final response; the exchange reads on.
    script = b"HTTP/1.1 103 Early Hints\r\nLink: </a.css>\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
    view, second, connections = _new_exchange("GET", script, False)
    assert (view["status"], view["body"], view["headers"]) == (200, b"ok", {"Content-Length": "2"})
    assert (second, connections) == (b"follow-up", 1)


# --- What the exchange sends ---------------------------------------------------


class _FakeSocket:
    """A connected socket: records what is sent, and answers recv() and
    recv_into() from `stream` (bytes, or an iterator of bytes) in pieces of
    the given sizes."""

    def __init__(self, stream, sizes=(65536,)):
        self.stream = iter([stream]) if isinstance(stream, bytes) else stream
        self.sizes = sizes
        self.pending = b""
        self.sent = b""
        self.recvs = self.received = 0
        self.closed = False

    def setsockopt(self, *args):
        pass

    def sendall(self, data):
        self.sent += data

    def recv(self, size):
        while not self.pending:
            self.pending = next(self.stream, None)
            if self.pending is None:
                self.pending = b""
                return b""
        size = min(size, self.sizes[self.recvs % len(self.sizes)])
        data, self.pending = self.pending[:size], self.pending[size:]
        self.recvs += 1
        self.received += len(data)
        return data

    def recv_into(self, buffer):
        data = self.recv(len(buffer))
        buffer[:len(data)] = data
        return len(data)

    def close(self):
        self.closed = True


def _fetch_over(sock, url="http://origin.test/", method="GET", headers=None, body=None):
    fetcher = Fetcher(per_host_delay_ms=0, retries=0)
    with mock.patch("socket.create_connection", return_value=sock) as connect:
        result = fetcher.fetch(url, method=method, headers=headers, body=body)
    fetcher.close()
    return result, connect


def _http_client_request(url, method, headers, body) -> bytes:
    parts = urlsplit(url)
    recorder = _FakeSocket(b"")
    conn = http.client.HTTPConnection(parts.hostname, parts.port or 80)
    conn.sock = recorder
    conn.request(method, parts.path + (f"?{parts.query}" if parts.query else ""), body=body, headers=headers)
    return recorder.sent


_HEADERS = {"User-Agent": "plugin-store-audit/0.1", "Accept": "*/*", "Accept-Encoding": "identity"}


@pytest.mark.parametrize(
    "url, method, body",
    [
        ("http://example.com/p?q=1", "GET", None),
        ("http://Example.COM:80/p", "POST", None),
        ("http://example.com:8080/p", "PATCH", None),
        ("http://example.com/p", "GET", b""),
        ("http://example.com/p", "DELETE", None),
        ("http://[::1]:8080/p", "PUT", b'{"a": 1}'),
        ("http://[::1]:80/p", "GET", None),
        ("http://[::1]/p", "GET", None),
        ("http://[fe80::1%25eth0]:81/p", "GET", None),
        ("http://bücher.example:8080/p", "POST", b"x"),
    ],
)
def test_request_bytes_match_http_client(url, method, body):
    sock = _FakeSocket(b"HTTP/1.1 204 No Content\r\n\r\n")
    headers = {"Authorization": "Bearer t", "Content-Type": "application/json"}
    result, connect = _fetch_over(sock, url, method, dict(headers), body)
    assert result.status == 204
    assert sock.sent == _http_client_request(url, method, {**headers, **_HEADERS}, body)
    parts = urlsplit(url)
    assert connect.call_args.args[0] == (parts.hostname, parts.port or 80)


@pytest.mark.parametrize(
    "method, headers",
    [
        ("GET", {"Authorization": "Bearer a\r\nX: y"}),
        ("GET", {"X-Token": "a\nb"}),
        ("GET", {"X-Token": "☃"}),
        ("GET", {"X:Y": "1"}),
        ("GET", {" X": "1"}),
        ("GET", {"Ñ": "1"}),
        ("GE\x00T", {}),
    ],
)
def test_unsendable_request_fails_before_any_byte_as_http_client_does(method, headers):
    sock = _FakeSocket(b"HTTP/1.1 204 No Content\r\n\r\n")
    result, connect = _fetch_over(sock, method=method, headers=dict(headers))
    with pytest.raises(ValueError) as raised:
        _http_client_request("http://origin.test/", method, {**headers, **_HEADERS}, None)
    assert (result.status, result.error) == (0, f"{type(raised.value).__name__}: {raised.value}")
    assert sock.sent == b"" and not connect.called


# --- Hostile origins -------------------------------------------------------------

_FRAGMENTS = st.sampled_from([
    b"HTTP/1.1 200 OK\r\n", b"HTTP/1.0 204 x\r\n", b"HTTP/1.1 100 Continue\r\n", b"HTTP/1.1 999\r\n", b"HTTP/2 200\r\n",
    b"Transfer-Encoding: chunked\r\n", b"Content-Length: 3\r\n", b"Content-Length: -1\r\n", b"Connection: close\r\n",
    b" folded\r\n", b":\r\n", b"No colon\r\n", b"\r\n", b"\n", b"\r", b"0\r\n", b"3\r\n", b"-3\r\n", b"0x3\r\n",
    b"ffffffffffffffff\r\n", b"abc",
])
_ORIGIN_BYTES = st.lists(st.one_of(_FRAGMENTS, st.binary(max_size=24)), max_size=24).map(b"".join)


@settings(max_examples=400, deadline=None)
@given(data=_ORIGIN_BYTES, sizes=st.lists(st.integers(1, 40), min_size=1, max_size=4), method=st.sampled_from(["GET", "HEAD"]))
def test_any_origin_bytes_give_a_response_or_a_transport_error(data, sizes, method):
    fetcher = Fetcher(per_host_delay_ms=0, retries=0)
    with mock.patch("socket.create_connection", return_value=_FakeSocket(data, sizes)):
        try:
            response = fetcher._exchange(method, urlsplit("http://origin.test/"), {}, None)
        except _TRANSPORT_ERRORS:
            return
    assert 100 <= response.status <= 999 and len(response.body) <= BODY_PREFIX_LIMIT + 1


def _endless(head: bytes, chunk: int | None):
    yield head
    block = b"z" * 65536 if chunk is None else b"%x\r\n%s\r\n" % (chunk, b"z" * chunk)
    while True:
        yield block


@settings(max_examples=25, deadline=None)
@given(
    framing=st.sampled_from(["chunked", "length", "close"]),
    chunk=st.integers(512, 70000),
    piece=st.integers(4096, 70000),
)
def test_endless_body_is_cut_at_the_cap(framing, chunk, piece):
    head = {
        "chunked": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
        "length": b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n",
        "close": b"HTTP/1.1 200 OK\r\n\r\n",
    }[framing]
    sock = _FakeSocket(_endless(head, chunk if framing == "chunked" else None), (piece,))
    result, _ = _fetch_over(sock)
    assert result.truncated and len(result.body) == BODY_PREFIX_LIMIT and sock.closed
    wire_for_cap = BODY_PREFIX_LIMIT + 1
    if framing == "chunked":
        wire_for_cap += -(-wire_for_cap // chunk) * len(b"%x\r\n\r\n" % chunk)
    assert sock.received <= len(head) + wire_for_cap + _RECV_SIZE  # at most one receive block past the cap


@pytest.mark.parametrize("size_line", [b"-1\r\n", b"-0x10\r\n", b"zz\r\n", b"\r\n"])
def test_bad_chunk_size_is_an_incomplete_read(size_line):
    # http.client would read a negative size as "everything until EOF".
    result, _ = _fetch_over(_FakeSocket(_OK_CHUNKED + size_line + b"z" * 100000))
    assert (result.status, result.error) == (0, "IncompleteRead: IncompleteRead(0 bytes read)")


def _http_client_parses(data: bytes) -> bool:
    response = http.client.HTTPResponse(mock.Mock(makefile=lambda mode: io.BytesIO(data)), method="GET")
    try:
        response.begin()
        response.read(BODY_PREFIX_LIMIT + 1)
    except http.client.HTTPException:
        return False
    return True


@settings(max_examples=40, deadline=None)
@given(
    lines=st.integers(95, 104),
    long_line=st.sampled_from([None, 65535, 65536, 65537, 70000]),
    in_trailer=st.booleans(),
)
@example(lines=99, long_line=None, in_trailer=False)
@example(lines=100, long_line=None, in_trailer=False)
def test_header_and_trailer_limits(lines, long_line, in_trailer):
    block = [b"X-%d: v\r\n" % i for i in range(lines)]
    if long_line is not None:
        block[lines // 2] = b"X-Long: " + b"a" * (long_line - 10) + b"\r\n"
    if in_trailer:
        data = _OK_CHUNKED + b"2\r\nok\r\n0\r\n" + b"".join(block) + b"\r\n"
    else:
        data = b"HTTP/1.1 200 OK\r\n" + b"".join(block) + b"\r\nbody until close"
    result, _ = _fetch_over(_FakeSocket(data))
    gives_up = lines >= 100 or (long_line or 0) > 65536
    assert (result.status == 0) == gives_up
    if gives_up:
        assert result.error.startswith(("LineTooLong", "HTTPException"))
    if not (in_trailer and lines >= 100):  # http.client does not count trailer lines
        assert _http_client_parses(data) == (not gives_up)


def _tcp_pair() -> tuple[socket.socket, socket.socket]:
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname(), timeout=0.5)
        server, _ = listener.accept()
    return client, server


_FRAMED = {
    "length": ("GET", b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfirst", b"first"),
    "chunked": ("GET", _OK_CHUNKED + b"5\r\nfirst\r\n0\r\n\r\n", b"first"),
    "204": ("GET", b"HTTP/1.1 204 No Content\r\n\r\n", b""),
    "head": ("HEAD", b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n", b""),
}
_SMUGGLED = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nEVIL"


@settings(max_examples=60, deadline=None)
@given(
    framed=st.sampled_from(list(_FRAMED)),
    extra=st.one_of(st.binary(min_size=1, max_size=64), st.just(_SMUGGLED)),
    late=st.booleans(),
)
def test_bytes_past_a_framed_body_are_never_the_next_response(framed, extra, late):
    method, first_response, first_body = _FRAMED[framed]
    (first, first_origin), (second, second_origin) = _tcp_pair(), _tcp_pair()
    fetcher = Fetcher(per_host_delay_ms=0, retries=0, timeout_ms=1000)
    try:
        first_origin.sendall(first_response + (b"" if late else extra))
        second_origin.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfresh")
        parts = urlsplit("http://origin.test/")
        with mock.patch("socket.create_connection", side_effect=[first, second]):
            response = fetcher._exchange(method, parts, {}, None)
            assert response.body == first_body
            if late:
                first_origin.sendall(extra)
                assert select.select([first], [], [], 1)[0]  # the extra bytes have arrived
            assert fetcher._exchange("GET", parts, {}, None).body == b"fresh"
    finally:
        fetcher.close()
        for sock in (first, first_origin, second, second_origin):
            sock.close()


# --- Deterministic transport cases ---------------------------------------------


@pytest.mark.parametrize(
    "status_line, error",
    [
        (b"", "RemoteDisconnected: Remote end closed connection without response"),
        (b"garbage\r\n", "BadStatusLine: garbage\r\n"),
        (b"HTTP/1.1 2x0 OK\r\n", "BadStatusLine: HTTP/1.1 2x0 OK\r\n"),
        (b"HTTP/1.1 99 Low\r\n", "BadStatusLine: HTTP/1.1 99 Low\r\n"),
        (b"HTTP/1.1 1000 High\r\n", "BadStatusLine: HTTP/1.1 1000 High\r\n"),
        (b"HTTP/2 200\r\n", "UnknownProtocol: HTTP/2"),
    ],
    ids=["closed", "not-http", "not-a-number", "below-100", "above-999", "http-2"],
)
def test_bad_status_line_is_a_transport_error(status_line, error):
    sock = _FakeSocket(status_line + (b"Content-Length: 0\r\n\r\n" if status_line else b""))
    result, _ = _fetch_over(sock)
    assert (result.status, result.error, sock.closed) == (0, error, True)


@pytest.mark.parametrize(
    "body", [b"a\r\nshort", b"5\r\nhello", b"5\r\nhello\r"], ids=["data-cut-short", "no-line-break", "half-line-break"]
)
def test_chunk_cut_short_is_an_incomplete_read(body):
    result, _ = _fetch_over(_FakeSocket(_OK_CHUNKED + body))
    assert (result.status, result.error) == (0, "IncompleteRead: IncompleteRead(5 bytes read)")


@pytest.mark.parametrize("interim", [99, 100])
def test_at_most_99_interim_responses_precede_the_final_one(interim):
    data = b"HTTP/1.1 100 Continue\r\n\r\n" * interim + b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
    result, _ = _fetch_over(_FakeSocket(data))
    if interim == 99:
        assert (result.status, result.body) == (200, b"ok")
    else:
        assert (result.status, result.error) == (0, "HTTPException: got more than 100 interim responses")


@pytest.mark.parametrize("length, error", [(65536, None), (65537, "LineTooLong: got more than 65536 bytes when reading header line")])
def test_header_line_at_eof_is_held_to_the_line_limit(length, error):
    data = b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * (length - len(b"X-Long: "))
    result, _ = _fetch_over(_FakeSocket(data))
    assert (result.status, result.error) == ((200, None) if error is None else (0, error))
    assert _http_client_parses(data) == (error is None)


_ONE_OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"


def test_least_recently_used_connection_is_closed_past_the_pool_size():
    # Each socket answers two requests, one per receive; idle() needs a real descriptor.
    socks = [_FakeSocket(_ONE_OK * 2, (len(_ONE_OK),)) for _ in range(CONNECTIONS_PER_THREAD + 1)]
    fetcher = Fetcher(per_host_delay_ms=0, retries=0)
    hosts = [0, 1, 2, 3, 0, 4]  # h0 is used again before h4 opens, so h1 is the least recently used
    with mock.patch("socket.create_connection", side_effect=socks), \
            mock.patch.object(_Connection, "idle", return_value=True):
        for host in hosts:
            assert fetcher.fetch(f"http://h{host}.test/").status == 200
    assert [sock.closed for sock in socks] == [False, True, False, False, False]
    fetcher.close()
    assert all(sock.closed for sock in socks)


class _DeadOnSecondSend(_FakeSocket):
    def sendall(self, data):
        if self.sent:
            raise BrokenPipeError(32, "Broken pipe")
        super().sendall(data)


def test_reused_connection_dead_on_send_is_reopened_once_without_an_attempt():
    # select() saw the kept-alive socket idle, and the server closed it just after.
    dead, fresh = _DeadOnSecondSend(_ONE_OK), _FakeSocket(_ONE_OK)
    fetcher = Fetcher(per_host_delay_ms=0, retries=2)
    with mock.patch("socket.create_connection", side_effect=[dead, fresh]) as connect, \
            mock.patch.object(_Connection, "idle", return_value=True):
        first = fetcher.fetch("http://origin.test/a")
        second = fetcher.fetch("http://origin.test/b")
    fetcher.close()
    assert [(r.status, r.body, r.attempts) for r in (first, second)] == [(200, b"ok", 1)] * 2
    assert connect.call_count == 2 and dead.closed
    assert fresh.sent.startswith(b"GET /b HTTP/1.1\r\n")


def test_no_reuse_after_a_chunked_body_cut_exactly_at_the_cap():
    # The one chunk ends exactly at the cap, before its line break and the last
    # chunk have arrived: the connection is not framed, so it is not reused.
    (first, first_origin), (second, second_origin) = _tcp_pair(), _tcp_pair()
    fetcher = Fetcher(per_host_delay_ms=0, retries=0, timeout_ms=1000)
    cut_body = _OK_CHUNKED + b"%x\r\n" % (BODY_PREFIX_LIMIT + 1) + b"z" * (BODY_PREFIX_LIMIT + 1)
    # More than the socket buffers may hold, so it is sent while the fetch reads.
    sender = threading.Thread(target=first_origin.sendall, args=(cut_body,), daemon=True)
    try:
        sender.start()
        second_origin.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfresh")
        with mock.patch("socket.create_connection", side_effect=[first, second]):
            cut = fetcher.fetch("http://origin.test/big")
            assert (cut.status, cut.truncated, len(cut.body)) == (200, True, BODY_PREFIX_LIMIT)
            assert fetcher.fetch("http://origin.test/ok").body == b"fresh"
    finally:
        fetcher.close()
        sender.join(timeout=5)
        for sock in (first, first_origin, second, second_origin):
            sock.close()


# --- map_concurrent: the worker threads -----------------------------------------


def test_map_concurrent_runs_each_item_once_and_keeps_input_order():
    fetcher = Fetcher(max_concurrency=8)
    calls, threads = [], set()

    def square(i):
        calls.append(i)
        threads.add(threading.get_ident())
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # many thread switches inside the cursor's critical section
    try:
        results = fetcher.map_concurrent(square, range(2000))
    finally:
        sys.setswitchinterval(interval)
    assert results == [i * i for i in range(2000)]
    assert sorted(calls) == list(range(2000))
    assert len(threads) <= 8 and threading.get_ident() not in threads


def test_map_concurrent_starts_no_thread_for_no_items():
    with mock.patch.object(threading, "Thread") as thread:
        assert Fetcher().map_concurrent(str, []) == []
    thread.assert_not_called()


def test_map_concurrent_after_a_failure_starts_nothing_and_raises_the_lowest_index():
    fetcher = Fetcher(max_concurrency=4)
    started = []

    def item(i):
        started.append(i)
        if i == 11:
            raise ValueError(i)  # fails first
        time.sleep(0.3 if i == 10 else 0.02)
        if i == 10:
            raise ValueError(i)

    with pytest.raises(ValueError) as raised:
        fetcher.map_concurrent(item, range(40))
    assert raised.value.args == (10,)
    # Only items claimed before item 11 failed ran: at most one more per other worker.
    assert sorted(started) == list(range(len(started))) and len(started) <= 11 + 4


def test_map_concurrent_stops_promptly_on_ctrl_c():
    fetcher = Fetcher(max_concurrency=4)
    started, before = [], set(threading.enumerate())

    def item(i):
        started.append(i)
        if i == 8:
            _thread.interrupt_main()  # as Ctrl-C does, in the waiting thread
        time.sleep(0.02)

    with pytest.raises(KeyboardInterrupt):
        fetcher.map_concurrent(item, range(400))
    assert len(started) < 40  # all 400 would take 2 s
    assert set(threading.enumerate()) <= before  # no worker left running


@pytest.mark.parametrize("failing", [None, 3])
def test_map_concurrent_closes_the_pooled_connections(failing):
    socks = []

    def connect(*args):
        socks.append(_FakeSocket(_ONE_OK))
        return socks[-1]

    fetcher = Fetcher(max_concurrency=2, per_host_delay_ms=0, retries=0)

    def item(i):
        assert fetcher.fetch(f"http://h{i}.test/").status == 200
        if i == failing:
            raise ValueError(i)

    with mock.patch("socket.create_connection", side_effect=connect), \
            mock.patch.object(_Connection, "idle", return_value=True), \
            pytest.raises(ValueError) if failing else contextlib.nullcontext():
        fetcher.map_concurrent(item, range(6))
    assert socks and all(sock.closed for sock in socks)


def test_each_worker_thread_reads_into_its_own_buffer():
    fetcher = Fetcher(max_concurrency=2)
    both_running = threading.Barrier(2, timeout=5)

    def buffers(_):
        both_running.wait()  # so each worker takes one item
        return [fetcher._connection(urlsplit(f"http://h{host}.test/")).received for host in range(2)]

    (first, also_first), (second, _) = fetcher.map_concurrent(buffers, range(2))
    assert first is also_first and first is not second and len(first) == _RECV_SIZE


# --- HTTPS against a loopback TLS origin -----------------------------------------

# tests/tls holds a test CA (ca.pem) and a certificate for localhost that it
# signed, with its key (localhost.pem), both valid until 2126. Made with:
#   openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:prime256v1 -nodes \
#     -keyout ca.key -out ca.pem -days 36500 -subj "/CN=pluginaudit test CA"
#   openssl req -new -newkey ec -pkeyopt ec_paramgen_curve:prime256v1 -nodes \
#     -keyout localhost.key -out localhost.csr -subj "/CN=localhost"
#   printf "subjectAltName=DNS:localhost\nbasicConstraints=critical,CA:FALSE\nkeyUsage=critical,digitalSignature\n\
#   extendedKeyUsage=serverAuth\nsubjectKeyIdentifier=hash\nauthorityKeyIdentifier=keyid\n" > ext.cnf
#   openssl x509 -req -in localhost.csr -CA ca.pem -CAkey ca.key -set_serial 1 -out localhost.crt \
#     -days 36500 -extfile ext.cnf
#   cat localhost.key localhost.crt > localhost.pem
# The CA key was not kept.
_TLS = Path(__file__).parent / "tls"


@pytest.fixture
def tls_origin():
    """An HTTPS origin at https://localhost:<port> with the test certificate;
    yields its URL and the server names its clients sent (SNI)."""
    names = []
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(_TLS / "localhost.pem")
    context.sni_callback = lambda sock, name, ctx: names.append(name)
    with _serving() as server:
        server.socket = context.wrap_socket(server.socket, server_side=True)
        yield f"https://localhost:{server.server_address[1]}", names


def test_https_with_a_trusted_certificate(tls_origin, monkeypatch):
    url, names = tls_origin
    monkeypatch.setenv("SSL_CERT_FILE", str(_TLS / "ca.pem"))
    fetcher = Fetcher(per_host_delay_ms=0, retries=0, timeout_ms=2000)
    try:
        first, second = fetcher.fetch(f"{url}/ok"), fetcher.fetch(f"{url}/ok")
    finally:
        fetcher.close()
    assert [(r.status, r.body, r.error) for r in (first, second)] == [(200, b'{"ok": true}', None)] * 2
    assert names == ["localhost"]  # one handshake, its connection kept alive


def test_https_with_an_untrusted_certificate_is_refused_on_the_first_attempt(tls_origin, monkeypatch, tmp_path):
    url, names = tls_origin
    monkeypatch.setenv("SSL_CERT_FILE", str(tmp_path / "none.pem"))
    monkeypatch.setenv("SSL_CERT_DIR", str(tmp_path))
    fetcher = Fetcher(per_host_delay_ms=0, retries=2, timeout_ms=2000)
    try:
        result = fetcher.fetch(f"{url}/ok")
    finally:
        fetcher.close()
    assert (result.status, result.attempts) == (0, 1)
    assert result.error.startswith("SSLCertVerificationError: ") and "certificate verify failed" in result.error
    assert names == ["localhost"]

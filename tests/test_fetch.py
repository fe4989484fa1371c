from __future__ import annotations

import contextlib
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from pluginaudit.fetch import BODY_PREFIX_LIMIT, Fetcher, rewrite_to_base
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


def test_rewrite_to_base():
    assert (
        rewrite_to_base("https://a.io/x/y?q=1", "http://127.0.0.1:9")
        == "http://127.0.0.1:9/a.io/x/y?q=1"
    )
    assert rewrite_to_base("https://a.io", "http://127.0.0.1:9/") == "http://127.0.0.1:9/a.io/"


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

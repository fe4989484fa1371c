from __future__ import annotations

import hashlib
import http.client
import json
import re
import socket
import time
import urllib.error
import urllib.request
from collections import Counter

import pytest

from pluginaudit.fetch import BODY_PREFIX_LIMIT, Fetcher
from pluginaudit.fixture import (
    FixtureEndpoint,
    FixturePlan,
    FixtureServer,
    FixtureSite,
    PlanError,
    PROFILE_PAPER_TABLES,
    PROFILE_REVISIT,
    generate_plan,
    index_ndjson,
    load_plan,
    save_plan,
    serve_fixtures,
)
from pluginaudit.manifest import parse_manifest


# Loopback only: never route these requests through an environment proxy.
_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def _get(url: str, headers: dict[str, str] | None = None) -> tuple[int, bytes]:
    """(status, body) of one GET; error statuses are returned, not raised."""
    try:
        with _OPENER.open(urllib.request.Request(url, headers=headers or {}), timeout=5) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read()


def _status(url: str, headers: dict[str, str] | None = None) -> int:
    return _get(url, headers)[0]


def _tiny_plan() -> FixturePlan:
    site = FixtureSite(host="tiny.example")
    site.manifest = {
        "name_for_human": "Tiny",
        "name_for_model": "tiny",
        "description_for_model": "d",
        "api": {"type": "openapi", "url": "https://tiny.example/openapi.json"},
    }
    site.endpoints = [
        FixtureEndpoint(path="/api/busy", method="GET", status_ok=429, body_ok={"error": "rate limit exceeded"}),
        FixtureEndpoint(path="/api/guarded", method="GET", body_ok={"ok": True}, required_token="tok"),
    ]
    plan = FixturePlan(profile="tiny", seed=0, index=[{"title": "Tiny", "legal_info_url": "https://tiny.example/legal"}])
    plan.sites["tiny.example"] = site
    return plan


def test_serve_manifest_at_well_known_path():
    server = serve_fixtures(_tiny_plan(), 0)
    try:
        status, body = _get(f"{server.base_url}/tiny.example/.well-known/ai-plugin.json")
        assert status == 200
        assert json.loads(body)["name_for_human"] == "Tiny"
    finally:
        server.stop()


def test_client_hanging_up_mid_body_prints_no_traceback(capfd):
    site = FixtureSite(host="big.example")
    site.openapi_raw = "x" * (8 * BODY_PREFIX_LIMIT)
    plan = FixturePlan(profile="big", seed=0)
    plan.sites["big.example"] = site
    server = serve_fixtures(plan, 0)
    try:
        fetcher = Fetcher(per_host_delay_ms=0, retries=0, base_url=server.base_url)
        for _ in range(3):
            assert fetcher.fetch("https://big.example/openapi.json").truncated
        fetcher.close()
    finally:
        server.stop()
    err = capfd.readouterr().err
    assert "Traceback" not in err and "Exception occurred" not in err


def test_server_queues_a_burst_of_connections_before_accepting():
    # Bound and listening, but not accepting: only the listen backlog holds
    # connections. A SYN dropped from a full queue is resent after 1 s.
    server = FixtureServer(_tiny_plan())
    connected = []
    try:
        for _ in range(32):
            try:
                connected.append(socket.create_connection(("127.0.0.1", server.port), timeout=0.25))
            except OSError:
                break
    finally:
        for sock in connected:
            sock.close()
        server.httpd.server_close()
    assert len(connected) == 32


def _raw_exchange(server, request: bytes) -> bytes:
    """What the server sends back on one connection to one raw request, up to its close."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def test_http_0_9_request_gets_the_body_alone():
    plan = _tiny_plan()
    server = serve_fixtures(plan, 0)
    try:
        assert _raw_exchange(server, b"GET /index.ndjson\r\n\r\n") == index_ndjson(plan).encode("utf-8")
    finally:
        server.stop()


def test_server_reports_a_handler_error_and_keeps_serving(capfd):
    server = serve_fixtures(_tiny_plan(), 0)
    try:
        request = b"GET /index.ndjson HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n"
        assert _raw_exchange(server, request) == b""
        assert _status(f"{server.base_url}/index.ndjson") == 200
    finally:
        server.stop()
    err = capfd.readouterr().err
    assert "ValueError: invalid literal for int() with base 10: 'abc'" in err


def test_keep_alive_responses_are_not_held_back():
    # With Nagle on, a response written as headers then body waits ~40 ms
    # for the client's delayed ACK: 50 requests would take about 2 s.
    plan = _tiny_plan()
    plan.sites["moved.example"] = FixtureSite(host="moved.example", redirect_to="https://landing.adsite.example/")
    requests = [
        ("/tiny.example/.well-known/ai-plugin.json", 200),
        ("/moved.example/.well-known/ai-plugin.json", 302),
        ("/tiny.example/nothing-here", 404),
        ("/tiny.example/api/busy", 429),
    ]
    server = serve_fixtures(plan, 0)
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
    try:
        start = time.monotonic()
        for i in range(50):
            path, expected = requests[i % len(requests)]
            conn.request("GET", path)
            response = conn.getresponse()
            response.read()
            assert response.status == expected
            if expected == 429:
                assert response.getheader("Retry-After") == "1"
        elapsed = time.monotonic() - start
    finally:
        conn.close()
        server.stop()
    assert elapsed < 1.0


def test_token_enforcement():
    server = serve_fixtures(_tiny_plan(), 0)
    try:
        url = f"{server.base_url}/tiny.example/api/guarded"
        assert _status(url) == 401
        assert _status(url, headers={"Authorization": "Bearer wrong"}) == 401
        assert _status(url, headers={"Authorization": "Bearer tok"}) == 200
    finally:
        server.stop()


def test_index_ndjson_served():
    server = serve_fixtures(_tiny_plan(), 0)
    try:
        status, body = _get(f"{server.base_url}/index.ndjson")
        assert status == 200
        assert json.loads(body.decode("utf-8").splitlines()[0])["title"] == "Tiny"
    finally:
        server.stop()


def test_builtin_hosted_platform_behavior():
    server = serve_fixtures(_tiny_plan(), 0)
    try:
        assert _status(f"{server.base_url}/chat.openai.com/x") == 403
        assert _status(f"{server.base_url}/github.com/dev/x") == 404
        assert _status(f"{server.base_url}/drive.google.com/file/x") == 403
        assert _status(f"{server.base_url}/unknown-host.example/x") == 404
    finally:
        server.stop()


def test_plan_generation_deterministic_in_seed(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_plan(generate_plan(PROFILE_PAPER_TABLES, 42), a)
    save_plan(generate_plan(PROFILE_PAPER_TABLES, 42), b)
    assert a.read_bytes() == b.read_bytes()
    save_plan(generate_plan(PROFILE_PAPER_TABLES, 43), b)
    assert a.read_bytes() != b.read_bytes()


# SHA-256 of `save_plan` output and of `index_ndjson` per (profile, seed):
# every served byte of a fixture store follows from these two.
_PINNED_PLAN_BYTES = {
    (PROFILE_PAPER_TABLES, 42): (
        "ce09c17f624deeda3f0471383c15f80d69a597d3fad7370d106bb67f9dc7c4f3",
        "9bc4753beeda94fd96caed3f25845242114c03f83c63f3aa4b395e824e89da22",
    ),
    (PROFILE_PAPER_TABLES, 7): (
        "7eab3096847253ebb4b9461d6c33913068067555e3e788f0dcd165ee228bed4f",
        "aaa5f4073ac547e1644f88ef3bdef9139477b0e517b4ae400f3d8c2029a7d39d",
    ),
    (PROFILE_REVISIT, 42): (
        "56d7a217801d1ccc1e2556a479f141723ded29492334d940dde5cece78bd1c17",
        "60d3311a6622e244147f10baa03b7cbd486e5c7e8d35fcfe189f3d6e4bc0c0a3",
    ),
    (PROFILE_REVISIT, 7): (
        "20913d83b5dc202fdb8e0d71023143edf8b4c39f8747bde97478988c0ce6a210",
        "db9e844adfce077e38b9ba4e7127d7b5a6ffc94ede386fa169b6f7b64b6b3cc1",
    ),
}


@pytest.mark.parametrize("profile, seed", sorted(_PINNED_PLAN_BYTES))
def test_plan_bytes_match_pinned_digests(tmp_path, profile, seed):
    plan = generate_plan(profile, seed)
    save_plan(plan, tmp_path / "plan.json")
    digests = (
        hashlib.sha256((tmp_path / "plan.json").read_bytes()).hexdigest(),
        hashlib.sha256(index_ndjson(plan).encode("utf-8")).hexdigest(),
    )
    assert digests == _PINNED_PLAN_BYTES[profile, seed]


def test_plan_round_trip(tmp_path):
    plan = generate_plan(PROFILE_REVISIT, 7)
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    assert load_plan(path) == plan


def _edit_site(doc: dict, **keys) -> None:
    doc["sites"]["tiny.example"].update(keys)


def _edit_endpoint(doc: dict, **keys) -> None:
    doc["sites"]["tiny.example"]["endpoints"][1].update(keys)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: _edit_site(doc, well_known="manifest"), "unknown key 'well_known' in sites['tiny.example']"),
        (
            lambda doc: _edit_endpoint(doc, rate_limit_after=None),
            "unknown key 'rate_limit_after' in sites['tiny.example'].endpoints[1]",
        ),
        (lambda doc: doc["sites"]["tiny.example"].pop("host"), "missing key 'host' in sites['tiny.example']"),
        (lambda doc: doc.update(sites=[]), "sites is not an object"),
        (lambda doc: doc["sites"].update({"tiny.example": 5}), "sites['tiny.example'] is not an object"),
        (lambda doc: _edit_site(doc, endpoints={}), "sites['tiny.example'].endpoints is not a list"),
        (
            lambda doc: _edit_endpoint(doc, status_ok="two hundred"),
            "sites['tiny.example'].endpoints[1].status_ok is not an integer",
        ),
        (
            lambda doc: _edit_endpoint(doc, status_ok=True),
            "sites['tiny.example'].endpoints[1].status_ok is not an integer",
        ),
        (
            lambda doc: _edit_endpoint(doc, status_ok=600),
            "sites['tiny.example'].endpoints[1].status_ok is not an HTTP status code (100-599)",
        ),
        (
            lambda doc: _edit_endpoint(doc, body_ok=[]),
            "sites['tiny.example'].endpoints[1].body_ok is not an object or null",
        ),
        (lambda doc: _edit_site(doc, openapi_raw=1), "sites['tiny.example'].openapi_raw is not a string or null"),
        (lambda doc: doc.update(seed="42"), "seed is not an integer"),
    ],
    ids=[
        "old-site-key", "old-endpoint-key", "missing-key", "sites-not-object", "site-not-object", "endpoints-not-list",
        "status-text", "status-bool", "status-out-of-range", "body-not-object", "raw-openapi-not-text", "seed-text",
    ],
)
def test_load_plan_error_names_file_and_key(tmp_path, edit, message):
    path = tmp_path / "plan.json"
    save_plan(_tiny_plan(), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(PlanError, match=re.escape(f"plan file {path}: {message}")):
        load_plan(path)


def test_load_plan_error_on_unreadable_file(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text("{")
    with pytest.raises(PlanError, match=re.escape(f"plan file {path} is not valid JSON")):
        load_plan(path)
    with pytest.raises(PlanError, match=re.escape(f"plan file not found: {tmp_path / 'missing.json'}")):
        load_plan(tmp_path / "missing.json")
    path.write_text("[" * 100000)
    with pytest.raises(PlanError, match=re.escape(f"plan file {path} is not valid JSON")):
        load_plan(path)


def test_paper_plan_population_shape():
    plan = generate_plan(PROFILE_PAPER_TABLES, 42)
    assert len(plan.index) == 1032
    # 17 listings resolve to the single shared-manifest host.
    shared = [e for e in plan.index if e["legal_info_url"] == "https://mixerbox.example/legal"]
    assert len(shared) == 17
    assert len({e["title"] for e in shared}) == 17
    # Every index entry dedups to a distinct plugin.
    keys = Counter((e["title"], e["legal_info_url"]) for e in plan.index)
    assert max(keys.values()) == 1
    raw = json.dumps(plan.sites["mixerbox.example"].manifest).encode()
    assert parse_manifest(raw).fingerprint == parse_manifest(raw).fingerprint


def test_paper_plan_index_is_shuffled_but_deterministic():
    a = generate_plan(PROFILE_PAPER_TABLES, 42)
    b = generate_plan(PROFILE_PAPER_TABLES, 42)
    assert a.index == b.index
    titles = [e["title"] for e in a.index]
    assert titles != sorted(titles)


def test_generate_plan_profiles():
    assert generate_plan(PROFILE_PAPER_TABLES, 1).profile == PROFILE_PAPER_TABLES
    assert generate_plan(PROFILE_REVISIT, 1).profile == PROFILE_REVISIT
    try:
        generate_plan("bogus", 1)
    except ValueError as exc:
        assert "unknown fixture profile" in str(exc)
    else:
        raise AssertionError("expected ValueError")


def test_index_ndjson_round_trips_through_json():
    plan = generate_plan(PROFILE_REVISIT, 3)
    lines = index_ndjson(plan).strip().splitlines()
    assert len(lines) == len(plan.index)
    for line in lines:
        json.loads(line)


def test_pipeline_report_matches_checked_in_golden(paper_run):
    from pathlib import Path

    golden = Path(__file__).parent / "golden" / "report-paper-tables.json"
    assert paper_run.report_bytes_first == golden.read_bytes()


# SHA-256 of every seed-42 paper-tables artifact after `run-all --cached`
# twice. Together they pin every served manifest byte and, through the
# transcript's `body_sha256`, every probe response body. `cache.json` is
# left out: it hashes the fixture server's port.
_PINNED_OUT_TREE = {
    "findings.json": "4f66f4d772f297125396c231c643ca1745dc3cb46618be7fc3ed5680f3faf096",
    "manifests/": "66b726438b89bd7c2f5ee7c51989fa773a466d7c794be525af8bbd2d729aa941",
    "outcomes.json": "7fd338d2d1166543b661a2c2f0c62e400dbdaf0fd35f6e10020df5d6d5891e34",
    "report.json": "36b66e60da7f4855ed4a46efe2d5758097b9a4252452cd1b0f9e699a8fd45ae9",
    "report.md": "2c7d399e86b36543579171a1d5e4a88738a0d870952a42b28002e7b7528cbff2",
    "scopes.json": "90a17347b0d7ea7a645243c2aa4f4cedb3e3c0243439b416e535c65fbbab7ec2",
    "verdicts.json": "bc7267bcd9c016c890b0b7e3ea924a4060ed2ca85ff9a03ee7d123d4381a2e8b",
}


def test_pipeline_out_tree_matches_pinned_digests(paper_run):
    digests = {}
    for path in sorted(paper_run.out_dir.iterdir()):
        if path.is_dir():
            # One digest over the directory: each file's name and SHA-256, in name order.
            listing = "".join(
                f"{f.name}\0{hashlib.sha256(f.read_bytes()).hexdigest()}\n" for f in sorted(path.iterdir())
            )
            digests[path.name + "/"] = hashlib.sha256(listing.encode()).hexdigest()
        elif path.name != "cache.json":
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == _PINNED_OUT_TREE

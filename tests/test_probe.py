from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, strategies as st

from pluginaudit.fetch import BODY_PREFIX_LIMIT, Fetcher, FetchResult, TRANSPORT_ERROR
from pluginaudit.fixture import FixturePlan, FixtureSite, serve_fixtures
from pluginaudit.manifest import FLAG_UNKNOWN_AUTH, Endpoint, parse_manifest, parse_openapi
from pluginaudit.probe import (
    ALL_CASES,
    CASE1,
    CASE2,
    CASE3,
    CASE4,
    CASE5,
    CASE_SEVERITY,
    CAUSE_CLIENT_ERROR,
    CAUSE_LACK_AUTHORIZATION,
    CAUSE_RATE_LIMITED,
    FABRICATED_TOKEN,
    FABRICATED_TOKEN_VALUE,
    LEAKED_TOKEN,
    NO_TOKEN,
    SKIP_API_TOO_LARGE,
    SKIP_API_UNPARSEABLE,
    SKIP_IRREGULAR_MANIFEST,
    build_probe_matrix,
    classify_case,
    classify_failure,
    classify_plugin_case,
    evaluate_outcome,
    probe_manifests,
    probe_plugin,
    synthesize_body,
)


def _manifest(auth: dict) -> bytes:
    return json.dumps(
        {
            "name_for_human": "P",
            "name_for_model": "p",
            "description_for_model": "d",
            "auth": auth,
            "api": {"type": "openapi", "url": "https://p.example/openapi.json"},
        }
    ).encode()


def _api(paths: dict) -> bytes:
    return json.dumps(
        {
            "openapi": "3.0.1",
            "info": {"title": "P API", "version": "1"},
            "servers": [{"url": "https://p.example/api"}],
            "paths": paths,
        }
    ).encode()


_GET = {"get": {"responses": {}}}


def _load(auth: dict, paths: dict):
    manifest = parse_manifest(_manifest(auth))
    api = parse_openapi(_api(paths), "https://p.example/openapi.json")
    return manifest, api


def test_matrix_no_auth_two_gets():
    manifest, api = _load({"type": "none"}, {"/a": _GET, "/b": _GET})
    requests = build_probe_matrix(manifest, api)
    assert len(requests) == 2
    assert all(r.token_variant == NO_TOKEN for r in requests)
    assert [r.full_url for r in requests] == ["https://p.example/api/a", "https://p.example/api/b"]
    assert all(r.token_value is None for r in requests)


def test_matrix_with_leaked_token_three_variants():
    manifest, api = _load(
        {"type": "service_http", "verification_tokens": {"openai": "abc"}},
        {"/search": {"post": {"requestBody": {"content": {"application/json": {"schema": {"type": "object", "properties": {"query": {"type": "string"}}}}}}, "responses": {}}}},
    )
    requests = build_probe_matrix(manifest, api)
    variants = [r.token_variant for r in requests]
    assert variants == [NO_TOKEN, LEAKED_TOKEN, FABRICATED_TOKEN]
    leaked = requests[1]
    assert leaked.token_value == "abc"
    assert requests[2].token_value == FABRICATED_TOKEN_VALUE
    assert json.loads(requests[0].body) == {"query": "test"}
    assert all(r.token_value for r in requests if r.token_variant != NO_TOKEN)
    assert all(r.token_value is None for r in requests if r.token_variant == NO_TOKEN)


def test_matrix_oauth_without_tokens_gets_no_leaked_variant():
    manifest, api = _load({"type": "oauth", "authorization_url": "https://p.example/o"}, {"/a": _GET})
    requests = build_probe_matrix(manifest, api)
    assert [r.token_variant for r in requests] == [NO_TOKEN, FABRICATED_TOKEN]


def test_no_token_request_never_carries_authorization_header():
    manifest, api = _load({"type": "service_http", "verification_tokens": {"openai": "abc"}}, {"/a": _GET})
    requests = build_probe_matrix(manifest, api)
    for request in requests:
        headers = request.headers()
        if request.token_variant == NO_TOKEN:
            assert "Authorization" not in headers
        else:
            assert headers["Authorization"].startswith("Bearer ")


# Body synthesis oracle: hand-written expected values for five schemas, then
# schemas it cannot use, which give an empty object.
SYNTHESIS_ORACLE = [
    ({"type": "object", "properties": {"query": {"type": "string"}}}, {"query": "test"}),
    ({"type": "object", "properties": {"n": {"type": "integer"}, "deep": {"type": "object", "properties": {"flag": {"type": "boolean"}}}}}, {"n": 0, "deep": {"flag": False}}),
    ({"type": "array", "items": {"type": "string"}}, []),
    ({"type": "object", "properties": {"tags": {"type": "array"}, "price": {"type": "number"}}}, {"tags": [], "price": 0}),
    ({"properties": {"s": {"type": "string"}}}, {"s": "test"}),
    ("string", {}),
    (None, {}),
    ({"type": "object", "properties": ["a"]}, {}),
    ({"properties": "a"}, {}),
    ({"type": "null"}, {}),
]


@pytest.mark.parametrize("schema,expected", SYNTHESIS_ORACLE)
def test_body_synthesis_matches_oracle(schema, expected):
    assert synthesize_body(schema) == expected


def _response(status: int, body: bytes, headers: dict | None = None) -> FetchResult:
    return FetchResult(url="https://p.example/api/a", final_url="https://p.example/api/a", status=status, body=body, headers=headers or {})


_PLAIN_ENDPOINT = Endpoint(path="/a", method="GET")
_SCHEMA_ENDPOINT = Endpoint(path="/a", method="GET", response_schema={"type": "object"})


def test_evaluate_outcome_rules():
    assert evaluate_outcome(_response(200, b'{"ok": true}'), _SCHEMA_ENDPOINT) is True
    assert evaluate_outcome(_response(200, b""), _PLAIN_ENDPOINT) is False
    assert evaluate_outcome(_response(401, b'{"error": "auth"}'), _PLAIN_ENDPOINT) is False
    assert evaluate_outcome(_response(200, b"<html>hi</html>"), _PLAIN_ENDPOINT) is False
    # 2xx structured data without a declared schema counts.
    assert evaluate_outcome(_response(200, b"[1, 2]"), _PLAIN_ENDPOINT) is True
    # Top-level shape mismatch fails.
    assert evaluate_outcome(_response(200, b"[1, 2]"), _SCHEMA_ENDPOINT) is False
    # Nested past the recursion limit: unreadable, so not valid data.
    assert evaluate_outcome(_response(200, b"[" * 1000), _PLAIN_ENDPOINT) is False


@pytest.mark.parametrize(
    "declared,body,valid",
    [
        ("array", b"[1]", True),
        ("array", b'{"a": 1}', False),
        ("string", b'"x"', True),
        ("string", b"[]", False),
        ("number", b"1.5", True),
        ("number", b"true", False),
        ("integer", b"3", True),
        ("integer", b'"3"', False),
        ("boolean", b"false", True),
        ("boolean", b"0", False),
        ("null", b'"x"', True),  # a type it does not know is not checked
    ],
)
def test_evaluate_outcome_top_level_shape_per_declared_type(declared, body, valid):
    # JSON true loads as a bool, which Python counts as an int; it is not a number.
    endpoint = Endpoint(path="/a", method="GET", response_schema={"type": declared})
    assert evaluate_outcome(_response(200, body), endpoint) is valid


@pytest.mark.parametrize("schema", [["object"], {"properties": {}}], ids=["not-an-object", "no-type"])
def test_evaluate_outcome_ignores_a_shape_it_cannot_check(schema):
    endpoint = Endpoint(path="/a", method="GET", response_schema=schema)
    assert evaluate_outcome(_response(200, b'"x"'), endpoint) is True


class _ScriptedFetch:
    """Serves the API document at its URL and a JSON object at any other URL;
    records the Authorization header of each request."""

    def __init__(self, api: bytes):
        self.api, self.sent = api, []

    def fetch(self, url, method="GET", headers=None, body=None):
        self.sent.append((headers or {}).get("Authorization"))
        payload = self.api if url == "https://p.example/openapi.json" else b'{"ok": true}'
        return FetchResult(url=url, final_url=url, status=200, body=payload)


def test_leaked_token_without_an_openai_key_is_the_first_in_key_order():
    manifest = parse_manifest(_manifest({"type": "service_http", "verification_tokens": {"zeta": "last", "alpha": "first"}}))
    fetcher = _ScriptedFetch(_api({"/a": _GET}))
    result, skip, transcript = probe_plugin("p", manifest, fetcher)
    assert skip is None and result.plugin_case == CASE3  # the fabricated token got data too
    assert fetcher.sent == [None, None, "Bearer first", f"Bearer {FABRICATED_TOKEN_VALUE}"]
    assert [e.token_variant for e in transcript] == [NO_TOKEN, LEAKED_TOKEN, FABRICATED_TOKEN]


class _NoFetch:
    def fetch(self, url, **kwargs):
        raise AssertionError(f"irregular manifest fetched {url}")


def test_unknown_auth_type_is_flagged_and_skipped_before_any_fetch():
    manifest = parse_manifest(_manifest({"type": "kerberos", "verification_tokens": {"openai": "abc"}}))
    assert manifest.flags == (FLAG_UNKNOWN_AUTH,)
    assert manifest.auth.auth_type == "none"
    assert manifest.auth.verification_tokens == {}
    result, skip, transcript = probe_plugin("p", manifest, _NoFetch())
    assert (result, skip, transcript) == (None, f"{SKIP_IRREGULAR_MANIFEST}: {FLAG_UNKNOWN_AUTH}", [])


# The five-case table over all eight (Tr, Tv, O) triples.
CASE_TABLE_ORACLE = {
    (1, 1, 1): CASE1,
    (1, 1, 0): CASE2,
    (1, 0, 1): CASE3,
    (1, 0, 0): CASE2,
    (0, 1, 1): CASE4,
    (0, 0, 1): CASE4,
    (0, 1, 0): CASE5,
    (0, 0, 0): CASE5,
}


def test_classify_case_total_mapping():
    for (t_r, t_v, o), expected in CASE_TABLE_ORACLE.items():
        assert classify_case(t_r, t_v, o) == expected


def test_classify_case_rejects_non_binary():
    with pytest.raises(ValueError):
        classify_case(2, 0, 0)


def test_plugin_case_severity_examples():
    assert classify_plugin_case([CASE3, CASE1]) == CASE3
    assert classify_plugin_case([CASE1, CASE2]) == CASE1
    assert classify_plugin_case([CASE5, CASE5]) == CASE5
    assert classify_plugin_case([CASE2, CASE4]) == CASE4


def test_plugin_case_brute_force_two_outcome_combinations():
    # Order independence verified by brute force over every pair.
    rank = {case: i for i, case in enumerate(CASE_SEVERITY)}
    for a, b in itertools.product(ALL_CASES, repeat=2):
        expected = a if rank[a] <= rank[b] else b
        assert classify_plugin_case([a, b]) == expected
        assert classify_plugin_case([b, a]) == expected


@given(st.lists(st.sampled_from(ALL_CASES), min_size=1, max_size=8), st.randoms())
def test_plugin_case_invariant_under_permutation(cases, rng):
    shuffled = cases[:]
    rng.shuffle(shuffled)
    assert classify_plugin_case(cases) == classify_plugin_case(shuffled)


def test_plugin_case_requires_outcomes():
    with pytest.raises(ValueError):
        classify_plugin_case([])


def test_classify_failure_buckets():
    assert classify_failure(401, {}, "") == (CAUSE_LACK_AUTHORIZATION, False)
    assert classify_failure(403, {}, "") == (CAUSE_LACK_AUTHORIZATION, False)
    assert classify_failure(429, {}, "") == (CAUSE_RATE_LIMITED, False)
    assert classify_failure(400, {"Retry-After": "1"}, "") == (CAUSE_RATE_LIMITED, False)
    assert classify_failure(400, {}, "slow down: rate limit exceeded") == (CAUSE_RATE_LIMITED, False)
    assert classify_failure(400, {}, "bad request") == (CAUSE_CLIENT_ERROR, False)
    assert classify_failure(500, {}, "") == (CAUSE_CLIENT_ERROR, True)
    assert classify_failure(TRANSPORT_ERROR, {}, "") == (CAUSE_CLIENT_ERROR, True)


def test_token_type_summary_reference_rates_within_tolerance():
    # Published values are 58.9 / 38.6 / 14.7; comparison tolerance 0.2 pp.
    assert abs(float("59.0") - 58.9) <= 0.2
    assert abs(100 * 27 / 70 - 38.6) <= 0.2
    assert abs(100 * 5 / 34 - 14.7) <= 0.2


def test_transcript_redacts_token_values_by_default(paper_run):
    with_token = [e for e in paper_run.outcomes["transcript"] if e["token_variant"] != "no_token"]
    assert with_token
    for entry in with_token:
        auth = entry["headers"].get("Authorization", "")
        assert auth == "Bearer ***redacted***"
        assert "vt-" not in auth and "invalid-token" not in auth


def test_openapi_over_body_cap_is_skipped_as_too_large():
    # Valid JSON that only parses whole: the cut-off prefix must not be
    # reported as an unparseable API.
    padding = "x" * BODY_PREFIX_LIMIT
    site = FixtureSite(host="p.example")
    site.openapi_raw = _api({"/a": _GET}).decode().replace('"P API"', f'"P API {padding}"')
    plan = FixturePlan(profile="t", seed=0)
    plan.sites["p.example"] = site
    server = serve_fixtures(plan, 0)
    try:
        fetcher = Fetcher(per_host_delay_ms=0, retries=0, base_url=server.base_url)
        result, reason, transcript = probe_plugin("p", parse_manifest(_manifest({"type": "none"})), fetcher)
        fetcher.close()
    finally:
        server.stop()
    assert result is None and transcript == []
    assert reason.startswith(SKIP_API_TOO_LARGE)


def test_deeply_nested_openapi_is_skipped_not_fatal():
    # 2 KB of nested arrays exceeds the parsers' recursion limit; the one
    # hostile document must cost only its own plugin, not the run.
    plan = FixturePlan(profile="t", seed=0)
    manifests = {}
    for host in ("deep.example", "good.example"):
        plan.sites[host] = FixtureSite(host=host)
        manifests[host] = parse_manifest(_manifest({"type": "none"}).replace(b"p.example", host.encode()))
    plan.sites["deep.example"].openapi_raw = "[" * 1000
    plan.sites["good.example"].openapi_raw = _api({"/a": _GET}).decode().replace("p.example", "good.example")
    server = serve_fixtures(plan, 0)
    try:
        fetcher = Fetcher(per_host_delay_ms=0, retries=0, base_url=server.base_url, max_concurrency=2)
        run = probe_manifests(manifests, fetcher)
    finally:
        server.stop()
    assert run.skipped["deep.example"].startswith(f"{SKIP_API_UNPARSEABLE}: syntax: ")
    assert list(run.results) == ["good.example"]


def test_deeply_nested_response_body_is_not_fatal():
    # deep.example's one endpoint is served by nest.example, whose only
    # document is 1000 nested arrays: a 2xx body that is not valid data.
    plan = FixturePlan(profile="t", seed=0)
    manifests = {}
    for host in ("deep.example", "good.example"):
        plan.sites[host] = FixtureSite(host=host)
        manifests[host] = parse_manifest(_manifest({"type": "none"}).replace(b"p.example", host.encode()))
    plan.sites["deep.example"].openapi_raw = (
        _api({"/openapi.json": _GET}).decode().replace("https://p.example/api", "https://nest.example")
    )
    plan.sites["good.example"].openapi_raw = _api({"/a": _GET}).decode().replace("p.example", "good.example")
    plan.sites["nest.example"] = FixtureSite(host="nest.example", openapi_raw="[" * 1000)
    server = serve_fixtures(plan, 0)
    try:
        fetcher = Fetcher(per_host_delay_ms=0, retries=0, base_url=server.base_url, max_concurrency=2)
        run = probe_manifests(manifests, fetcher)
    finally:
        server.stop()
    assert sorted(run.results) == ["deep.example", "good.example"] and not run.skipped
    deep = run.results["deep.example"].outcomes
    assert deep and all(o.status == 200 and not o.valid_data for o in deep)

from __future__ import annotations

import hashlib
import json

import pytest
import yaml
from hypothesis import given, strategies as st

from pluginaudit import fixture

from pluginaudit.manifest import (
    FLAG_MISSING_DESCRIPTION,
    FLAG_OAUTH_INCOMPLETE,
    ParseError,
    parse_manifest,
    parse_openapi,
)

# The official sample layout: names, no-auth block, api pointer, legal link.
SAMPLE_MANIFEST = {
    "schema_version": "v1",
    "name_for_human": "TODO Plugin",
    "name_for_model": "todo",
    "description_for_human": "Plugin for managing a TODO list.",
    "description_for_model": "Plugin for managing a TODO list.",
    "auth": {"type": "none"},
    "api": {"type": "openapi", "url": "https://example.com/openapi.yaml", "is_user_authenticated": False},
    "logo_url": "https://example.com/logo.png",
    "contact_email": "support@example.com",
    "legal_info_url": "https://example.com/legal",
}


def _bytes(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


def test_parse_official_sample_shape():
    doc = parse_manifest(_bytes(SAMPLE_MANIFEST))
    assert doc.name_for_human == "TODO Plugin"
    assert doc.name_for_model == "todo"
    assert doc.auth.auth_type == "none"
    assert doc.auth.scope is None
    assert doc.auth.verification_tokens == {}
    assert doc.api_url == "https://example.com/openapi.yaml"
    assert doc.legal_info_url == "https://example.com/legal"
    assert doc.flags == ()


def test_empty_object_missing_name():
    with pytest.raises(ParseError) as err:
        parse_manifest(b"{}")
    assert err.value.kind == "missing_field"
    assert err.value.detail == "name_for_human"


def test_not_json_is_syntax_error():
    with pytest.raises(ParseError) as err:
        parse_manifest(b"<html>nope</html>")
    assert err.value.kind == "syntax"


def test_missing_api_url():
    doc = dict(SAMPLE_MANIFEST)
    doc["api"] = {"type": "openapi"}
    with pytest.raises(ParseError) as err:
        parse_manifest(_bytes(doc))
    assert err.value.detail == "api.url"


def test_relative_api_url_rejected():
    doc = dict(SAMPLE_MANIFEST)
    doc["api"] = {"type": "openapi", "url": "/openapi.yaml"}
    with pytest.raises(ParseError) as err:
        parse_manifest(_bytes(doc))
    assert err.value.detail == "api.url"


def test_oauth_scope_parsed():
    doc = dict(SAMPLE_MANIFEST)
    doc["auth"] = {
        "type": "oauth",
        "scope": "email profile",
        "authorization_url": "https://example.com/oauth/authorize",
    }
    parsed = parse_manifest(_bytes(doc))
    assert parsed.auth.auth_type == "oauth"
    assert parsed.auth.scope == "email profile"
    assert parsed.flags == ()


def test_oauth_without_authorization_url_flagged():
    doc = dict(SAMPLE_MANIFEST)
    doc["auth"] = {"type": "oauth", "scope": "all"}
    parsed = parse_manifest(_bytes(doc))
    assert FLAG_OAUTH_INCOMPLETE in parsed.flags


def test_missing_model_description_flagged():
    doc = dict(SAMPLE_MANIFEST)
    del doc["description_for_model"]
    parsed = parse_manifest(_bytes(doc))
    assert FLAG_MISSING_DESCRIPTION in parsed.flags


def test_missing_auth_block_defaults_to_none():
    doc = dict(SAMPLE_MANIFEST)
    del doc["auth"]
    assert parse_manifest(_bytes(doc)).auth.auth_type == "none"


def test_service_bearer_verification_tokens():
    doc = dict(SAMPLE_MANIFEST)
    doc["auth"] = {"type": "service_http", "verification_tokens": {"openai": "abc123"}}
    parsed = parse_manifest(_bytes(doc))
    assert parsed.auth.auth_type == "service_bearer"
    assert parsed.auth.verification_tokens == {"openai": "abc123"}


# 1000 nested arrays (2 KB) exceed the interpreter's recursion limit in
# both the JSON and the YAML parser.
DEEPLY_NESTED = b"[" * 1000


def test_parse_is_total_over_garbage():
    for junk in (b"", b"\x00\xff", b"[1,2,3]", b'"just a string"', b"{", b"null", DEEPLY_NESTED):
        with pytest.raises(ParseError):
            parse_manifest(junk)
        with pytest.raises(ParseError):
            parse_openapi(junk, "https://x.io/openapi.json")


SAMPLE_OPENAPI = {
    "openapi": "3.0.1",
    "info": {"title": "TODO API", "version": "v1"},
    "servers": [{"url": "https://example.com"}],
    "paths": {
        "/todos": {
            "get": {
                "operationId": "getTodos",
                "responses": {
                    "200": {
                        "description": "OK",
                        "content": {"application/json": {"schema": {"$ref": "#/components/schemas/TodoList"}}},
                    }
                },
            }
        }
    },
    "components": {"schemas": {"TodoList": {"type": "object", "properties": {"todos": {"type": "array"}}}}},
}


def test_parse_openapi_single_get():
    api = parse_openapi(_bytes(SAMPLE_OPENAPI), "https://example.com/openapi.json")
    assert len(api.endpoints) == 1
    endpoint = api.endpoints[0]
    assert (endpoint.path, endpoint.method) == ("/todos", "GET")
    assert endpoint.response_schema == {"type": "object", "properties": {"todos": {"type": "array"}}}


def test_parse_openapi_defaults_servers_to_origin():
    doc = dict(SAMPLE_OPENAPI)
    del doc["servers"]
    api = parse_openapi(_bytes(doc), "https://x.io/openapi.yaml")
    assert api.servers == ("https://x.io",)


@pytest.mark.parametrize("servers", ["abc", {"url": "https://evil.example"}, 7])
def test_parse_openapi_non_list_servers_fall_back_to_origin(servers):
    # A scalar must not be walked one character at a time, nor a mapping by
    # its keys: either would send probes to a base the document never named.
    doc = dict(SAMPLE_OPENAPI, servers=servers)
    api = parse_openapi(_bytes(doc), "https://h.io/openapi.json")
    assert api.servers == ("https://h.io",)


def test_parse_openapi_list_servers_not_flagged():
    api = parse_openapi(_bytes(SAMPLE_OPENAPI), "https://h.io/openapi.json")
    assert api.servers == ("https://example.com",)


def test_parse_openapi_yaml_surface():
    text = "openapi: 3.0.1\ninfo:\n  title: Y\npaths:\n  /a:\n    get:\n      responses: {}\n"
    api = parse_openapi(text.encode(), "https://y.io/openapi.yaml")
    assert [e.method for e in api.endpoints] == ["GET"]


def test_parse_openapi_two_methods_same_path():
    doc = json.loads(json.dumps(SAMPLE_OPENAPI))
    doc["paths"]["/todos"]["post"] = {"responses": {}}
    doc["paths"]["/todos"]["delete"] = {"responses": {}}
    del doc["paths"]["/todos"]["get"]
    api = parse_openapi(_bytes(doc), "https://example.com/openapi.json")
    assert sorted(e.method for e in api.endpoints) == ["DELETE", "POST"]


def test_parse_openapi_zero_paths_flagged_not_error():
    doc = dict(SAMPLE_OPENAPI)
    doc["paths"] = {}
    api = parse_openapi(_bytes(doc), "https://example.com/openapi.json")
    assert api.endpoints == ()


def test_parse_openapi_garbage_is_syntax_error():
    # Text that is not JSON falls back to YAML, and YAML's message is kept,
    # so an api_unparseable skip reason reads as it always has.
    broken = '{"openapi": broken'
    with pytest.raises(yaml.YAMLError) as yaml_err:
        yaml.safe_load(broken)
    with pytest.raises(ParseError) as err:
        parse_openapi(broken.encode(), "https://example.com/openapi.json")
    assert err.value.kind == "syntax"
    assert err.value.detail == str(yaml_err.value)


# --------------------------------------------------------------------------
# JSON first, YAML as the fallback: one value must parse the same through
# both paths, except for the differences pinned one by one below.

_leaf = st.one_of(st.text(max_size=12), st.integers(), st.booleans())
_value = st.recursive(
    _leaf,
    lambda kids: st.one_of(st.lists(kids, max_size=3), st.dictionaries(st.text(max_size=8), kids, max_size=3)),
    max_leaves=8,
)
_schema_name = st.sampled_from(["Todo", "TodoList", "Error"])
_schema = st.one_of(_schema_name.map(lambda name: {"$ref": f"#/components/schemas/{name}"}), _value)
_body = st.fixed_dictionaries(
    {"content": st.dictionaries(st.sampled_from(["application/json", "text/plain"]), st.fixed_dictionaries({"schema": _schema}), max_size=2)}
)
_operation = st.fixed_dictionaries(
    {},
    optional={
        "operationId": st.text(max_size=8),
        "requestBody": _body,
        "responses": st.dictionaries(st.sampled_from(["200", "201", "404", "default"]), _body, max_size=2),
    },
)
_methods = st.dictionaries(st.sampled_from(["get", "post", "put", "delete", "patch"]), st.one_of(_operation, _leaf), max_size=3)
_url = st.one_of(st.sampled_from(["https://api.example", "http://h.example/v1/", "/v2", "v3/", ""]), st.text(max_size=10))
_openapi_value = st.fixed_dictionaries(
    {},
    optional={
        "openapi": st.one_of(st.sampled_from(["3.0.1", "3.1.0"]), _leaf),
        "info": st.fixed_dictionaries({}, optional={"title": _leaf}),
        "servers": st.one_of(st.lists(st.one_of(st.fixed_dictionaries({"url": _url}), _url, _leaf), max_size=3), _leaf),
        "paths": st.dictionaries(st.one_of(st.text(max_size=10), st.text(max_size=10).map(lambda p: "/" + p)), _methods, max_size=3),
        "components": st.fixed_dictionaries({"schemas": st.dictionaries(_schema_name, _value, max_size=3)}),
    },
)


def _parse_or_kind(text: str) -> object:
    try:
        return parse_openapi(text.encode("utf-8"), "https://o.example/openapi.json")
    except ParseError as exc:
        return exc.kind


@given(st.one_of(_openapi_value, _value))
def test_json_and_yaml_text_of_one_value_parse_equal(value):
    # Block-style YAML is not JSON, so the second text takes the YAML path.
    assert _parse_or_kind(json.dumps(value)) == _parse_or_kind(yaml.safe_dump(value, sort_keys=False))


def test_tab_indented_json_parses():
    # YAML forbids tabs as indentation; such an API used to be skipped as
    # api_unparseable.
    text = json.dumps(SAMPLE_OPENAPI, indent="\t")
    with pytest.raises(yaml.YAMLError):
        yaml.safe_load(text)
    assert parse_openapi(text.encode(), "https://example.com/openapi.json") == parse_openapi(
        _bytes(SAMPLE_OPENAPI), "https://example.com/openapi.json"
    )


def test_json_key_longer_than_1024_characters_parses():
    # YAML caps implicit keys at 1024 characters.
    long_path = "/" + "k" * 1100
    text = json.dumps(dict(SAMPLE_OPENAPI, paths={long_path: {"get": {}}}))
    with pytest.raises(yaml.YAMLError):
        yaml.safe_load(text)
    api = parse_openapi(text.encode(), "https://example.com/openapi.json")
    assert [(e.path, e.method) for e in api.endpoints] == [(long_path, "GET")]


def test_json_exponent_is_a_float():
    # YAML 1.1 reads 1e3 (no dot) as the string '1e3'; JSON reads a number.
    text = json.dumps(SAMPLE_OPENAPI).replace('{"type": "array"}', '{"type": "array", "maxItems": 1e3}')
    assert yaml.safe_load(text)["components"]["schemas"]["TodoList"]["properties"]["todos"]["maxItems"] == "1e3"
    schema = parse_openapi(text.encode(), "https://example.com/openapi.json").endpoints[0].response_schema
    assert repr(schema["properties"]["todos"]["maxItems"]) == "1000.0"


def test_json_nan_is_a_float():
    # json.loads accepts the NaN constant; YAML 1.1 spells it .nan and reads
    # NaN as a string.
    text = json.dumps(SAMPLE_OPENAPI).replace('{"type": "array"}', '{"type": "array", "maxItems": NaN}')
    assert yaml.safe_load(text)["components"]["schemas"]["TodoList"]["properties"]["todos"]["maxItems"] == "NaN"
    schema = parse_openapi(text.encode(), "https://example.com/openapi.json").endpoints[0].response_schema
    assert repr(schema["properties"]["todos"]["maxItems"]) == "nan"


def test_json_surrogate_pair_escape_is_one_code_point():
    # YAML keeps the two surrogate halves as two characters.
    text = json.dumps(SAMPLE_OPENAPI).replace('"/todos"', '"/\\ud83d\\ude00"')
    assert list(yaml.safe_load(text)["paths"]) == ["/\ud83d\ude00"]
    assert parse_openapi(text.encode(), "https://example.com/openapi.json").endpoints[0].path == "/\U0001F600"


def test_utf8_bom_parses_through_the_fallback():
    # json.loads rejects a leading BOM; YAML skips it.
    data = b"\xef\xbb\xbf" + _bytes(SAMPLE_OPENAPI)
    assert parse_openapi(data, "https://example.com/openapi.json") == parse_openapi(
        _bytes(SAMPLE_OPENAPI), "https://example.com/openapi.json"
    )


def test_fixture_openapi_traffic_takes_the_json_path(monkeypatch):
    # Every OpenAPI body the paper-tables store serves, as the fixture
    # server writes it; only the deliberately broken ones may reach YAML.
    plan = fixture.generate_plan(fixture.PROFILE_PAPER_TABLES, 42)
    safe_load = yaml.safe_load
    fallback_hosts = []
    host = None

    def counting_safe_load(text):
        fallback_hosts.append(host)
        return safe_load(text)

    monkeypatch.setattr(yaml, "safe_load", counting_safe_load)
    parsed = 0
    for host, site in sorted(plan.sites.items()):
        if site.openapi is not None:
            body = fixture._json_bytes(site.openapi)
        elif site.openapi_raw is not None:
            body = site.openapi_raw.encode("utf-8")
        else:
            continue
        try:
            parse_openapi(body, f"https://{host}/openapi.json")
            parsed += 1
        except ParseError:
            pass
    raw_hosts = sorted(h for h, site in plan.sites.items() if site.openapi is None and site.openapi_raw is not None)
    assert parsed == sum(site.openapi is not None for site in plan.sites.values())
    assert fallback_hosts == raw_hosts
    assert len(raw_hosts) == 20 and all(h.startswith("broken-api-") for h in raw_hosts)


def _hand_canonical(doc: dict) -> bytes:
    """Independent canonicalizer: recursively sort keys, minimal separators."""

    def canon(node):
        if isinstance(node, dict):
            return "{" + ",".join(f"{json.dumps(k)}:{canon(node[k])}" for k in sorted(node)) + "}"
        if isinstance(node, list):
            return "[" + ",".join(canon(v) for v in node) + "]"
        return json.dumps(node)

    return canon(doc).encode("utf-8")


def test_fingerprint_ignores_key_order_and_whitespace():
    base = SAMPLE_MANIFEST
    permutations = [
        json.dumps(base, indent=4).encode(),
        json.dumps({k: base[k] for k in sorted(base)}).encode(),
        json.dumps({k: base[k] for k in sorted(base, reverse=True)}, separators=(", ", ": ")).encode(),
    ]
    oracle = hashlib.sha256(_hand_canonical(base)).hexdigest()
    digests = {parse_manifest(raw).fingerprint for raw in permutations}
    assert digests == {oracle}


def test_fingerprint_changes_with_content():
    a = parse_manifest(_bytes(SAMPLE_MANIFEST))
    changed = dict(SAMPLE_MANIFEST)
    changed["name_for_model"] = "todo2"
    b = parse_manifest(_bytes(changed))
    assert a.fingerprint != b.fingerprint


def test_fingerprint_equal_for_identical_bytes():
    a = parse_manifest(_bytes(SAMPLE_MANIFEST))
    b = parse_manifest(_bytes(SAMPLE_MANIFEST))
    assert a.fingerprint == b.fingerprint


def test_fingerprint_of_lone_surrogate_escape():
    # "\ud800" is valid JSON whose decoded text has no UTF-8 encoding.
    raw = _bytes(SAMPLE_MANIFEST)
    a = parse_manifest(raw.replace(b'"todo"', b'"todo\\ud800"'))
    b = parse_manifest(raw.replace(b'"todo"', b'"todo\\ud801"'))
    assert a.name_for_model == "todo\ud800"
    assert a.fingerprint != b.fingerprint != parse_manifest(raw).fingerprint

from __future__ import annotations

import hashlib
import json

import pytest

from pluginaudit.manifest import (
    FLAG_EMPTY_API,
    FLAG_INVALID_SERVERS,
    FLAG_MISSING_DESCRIPTION,
    FLAG_OAUTH_INCOMPLETE,
    ParseError,
    manifest_fingerprint,
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
    assert doc.api.url == "https://example.com/openapi.yaml"
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


def test_parse_is_total_over_garbage():
    for junk in (b"", b"\x00\xff", b"[1,2,3]", b'"just a string"', b"{", b"null"):
        with pytest.raises(ParseError):
            parse_manifest(junk)


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
    assert api.openapi_version == "3.0.1"
    assert api.title == "TODO API"
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
    assert FLAG_INVALID_SERVERS in api.flags


def test_parse_openapi_list_servers_not_flagged():
    api = parse_openapi(_bytes(SAMPLE_OPENAPI), "https://h.io/openapi.json")
    assert api.servers == ("https://example.com",)
    assert FLAG_INVALID_SERVERS not in api.flags


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
    assert FLAG_EMPTY_API in api.flags


def test_parse_openapi_garbage_is_syntax_error():
    with pytest.raises(ParseError):
        parse_openapi(b'{"openapi": broken', "https://example.com/openapi.json")


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
    digests = {manifest_fingerprint(parse_manifest(raw)) for raw in permutations}
    assert digests == {oracle}


def test_fingerprint_changes_with_content():
    a = parse_manifest(_bytes(SAMPLE_MANIFEST))
    changed = dict(SAMPLE_MANIFEST)
    changed["name_for_model"] = "todo2"
    b = parse_manifest(_bytes(changed))
    assert manifest_fingerprint(a) != manifest_fingerprint(b)


def test_fingerprint_equal_for_identical_bytes():
    a = parse_manifest(_bytes(SAMPLE_MANIFEST))
    b = parse_manifest(_bytes(SAMPLE_MANIFEST))
    assert manifest_fingerprint(a) == manifest_fingerprint(b)

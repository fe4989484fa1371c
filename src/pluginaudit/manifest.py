"""Parsing of plugin manifest documents (ai-plugin.json) and OpenAPI files.

Both parsers are lenient: unknown fields are ignored, a manifest's
recoverable oddities become irregularity flags, and only structurally
unusable input raises ParseError. Parsing is pure - no network I/O here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .digest import sha256
from .urlnorm import is_absolute_http, origin_of

AUTH_NONE = "none"
AUTH_SERVICE_BEARER = "service_bearer"
AUTH_USER_BEARER = "user_bearer"
AUTH_OAUTH = "oauth"

_AUTH_TYPE_MAP = {
    "none": AUTH_NONE,
    "service_http": AUTH_SERVICE_BEARER,
    "user_http": AUTH_USER_BEARER,
    "oauth": AUTH_OAUTH,
}

METHODS = ("GET", "POST", "PUT", "DELETE")

# Irregularity flags attached by the lenient parsers.
FLAG_OAUTH_INCOMPLETE = "oauth_incomplete"
FLAG_MISSING_DESCRIPTION = "missing_description"
FLAG_UNKNOWN_AUTH = "unknown_auth_type"

# Nesting deep enough to exhaust the interpreter's recursion limit (1000
# nested arrays, 2 KB, suffice) is a syntax error, not a crash.
_TOO_DEEP = "document nested too deeply"


class ParseError(Exception):
    """Typed parse failure; kind is 'syntax' or 'missing_field'."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


@dataclass(frozen=True)
class AuthSpec:
    auth_type: str = AUTH_NONE
    scope: str | None = None
    verification_tokens: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ManifestDocument:
    name_for_human: str
    name_for_model: str
    auth: AuthSpec
    api_url: str
    raw_source: bytes
    fingerprint: str
    description_for_human: str | None = None
    legal_info_url: str | None = None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Endpoint:
    path: str
    method: str
    request_schema: object | None = None
    response_schema: object | None = None


@dataclass(frozen=True)
class OpenApiDescription:
    servers: tuple[str, ...]
    endpoints: tuple[Endpoint, ...]


def _text(value: object) -> str | None:
    if isinstance(value, str) and value.strip():
        return value
    return None


def parse_manifest(data: bytes) -> ManifestDocument:
    """Parse raw ai-plugin.json bytes into a ManifestDocument.

    Required: name_for_human, name_for_model, api.url. A missing auth block
    defaults to no authentication. Everything else is optional; recoverable
    irregularities are recorded in .flags rather than raised.
    """
    try:
        doc = json.loads(data.decode("utf-8", errors="replace"))
    except ValueError as exc:
        raise ParseError("syntax", str(exc)) from exc
    except RecursionError as exc:
        raise ParseError("syntax", _TOO_DEEP) from exc
    if not isinstance(doc, dict):
        raise ParseError("syntax", "manifest is not a JSON object")
    try:
        fingerprint = sha256(canonical_manifest_bytes(doc)).hexdigest()
    except RecursionError as exc:
        raise ParseError("syntax", _TOO_DEEP) from exc

    flags: list[str] = []

    name_for_human = _text(doc.get("name_for_human"))
    if name_for_human is None:
        raise ParseError("missing_field", "name_for_human")
    name_for_model = _text(doc.get("name_for_model"))
    if name_for_model is None:
        raise ParseError("missing_field", "name_for_model")

    api_raw = doc.get("api")
    if not isinstance(api_raw, dict) or not _text(api_raw.get("url")):
        raise ParseError("missing_field", "api.url")
    if not is_absolute_http(str(api_raw["url"])):
        # A relative API pointer is unusable for probing: treat as missing.
        raise ParseError("missing_field", "api.url")

    auth = _parse_auth(doc.get("auth"), flags)

    if _text(doc.get("description_for_model")) is None:
        flags.append(FLAG_MISSING_DESCRIPTION)

    return ManifestDocument(
        name_for_human=name_for_human,
        name_for_model=name_for_model,
        auth=auth,
        api_url=str(api_raw["url"]),
        raw_source=bytes(data),
        fingerprint=fingerprint,
        description_for_human=_text(doc.get("description_for_human")),
        legal_info_url=_text(doc.get("legal_info_url")),
        flags=tuple(flags),
    )


def _parse_auth(raw: object, flags: list[str]) -> AuthSpec:
    if not isinstance(raw, dict):
        return AuthSpec()
    declared = str(raw.get("type", "none")).lower()
    auth_type = _AUTH_TYPE_MAP.get(declared)
    if auth_type is None:
        flags.append(FLAG_UNKNOWN_AUTH)
        auth_type = AUTH_NONE
    if auth_type == AUTH_NONE:
        # By construction: no-auth manifests carry no scope or tokens.
        return AuthSpec()

    tokens_raw = raw.get("verification_tokens")
    tokens: dict[str, str] = {}
    if isinstance(tokens_raw, dict):
        tokens = {str(k): str(v) for k, v in tokens_raw.items() if v is not None}

    if auth_type == AUTH_OAUTH and not (_text(raw.get("authorization_url")) or _text(raw.get("client_url"))):
        flags.append(FLAG_OAUTH_INCOMPLETE)

    return AuthSpec(auth_type=auth_type, scope=_text(raw.get("scope")), verification_tokens=tokens)


def parse_openapi(data: bytes, origin: str) -> OpenApiDescription:
    """Parse an OpenAPI description fetched from `origin`.

    The text is read as JSON, which most stores serve, and only text that
    is not JSON is read as YAML with PyYAML's pure-Python loader, which is
    far slower. A value parses the same either way, except where JSON and
    YAML 1.1 read a text differently: JSON accepts tab indentation and keys
    over 1024 characters, reads `1e3` and `NaN` as floats, and joins a
    surrogate-pair escape into one code point. A UTF-8 BOM is not JSON and
    parses as YAML. Text neither accepts raises ParseError with YAML's
    message.

    Extracts servers (relative server URLs resolved against the origin; a
    missing servers block, or a servers value that is not a list, defaults
    to the origin itself) and all path+method pairs for GET/POST/PUT/DELETE,
    with local component-schema references resolved one level. A document
    with zero paths is not an error: it has no endpoints.
    """
    text = data.decode("utf-8", errors="replace")
    try:
        try:
            doc = json.loads(text)
        except ValueError:
            import yaml  # loaded only for a document that is not JSON

            try:
                doc = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                raise ParseError("syntax", str(exc)) from exc
    except RecursionError as exc:
        raise ParseError("syntax", _TOO_DEEP) from exc
    if not isinstance(doc, dict):
        raise ParseError("syntax", "OpenAPI document is not a mapping")

    base = origin_of(origin) if is_absolute_http(origin) else origin.rstrip("/")

    servers_raw = doc.get("servers") or []
    if not isinstance(servers_raw, list):
        servers_raw = []
    servers = []
    for entry in servers_raw:
        url = entry.get("url") if isinstance(entry, dict) else entry
        if not isinstance(url, str) or not url:
            continue
        if is_absolute_http(url):
            servers.append(url.rstrip("/"))
        else:
            servers.append(base + "/" + url.strip("/") if url.strip("/") else base)
    if not servers:
        servers = [base]

    schemas = {}
    components = doc.get("components")
    if isinstance(components, dict) and isinstance(components.get("schemas"), dict):
        schemas = dict(components["schemas"])

    endpoints: list[Endpoint] = []
    paths = doc.get("paths")
    if isinstance(paths, dict):
        for path, ops in paths.items():
            if not isinstance(ops, dict):
                continue
            norm_path = path if str(path).startswith("/") else "/" + str(path)
            for method in METHODS:
                op = ops.get(method.lower())
                if not isinstance(op, dict):
                    continue
                endpoints.append(
                    Endpoint(
                        path=norm_path,
                        method=method,
                        request_schema=_request_schema(op, schemas),
                        response_schema=_response_schema(op, schemas),
                    )
                )
    return OpenApiDescription(servers=tuple(servers), endpoints=tuple(endpoints))


def _deref(node: object, schemas: dict[str, object]) -> object:
    """Resolve one level of local #/components/schemas/... references."""
    if isinstance(node, dict) and isinstance(node.get("$ref"), str):
        ref = node["$ref"]
        name = ref.rsplit("/", 1)[-1]
        if ref.startswith("#/components/schemas/") and name in schemas:
            return schemas[name]
    return node


def _json_content_schema(block: object, schemas: dict[str, object]) -> object | None:
    if not isinstance(block, dict):
        return None
    content = block.get("content")
    if not isinstance(content, dict):
        return None
    for ctype, body in content.items():
        if "json" in str(ctype) and isinstance(body, dict) and "schema" in body:
            return _deref(body["schema"], schemas)
    return None


def _request_schema(op: dict, schemas: dict[str, object]) -> object | None:
    return _json_content_schema(op.get("requestBody"), schemas)


def _response_schema(op: dict, schemas: dict[str, object]) -> object | None:
    responses = op.get("responses")
    if not isinstance(responses, dict):
        return None
    for status in ("200", "201", 200, 201, "default"):
        if status in responses:
            return _json_content_schema(responses[status], schemas)
    return None


def canonical_manifest_bytes(doc: dict) -> bytes:
    """Key-sorted, whitespace-free JSON bytes of a parsed manifest.

    Its SHA-256 is ManifestDocument.fingerprint: documents differing only in
    key order or whitespace hash equal; any content change changes it.
    """
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    # A lone surrogate escape ("\ud800") is valid JSON but not UTF-8.
    return text.encode("utf-8", errors="surrogatepass")

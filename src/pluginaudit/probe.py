"""Layer 2 - API authentication probing and token-case classification.

For every probeable plugin a matrix of external-origin requests is built
from its manifest and OpenAPI description: one request without any token,
one with the token leaked in the manifest (when present), one with a
fabricated token (when the API declares authentication). Outcomes are
evaluated for "valid data" and classified on the (token required, token
valid, outcome) axes into Cases 1-5, severity-ordered at plugin level.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .fetch import BODY_PREFIX_LIMIT, Fetcher, FetchResult, TRANSPORT_ERROR
from .manifest import (
    AUTH_NONE,
    AUTH_OAUTH,
    AUTH_SERVICE_BEARER,
    AUTH_USER_BEARER,
    Endpoint,
    ManifestDocument,
    OpenApiDescription,
    ParseError,
    parse_openapi,
)

NO_TOKEN = "no_token"
LEAKED_TOKEN = "leaked_token"
FABRICATED_TOKEN = "fabricated_token"

# Fixed so recorded transcripts are reproducible byte-for-byte.
FABRICATED_TOKEN_VALUE = "invalid-token-0000"

CASE1 = "case1"
CASE2 = "case2"
CASE3 = "case3"
CASE4 = "case4"
CASE5 = "case5"
ALL_CASES = (CASE1, CASE2, CASE3, CASE4, CASE5)

# Plugin-level severity: authorization flaw worst, then leaked-token
# success, then open API, then the two protected outcomes.
CASE_SEVERITY = (CASE3, CASE1, CASE4, CASE2, CASE5)

CAUSE_LACK_AUTHORIZATION = "lack_authorization"
CAUSE_CLIENT_ERROR = "client_error"
CAUSE_RATE_LIMITED = "rate_limited"
CAUSE_NONE = "none"
ALL_CAUSES = (CAUSE_LACK_AUTHORIZATION, CAUSE_CLIENT_ERROR, CAUSE_RATE_LIMITED)

FAMILY_NO_TOKEN = "no_token"
FAMILY_OAUTH = "oauth"
FAMILY_BEARER = "bearer"
FAMILY_USER_HTTP = "user_http"
# The three classic token families; user_http plugins are reported as
# their own extra row (see README notes).
PAPER_FAMILIES = (FAMILY_NO_TOKEN, FAMILY_OAUTH, FAMILY_BEARER)

_FAMILY_BY_AUTH = {
    AUTH_NONE: FAMILY_NO_TOKEN,
    AUTH_OAUTH: FAMILY_OAUTH,
    AUTH_SERVICE_BEARER: FAMILY_BEARER,
    AUTH_USER_BEARER: FAMILY_USER_HTTP,
}
ALL_FAMILIES = (FAMILY_NO_TOKEN, FAMILY_OAUTH, FAMILY_BEARER, FAMILY_USER_HTTP)

_RATE_LIMIT_PHRASES = ("rate limit", "too many requests", "quota exceeded", "throttled")

DEFAULT_PROBE_BUDGET = 12


@dataclass(frozen=True)
class ProbeRequest:
    endpoint: Endpoint
    full_url: str
    token_variant: str
    token_value: str | None = None
    body: bytes | None = None

    def headers(self, extra: dict[str, str] | None = None) -> dict[str, str]:
        headers = dict(extra or {})
        if self.token_variant != NO_TOKEN and self.token_value is not None:
            headers["Authorization"] = f"Bearer {self.token_value}"
        if self.body is not None:
            headers["Content-Type"] = "application/json"
        return headers


@dataclass(frozen=True)
class ProbeOutcome:
    request: ProbeRequest
    http_status: int
    valid_data: bool
    t_r: int
    t_v: int
    case: str
    failure_cause: str = CAUSE_NONE
    server_side: bool = False


@dataclass
class PluginProbeResult:
    plugin_id: str
    auth_family: str
    plugin_case: str
    succeeded: bool
    outcomes: list[ProbeOutcome] = field(default_factory=list)
    failure_causes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class TranscriptEntry:
    plugin_id: str
    method: str
    url: str
    token_variant: str
    headers: dict[str, str]
    status: int
    body_sha256: str
    attempts: int


@dataclass
class ProbeRunResult:
    results: dict[str, PluginProbeResult] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)
    transcript: list[TranscriptEntry] = field(default_factory=list)


def synthesize_body(schema: object) -> object:
    """Example value for a schema node: strings "test", numbers 0, booleans
    false, arrays [], objects recursed over their properties."""
    if not isinstance(schema, dict):
        return {}
    node_type = schema.get("type")
    if node_type == "object" or (node_type is None and "properties" in schema):
        props = schema.get("properties")
        if not isinstance(props, dict):
            return {}
        return {name: synthesize_body(sub) for name, sub in props.items()}
    if node_type == "array":
        return []
    if node_type == "string":
        return "test"
    if node_type in ("number", "integer"):
        return 0
    if node_type == "boolean":
        return False
    return {}


def build_probe_matrix(manifest: ManifestDocument, api: OpenApiDescription) -> list[ProbeRequest]:
    """Request matrix for one plugin: per endpoint, a no-token request
    always; a leaked-token request iff the manifest exposes a verification
    token; a fabricated-token request iff the API declares authentication.
    GET/DELETE carry no body; POST/PUT get a synthesized example body."""
    if not api.endpoints:
        raise ValueError("API description has no endpoints")
    base = api.servers[0].rstrip("/")
    leaked = leaked_token(manifest)

    variants: list[tuple[str, str | None]] = [(NO_TOKEN, None)]
    if leaked is not None:
        variants.append((LEAKED_TOKEN, leaked))
    if manifest.auth.auth_type != AUTH_NONE:
        variants.append((FABRICATED_TOKEN, FABRICATED_TOKEN_VALUE))

    requests_out: list[ProbeRequest] = []
    for endpoint in api.endpoints:
        body: bytes | None = None
        if endpoint.method in ("POST", "PUT"):
            body = json.dumps(synthesize_body(endpoint.request_schema), sort_keys=True).encode("utf-8")
        for variant, token in variants:
            requests_out.append(
                ProbeRequest(
                    endpoint=endpoint,
                    full_url=base + endpoint.path,
                    token_variant=variant,
                    token_value=token,
                    body=body,
                )
            )
    return requests_out


def leaked_token(manifest: ManifestDocument) -> str | None:
    tokens = manifest.auth.verification_tokens
    if not tokens:
        return None
    if "openai" in tokens:
        return tokens["openai"]
    return tokens[sorted(tokens)[0]]


def _top_level_shape_matches(value: object, schema: object) -> bool:
    if not isinstance(schema, dict) or "type" not in schema:
        return True
    expected = schema["type"]
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected in ("number", "integer"):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "boolean":
        return isinstance(value, bool)
    return True


def evaluate_outcome(response: FetchResult, endpoint: Endpoint) -> bool:
    """True iff the response counts as "valid data": 2xx, nonempty body,
    and the body is structured data matching the endpoint's top-level
    response shape when one is declared."""
    if not response.ok or not response.body:
        return False
    try:
        value = json.loads(response.body.decode("utf-8", errors="replace"))
    except (ValueError, RecursionError):
        # Not JSON, or nested too deeply to read: either way not valid data.
        return False
    if endpoint.response_schema is not None:
        return _top_level_shape_matches(value, endpoint.response_schema)
    return True


def classify_case(t_r: int, t_v: int, o: int) -> str:
    """The five-case mapping over (token required, token valid, outcome)."""
    if t_r not in (0, 1) or t_v not in (0, 1) or o not in (0, 1):
        raise ValueError("classify_case arguments must be 0 or 1")
    if t_r == 1:
        if o == 0:
            return CASE2
        return CASE1 if t_v == 1 else CASE3
    return CASE4 if o == 1 else CASE5


def classify_plugin_case(outcomes: list[ProbeOutcome] | list[str]) -> str:
    """Most severe per-request case; invariant under outcome order."""
    if not outcomes:
        raise ValueError("classify_plugin_case needs at least one outcome")
    cases = {o if isinstance(o, str) else o.case for o in outcomes}
    for case in CASE_SEVERITY:
        if case in cases:
            return case
    raise ValueError(f"unknown cases: {cases}")


def classify_failure(status: int, headers: dict[str, str], body_prefix: str) -> tuple[str, bool]:
    """(cause, server_side) for a failed request.

    401/403 lack authorization; 429 / Retry-After / rate-limit phrasing is
    rate limiting; everything else is a client error, with 5xx and
    transport failures flagged server_side.
    """
    header_keys = {k.lower() for k in headers}
    body_lower = body_prefix.lower()
    if status in (401, 403):
        return CAUSE_LACK_AUTHORIZATION, False
    if status == 429 or "retry-after" in header_keys or any(p in body_lower for p in _RATE_LIMIT_PHRASES):
        return CAUSE_RATE_LIMITED, False
    if status == TRANSPORT_ERROR or status >= 500:
        return CAUSE_CLIENT_ERROR, True
    return CAUSE_CLIENT_ERROR, False


def evaluate_probe(request: ProbeRequest, manifest: ManifestDocument, response: FetchResult) -> ProbeOutcome:
    """Turn one fetched probe response into a classified outcome."""
    t_r = 0 if manifest.auth.auth_type == AUTH_NONE else 1
    t_v = 1 if request.token_variant == LEAKED_TOKEN else 0
    valid = evaluate_outcome(response, request.endpoint)
    if valid:
        cause, server_side = CAUSE_NONE, False
    else:
        cause, server_side = classify_failure(
            response.status, response.headers, response.body[:2048].decode("utf-8", errors="replace")
        )
    return ProbeOutcome(
        request=request,
        http_status=response.status,
        valid_data=valid,
        t_r=t_r,
        t_v=t_v,
        case=classify_case(t_r, t_v, 1 if valid else 0),
        failure_cause=cause,
        server_side=server_side,
    )


def auth_family(auth_type: str) -> str:
    return _FAMILY_BY_AUTH.get(auth_type, FAMILY_USER_HTTP)


SKIP_IRREGULAR_MANIFEST = "irregular_manifest"
SKIP_API_UNREACHABLE = "api_unreachable"
SKIP_API_UNPARSEABLE = "api_unparseable"
SKIP_API_TOO_LARGE = "api_too_large"
SKIP_EMPTY_API = "empty_api"


def _redact(headers: dict[str, str], redact: bool) -> dict[str, str]:
    if not redact:
        return dict(headers)
    out = dict(headers)
    if "Authorization" in out:
        out["Authorization"] = "Bearer ***redacted***"
    return out


def probe_plugin(
    plugin_id: str,
    manifest: ManifestDocument,
    fetcher: Fetcher,
    budget: int = DEFAULT_PROBE_BUDGET,
    redact_tokens: bool = True,
) -> tuple[PluginProbeResult | None, str | None, list[TranscriptEntry]]:
    """Probe one plugin. Returns (result, skip_reason, transcript entries).

    Plugins whose manifests carry irregularity flags are excluded from
    probing, matching how irregular manifests were eliminated before the
    request analysis; unparseable, empty or oversized (cut off at the
    fetch body cap) API files are likewise skipped with a recorded reason.
    """
    transcript: list[TranscriptEntry] = []
    if manifest.flags:
        return None, f"{SKIP_IRREGULAR_MANIFEST}: {','.join(manifest.flags)}", transcript

    api_response = fetcher.fetch(manifest.api_url)
    if not api_response.ok or not api_response.body:
        return None, f"{SKIP_API_UNREACHABLE}: status {api_response.status}", transcript
    if api_response.truncated:
        return None, f"{SKIP_API_TOO_LARGE}: over {BODY_PREFIX_LIMIT} bytes", transcript
    try:
        api = parse_openapi(api_response.body, manifest.api_url)
    except ParseError as exc:
        return None, f"{SKIP_API_UNPARSEABLE}: {exc}", transcript
    if not api.endpoints:
        return None, SKIP_EMPTY_API, transcript

    outcomes: list[ProbeOutcome] = []
    for request in build_probe_matrix(manifest, api)[:budget]:
        headers = request.headers()
        response = fetcher.fetch(request.full_url, method=request.endpoint.method, headers=headers, body=request.body)
        outcomes.append(evaluate_probe(request, manifest, response))
        transcript.append(
            TranscriptEntry(
                plugin_id=plugin_id,
                method=request.endpoint.method,
                url=request.full_url,
                token_variant=request.token_variant,
                headers=_redact(headers, redact_tokens),
                status=response.status,
                body_sha256=hashlib.sha256(response.body).hexdigest(),
                attempts=response.attempts,
            )
        )

    plugin_case = classify_plugin_case(outcomes)
    causes = sorted({o.failure_cause for o in outcomes if not o.valid_data and o.failure_cause != CAUSE_NONE})
    result = PluginProbeResult(
        plugin_id=plugin_id,
        auth_family=auth_family(manifest.auth.auth_type),
        plugin_case=plugin_case,
        succeeded=any(o.valid_data for o in outcomes),
        outcomes=outcomes,
        failure_causes=causes,
    )
    return result, None, transcript


def probe_manifests(
    manifests: dict[str, ManifestDocument],
    fetcher: Fetcher,
    budget: int = DEFAULT_PROBE_BUDGET,
    redact_tokens: bool = True,
) -> ProbeRunResult:
    """Probe every discovered manifest, concurrently across plugins."""
    run = ProbeRunResult()
    items = sorted(manifests.items())
    rows = fetcher.map_concurrent(
        lambda item: (item[0], *probe_plugin(item[0], item[1], fetcher, budget, redact_tokens)), items
    )
    for plugin_id, result, skip_reason, entries in rows:
        run.transcript.extend(entries)
        if skip_reason is not None:
            run.skipped[plugin_id] = skip_reason
        else:
            run.results[plugin_id] = result
    return run

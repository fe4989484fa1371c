"""Deterministic local plugin-store emulator for offline audit runs.

A fixture plan is plain data: the store index, per-host manifest/API
documents, and per-endpoint responses (a fixed status and body, or a 401
unless the endpoint's token is presented). The bundled "paper-tables"
profile generates a 1032-plugin population whose full audit reproduces the
reference result tables; the "revisit" profile generates the remediated
population used for before/after diffing.

Every response is a pure function of (plan, request); nothing depends on
the wall clock or on earlier requests.
"""

from __future__ import annotations

import json
import random
import sys
import threading
from dataclasses import dataclass, field, fields
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

PROFILE_PAPER_TABLES = "paper-tables"
PROFILE_REVISIT = "revisit"

LANDING_HOST = "landing.adsite.example"
_LANDING_BODY = b"<html><head><title>Welcome</title></head><body><h1>Member portal</h1></body></html>"


def _builtin_denial(host: str) -> int | None:
    """Hosted-platform hosts emulated without a site entry."""
    if host == "github.com" or host.endswith(".github.com") or host.endswith(".githubusercontent.com"):
        return 404
    if host in ("drive.google.com", "docs.google.com"):
        return 403
    if host in ("chat.openai.com", "openai.com") or host.endswith(".openai.com"):
        return 403
    return None


@dataclass
class FixtureEndpoint:
    """Answers status_ok with body_ok; when required_token is set, only to
    `Authorization: Bearer <required_token>`, and 401 otherwise."""

    path: str
    method: str = "GET"
    status_ok: int = 200
    body_ok: dict | None = None
    required_token: str | None = None


@dataclass
class FixtureSite:
    """A site with a manifest serves it at the well-known path; one with
    redirect_to sends every well-known path there; any other answers 404."""

    host: str
    manifest: dict | None = None
    redirect_to: str | None = None
    openapi: dict | None = None
    openapi_raw: str | None = None
    endpoints: list[FixtureEndpoint] = field(default_factory=list)


@dataclass
class FixturePlan:
    profile: str
    seed: int
    index: list[dict] = field(default_factory=list)
    sites: dict[str, FixtureSite] = field(default_factory=dict)


class PlanError(Exception):
    """Raised for a plan file that cannot be read or does not fit the plan fields."""


def save_plan(plan: FixturePlan, path: str | Path) -> None:
    text = json.dumps(plan, default=vars, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def _from_doc(cls, doc: object, where: str):
    """cls(**doc), or PlanError naming the first key of doc that does not fit cls."""
    if not isinstance(doc, dict):
        raise PlanError(f"{where} is not an object")
    try:
        return cls(**doc)
    except TypeError:
        names = [f.name for f in fields(cls)]
    for key in doc:
        if key not in names:
            raise PlanError(f"unknown key {key!r} in {where}")
    # Fields without a default come first, so the first one absent is required.
    missing = next(name for name in names if name not in doc)
    raise PlanError(f"missing key {missing!r} in {where}")


def load_plan(path: str | Path) -> FixturePlan:
    """Read a plan written by save_plan. Raises PlanError, naming the file
    and the offending key, when the file cannot be read or parsed or its
    keys do not match the plan fields, as in a plan of an older format."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise PlanError(f"cannot read plan file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PlanError(f"plan file {path}: not valid JSON: {exc}") from exc
    try:
        plan = _from_doc(FixturePlan, doc, "the plan")
        if not isinstance(plan.sites, dict):
            raise PlanError("key 'sites' in the plan is not an object")
        for host, site_doc in plan.sites.items():
            where = f"sites[{host!r}]"
            site = plan.sites[host] = _from_doc(FixtureSite, site_doc, where)
            if not isinstance(site.endpoints, list):
                raise PlanError(f"key 'endpoints' in {where} is not a list")
            site.endpoints = [
                _from_doc(FixtureEndpoint, e, f"{where}.endpoints[{i}]") for i, e in enumerate(site.endpoints)
            ]
    except PlanError as exc:
        raise PlanError(f"plan file {path}: {exc}") from None
    return plan


def index_ndjson(plan: FixturePlan) -> str:
    return "\n".join(json.dumps(entry, sort_keys=True) for entry in plan.index) + "\n"


def write_index_ndjson(plan: FixturePlan, path: str | Path) -> None:
    Path(path).write_text(index_ndjson(plan), encoding="utf-8")


# --------------------------------------------------------------------------
# Plan generation


def _title_from_slug(slug: str) -> str:
    return " ".join(word.capitalize() for word in slug.replace("-", " ").split())


def _compact(name: str) -> str:
    return "".join(ch for ch in name if ch.isalnum())


def _manifest_doc(
    host: str,
    name_for_human: str,
    auth: dict,
    description: str | None = "Audit fixture plugin.",
    include_model_description: bool = True,
    legal_path: str = "/legal",
) -> dict:
    doc = {
        "schema_version": "v1",
        "name_for_human": name_for_human,
        "name_for_model": _compact(name_for_human),
        "auth": auth,
        "api": {"type": "openapi", "url": f"https://{host}/openapi.json", "is_user_authenticated": False},
        "logo_url": f"https://{host}/logo.png",
        "contact_email": f"support@{host}",
        "legal_info_url": f"https://{host}{legal_path}",
    }
    if description is not None:
        doc["description_for_human"] = description
    if include_model_description:
        doc["description_for_model"] = f"Use this plugin to reach {name_for_human}."
    return doc


def _openapi_doc(host: str, title: str, with_search: bool = False) -> dict:
    paths: dict = {
        "/status": {
            "get": {
                "operationId": "getStatus",
                "responses": {
                    "200": {
                        "description": "ok",
                        "content": {
                            "application/json": {"schema": {"$ref": "#/components/schemas/StatusResponse"}}
                        },
                    }
                },
            }
        }
    }
    if with_search:
        paths["/search"] = {
            "post": {
                "operationId": "search",
                "requestBody": {
                    "content": {"application/json": {"schema": {"$ref": "#/components/schemas/SearchRequest"}}}
                },
                "responses": {
                    "200": {
                        "description": "ok",
                        "content": {
                            "application/json": {"schema": {"$ref": "#/components/schemas/StatusResponse"}}
                        },
                    }
                },
            }
        }
    return {
        "openapi": "3.0.1",
        "info": {"title": title, "version": "1.0"},
        "servers": [{"url": f"https://{host}/api"}],
        "paths": paths,
        "components": {
            "schemas": {
                "StatusResponse": {"type": "object"},
                "SearchRequest": {"type": "object", "properties": {"query": {"type": "string"}}},
            }
        },
    }


_AUTH_NONE = {"type": "none"}


def _auth_oauth(host: str, scope: str | None, verification_token: str | None = None) -> dict:
    auth: dict = {
        "type": "oauth",
        "client_url": f"https://{host}/oauth",
        "authorization_url": f"https://{host}/oauth/authorize",
        "authorization_content_type": "application/json",
    }
    if scope is not None:
        auth["scope"] = scope
    if verification_token is not None:
        auth["verification_tokens"] = {"openai": verification_token}
    return auth


def _auth_service_bearer(verification_token: str | None) -> dict:
    auth: dict = {"type": "service_http", "authorization_type": "bearer"}
    if verification_token is not None:
        auth["verification_tokens"] = {"openai": verification_token}
    return auth


_AUTH_USER_BEARER = {"type": "user_http", "authorization_type": "bearer"}

_MIXERBOX_VARIANTS = (
    "Calculator", "ChatPDF", "Calendar", "Translate", "WebSearchG", "Weather",
    "NewsGPT", "Podcasts", "ImageGen", "Prompt", "FindMyMusic", "ChatVideo",
    "ChatMap", "Diagrams", "QR", "Scholar",
)

# OAuth scope strings by category, in deterministic assignment order.
_SCOPES_GLOBAL = ["all"] * 8 + ["baas-full-access"]
_SCOPES_READ_WRITE = ["read+write"] * 6 + ["read write read offline_access"]
_SCOPES_OPENAI = ["openai"] * 4 + ["oai11/global", "openid email https://openai.videoinsights.io/all"]
_SCOPES_IDENTITY = (
    ["email"] * 4
    + ["profile"] * 2
    + ["w_member_social openid profile email", "openid offline_access"]
    + ["playlist-modify-public user-read-email"] * 3
)
_SCOPES_PROJECT = ["project", "basic_access email offline_access manage_library"]
_SCOPES_EXECUTE = ["nla:exposed_actions"]


class _PlanBuilder:
    def __init__(self, profile: str, seed: int):
        self.plan = FixturePlan(profile=profile, seed=seed)
        self.rng = random.Random(seed)

    def add_index_entry(self, title: str, legal: str, description: str | None = None, host: str | None = None) -> None:
        entry = {
            "title": title,
            "name": title,
            "legal_info_url": legal,
            "logo_url": f"https://{host or 'store.example'}/logo.png",
        }
        if description is not None:
            entry["description"] = description
        self.plan.index.append(entry)

    def add_site(self, site: FixtureSite) -> None:
        self.plan.sites[site.host] = site

    def accessible_plugin(
        self,
        slug: str,
        auth: dict,
        endpoints: list[FixtureEndpoint],
        store_title: str | None = None,
        manifest_name: str | None = None,
        store_description: str | None = "Audit fixture plugin.",
        manifest_description: str | None = "Audit fixture plugin.",
        include_model_description: bool = True,
        manifest_legal_path: str = "/legal",
        store_legal: str | None = None,
        openapi: dict | str | None = "default",
        host: str | None = None,
        skip_site: bool = False,
    ) -> None:
        host = host or f"{slug}.example"
        title = store_title or _title_from_slug(slug)
        name = manifest_name or title
        legal = store_legal or f"https://{host}/legal"
        self.add_index_entry(title, legal, description=store_description, host=host)
        if skip_site:
            return
        site = FixtureSite(host=host)
        site.manifest = _manifest_doc(
            host,
            name,
            auth,
            description=manifest_description,
            include_model_description=include_model_description,
            legal_path=manifest_legal_path,
        )
        if openapi == "default":
            site.openapi = _openapi_doc(host, f"{name} API")
        elif isinstance(openapi, dict):
            site.openapi = openapi
        elif isinstance(openapi, str):
            site.openapi_raw = openapi
        site.endpoints = endpoints
        self.add_site(site)

    def finish(self) -> FixturePlan:
        self.rng.shuffle(self.plan.index)
        self.plan.sites.setdefault(LANDING_HOST, FixtureSite(host=LANDING_HOST))
        return self.plan


def _ok_endpoint(token: str | None = None) -> FixtureEndpoint:
    return FixtureEndpoint(path="/api/status", body_ok={"status": "ok"}, required_token=token)


def _fail_endpoint(status: int, path: str = "/api/status") -> FixtureEndpoint:
    body = {"error": "bad request"} if status == 400 else {"error": "denied"}
    if status == 429:
        body = {"error": "rate limit exceeded"}
    return FixtureEndpoint(path=path, method="GET", status_ok=status, body_ok=body)


def _add_oauth_population(builder: _PlanBuilder, n_case1: int, n_case3: int, n_case2: int, scopes: list[str | None]) -> None:
    """OAuth plugins: case1 honor their leaked verification token, case3
    serve data regardless of the declared auth, case2 enforce strictly."""
    slugs = (
        [f"oauth-c1-{i:02d}" for i in range(1, n_case1 + 1)]
        + [f"oauth-c3-{i:02d}" for i in range(1, n_case3 + 1)]
        + [f"oauth-c2-{i:02d}" for i in range(1, n_case2 + 1)]
    )
    if len(scopes) < len(slugs):
        scopes = scopes + [None] * (len(slugs) - len(scopes))
    for slug, scope in zip(slugs, scopes):
        host = f"{slug}.example"
        if slug.startswith("oauth-c1"):
            token = f"vt-{slug}"
            builder.accessible_plugin(
                slug,
                _auth_oauth(host, scope, verification_token=token),
                [_ok_endpoint(token=token)],
            )
        elif slug.startswith("oauth-c3"):
            builder.accessible_plugin(slug, _auth_oauth(host, scope), [_ok_endpoint()])
        else:
            builder.accessible_plugin(
                slug,
                _auth_oauth(host, scope),
                [_ok_endpoint(token=f"secret-{slug}")],
            )


def _paper_scope_assignment() -> list[str | None]:
    """Scopes aligned with the oauth slug order of _add_oauth_population:
    3 case1, 24 case3, 43 case2."""
    case1_scopes = _SCOPES_PROJECT + _SCOPES_EXECUTE                      # 3
    case3_scopes = _SCOPES_READ_WRITE + _SCOPES_OPENAI + _SCOPES_IDENTITY  # 7+6+11 = 24
    case2_scopes: list[str | None] = [None] * 34 + _SCOPES_GLOBAL          # 34+9 = 43
    return list(case1_scopes) + list(case3_scopes) + case2_scopes


def generate_paper_plan(seed: int) -> FixturePlan:
    """Population matching the reference result tables.

    373 accessible (5 irregular manifests + 23 broken APIs + 345 probed),
    case counts 8/74/24/141/98, failure causes 58/66/49, token families
    239/70/34 (+2 user_http), consistency findings 34/8/27, one 17-member
    shared-manifest group, and verdict buckets 104/12/6/19/518 for the
    protected categories.
    """
    b = _PlanBuilder(PROFILE_PAPER_TABLES, seed)

    # 17 listings sharing one manifest on one host; 16 store titles differ
    # from the shared name_for_human (16 of the 34 inconsistent names).
    mixerbox = FixtureSite(host="mixerbox.example")
    mixerbox.manifest = _manifest_doc("mixerbox.example", "MixerBox OnePlayer", _AUTH_NONE)
    mixerbox.openapi = _openapi_doc("mixerbox.example", "MixerBox OnePlayer API")
    mixerbox.endpoints = [_ok_endpoint()]
    b.add_site(mixerbox)
    b.add_index_entry("MixerBox OnePlayer", "https://mixerbox.example/legal", "Audit fixture plugin.", "mixerbox.example")
    for variant in _MIXERBOX_VARIANTS:
        b.add_index_entry(f"MixerBox {variant}", "https://mixerbox.example/legal", "Audit fixture plugin.", "mixerbox.example")

    # Rank-gaming pair: "A Digital Pet" is "Digital Pet" behind an article.
    b.accessible_plugin("digital-pet", _AUTH_NONE, [_ok_endpoint()], store_title="Digital Pet")
    b.accessible_plugin("a-digital-pet", _AUTH_NONE, [_ok_endpoint()], store_title="A Digital Pet")

    # Remaining inconsistent names: manifest name drifted from the listing.
    for i in range(1, 19):
        slug = f"name-drift-{i:02d}"
        b.accessible_plugin(slug, _AUTH_NONE, [_ok_endpoint()], manifest_name=_title_from_slug(slug) + " Pro")
    # Different descriptions.
    for i in range(1, 9):
        b.accessible_plugin(
            f"desc-drift-{i:02d}",
            _AUTH_NONE,
            [_ok_endpoint()],
            store_description="Fast lookups for everyday questions.",
            manifest_description="An entirely different capability statement.",
        )
    # Mismatched legal URLs.
    for i in range(1, 28):
        b.accessible_plugin(f"legal-drift-{i:02d}", _AUTH_NONE, [_ok_endpoint()], manifest_legal_path="/terms")
    # Plain open plugins (case 4); the first five also expose a POST route.
    for i in range(1, 70):
        slug = f"open-ok-{i:02d}"
        host = f"{slug}.example"
        endpoints = [_ok_endpoint()]
        openapi: dict | str | None = "default"
        if i <= 5:
            openapi = _openapi_doc(host, f"{_title_from_slug(slug)} API", with_search=True)
            endpoints = [_ok_endpoint(), FixtureEndpoint(path="/api/search", method="POST", body_ok={"results": []})]
        b.accessible_plugin(slug, _AUTH_NONE, endpoints, openapi=openapi)

    # Open APIs that fail anyway (case 5): 49 client errors, 48 rate
    # limited, one exhibiting both causes across two endpoints.
    for i in range(1, 50):
        b.accessible_plugin(f"ce-fail-{i:02d}", _AUTH_NONE, [_fail_endpoint(400)])
    for i in range(1, 49):
        b.accessible_plugin(f"rl-fail-{i:02d}", _AUTH_NONE, [_fail_endpoint(429)])
    b.accessible_plugin(
        "dual-fail-01",
        _AUTH_NONE,
        [_fail_endpoint(400, path="/api/alpha"), _fail_endpoint(429, path="/api/beta")],
        openapi=_dual_openapi("dual-fail-01.example"),
    )

    _add_oauth_population(b, n_case1=3, n_case3=24, n_case2=43, scopes=_paper_scope_assignment())

    # Service-bearer plugins: 5 replayable leaked tokens (case 1), 13
    # strict (401), 16 broken request handling (400).
    for i in range(1, 6):
        slug = f"bearer-c1-{i:02d}"
        token = f"vt-{slug}"
        b.accessible_plugin(slug, _auth_service_bearer(token), [_ok_endpoint(token=token)])
    for i in range(1, 14):
        slug = f"bearer-c2-la-{i:02d}"
        b.accessible_plugin(slug, _auth_service_bearer(None), [_ok_endpoint(token=f"secret-{slug}")])
    for i in range(1, 17):
        b.accessible_plugin(f"bearer-c2-ce-{i:02d}", _auth_service_bearer(None), [_fail_endpoint(400)])

    # User-token plugins (outside the three classic families).
    for i in range(1, 3):
        slug = f"user-c2-{i:02d}"
        b.accessible_plugin(slug, _AUTH_USER_BEARER, [_ok_endpoint(token=f"secret-{slug}")])

    # Irregular manifests (no model description): exposed but not probed.
    for i in range(1, 6):
        b.accessible_plugin(f"irr-manifest-{i:02d}", _AUTH_NONE, [_ok_endpoint()], include_model_description=False)
    # Broken or empty API descriptions: exposed but unprobeable.
    for i in range(1, 21):
        b.accessible_plugin(f"broken-api-{i:02d}", _AUTH_NONE, [], openapi='{"openapi": broken')
    for i in range(1, 4):
        slug = f"empty-api-{i:02d}"
        host = f"{slug}.example"
        empty = _openapi_doc(host, "Empty API")
        empty["paths"] = {}
        b.accessible_plugin(slug, _AUTH_NONE, [], openapi=empty)

    # Hidden redirects: the well-known path 302s to an off-domain page.
    for i in range(1, 105):
        slug = f"redir-{i:03d}"
        host = f"{slug}.example"
        b.add_index_entry(_title_from_slug(slug), f"https://{host}/legal", "Audit fixture plugin.", host)
        b.add_site(FixtureSite(host=host, redirect_to=f"https://{LANDING_HOST}/welcome"))

    # Hosted/protected categories are driven purely by the seed host.
    for i in range(1, 13):
        b.add_index_entry(f"Openai Prot {i:02d}", f"https://chat.openai.com/fixture-prot-{i:02d}")
    for i in range(1, 7):
        b.add_index_entry(f"Gdoc Hosted {i:02d}", f"https://drive.google.com/file/d/fixdoc{i:02d}")
    for i in range(1, 20):
        b.add_index_entry(f"Github Hosted {i:02d}", f"https://github.com/fixdev{i:02d}/plugin")
    for i in range(1, 519):
        host = f"native-{i:03d}.example"
        b.add_index_entry(f"Native {i:03d}", f"https://{host}/legal")

    return b.finish()


def _dual_openapi(host: str) -> dict:
    doc = _openapi_doc(host, "Dual Fail API")
    status = doc["paths"].pop("/status")
    doc["paths"]["/alpha"] = status
    doc["paths"]["/beta"] = json.loads(json.dumps(status))
    return doc


def generate_revisit_plan(seed: int) -> FixturePlan:
    """Remediated population: file leakage 282, 61 inconsistent plugins,
    89/17/3 successful retrievals for the three token families."""
    b = _PlanBuilder(PROFILE_REVISIT, seed)

    for i in range(1, 31):
        slug = f"name-drift-{i:02d}"
        b.accessible_plugin(slug, _AUTH_NONE, [_ok_endpoint()], manifest_name=_title_from_slug(slug) + " Pro")
    for i in range(1, 7):
        b.accessible_plugin(
            f"desc-drift-{i:02d}",
            _AUTH_NONE,
            [_ok_endpoint()],
            store_description="Fast lookups for everyday questions.",
            manifest_description="An entirely different capability statement.",
        )
    for i in range(1, 26):
        b.accessible_plugin(f"legal-drift-{i:02d}", _AUTH_NONE, [_ok_endpoint()], manifest_legal_path="/terms")
    for i in range(1, 29):
        b.accessible_plugin(f"open-ok-{i:02d}", _AUTH_NONE, [_ok_endpoint()])
    for i in range(1, 65):
        b.accessible_plugin(f"ce-fail-{i:02d}", _AUTH_NONE, [_fail_endpoint(400)])
    for i in range(1, 65):
        b.accessible_plugin(f"rl-fail-{i:02d}", _AUTH_NONE, [_fail_endpoint(429)])

    scopes: list[str | None] = ["all", "read+write", "email", "openai", "project"] + [None] * 37
    _add_oauth_population(b, n_case1=2, n_case3=15, n_case2=25, scopes=scopes)

    for i in range(1, 4):
        slug = f"bearer-c1-{i:02d}"
        token = f"vt-{slug}"
        b.accessible_plugin(slug, _auth_service_bearer(token), [_ok_endpoint(token=token)])
    for i in range(1, 11):
        slug = f"bearer-c2-la-{i:02d}"
        b.accessible_plugin(slug, _auth_service_bearer(None), [_ok_endpoint(token=f"secret-{slug}")])

    for i in range(1, 11):
        b.accessible_plugin(f"broken-api-{i:02d}", _AUTH_NONE, [], openapi='{"openapi": broken')

    for i in range(1, 21):
        slug = f"redir-{i:03d}"
        host = f"{slug}.example"
        b.add_index_entry(_title_from_slug(slug), f"https://{host}/legal", "Audit fixture plugin.", host)
        b.add_site(FixtureSite(host=host, redirect_to=f"https://{LANDING_HOST}/welcome"))
    for i in range(1, 4):
        b.add_index_entry(f"Openai Prot {i:02d}", f"https://chat.openai.com/fixture-prot-{i:02d}")
    b.add_index_entry("Gdoc Hosted 01", "https://drive.google.com/file/d/fixdoc01")
    for i in range(1, 5):
        b.add_index_entry(f"Github Hosted {i:02d}", f"https://github.com/fixdev{i:02d}/plugin")
    for i in range(1, 61):
        host = f"native-{i:03d}.example"
        b.add_index_entry(f"Native {i:03d}", f"https://{host}/legal")

    return b.finish()


def generate_plan(profile: str, seed: int) -> FixturePlan:
    if profile == PROFILE_PAPER_TABLES:
        return generate_paper_plan(seed)
    if profile == PROFILE_REVISIT:
        return generate_revisit_plan(seed)
    raise ValueError(f"unknown fixture profile: {profile!r}")


# --------------------------------------------------------------------------
# Server


class _HTTPServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        # A client that hangs up mid-response is not a server fault: the
        # fetcher closes the connection once a body passes its size cap.
        if isinstance(sys.exc_info()[1], ConnectionError):
            return
        super().handle_error(request, client_address)


class FixtureServer:
    def __init__(self, plan: FixturePlan, port: int = 0):
        self.httpd = _HTTPServer(("127.0.0.1", port), _make_handler(plan))
        self.httpd.daemon_threads = True
        self.port = self.httpd.server_address[1]
        self.base_url = f"http://127.0.0.1:{self.port}"
        # A short poll interval lets stop() return in ~50 ms, not 0.5 s.
        self._thread = threading.Thread(target=self.httpd.serve_forever, args=(0.05,), daemon=True)

    def start(self) -> "FixtureServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self._thread.join(timeout=5)

    def wait(self) -> None:
        self._thread.join()


def serve_fixtures(plan: FixturePlan, port: int = 0) -> FixtureServer:
    """Start the fixture server on 127.0.0.1; raises OSError if the port is
    busy. Returns a handle with .base_url and .stop()."""
    return FixtureServer(plan, port).start()


def _json_bytes(doc: object) -> bytes:
    return json.dumps(doc, indent=1, sort_keys=True).encode("utf-8")


def _make_handler(plan: FixturePlan):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # With Nagle on, the last segment of a response longer than one
        # segment waits ~40 ms for the client's delayed ACK.
        disable_nagle_algorithm = True

        def log_message(self, fmt, *args):  # noqa: ARG002 - silence stdlib logging
            pass

        def _respond(self, status: int, body: bytes = b"", content_type: str = "application/json", headers: dict | None = None):
            self.send_response(status)
            for key, value in (headers or {}).items():
                self.send_header(key, value)
            if body:
                self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if self.request_version == "HTTP/0.9":  # the body alone, as end_headers() would leave it
                self.wfile.write(body)
            else:  # end_headers() and the body in one write
                self._headers_buffer.append(b"\r\n" + body)
                self.flush_headers()

        def _handle(self) -> None:
            length = int(self.headers.get("Content-Length", 0) or 0)
            if length:
                self.rfile.read(length)
            raw_path = self.path.split("?", 1)[0]
            if raw_path == "/index.ndjson":
                self._respond(200, index_ndjson(plan).encode("utf-8"), "application/x-ndjson")
                return
            parts = raw_path.lstrip("/").split("/", 1)
            host = parts[0]
            rest = "/" + (parts[1] if len(parts) > 1 else "")

            if host == LANDING_HOST:
                self._respond(200, _LANDING_BODY, "text/html")
                return
            site = plan.sites.get(host)
            if site is not None:
                self._serve_site(site, rest)
                return
            denial = _builtin_denial(host)
            if denial is not None:
                self._respond(denial, _json_bytes({"error": "not available"}))
                return
            self._respond(404, _json_bytes({"error": "no such host"}))

        def _serve_site(self, site: FixtureSite, rest: str) -> None:
            if rest in ("/.well-known/ai-plugin.json", "/.well-known/", "/.well-known"):
                if site.manifest is not None and rest == "/.well-known/ai-plugin.json":
                    self._respond(200, _json_bytes(site.manifest))
                elif site.manifest is None and site.redirect_to is not None:
                    self._respond(302, b"", headers={"Location": site.redirect_to})
                else:
                    self._respond(404, _json_bytes({"error": "not found"}))
                return
            if rest == "/openapi.json":
                if site.openapi is not None:
                    self._respond(200, _json_bytes(site.openapi))
                elif site.openapi_raw is not None:
                    self._respond(200, site.openapi_raw.encode("utf-8"), "text/plain")
                else:
                    self._respond(404, _json_bytes({"error": "not found"}))
                return
            for endpoint in site.endpoints:
                if endpoint.path == rest and endpoint.method == self.command:
                    self._serve_endpoint(endpoint)
                    return
            self._respond(404, _json_bytes({"error": "not found"}))

        def _serve_endpoint(self, endpoint: FixtureEndpoint) -> None:
            token = endpoint.required_token
            if token is not None and self.headers.get("Authorization", "") != f"Bearer {token}":
                self._respond(401, _json_bytes({"error": "authorization required"}))
                return
            status = endpoint.status_ok
            headers = {"Retry-After": "1"} if status == 429 else None
            self._respond(status, _json_bytes(endpoint.body_ok or {"status": "ok"}), headers=headers)

        do_GET = do_POST = do_PUT = do_DELETE = _handle

    return Handler

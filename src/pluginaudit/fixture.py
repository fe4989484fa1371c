"""Deterministic local plugin-store emulator for offline audit runs.

A fixture plan is plain data: the store index, per-host manifest/API
documents, and per-endpoint responses (a fixed status and body, or a 401
unless the endpoint's token is presented). Each bundled profile is a table
of rows, `PROFILES[profile]`: a row is (kind, count, argument), and one
interpreter turns the rows into index entries and sites, then shuffles the
index by seed. "paper-tables" is the population whose audit reproduces the
paper's reference tables; "revisit" is the remediated population used for
before/after diffing. Each row kind also states the dossier its plugins
are built to get; `expected_labels(profile)` lists them per index entry.

Every response is a pure function of (plan, request); nothing depends on
the wall clock or on earlier requests.
"""

from __future__ import annotations

import json
import random
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .config import StageError
from .corpus import make_plugin_id
from .jsonfile import read_json

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


class PlanError(StageError):
    """Raised for a plan file that cannot be read or does not fit the plan fields."""


def save_plan(plan: FixturePlan, path: str | Path) -> None:
    text = json.dumps(plan, default=vars, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_plan(path: str | Path) -> FixturePlan:
    """Read a plan written by save_plan. PlanError names the file and the
    first value that does not fit the plan fields, as in an older format."""
    plan = read_json(path, PlanError, "plan file", FixturePlan)
    for host, site in plan.sites.items():
        for i, endpoint in enumerate(site.endpoints):
            if not 100 <= endpoint.status_ok <= 599:
                where = f"sites[{host!r}].endpoints[{i}].status_ok"
                raise PlanError(f"malformed plan file {path}: {where} is not an HTTP status code (100-599)")
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
    description: str = "Audit fixture plugin.",
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
        "description_for_human": description,
    }
    if include_model_description:
        doc["description_for_model"] = f"Use this plugin to reach {name_for_human}."
    return doc


def _openapi_doc(host: str, title: str, with_search: bool = False) -> dict:
    def json_body(schema: str) -> dict:
        return {"content": {"application/json": {"schema": {"$ref": f"#/components/schemas/{schema}"}}}}

    ok = {"200": {"description": "ok", **json_body("StatusResponse")}}
    paths = {"/status": {"get": {"operationId": "getStatus", "responses": ok}}}
    if with_search:
        paths["/search"] = {"post": {"operationId": "search", "requestBody": json_body("SearchRequest"), "responses": ok}}
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

# Each profile's population as rows of (kind, count, argument), in index
# order before the seeded shuffle; a row adds `count` index entries. Kinds
# named after a verdict are listings the audit cannot reach a manifest
# from; every other kind is an accessible plugin "<kind>-NN" on its own
# "<kind>-NN.example" site, numbered on across the rows of that kind. The
# argument is, for
#   shared-manifest: the listing names on one host; the first names its manifest;
#   rank-twin: the slug of a plugin that is listed next to its "a-" twin;
#   open-ok: how many of the first plugins also serve a POST route;
#   oauth-*: the scope category the row is built to get, and the scope.
PROFILES = {
    PROFILE_PAPER_TABLES: (
        ("shared-manifest", 17, (
            "OnePlayer", "Calculator", "ChatPDF", "Calendar", "Translate", "WebSearchG", "Weather", "NewsGPT",
            "Podcasts", "ImageGen", "Prompt", "FindMyMusic", "ChatVideo", "ChatMap", "Diagrams", "QR", "Scholar",
        )),
        ("rank-twin", 2, "digital-pet"),
        ("name-drift", 18, None),
        ("desc-drift", 8, None),
        ("legal-drift", 27, None),
        ("open-ok", 69, 5),
        ("ce-fail", 49, None),
        ("rl-fail", 48, None),
        ("dual-fail", 1, None),
        ("oauth-c1", 1, ("project_task", "project")),
        ("oauth-c1", 1, ("project_task", "basic_access email offline_access manage_library")),
        ("oauth-c1", 1, ("execute_actions", "nla:exposed_actions")),
        ("oauth-c3", 6, ("read_write", "read+write")),
        ("oauth-c3", 1, ("read_write", "read write read offline_access")),
        ("oauth-c3", 4, ("openai_platform", "openai")),
        ("oauth-c3", 1, ("openai_platform", "oai11/global")),
        ("oauth-c3", 1, ("openai_platform", "openid email https://openai.videoinsights.io/all")),
        ("oauth-c3", 4, ("identity_email", "email")),
        ("oauth-c3", 2, ("identity_email", "profile")),
        ("oauth-c3", 1, ("identity_email", "w_member_social openid profile email")),
        ("oauth-c3", 1, ("identity_email", "openid offline_access")),
        ("oauth-c3", 3, ("identity_email", "playlist-modify-public user-read-email")),
        ("oauth-c2", 34, ("unspecified", None)),
        ("oauth-c2", 8, ("global_access", "all")),
        ("oauth-c2", 1, ("global_access", "baas-full-access")),
        ("bearer-c1", 5, None),
        ("bearer-c2-la", 13, None),
        ("bearer-c2-ce", 16, None),
        ("user-c2", 2, None),
        ("irr-manifest", 5, None),
        ("broken-api", 20, None),
        ("empty-api", 3, None),
        ("hidden_redirect", 104, None),
        ("openai_protected", 12, None),
        ("hosted_google_doc", 6, None),
        ("hosted_github", 19, None),
        ("native_unreachable", 518, None),
    ),
    PROFILE_REVISIT: (
        ("name-drift", 30, None),
        ("desc-drift", 6, None),
        ("legal-drift", 25, None),
        ("open-ok", 28, 0),
        ("ce-fail", 64, None),
        ("rl-fail", 64, None),
        ("oauth-c1", 1, ("global_access", "all")),
        ("oauth-c1", 1, ("read_write", "read+write")),
        ("oauth-c3", 1, ("identity_email", "email")),
        ("oauth-c3", 1, ("openai_platform", "openai")),
        ("oauth-c3", 1, ("project_task", "project")),
        ("oauth-c3", 12, ("unspecified", None)),
        ("oauth-c2", 25, ("unspecified", None)),
        ("bearer-c1", 3, None),
        ("bearer-c2-la", 10, None),
        ("broken-api", 10, None),
        ("hidden_redirect", 20, None),
        ("openai_protected", 3, None),
        ("hosted_google_doc", 1, None),
        ("hosted_github", 4, None),
        ("native_unreachable", 60, None),
    ),
}

# The dossier an accessible kind is built to get: (case, auth family,
# succeeded, failure causes, finding kinds, skip-reason kind). The listing
# of a shared-manifest row named like its manifest, and the first plugin
# of a rank-twin row, get no finding.
_ACCESSIBLE_LABELS = {
    "shared-manifest": ("case4", "no_token", True, (), ("inconsistent_name",), None),
    "rank-twin": ("case4", "no_token", True, (), ("quantifier_prefix",), None),
    "name-drift": ("case4", "no_token", True, (), ("inconsistent_name",), None),
    "desc-drift": ("case4", "no_token", True, (), ("different_description",), None),
    "legal-drift": ("case4", "no_token", True, (), ("mismatched_legal_url",), None),
    "open-ok": ("case4", "no_token", True, (), (), None),
    "ce-fail": ("case5", "no_token", False, ("client_error",), (), None),
    "rl-fail": ("case5", "no_token", False, ("rate_limited",), (), None),
    "dual-fail": ("case5", "no_token", False, ("client_error", "rate_limited"), (), None),
    "oauth-c1": ("case1", "oauth", True, ("lack_authorization",), (), None),
    "oauth-c3": ("case3", "oauth", True, (), (), None),
    "oauth-c2": ("case2", "oauth", False, ("lack_authorization",), (), None),
    "bearer-c1": ("case1", "bearer", True, ("lack_authorization",), (), None),
    "bearer-c2-la": ("case2", "bearer", False, ("lack_authorization",), (), None),
    "bearer-c2-ce": ("case2", "bearer", False, ("client_error",), (), None),
    "user-c2": ("case2", "user_http", False, ("lack_authorization",), (), None),
    "irr-manifest": (None, None, None, (), (), "irregular_manifest"),
    "broken-api": (None, None, None, (), (), "api_unparseable"),
    "empty-api": (None, None, None, (), (), "empty_api"),
}

# Title and legal-URL formats of the listings that have no site of their own.
_LISTINGS = {
    "openai_protected": ("Openai Prot {:02d}", "https://chat.openai.com/fixture-prot-{:02d}"),
    "hosted_google_doc": ("Gdoc Hosted {:02d}", "https://drive.google.com/file/d/fixdoc{:02d}"),
    "hosted_github": ("Github Hosted {:02d}", "https://github.com/fixdev{:02d}/plugin"),
    "native_unreachable": ("Native {:03d}", "https://native-{:03d}.example/legal"),
}


def _row_labels(kind: str, arg) -> dict:
    if kind in _ACCESSIBLE_LABELS:
        verdict, (case, family, succeeded, causes, findings, skip) = "accessible", _ACCESSIBLE_LABELS[kind]
    else:
        verdict, case, family, succeeded, causes, findings, skip = kind, None, None, None, (), (), None
    return {
        "verdict": verdict,
        "case": case,
        "auth_family": family,
        "succeeded": succeeded,
        "failure_causes": list(causes),
        "finding_kinds": list(findings),
        "scope_category": arg[0] if kind.startswith("oauth-") else None,
        "skip_reason_kind": skip,
    }


class _PlanBuilder:
    def __init__(self, profile: str, seed: int):
        self.plan = FixturePlan(profile=profile, seed=seed)
        self.rng = random.Random(seed)
        self.labels: dict[tuple[str, str], dict] = {}
        self.shared_members: list[tuple[str, str]] = []
        self.numbers: Counter[str] = Counter()

    def add_index_entry(self, title: str, legal: str, labels: dict, description: str | None = None, host: str | None = None) -> None:
        entry = {
            "title": title,
            "name": title,
            "legal_info_url": legal,
            "logo_url": f"https://{host or 'store.example'}/logo.png",
        }
        if description is not None:
            entry["description"] = description
        self.plan.index.append(entry)
        self.labels[title, legal] = labels

    def add_row(self, kind: str, count: int, arg) -> None:
        labels = _row_labels(kind, arg)
        for _ in range(count):
            self.numbers[kind] += 1
            n = self.numbers[kind]
            if kind in _LISTINGS:
                title, legal = _LISTINGS[kind]
                self.add_index_entry(title.format(n), legal.format(n), labels)
            elif kind == "hidden_redirect":
                host = f"redir-{n:03d}.example"
                self.add_index_entry(f"Redir {n:03d}", f"https://{host}/legal", labels, "Audit fixture plugin.", host)
                self.plan.sites[host] = FixtureSite(host=host, redirect_to=f"https://{LANDING_HOST}/welcome")
            elif kind == "shared-manifest":
                self._shared_listing(f"MixerBox {arg[0]}", f"MixerBox {arg[n - 1]}", labels)
            elif kind == "rank-twin":
                twin = n > 1
                slug = f"a-{arg}" if twin else arg
                self._accessible_plugin(kind, slug, n, arg, labels if twin else {**labels, "finding_kinds": []})
            else:
                self._accessible_plugin(kind, f"{kind}-{n:02d}", n, arg, labels)

    def _shared_listing(self, name: str, title: str, labels: dict) -> None:
        host = "mixerbox.example"
        legal = f"https://{host}/legal"
        if host not in self.plan.sites:
            site = self.plan.sites[host] = FixtureSite(host=host, endpoints=[_ok_endpoint()])
            site.manifest = _manifest_doc(host, name, _AUTH_NONE)
            site.openapi = _openapi_doc(host, f"{name} API")
        self.add_index_entry(title, legal, labels if title != name else {**labels, "finding_kinds": []}, "Audit fixture plugin.", host)
        self.shared_members.append((title, legal))

    def _accessible_plugin(self, kind: str, slug: str, n: int, arg, labels: dict) -> None:
        host, title = f"{slug}.example", _title_from_slug(slug)
        name = f"{title} Pro" if kind == "name-drift" else title
        # Case 1 leaks a verification token that the API honours; case 3
        # serves data whatever the declared auth; the rest enforce a secret.
        verification = f"vt-{slug}" if kind.endswith("-c1") else None
        token = None if kind == "oauth-c3" else verification or f"secret-{slug}"
        search = kind == "open-ok" and n <= arg
        auth, endpoints = _AUTH_NONE, [_ok_endpoint()]
        openapi: dict | str = _openapi_doc(host, f"{name} API", with_search=search)
        if kind.startswith("oauth-"):
            auth, endpoints = _auth_oauth(host, arg[1], verification), [_ok_endpoint(token)]
        elif kind.startswith("bearer-"):
            auth = _auth_service_bearer(verification)
            endpoints = [_fail_endpoint(400) if kind == "bearer-c2-ce" else _ok_endpoint(token)]
        elif kind == "user-c2":
            auth, endpoints = _AUTH_USER_BEARER, [_ok_endpoint(token)]
        elif kind in ("ce-fail", "rl-fail"):
            endpoints = [_fail_endpoint(400 if kind == "ce-fail" else 429)]
        elif kind == "dual-fail":
            endpoints = [_fail_endpoint(400, "/api/alpha"), _fail_endpoint(429, "/api/beta")]
            openapi = _openapi_doc(host, "Dual Fail API")
            status = openapi["paths"].pop("/status")
            openapi["paths"] = {"/alpha": status, "/beta": status}
        elif kind == "broken-api":
            endpoints, openapi = [], '{"openapi": broken'
        elif kind == "empty-api":
            endpoints, openapi = [], {**_openapi_doc(host, "Empty API"), "paths": {}}
        elif search:
            endpoints.append(FixtureEndpoint(path="/api/search", method="POST", body_ok={"results": []}))
        drifted = kind == "desc-drift"
        store_description = "Fast lookups for everyday questions." if drifted else "Audit fixture plugin."
        self.add_index_entry(title, f"https://{host}/legal", labels, store_description, host)
        site = self.plan.sites[host] = FixtureSite(host=host, endpoints=endpoints)
        site.manifest = _manifest_doc(
            host,
            name,
            auth,
            description="An entirely different capability statement." if drifted else "Audit fixture plugin.",
            include_model_description=kind != "irr-manifest",
            legal_path="/terms" if kind == "legal-drift" else "/legal",
        )
        if isinstance(openapi, str):
            site.openapi_raw = openapi
        else:
            site.openapi = openapi

    def finish(self) -> FixturePlan:
        self.rng.shuffle(self.plan.index)
        self.plan.sites.setdefault(LANDING_HOST, FixtureSite(host=LANDING_HOST))
        return self.plan


def _ok_endpoint(token: str | None = None) -> FixtureEndpoint:
    return FixtureEndpoint(path="/api/status", body_ok={"status": "ok"}, required_token=token)


def _fail_endpoint(status: int, path: str = "/api/status") -> FixtureEndpoint:
    """A 400 or a 429, whatever the request carries."""
    body = {"error": "bad request"} if status == 400 else {"error": "rate limit exceeded"}
    return FixtureEndpoint(path=path, status_ok=status, body_ok=body)


def _build(profile: str, seed: int) -> _PlanBuilder:
    if profile not in PROFILES:
        raise ValueError(f"unknown fixture profile: {profile!r}")
    builder = _PlanBuilder(profile, seed)
    for row in PROFILES[profile]:
        builder.add_row(*row)
    return builder


def generate_plan(profile: str, seed: int) -> FixturePlan:
    return _build(profile, seed).finish()


def expected_labels(profile: str) -> dict[tuple[str, str], dict]:
    """The dossier fields each plugin of a profile is built to get, keyed by
    its index entry's (title, legal_info_url); a probe skip reason is
    reduced to its kind, the part before the colon."""
    builder = _build(profile, 0)
    if builder.shared_members:
        # A shared-manifest group is reported once, on its lowest plugin id.
        first = min(builder.shared_members, key=lambda key: make_plugin_id(*key))
        kinds = builder.labels[first]["finding_kinds"]
        builder.labels[first] = {**builder.labels[first], "finding_kinds": sorted(kinds + ["shared_manifest_group"])}
    return builder.labels


# --------------------------------------------------------------------------
# Server


class FixtureServer:
    def __init__(self, plan: FixturePlan, port: int = 0):
        self.httpd = _make_server(plan, port)
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


def _make_server(plan: FixturePlan, port: int):
    """An HTTP server bound to 127.0.0.1:port that answers from plan; only
    this function loads `http.server`."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Server(ThreadingHTTPServer):
        daemon_threads = True
        # socketserver listens with a backlog of 5; a client at concurrency 16
        # overflows it, and each dropped SYN is resent only after 1 s.
        request_queue_size = 128

        def handle_error(self, request, client_address):
            # A client that hangs up mid-response is not a server fault: the
            # fetcher closes the connection once a body passes its size cap.
            if isinstance(sys.exc_info()[1], ConnectionError):
                return
            super().handle_error(request, client_address)

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

    return Server(("127.0.0.1", port), Handler)

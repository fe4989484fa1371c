from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from pluginaudit.corpus import Corpus, PluginRecord
from pluginaudit.discovery import (
    InvalidSeed,
    VERDICT_ACCESSIBLE,
    VERDICT_HIDDEN_REDIRECT,
    VERDICT_HOSTED_GITHUB,
    VERDICT_HOSTED_GOOGLE_DOC,
    VERDICT_NATIVE_UNREACHABLE,
    VERDICT_OPENAI_PROTECTED,
    classify_accessibility,
    discover_corpus,
    generate_candidates,
)
from pluginaudit.fetch import BODY_PREFIX_LIMIT, Fetcher, FetchResult
from pluginaudit.fixture import FixturePlan, FixtureSite, serve_fixtures
from pluginaudit.manifest import parse_manifest
from pluginaudit.urlnorm import host_of, registrable_domain
from test_fetch import _serving

MANIFEST_BODY = json.dumps(
    {
        "name_for_human": "X",
        "name_for_model": "x",
        "description_for_model": "d",
        "api": {"type": "openapi", "url": "https://x.example/openapi.json"},
    }
).encode()

# Hand enumeration of the rule set for this seed, frozen before the
# generator existed: origin pair; full path; 1-segment truncation; .php
# stripped; /en dropped from both the raw and stripped paths.
TERMS_PHP_ORACLE = [
    "https://a.io/.well-known/ai-plugin.json",
    "https://a.io/.well-known/",
    "https://a.io/en/terms.php/.well-known/ai-plugin.json",
    "https://a.io/en/terms.php/.well-known/",
    "https://a.io/en/.well-known/ai-plugin.json",
    "https://a.io/en/.well-known/",
    "https://a.io/en/terms/.well-known/ai-plugin.json",
    "https://a.io/en/terms/.well-known/",
    "https://a.io/terms.php/.well-known/ai-plugin.json",
    "https://a.io/terms.php/.well-known/",
    "https://a.io/terms/.well-known/ai-plugin.json",
    "https://a.io/terms/.well-known/",
]


def test_first_candidate_is_well_known_manifest():
    candidates = generate_candidates("https://a.io/legal")
    assert candidates[0] == "https://a.io/.well-known/ai-plugin.json"
    assert candidates[1] == "https://a.io/.well-known/"


def test_terms_php_matches_hand_enumeration():
    urls = generate_candidates("https://a.io/en/terms.php")
    assert urls == TERMS_PHP_ORACLE


def test_query_and_fragment_stripped():
    urls = generate_candidates("https://a.io/legal?tab=1#top")
    assert urls == generate_candidates("https://a.io/legal")


def test_generation_is_deterministic():
    seed = "https://a.io/"
    assert generate_candidates(seed) == generate_candidates(seed)
    assert generate_candidates(seed) == [
        "https://a.io/.well-known/ai-plugin.json",
        "https://a.io/.well-known/",
    ]


def test_relative_seed_rejected():
    for bad in ("/legal", "a.io/legal", "ftp://a.io/legal", "", "https://[::1/legal"):
        with pytest.raises(InvalidSeed):
            generate_candidates(bad)


def _random_seed_url(rng: random.Random) -> str:
    scheme = rng.choice(["http", "https"])
    host = ".".join(
        rng.choice(["shop", "api", "plugin", "www", "app"]) for _ in range(rng.randint(1, 2))
    ) + f"-{rng.randint(0, 999)}." + rng.choice(["example", "io", "dev", "co.uk"])
    depth = rng.randint(0, 5)
    segments = [rng.choice(["en", "us", "pages", "static", "legal", "terms", "about", "docs"]) for _ in range(depth)]
    path = "/" + "/".join(segments) if segments else "/"
    if segments and rng.random() < 0.5:
        path += rng.choice([".php", ".txt", ".htm", ".html", ".pdf"])
    if rng.random() < 0.3:
        path += "?utm=1&x=2"
    if rng.random() < 0.2:
        path += "#frag"
    return f"{scheme}://{host}{path}"


def test_candidate_properties_over_200_random_seeds():
    rng = random.Random(20260810)
    for _ in range(200):
        seed = _random_seed_url(rng)
        urls = generate_candidates(seed)
        assert len(urls) == len(set(urls)), f"duplicates for {seed}"
        assert urls == generate_candidates(seed), f"nondeterministic for {seed}"
        seed_domain = registrable_domain(host_of(seed))
        assert all(registrable_domain(host_of(u)) == seed_domain for u in urls), f"left domain for {seed}"
        assert urls[0].endswith("/.well-known/ai-plugin.json")
        assert urls[1].endswith("/.well-known/")


# Path pieces of the pinned seeds: noise directories and file suffixes in
# mixed case, a bare ".php" segment, empty segments and ordinary words.
_PIN_SEGMENTS = [
    "en", "EN", "Pages", "pages", "us", "US", "static", "Static", "legal", "terms", "about", "docs", ".php", "",
    "privacy.PHP", "terms.Html", "index.htm", "notes.TXT", "policy.pdf", "a.b", "en.php",
]
_PIN_SUFFIXES = ["", "", ".php", ".PHP", ".txt", ".Txt", ".htm", ".HTM", ".html", ".Html", ".pdf", ".PDF"]


def _pinned_seed(rng: random.Random) -> str:
    if rng.random() < 0.05:
        return rng.choice(["/legal", "legal.example/terms", "ftp://a.example/x", "", "https://[::1/legal", "http:x"])
    scheme = rng.choice(["http", "https", "HTTPS"])
    host = rng.choice(["a.example", "Shop.Example", "api.co.uk", "x.io:8080", "127.0.0.1"])
    segments = [rng.choice(_PIN_SEGMENTS) for _ in range(rng.randint(0, 7))]
    path = "/" + "/".join(segments) + rng.choice(_PIN_SUFFIXES) if segments else rng.choice(["", "/"])
    if rng.random() < 0.2:
        path += "/"
    if rng.random() < 0.25:
        path += rng.choice(["?utm=1&x=2", "?", "?a=/en/x.php"])
    if rng.random() < 0.2:
        path += rng.choice(["#frag", "#/pages/x.html"])
    return f"{scheme}://{host}{path}"


# SHA-256 of every pinned seed with its candidate list, or the marker of an
# InvalidSeed. Any change to the candidates, their order or which seeds are
# refused shows up here.
PINNED_CANDIDATES_SHA256 = "30b7a12b48c801a675b29093eb09399a7996698600e2e1fae3c147bb071fa1e1"


def test_candidates_of_2000_seeded_seeds_are_pinned():
    rng = random.Random(36)
    lines = []
    for _ in range(2000):
        seed = _pinned_seed(rng)
        try:
            lines.append("\t".join([seed, *generate_candidates(seed)]))
        except InvalidSeed:
            lines.append(f"{seed}\t!InvalidSeed")
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_CANDIDATES_SHA256


def _record(plugin_id: str, legal: str) -> PluginRecord:
    return PluginRecord(
        plugin_id=plugin_id,
        store_title="T",
        name_for_human_store="T",
        legal_info_url=legal,
        developer_domain=registrable_domain(host_of(legal)),
    )


def _result(url: str, status: int, body: bytes = b"", final: str | None = None) -> FetchResult:
    return FetchResult(url=url, final_url=final or url, status=status, body=body)


def test_classify_manifest_wins():
    record = _record("p1", "https://a.io/legal")
    url = "https://a.io/.well-known/ai-plugin.json"
    verdict = classify_accessibility(
        record, [_result(url, 200, MANIFEST_BODY)], parse_manifest(MANIFEST_BODY)
    )
    assert verdict.verdict == VERDICT_ACCESSIBLE
    assert verdict.winning_url == url
    assert verdict.http_status == 200


def test_classify_github_seed():
    record = _record("p2", "https://github.com/dev/plugin")
    url = "https://github.com/.well-known/ai-plugin.json"
    verdict = classify_accessibility(record, [_result(url, 404)], None)
    assert verdict.verdict == VERDICT_HOSTED_GITHUB


def test_classify_google_doc_seed():
    record = _record("p3", "https://drive.google.com/file/d/abc")
    url = "https://drive.google.com/.well-known/ai-plugin.json"
    verdict = classify_accessibility(record, [_result(url, 403)], None)
    assert verdict.verdict == VERDICT_HOSTED_GOOGLE_DOC


def test_classify_openai_protected():
    record = _record("p4", "https://chat.openai.com/dominick.codes")
    url = "https://chat.openai.com/.well-known/ai-plugin.json"
    results = [_result(url, 403), _result(url + "2", 404)]
    assert classify_accessibility(record, results, None).verdict == VERDICT_OPENAI_PROTECTED


def test_classify_hidden_redirect_cross_domain_html():
    record = _record("p5", "https://a.io/legal")
    url = "https://a.io/.well-known/ai-plugin.json"
    result = _result(url, 200, b"<html><body>welcome</body></html>", final="https://ads.example/landing")
    assert classify_accessibility(record, [result], None).verdict == VERDICT_HIDDEN_REDIRECT


def test_classify_2xx_non_manifest_json_is_hidden_redirect():
    record = _record("p6", "https://a.io/legal")
    url = "https://a.io/.well-known/ai-plugin.json"
    result = _result(url, 200, b'{"hello": "world"}')
    assert classify_accessibility(record, [result], None).verdict == VERDICT_HIDDEN_REDIRECT


def test_classify_native_unreachable():
    record = _record("p7", "https://a.io/legal")
    results = [
        _result("https://a.io/.well-known/ai-plugin.json", 404),
        _result("https://a.io/.well-known/", 406),
    ]
    assert classify_accessibility(record, results, None).verdict == VERDICT_NATIVE_UNREACHABLE


def test_classification_is_replayable():
    record = _record("p8", "https://a.io/legal")
    url = "https://a.io/.well-known/ai-plugin.json"
    results = [_result(url, 200, MANIFEST_BODY)]
    manifest = parse_manifest(MANIFEST_BODY)
    assert classify_accessibility(record, results, manifest) == classify_accessibility(record, results, manifest)


def test_manifest_over_body_cap_is_not_parsed_or_counted_as_redirect():
    # Valid JSON that only parses whole: its cut-off prefix is neither a
    # manifest nor evidence of a 2xx page without one.
    site = FixtureSite(host="big.example")
    site.manifest = json.loads(MANIFEST_BODY)
    site.manifest["description_for_model"] = "d" * 300_000
    plan = FixturePlan(profile="t", seed=0)
    plan.sites["big.example"] = site
    corpus = Corpus(snapshot_label="t", created_at="now", records=[_record("big", "https://big.example/legal")])
    server = serve_fixtures(plan, 0)
    try:
        fetcher = Fetcher(per_host_delay_ms=0, retries=0, base_url=server.base_url)
        result = discover_corpus(corpus, fetcher)
    finally:
        server.stop()
    verdict = result.verdicts["big"]
    assert result.manifests == {}
    assert verdict.verdict == VERDICT_NATIVE_UNREACHABLE
    assert "256 KiB" in verdict.evidence
    assert "https://big.example/.well-known/ai-plugin.json" in verdict.evidence


class _ScriptedFetcher:
    """Serves each URL's bytes with a 200, cut at the body cap as Fetcher.fetch
    cuts them; any other URL is a 404. Plugins are discovered one by one."""

    def __init__(self, bodies: dict[str, bytes]):
        self.bodies = bodies

    def fetch(self, url: str) -> FetchResult:
        raw = self.bodies.get(url)
        if raw is None:
            return FetchResult(url=url, final_url=url, status=404)
        return FetchResult(
            url=url, final_url=url, status=200, body=raw[:BODY_PREFIX_LIMIT], truncated=len(raw) > BODY_PREFIX_LIMIT
        )

    def map_concurrent(self, func, items):
        return [func(item) for item in items]


def test_a_truncated_candidate_is_never_the_winner():
    # The origin's manifest is longer than the cap, so it is cut and never
    # parsed, yet its first BODY_PREFIX_LIMIT bytes are exactly the manifest
    # that a later candidate serves whole and that parses.
    manifest = json.loads(MANIFEST_BODY)
    manifest["description_for_model"] = ""
    padding = BODY_PREFIX_LIMIT - len(json.dumps(manifest).encode())
    manifest["description_for_model"] = "d" * padding
    exact = json.dumps(manifest).encode()
    assert len(exact) == BODY_PREFIX_LIMIT
    origin = "https://t.example/.well-known/ai-plugin.json"
    legal = "https://t.example/legal/.well-known/ai-plugin.json"
    fetcher = _ScriptedFetcher({origin: exact + b"  \n", legal: exact})
    corpus = Corpus(snapshot_label="t", created_at="now", records=[_record("t", "https://t.example/legal")])
    result = discover_corpus(corpus, fetcher)
    verdict = result.verdicts["t"]
    assert verdict.verdict == VERDICT_ACCESSIBLE
    assert result.manifests["t"].raw_source == exact
    assert verdict.winning_url == legal
    assert verdict.evidence == f"manifest parsed from {legal}"
    assert verdict.candidates_tried == 3


def test_store_entry_without_usable_seed_sends_no_request():
    # No legal_info_url, or a relative one: nothing to derive candidates
    # from, so no request, yet a verdict so bucket sizes still sum to |S|.
    records = [
        PluginRecord(plugin_id="none", store_title="N", name_for_human_store="N"),
        PluginRecord(plugin_id="rel", store_title="R", name_for_human_store="R", legal_info_url="/legal"),
    ]
    corpus = Corpus(snapshot_label="t", created_at="now", records=records)
    with _serving() as server:
        fetcher = Fetcher(per_host_delay_ms=0, retries=0, base_url=server.url)
        try:
            result = discover_corpus(corpus, fetcher)
        finally:
            fetcher.close()
        assert server.connections == 0 and server.requests == []
    assert result.manifests == {}
    assert {pid: v.verdict for pid, v in result.verdicts.items()} == {
        "none": VERDICT_NATIVE_UNREACHABLE,
        "rel": VERDICT_NATIVE_UNREACHABLE,
    }
    assert "legal_info_url missing" in result.verdicts["none"].evidence
    assert "'/legal'" in result.verdicts["rel"].evidence
    assert all(v.candidates_tried == 0 for v in result.verdicts.values())


_seed_urls = st.one_of(
    st.text(max_size=40),
    st.tuples(st.sampled_from(["http://", "https://", "HTTPS://", "ftp://", "http:"]), st.text(max_size=40)).map("".join),
)


@settings(max_examples=150, deadline=None)
@given(_seed_urls)
def test_generate_candidates_returns_or_raises_invalid_seed(seed):
    try:
        candidates = generate_candidates(seed)
    except InvalidSeed:
        return
    assert candidates and len(set(candidates)) == len(candidates)

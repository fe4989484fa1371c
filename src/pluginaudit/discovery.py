"""Layer 1 - manifest exposure discovery.

From each plugin's known link (normally the legal-info URL) a deterministic
plan of candidate manifest locations is generated: the two well-known
suffixes at the origin, path truncations, file-type suffix removal and
noise-directory removal, every variant again combined with the well-known
suffixes. Candidates are fetched politely and each plugin is classified
into one of six accessibility verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal
from urllib.parse import urlsplit

from .corpus import Corpus, PluginRecord
from .fetch import BODY_PREFIX_LIMIT, Fetcher, FetchResult, TRANSPORT_ERROR
from .manifest import ManifestDocument, ParseError, parse_manifest
from .urlnorm import host_of, is_absolute_http, origin_of, registrable_domain, strip_query_fragment

WELL_KNOWN_SUFFIXES = ("/.well-known/ai-plugin.json", "/.well-known/")
FILE_TYPE_SUFFIXES = (".php", ".txt", ".htm", ".html", ".pdf")
NOISE_DIRECTORIES = ("pages", "us", "en", "static")
TRUNCATION_DEPTHS = (3, 2, 1)

# Derivation tags, in generation-stage order.
WELL_KNOWN_DIRECT = "well_known_direct"
SUFFIX_STRIPPED = "suffix_stripped"
SEGMENT_TRUNCATED = "segment_truncated"
FILE_TYPE_REMOVED = "file_type_removed"
DIRECTORY_SUFFIX_REMOVED = "directory_suffix_removed"

VERDICT_ACCESSIBLE = "accessible"
VERDICT_HIDDEN_REDIRECT = "hidden_redirect"
VERDICT_HOSTED_GITHUB = "hosted_github"
VERDICT_HOSTED_GOOGLE_DOC = "hosted_google_doc"
VERDICT_OPENAI_PROTECTED = "openai_protected"
VERDICT_NATIVE_UNREACHABLE = "native_unreachable"

ALL_VERDICTS = (
    VERDICT_ACCESSIBLE,
    VERDICT_HIDDEN_REDIRECT,
    VERDICT_OPENAI_PROTECTED,
    VERDICT_HOSTED_GOOGLE_DOC,
    VERDICT_HOSTED_GITHUB,
    VERDICT_NATIVE_UNREACHABLE,
)


class InvalidSeed(Exception):
    """Seed URL is relative or has no http(s) scheme."""


@dataclass(frozen=True)
class CandidateUrl:
    url: str
    derivation: str
    generation_rank: int


@dataclass(frozen=True)
class AccessibilityVerdict:
    plugin_id: str
    verdict: Literal[ALL_VERDICTS]
    winning_url: str | None = None
    http_status: int | None = None
    evidence: str = ""
    candidates_tried: int = 0


def _segments(path: str) -> list[str]:
    return [seg for seg in path.split("/") if seg]


def _strip_file_suffix(segments: list[str]) -> list[str] | None:
    if not segments:
        return None
    last = segments[-1]
    for suffix in FILE_TYPE_SUFFIXES:
        if last.lower().endswith(suffix) and len(last) > len(suffix):
            return segments[:-1] + [last[: -len(suffix)]]
    return None


def _drop_noise_dirs(segments: list[str]) -> list[str] | None:
    cleaned = [seg for seg in segments if seg.lower() not in NOISE_DIRECTORIES]
    if cleaned == segments:
        return None
    return cleaned


def generate_candidates(seed_url: str) -> list[CandidateUrl]:
    """Deterministic, deduplicated candidate plan for one seed URL.

    Stage order: origin well-known pair; the full (query/fragment-stripped)
    path; its 3/2/1-segment truncations; the file-type-stripped variant and
    its truncations; noise-directory-removed variants and their truncations.
    Every base path is combined with both well-known suffixes. All
    candidates stay on the seed's origin.
    """
    if not is_absolute_http(seed_url):
        raise InvalidSeed(f"seed URL must be absolute http(s): {seed_url!r}")
    stripped = strip_query_fragment(seed_url)
    origin = origin_of(stripped)
    segments = _segments(urlsplit(stripped).path)

    staged: list[tuple[tuple[str, ...], str]] = [((), WELL_KNOWN_DIRECT)]
    if segments:
        staged.append((tuple(segments), SUFFIX_STRIPPED))
    for depth in TRUNCATION_DEPTHS:
        staged.append((tuple(segments[:depth]), SEGMENT_TRUNCATED))

    unsuffixed = _strip_file_suffix(segments)
    if unsuffixed is not None:
        staged.append((tuple(unsuffixed), FILE_TYPE_REMOVED))
        for depth in TRUNCATION_DEPTHS:
            staged.append((tuple(unsuffixed[:depth]), FILE_TYPE_REMOVED))

    for base in (segments, unsuffixed):
        if base is None:
            continue
        cleaned = _drop_noise_dirs(base)
        if cleaned is None:
            continue
        staged.append((tuple(cleaned), DIRECTORY_SUFFIX_REMOVED))
        for depth in TRUNCATION_DEPTHS:
            staged.append((tuple(cleaned[:depth]), DIRECTORY_SUFFIX_REMOVED))

    candidates: list[CandidateUrl] = []
    seen: set[str] = set()
    rank = 0
    for path_segments, derivation in staged:
        prefix = origin + ("/" + "/".join(path_segments) if path_segments else "")
        for suffix in WELL_KNOWN_SUFFIXES:
            url = prefix + suffix
            if url in seen:
                continue
            seen.add(url)
            candidates.append(CandidateUrl(url=url, derivation=derivation, generation_rank=rank))
            rank += 1
    return candidates


def classify_accessibility(
    plugin: PluginRecord,
    fetch_results: list[tuple[CandidateUrl, FetchResult]],
    manifest: ManifestDocument | None,
) -> AccessibilityVerdict:
    """Six-way verdict for one plugin, first matching rule wins.

    `fetch_results` holds the fetches of the candidates generated from the
    plugin's legal_info_url, so neither is empty. `manifest` is the parse of
    the first 2xx candidate body that is a manifest, or None when no 2xx
    body parsed; nothing is parsed here.

    1. a candidate body parsed as a manifest          -> accessible
    2. seed hosted on GitHub                          -> hosted_github
    3. seed hosted on Google Docs/Drive               -> hosted_google_doc
    4. seed on an openai.com domain, denied statuses  -> openai_protected
    5. any 2xx (none of them a manifest)              -> hidden_redirect
    6. otherwise                                      -> native_unreachable

    A 2xx body cut off at the body cap was never parsed, so it is no
    evidence for rule 5; under rule 6 the evidence names the first one.
    """
    seed = plugin.legal_info_url
    seed_host = host_of(seed)
    seed_domain = registrable_domain(seed_host) if seed_host else ""
    tried = len(fetch_results)

    if manifest is not None:
        for candidate, result in fetch_results:
            if result.ok and result.body == manifest.raw_source:
                return AccessibilityVerdict(
                    plugin_id=plugin.plugin_id,
                    verdict=VERDICT_ACCESSIBLE,
                    winning_url=candidate.url,
                    http_status=result.status,
                    evidence=f"manifest parsed from {result.final_url}",
                    candidates_tried=tried,
                )

    if seed_host == "github.com" or seed_host.endswith(".github.com") or seed_host.endswith(".githubusercontent.com"):
        return AccessibilityVerdict(
            plugin_id=plugin.plugin_id,
            verdict=VERDICT_HOSTED_GITHUB,
            evidence=f"seed hosted on GitHub: {seed}",
            candidates_tried=tried,
        )
    if seed_host in ("docs.google.com", "drive.google.com"):
        return AccessibilityVerdict(
            plugin_id=plugin.plugin_id,
            verdict=VERDICT_HOSTED_GOOGLE_DOC,
            evidence=f"seed hosted on Google Docs: {seed}",
            candidates_tried=tried,
        )
    statuses = [r.status for _, r in fetch_results]
    if (seed_host == "chat.openai.com" or seed_host == "openai.com" or seed_host.endswith(".openai.com")) and all(
        s in (403, 404) for s in statuses
    ):
        return AccessibilityVerdict(
            plugin_id=plugin.plugin_id,
            verdict=VERDICT_OPENAI_PROTECTED,
            http_status=statuses[0],
            evidence=f"OpenAI-protected domain returned {sorted(set(statuses))}",
            candidates_tried=tried,
        )

    for candidate, result in fetch_results:
        if not result.ok or result.truncated:
            continue
        final_host = host_of(result.final_url)
        left_domain = bool(final_host) and seed_domain and registrable_domain(final_host) != seed_domain
        where = result.final_url if left_domain else candidate.url
        return AccessibilityVerdict(
            plugin_id=plugin.plugin_id,
            verdict=VERDICT_HIDDEN_REDIRECT,
            winning_url=None,
            http_status=result.status,
            evidence=f"2xx without manifest at {where}",
            candidates_tried=tried,
        )

    too_large = [r.final_url for _, r in fetch_results if r.ok and r.truncated]
    if too_large:
        evidence = f"2xx body over the {BODY_PREFIX_LIMIT // 1024} KiB cap, not parsed: {too_large[0]}"
    else:
        detail = sorted({s for s in statuses if s != TRANSPORT_ERROR}) or ["transport failure"]
        evidence = f"all {tried} candidates denied: {detail}"
    return AccessibilityVerdict(
        plugin_id=plugin.plugin_id,
        verdict=VERDICT_NATIVE_UNREACHABLE,
        http_status=statuses[0] if statuses[0] != TRANSPORT_ERROR else None,
        evidence=evidence,
        candidates_tried=tried,
    )


@dataclass
class DiscoveryResult:
    verdicts: dict[str, AccessibilityVerdict] = field(default_factory=dict)
    manifests: dict[str, ManifestDocument] = field(default_factory=dict)


def _discover_one(record: PluginRecord, fetcher: Fetcher) -> tuple[str, AccessibilityVerdict, ManifestDocument | None]:
    seed_problem = None
    candidates: list[CandidateUrl] = []
    if not record.legal_info_url:
        seed_problem = "no seed URL (legal_info_url missing)"
    else:
        try:
            candidates = generate_candidates(record.legal_info_url)
        except InvalidSeed as exc:
            seed_problem = str(exc)
    if seed_problem is not None:
        # No probeable location; still a verdict so bucket sizes sum to |S|.
        verdict = AccessibilityVerdict(
            plugin_id=record.plugin_id,
            verdict=VERDICT_NATIVE_UNREACHABLE,
            evidence=seed_problem,
            candidates_tried=0,
        )
        return record.plugin_id, verdict, None

    results: list[tuple[CandidateUrl, FetchResult]] = []
    manifest: ManifestDocument | None = None
    for candidate in candidates:
        result = fetcher.fetch(candidate.url)
        results.append((candidate, result))
        if not result.ok or result.truncated:
            continue
        try:
            manifest = parse_manifest(result.body)
        except ParseError:
            continue
        break
    verdict = classify_accessibility(record, results, manifest)
    return record.plugin_id, verdict, manifest


def discover_corpus(corpus: Corpus, fetcher: Fetcher) -> DiscoveryResult:
    """Run candidate generation + fetching + classification for a corpus.

    Fetching is concurrent across plugins (the fetcher serializes per host);
    classification is pure. Each 2xx candidate body is parsed once, and the
    accessible plugins' manifests are returned parsed. Plugins without a
    usable seed are classified native_unreachable with the reason as
    evidence.
    """
    out = DiscoveryResult()
    rows = fetcher.map_concurrent(lambda r: _discover_one(r, fetcher), list(corpus.records))
    for plugin_id, verdict, manifest in rows:
        out.verdicts[plugin_id] = verdict
        if manifest is not None:
            out.manifests[plugin_id] = manifest
    return out

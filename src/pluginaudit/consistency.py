"""Layer 3 - metadata consistency and integrity analysis.

Compares store-facing data against manifest data (names, descriptions,
legal links), detects manifest sharing across distinct listings, flags
rank-gaming quantifier prefixes, and aggregates discrepancies per
developer. All detectors are pure functions of corpus + manifests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Literal

from .corpus import Corpus, PluginRecord
from .manifest import ManifestDocument
from .urlnorm import normalize_url_loose

KIND_INCONSISTENT_NAME = "inconsistent_name"
KIND_DIFFERENT_DESCRIPTION = "different_description"
KIND_MISMATCHED_LEGAL_URL = "mismatched_legal_url"
KIND_SHARED_MANIFEST_GROUP = "shared_manifest_group"
KIND_QUANTIFIER_PREFIX = "quantifier_prefix"

PAIRWISE_KINDS = (KIND_INCONSISTENT_NAME, KIND_DIFFERENT_DESCRIPTION, KIND_MISMATCHED_LEGAL_URL)
ALL_KINDS = PAIRWISE_KINDS + (KIND_SHARED_MANIFEST_GROUP, KIND_QUANTIFIER_PREFIX)

UNKNOWN_DEVELOPER = "unknown"

# Leading tokens treated as meaningless ranking prefixes; a name is only
# flagged when the remainder also exists as another plugin's store name.
DEFAULT_PREFIX_LEXICON = ("a", "an", "aaa")

_WHITESPACE_RE = re.compile(r"\s+", flags=re.UNICODE)


@dataclass(frozen=True)
class ConsistencyFinding:
    plugin_id: str
    kind: Literal[ALL_KINDS]
    evidence: dict

    def members(self) -> list[str]:
        return list(self.evidence.get("members", []))


def normalize_text(value: str) -> str:
    return _WHITESPACE_RE.sub(" ", value).strip().casefold()


def consistency_match(d_api: str, d_db: str) -> bool:
    """Normalized match: trim, collapse internal whitespace, case-fold."""
    return normalize_text(d_api) == normalize_text(d_db)


def strict_match(d_api: str, d_db: str) -> bool:
    return d_api == d_db


def _model_name_tolerated(name_for_human: str, name_for_model: str) -> bool:
    """Model names are conventionally terser; a model name equal to the
    human name with spaces removed (or underscored) is not an issue."""
    human = normalize_text(name_for_human)
    model = normalize_text(name_for_model)
    if human == model:
        return True
    compact = human.replace(" ", "")
    return model.replace("_", "").replace("-", "") == compact


def detect_inconsistencies(record: PluginRecord, manifest: ManifestDocument) -> list[ConsistencyFinding]:
    """Pairwise findings for one plugin; at most one finding per kind so
    findings-by-kind equals plugins-with-that-kind."""
    findings: list[ConsistencyFinding] = []

    name_issues = []
    if not consistency_match(record.store_title, manifest.name_for_human):
        name_issues.append(
            {"store": record.store_title, "manifest": manifest.name_for_human, "pair": "store_title/name_for_human"}
        )
    if not _model_name_tolerated(manifest.name_for_human, manifest.name_for_model):
        name_issues.append(
            {
                "store": manifest.name_for_human,
                "manifest": manifest.name_for_model,
                "pair": "name_for_human/name_for_model",
            }
        )
    if name_issues:
        findings.append(
            ConsistencyFinding(
                plugin_id=record.plugin_id,
                kind=KIND_INCONSISTENT_NAME,
                evidence={"mismatches": name_issues, "strict": [not strict_match(m["store"], m["manifest"]) for m in name_issues]},
            )
        )

    if record.store_description and manifest.description_for_human:
        if not consistency_match(record.store_description, manifest.description_for_human):
            findings.append(
                ConsistencyFinding(
                    plugin_id=record.plugin_id,
                    kind=KIND_DIFFERENT_DESCRIPTION,
                    evidence={"store": record.store_description, "manifest": manifest.description_for_human},
                )
            )

    if record.legal_info_url and manifest.legal_info_url:
        if normalize_url_loose(record.legal_info_url) != normalize_url_loose(manifest.legal_info_url):
            findings.append(
                ConsistencyFinding(
                    plugin_id=record.plugin_id,
                    kind=KIND_MISMATCHED_LEGAL_URL,
                    evidence={"store": record.legal_info_url, "manifest": manifest.legal_info_url},
                )
            )
    return findings


def detect_shared_manifests(manifests: dict[str, ManifestDocument]) -> list[ConsistencyFinding]:
    """Group plugins by manifest fingerprint (byte-identical after
    canonicalization) and by colliding name_for_model. A name collision
    whose member set equals a fingerprint group is the same group observed
    twice and is not re-emitted."""
    by_fingerprint: dict[str, list[str]] = {}
    by_model_name: dict[str, list[str]] = {}
    for plugin_id in sorted(manifests):
        manifest = manifests[plugin_id]
        by_fingerprint.setdefault(manifest.fingerprint, []).append(plugin_id)
        by_model_name.setdefault(manifest.name_for_model, []).append(plugin_id)

    findings: list[ConsistencyFinding] = []
    fingerprint_groups: set[tuple[str, ...]] = set()
    for digest in sorted(by_fingerprint):
        members = by_fingerprint[digest]
        if len(members) < 2:
            continue
        fingerprint_groups.add(tuple(members))
        findings.append(
            ConsistencyFinding(
                plugin_id=members[0],
                kind=KIND_SHARED_MANIFEST_GROUP,
                evidence={"grouping": "fingerprint", "fingerprint": digest, "members": members},
            )
        )
    for model_name in sorted(by_model_name):
        members = by_model_name[model_name]
        if len(members) < 2 or tuple(members) in fingerprint_groups:
            continue
        findings.append(
            ConsistencyFinding(
                plugin_id=members[0],
                kind=KIND_SHARED_MANIFEST_GROUP,
                evidence={"grouping": "name_for_model", "name_for_model": model_name, "members": members},
            )
        )
    return findings


def detect_rank_gaming(names: list[tuple[str, str]]) -> list[ConsistencyFinding]:
    """Flag store names that are another plugin's name behind a meaningless
    leading quantifier ("A Digital Pet" next to "Digital Pet")."""
    by_normalized: dict[str, list[str]] = {}
    for plugin_id, name in names:
        by_normalized.setdefault(normalize_text(name), []).append(plugin_id)

    def is_prefix_token(token: str) -> bool:
        folded = token.casefold()
        return folded in DEFAULT_PREFIX_LEXICON or (len(folded) <= 3 and set(folded) == {"a"})

    findings: list[ConsistencyFinding] = []
    for plugin_id, name in names:
        parts = name.split(None, 1)
        if len(parts) != 2 or not is_prefix_token(parts[0]):
            continue
        remainder = normalize_text(parts[1])
        twins = [other for other in by_normalized.get(remainder, []) if other != plugin_id]
        if twins:
            findings.append(
                ConsistencyFinding(
                    plugin_id=plugin_id,
                    kind=KIND_QUANTIFIER_PREFIX,
                    evidence={"name": name, "prefix": parts[0], "stripped": parts[1], "twins": sorted(twins)},
                )
            )
    return findings


def aggregate_discrepancies(findings: list[ConsistencyFinding], corpus: Corpus) -> dict[str, int]:
    """Count findings per developer domain; unknown developers binned
    under "unknown". Every finding is counted exactly once, group findings
    under their representative plugin's developer."""
    developers = {r.plugin_id: (r.developer_domain or UNKNOWN_DEVELOPER) for r in corpus.records}
    per_developer: dict[str, int] = {}
    for finding in findings:
        developer = developers.get(finding.plugin_id, UNKNOWN_DEVELOPER)
        per_developer[developer] = per_developer.get(developer, 0) + 1
    return per_developer


def analyze_consistency(corpus: Corpus, manifests: dict[str, ManifestDocument]) -> list[ConsistencyFinding]:
    """Full Layer-3 pass over every plugin with a discovered manifest."""
    records = corpus.by_id()
    findings: list[ConsistencyFinding] = []
    for plugin_id in sorted(manifests):
        findings.extend(detect_inconsistencies(records[plugin_id], manifests[plugin_id]))
    findings.extend(detect_shared_manifests(manifests))
    store_names = [(r.plugin_id, r.store_title) for r in corpus.records]
    findings.extend(detect_rank_gaming(store_names))
    return findings


def count_strict_only(corpus: Corpus, manifests: dict[str, ManifestDocument]) -> int:
    """Pairs that differ byte-for-byte but match after normalization -
    mismatches that strict mode would add on top of the normalized counts."""
    records = corpus.by_id()
    strict_only = 0
    for plugin_id in sorted(manifests):
        record, manifest = records[plugin_id], manifests[plugin_id]
        pairs = [(record.store_title, manifest.name_for_human)]
        if record.store_description and manifest.description_for_human:
            pairs.append((record.store_description, manifest.description_for_human))
        for left, right in pairs:
            if not strict_match(left, right) and consistency_match(left, right):
                strict_only += 1
    return strict_only

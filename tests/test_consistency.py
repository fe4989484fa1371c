from __future__ import annotations

import json

from pluginaudit.consistency import (
    ConsistencyFinding,
    KIND_DIFFERENT_DESCRIPTION,
    KIND_INCONSISTENT_NAME,
    KIND_MISMATCHED_LEGAL_URL,
    KIND_QUANTIFIER_PREFIX,
    KIND_SHARED_MANIFEST_GROUP,
    aggregate_discrepancies,
    analyze_consistency,
    consistency_match,
    count_strict_only,
    detect_inconsistencies,
    detect_rank_gaming,
    detect_shared_manifests,
    strict_match,
)
from pluginaudit.corpus import Corpus, PluginRecord
from pluginaudit.manifest import ParseError, parse_manifest
from pluginaudit.urlnorm import normalize_url_loose


def _record(pid="p1", title="Digital Pet", legal="https://a.io/legal", description=None, developer="a.io"):
    return PluginRecord(
        plugin_id=pid,
        store_title=title,
        name_for_human_store=title,
        legal_info_url=legal,
        store_description=description,
        developer_domain=developer,
    )


def _manifest(name="Digital Pet", model=None, description=None, legal="https://a.io/legal", extra=""):
    doc = {
        "name_for_human": name,
        "name_for_model": model or "".join(ch for ch in name if ch.isalnum()),
        "description_for_model": "d" + extra,
        "api": {"type": "openapi", "url": "https://a.io/openapi.json"},
        "legal_info_url": legal,
    }
    if description is not None:
        doc["description_for_human"] = description
    return parse_manifest(json.dumps(doc).encode())


def test_match_identity_and_prefix_difference():
    assert consistency_match("Digital Pet", "Digital Pet") is True
    assert consistency_match("A Digital Pet", "Digital Pet") is False


def test_match_normalizes_whitespace_and_case():
    # NBSP and doubled spaces collapse; strict equality still fails.
    left, right = "  MixerBox \u00A0OnePlayer", "mixerbox oneplayer"
    assert consistency_match(left, right) is True
    assert strict_match(left, right) is False


def test_match_is_reflexive_and_symmetric():
    values = ["a  B", "A b", " weird\u00A0Case ", ""]
    for v in values:
        assert consistency_match(v, v)
        for w in values:
            assert consistency_match(v, w) == consistency_match(w, v)


def test_fully_matching_pair_yields_no_findings():
    assert detect_inconsistencies(_record(), _manifest()) == []


def test_name_mismatch_flagged_once():
    findings = detect_inconsistencies(_record(title="A Digital Pet"), _manifest(name="Digital Pet"))
    assert [f.kind for f in findings] == [KIND_INCONSISTENT_NAME]
    evidence = findings[0].evidence["mismatches"][0]
    assert evidence["store"] == "A Digital Pet" and evidence["manifest"] == "Digital Pet"


def test_model_name_with_spaces_removed_not_flagged():
    findings = detect_inconsistencies(_record(), _manifest(model="DigitalPet"))
    assert findings == []


def test_model_name_equal_to_the_human_name_not_flagged():
    assert detect_inconsistencies(_record(), _manifest(model="digital  PET")) == []


def test_model_name_divergence_flagged():
    findings = detect_inconsistencies(_record(), _manifest(model="PetBot3000"))
    assert [f.kind for f in findings] == [KIND_INCONSISTENT_NAME]


def test_description_mismatch():
    record = _record(description="Fast weather lookups.")
    manifest = _manifest(description="Completely different text.")
    findings = detect_inconsistencies(record, manifest)
    assert [f.kind for f in findings] == [KIND_DIFFERENT_DESCRIPTION]
    # Absent on either side: nothing to compare.
    assert detect_inconsistencies(_record(), manifest) == []


def test_legal_url_normalization_suppresses_trivial_mismatch():
    record = _record(legal="https://a.io/legal")
    assert detect_inconsistencies(record, _manifest(legal="http://a.io/legal/")) == []
    findings = detect_inconsistencies(record, _manifest(legal="https://a.io/terms"))
    assert [f.kind for f in findings] == [KIND_MISMATCHED_LEGAL_URL]
    findings = detect_inconsistencies(record, _manifest(legal="https://[::1/legal"))  # cannot be split
    assert [f.kind for f in findings] == [KIND_MISMATCHED_LEGAL_URL]


def test_loose_url_form_of_blank_and_schemeless_urls():
    assert normalize_url_loose("") == normalize_url_loose("  ") == ""
    assert normalize_url_loose("A.io/legal/") == normalize_url_loose("https://a.io/legal") == "a.io/legal"
    assert normalize_url_loose(" HTTPS://[::1/Legal ") == "https://[::1/legal"


def test_shared_manifest_group_of_17():
    body = json.dumps(
        {
            "name_for_human": "MixerBox OnePlayer",
            "name_for_model": "MixerBoxOnePlayer",
            "description_for_model": "d",
            "api": {"type": "openapi", "url": "https://mixerbox.example/openapi.json"},
        }
    ).encode()
    manifests = {f"mb{i:02d}": parse_manifest(body) for i in range(17)}
    findings = detect_shared_manifests(manifests)
    assert len(findings) == 1
    assert findings[0].kind == KIND_SHARED_MANIFEST_GROUP
    assert len(findings[0].members()) == 17
    assert findings[0].evidence["grouping"] == "fingerprint"


def test_all_distinct_manifests_no_groups():
    manifests = {f"p{i}": _manifest(name=f"Plugin {i}") for i in range(5)}
    assert detect_shared_manifests(manifests) == []


def test_name_for_model_collision_with_distinct_bodies():
    manifests = {
        "p1": _manifest(name="Alpha Tool", model="shared_model"),
        "p2": _manifest(name="Beta Tool", model="shared_model", extra="x"),
    }
    findings = detect_shared_manifests(manifests)
    assert len(findings) == 1
    assert findings[0].evidence["grouping"] == "name_for_model"
    assert findings[0].members() == ["p1", "p2"]


def test_each_plugin_in_at_most_one_fingerprint_group():
    body_a = json.dumps({"name_for_human": "A", "name_for_model": "a", "description_for_model": "d", "api": {"url": "https://a.io/x"}}).encode()
    body_b = json.dumps({"name_for_human": "B", "name_for_model": "b", "description_for_model": "d", "api": {"url": "https://b.io/x"}}).encode()
    manifests = {
        "a1": parse_manifest(body_a),
        "a2": parse_manifest(body_a),
        "b1": parse_manifest(body_b),
        "b2": parse_manifest(body_b),
    }
    findings = [f for f in detect_shared_manifests(manifests) if f.evidence["grouping"] == "fingerprint"]
    seen: set[str] = set()
    for finding in findings:
        members = set(finding.members())
        assert not members & seen
        seen |= members


def test_rank_gaming_requires_stripped_twin():
    names = [("p1", "Digital Pet"), ("p2", "A Digital Pet"), ("p3", "Avocado Helper")]
    findings = detect_rank_gaming(names)
    assert [f.plugin_id for f in findings] == ["p2"]
    assert findings[0].evidence["twins"] == ["p1"]
    assert detect_rank_gaming([]) == []


def test_rank_gaming_repeated_a_prefix():
    names = [("p1", "Weather Now"), ("p2", "AAA Weather Now"), ("p3", "AA Weather Now")]
    flagged = {f.plugin_id for f in detect_rank_gaming(names)}
    assert flagged == {"p2", "p3"}


def _corpus(records):
    return Corpus(snapshot_label="t", created_at="now", records=records)


def test_aggregate_counts_per_developer():
    findings = [
        ConsistencyFinding(plugin_id="p1", kind=KIND_INCONSISTENT_NAME, evidence={}),
        ConsistencyFinding(plugin_id="p2", kind=KIND_INCONSISTENT_NAME, evidence={}),
        ConsistencyFinding(plugin_id="p3", kind=KIND_DIFFERENT_DESCRIPTION, evidence={}),
        ConsistencyFinding(plugin_id="p4", kind=KIND_MISMATCHED_LEGAL_URL, evidence={}),
        ConsistencyFinding(plugin_id="p5", kind=KIND_MISMATCHED_LEGAL_URL, evidence={}),
    ]
    records = [
        _record(pid="p1", developer="dev-a.io"),
        _record(pid="p2", developer="dev-a.io"),
        _record(pid="p3", developer="dev-a.io"),
        _record(pid="p4", developer="dev-b.io"),
        _record(pid="p5", developer="dev-b.io"),
    ]
    per_developer = aggregate_discrepancies(findings, _corpus(records))
    assert per_developer == {"dev-a.io": 3, "dev-b.io": 2}
    assert sum(per_developer.values()) == len(findings)


def test_aggregate_unknown_developer_binned():
    findings = [ConsistencyFinding(plugin_id="ghost", kind=KIND_INCONSISTENT_NAME, evidence={})]
    assert aggregate_discrepancies(findings, _corpus([])) == {"unknown": 1}
    assert aggregate_discrepancies([], _corpus([])) == {}


def test_analyze_consistency_is_deterministic():
    records = [
        _record(pid="p1", title="A Digital Pet"),
        _record(pid="p2", title="Digital Pet"),
    ]
    manifests = {"p1": _manifest(name="Digital Pet"), "p2": _manifest(name="Digital Pet")}
    corpus = _corpus(records)
    first = analyze_consistency(corpus, manifests)
    second = analyze_consistency(corpus, manifests)
    assert first == second
    kinds = sorted(f.kind for f in first)
    assert KIND_QUANTIFIER_PREFIX in kinds


def test_manifest_nested_to_the_parse_limit_does_not_abort_consistency():
    # Find the deepest value parse_manifest accepts from this frame;
    # consistency runs on a deeper stack and must not parse it again.
    head = json.dumps(
        {
            "name_for_human": "Digital Pet",
            "name_for_model": "DigitalPet",
            "description_for_model": "d",
            "api": {"type": "openapi", "url": "https://a.io/openapi.json"},
        }
    )[:-1]

    def raw(depth: int) -> bytes:
        return (head + ', "x": ' + "[" * depth + "]" * depth + "}").encode()

    accepted, rejected = 1, 1100
    while rejected - accepted > 1:
        depth = (accepted + rejected) // 2
        try:
            parse_manifest(raw(depth))
            accepted = depth
        except ParseError:
            rejected = depth
    manifests = {"p1": parse_manifest(raw(accepted)), "p2": parse_manifest(raw(accepted))}
    findings = analyze_consistency(_corpus([_record(pid="p1"), _record(pid="p2")]), manifests)
    assert KIND_SHARED_MANIFEST_GROUP in {f.kind for f in findings}


def test_count_strict_only():
    record = _record(title="Digital  Pet")  # doubled space: normalized-equal only
    corpus = _corpus([record])
    assert count_strict_only(corpus, {"p1": _manifest(name="Digital Pet")}) == 1
    assert count_strict_only(corpus, {"p1": _manifest(name="Digital  Pet")}) == 0


def test_shared_manifest_brand_carries_its_developer_count(paper_run):
    # 16 name mismatches plus the one shared-manifest group, all under the
    # brand's developer domain.
    assert paper_run.findings["per_developer"]["mixerbox.example"] == 17

"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 2, 3, 7 and 8 run against the session-scoped paper-tables
pipeline (see conftest), criteria 4 and 9 additionally against the revisit
pipeline; the rest are self-contained.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter

from pluginaudit import report as report_mod
from pluginaudit.corpus import make_plugin_id
from pluginaudit.discovery import generate_candidates
from pluginaudit.fixture import PROFILE_PAPER_TABLES, PROFILE_REVISIT, expected_labels
from pluginaudit.probe import CASE1, CASE2, CASE3, CASE4, CASE5, classify_case
from pluginaudit.scoperisk import ScopeClassifier, categorize_corpus, cosine_similarity, make_scope_document
from pluginaudit.urlnorm import host_of, registrable_domain

from test_discovery import TERMS_PHP_ORACLE, _random_seed_url
from test_scoperisk import FROZEN_COS_12, ORACLE_DOC1, QUOTED_SCOPE_TABLE, _classifier_corpus, _toy_docs, _vectorize


# The paper's reference tables, which the paper-tables fixture reproduces.
PAPER_ACCESSIBILITY = {
    "accessible": 373,
    "hidden_redirect": 104,
    "openai_protected": 12,
    "hosted_google_doc": 6,
    "hosted_github": 19,
    "native_unreachable": 518,
}
PAPER_CASES = {"case1": 8, "case2": 74, "case3": 24, "case4": 141, "case5": 98}
PAPER_FAILURES = {"lack_authorization": 58, "client_error": 66, "rate_limited": 49}
PAPER_INCONSISTENCIES = {"inconsistent_name": 34, "different_description": 8, "mismatched_legal_url": 27}
# (plugins, plugins whose probe succeeded) per token family.
PAPER_TOKEN_FAMILIES = {"no_token": (239, 141), "oauth": (70, 27), "bearer": (34, 5)}


def _pass(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_token_case_mapping():
    started = time.monotonic()
    # The published five-case table, spelled out per (Tr, Tv, O) triple;
    # the "high risk of data leakage" row is exactly (1,1,1).
    expected = {
        (1, 1, 1): CASE1,
        (1, 1, 0): CASE2,
        (1, 0, 0): CASE2,
        (1, 0, 1): CASE3,
        (0, 1, 1): CASE4,
        (0, 0, 1): CASE4,
        (0, 1, 0): CASE5,
        (0, 0, 0): CASE5,
    }
    assert len(expected) == 8
    for triple, case in expected.items():
        assert classify_case(*triple) == case, triple
    assert time.monotonic() - started < 1.0
    _pass(1, "token-case mapping")


def test_criterion_2_paper_tables_fixture_run(paper_run):
    report = paper_run.report
    assert report["accessibility_table"] == PAPER_ACCESSIBILITY
    assert report["case_table"] == PAPER_CASES
    assert report["failure_table"] == PAPER_FAILURES
    for kind, count in PAPER_INCONSISTENCIES.items():
        assert report["consistency_table"][kind] == count
    assert report["shared_manifest_group_sizes"] == [17]
    groups = [f for f in paper_run.findings["findings"] if f["kind"] == "shared_manifest_group"]
    assert len(groups) == 1 and len(groups[0]["evidence"]["members"]) == 17
    assert paper_run.elapsed_seconds < 60.0
    _pass(2, f"paper-tables fixture run ({paper_run.elapsed_seconds:.1f}s)")


def test_criterion_3_token_type_success_rates(paper_run):
    table = paper_run.report["token_type_summary"]
    for family, counts in PAPER_TOKEN_FAMILIES.items():
        assert (table[family]["total"], table[family]["succeeded"]) == counts
    rendered = {family: float(table[family]["success_rate"]) for family in ("no_token", "oauth", "bearer")}
    assert rendered == {"no_token": 59.0, "oauth": 38.6, "bearer": 14.7}
    for family, published in (("no_token", 58.9), ("oauth", 38.6), ("bearer", 14.7)):
        assert abs(rendered[family] - published) <= 0.2
    _pass(3, "token-type success rates")


def test_criterion_4_remediation_diff(paper_run, revisit_run):
    before = report_mod.load_report(paper_run.out_dir / "report.json")
    after = report_mod.load_report(revisit_run.out_dir / "report.json")
    diff = report_mod.diff_reports(before, after)
    changes = {m["name"]: float(m["change_pct"]) for m in diff.metrics[:5]}
    published = {
        "file_leakage": -23.4,
        "inconsistent_plugins": -11.6,
        "no_token_valid": -36.9,
        "oauth_valid": -37.03,
        "bearer_valid": -40.00,
    }
    for name, value in published.items():
        assert abs(changes[name] - value) <= 0.1, name
    _pass(4, "remediation diff")


def test_criterion_5_path_generator_properties():
    urls = [c.url for c in generate_candidates("https://a.io/en/terms.php")]
    assert urls == TERMS_PHP_ORACLE
    rng = random.Random(20260810)
    for _ in range(200):
        seed = _random_seed_url(rng)
        candidates = generate_candidates(seed)
        all_urls = [c.url for c in candidates]
        assert len(all_urls) == len(set(all_urls))
        assert all_urls == [c.url for c in generate_candidates(seed)]
        domain = registrable_domain(host_of(seed))
        assert all(registrable_domain(host_of(u)) == domain for u in all_urls)
        assert all_urls[0].endswith("/.well-known/ai-plugin.json") and candidates[0].generation_rank == 0
        assert all_urls[1].endswith("/.well-known/") and candidates[1].generation_rank == 1
    _pass(5, "path generator properties")


def test_criterion_6_scope_classifier():
    classifier = ScopeClassifier(_classifier_corpus())
    for raw, expected in QUOTED_SCOPE_TABLE:
        assert classifier.categorize(make_scope_document("x", raw)) == expected, raw

    v1, v2, v3 = _vectorize(_toy_docs())
    assert math.isclose(v1.weights["read"], ORACLE_DOC1["read"], abs_tol=1e-9)
    assert math.isclose(v1.weights["write"], ORACLE_DOC1["write"], abs_tol=1e-9)
    assert math.isclose(cosine_similarity(v1, v2), FROZEN_COS_12, abs_tol=1e-9)
    assert cosine_similarity(v1, v3) == 0.0

    vocab = ["all", "read", "write", "email", "profile", "openai", "project", "actions", "alpha", "beta"]
    rng = random.Random(6)
    for _ in range(100):
        docs = [
            make_scope_document(f"d{d}", " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6))))
            for d in range(rng.randint(2, 7))
        ]
        scale = rng.randint(2, 4)
        scaled = [make_scope_document(d.plugin_id, " ".join(list(d.tokens) * scale)) for d in docs]
        assert categorize_corpus(docs) == categorize_corpus(scaled)
    _pass(6, "scope classifier")


def test_criterion_7_probe_safety_invariant(paper_run):
    transcript = paper_run.outcomes["transcript"]
    assert transcript, "probe transcript must be recorded"
    per_endpoint: dict[tuple[str, str], int] = {}
    for entry in transcript:
        if entry["token_variant"] == "no_token":
            assert "Authorization" not in entry["headers"], entry["url"]
        key = (entry["plugin_id"], entry["url"])
        per_endpoint[key] = per_endpoint.get(key, 0) + entry["attempts"]
    # Per endpoint: at most one request per token variant (3), each retried
    # at most `retries` times, and never beyond the per-plugin budget of 12.
    per_endpoint_cap = min(12, 3 * (1 + paper_run.retries))
    assert max(per_endpoint.values()) <= per_endpoint_cap
    per_plugin: dict[str, int] = {}
    for entry in transcript:
        per_plugin[entry["plugin_id"]] = per_plugin.get(entry["plugin_id"], 0) + 1
    assert max(per_plugin.values()) <= 12
    _pass(7, "probe safety invariant")


def test_criterion_8_cached_rerun_determinism(paper_run):
    assert paper_run.report_bytes_first == paper_run.report_bytes_second
    assert paper_run.report_bytes_first.endswith(b"\n")
    _pass(8, "cached rerun determinism")


def _dossier_mismatches(run, profile: str) -> list[str]:
    labels = {make_plugin_id(*key): (key, value) for key, value in expected_labels(profile).items()}
    assert sorted(labels) == sorted(run.report["per_plugin"])
    mismatches = []
    for plugin_id, dossier in run.report["per_plugin"].items():
        key, expected = labels[plugin_id]
        got = {name: dossier.get(name) for name in expected if name != "skip_reason_kind"}
        got["skip_reason_kind"] = (dossier["probe_skip_reason"] or "").split(":", 1)[0] or None
        if got != expected:
            mismatches.append(f"{key}: expected {expected}, got {got}")
    return mismatches


def test_criterion_9_every_dossier_matches_its_fixture_labels(paper_run, revisit_run):
    assert _dossier_mismatches(paper_run, PROFILE_PAPER_TABLES) == []
    assert _dossier_mismatches(revisit_run, PROFILE_REVISIT) == []
    _pass(9, "per-plugin dossiers match the fixture labels")


def test_paper_labels_sum_to_the_reference_tables():
    labels = list(expected_labels(PROFILE_PAPER_TABLES).values())
    assert Counter(label["verdict"] for label in labels) == PAPER_ACCESSIBILITY
    assert Counter(label["case"] for label in labels if label["case"]) == PAPER_CASES
    causes = Counter(cause for label in labels if label["case"] in ("case2", "case5") for cause in label["failure_causes"])
    assert causes == PAPER_FAILURES
    findings = Counter(kind for label in labels for kind in label["finding_kinds"])
    assert {kind: findings[kind] for kind in PAPER_INCONSISTENCIES} == PAPER_INCONSISTENCIES
    families = {
        family: (
            sum(label["auth_family"] == family for label in labels),
            sum(label["auth_family"] == family and label["succeeded"] for label in labels),
        )
        for family in PAPER_TOKEN_FAMILIES
    }
    assert families == PAPER_TOKEN_FAMILIES

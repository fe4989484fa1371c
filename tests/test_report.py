from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pluginaudit.consistency import ConsistencyFinding, KIND_INCONSISTENT_NAME
from pluginaudit.corpus import Corpus, PluginRecord
from pluginaudit.discovery import (
    AccessibilityVerdict,
    VERDICT_ACCESSIBLE,
    VERDICT_NATIVE_UNREACHABLE,
)
from pluginaudit.probe import CASE1, CASE2, CASE3, CASE4, CASE5, PluginProbeResult, ProbeRunResult
from pluginaudit.report import (
    AuditReport,
    ReportError,
    build_report,
    canonical_json_bytes,
    canonical_json_chunks,
    diff_reports,
    load_report,
    render_diff,
    render_report,
    tables,
    write_report,
)


def _record(pid: str) -> PluginRecord:
    return PluginRecord(
        plugin_id=pid,
        store_title=pid,
        name_for_human_store=pid,
        legal_info_url=f"https://{pid}.example/legal",
        developer_domain=f"{pid}.example",
    )


def _small_inputs():
    corpus = Corpus(snapshot_label="t", created_at="now", records=[_record("p1"), _record("p2"), _record("p3")])
    verdicts = {
        "p1": AccessibilityVerdict(plugin_id="p1", verdict=VERDICT_ACCESSIBLE, winning_url="u", http_status=200),
        "p2": AccessibilityVerdict(plugin_id="p2", verdict=VERDICT_ACCESSIBLE, winning_url="u", http_status=200),
        "p3": AccessibilityVerdict(plugin_id="p3", verdict=VERDICT_NATIVE_UNREACHABLE),
    }
    run = ProbeRunResult()
    run.results["p1"] = PluginProbeResult(auth_family="no_token", plugin_case=CASE4, succeeded=True, failure_causes=[])
    run.results["p2"] = PluginProbeResult(
        auth_family="oauth",
        plugin_case=CASE2,
        succeeded=False,
        failure_causes=["lack_authorization"],
    )
    findings = [ConsistencyFinding(plugin_id="p2", kind=KIND_INCONSISTENT_NAME, evidence={})]
    scopes = [("p2", "global_access")]
    return corpus, verdicts, run, findings, scopes


def test_build_report_tables_sum():
    corpus, verdicts, run, findings, scopes = _small_inputs()
    report = build_report(corpus, verdicts, run, findings, scopes)
    doc = report.doc
    assert sum(doc["accessibility_table"].values()) == len(corpus) == doc["corpus_size"]
    assert sum(doc["case_table"].values()) == doc["probed_count"] == 2
    assert doc["case_table"][CASE4] == 1 and doc["case_table"][CASE2] == 1
    assert doc["failure_table"]["lack_authorization"] == 1
    assert doc["consistency_table"][KIND_INCONSISTENT_NAME] == 1
    assert doc["metrics"] == {
        "file_leakage": 2,
        "inconsistent_plugins": 1,
        "no_token_valid": 1,
        "oauth_valid": 0,
        "bearer_valid": 0,
    }


def test_single_plugin_report_counts():
    corpus = Corpus(snapshot_label="t", created_at="now", records=[_record("only")])
    verdicts = {"only": AccessibilityVerdict(plugin_id="only", verdict=VERDICT_ACCESSIBLE, winning_url="u", http_status=200)}
    run = ProbeRunResult()
    run.results["only"] = PluginProbeResult(auth_family="no_token", plugin_case=CASE4, succeeded=True, failure_causes=[])
    doc = build_report(corpus, verdicts, run, [], []).doc
    assert len(doc["per_plugin"]) == 1
    assert sum(doc["accessibility_table"].values()) == 1
    assert sum(doc["case_table"].values()) == 1
    assert sum(doc["failure_table"].values()) == 0
    assert sum(doc["consistency_table"].values()) == 0


def test_irregular_manifests_reduce_file_leakage():
    corpus, verdicts, run, findings, scopes = _small_inputs()
    run.skipped["p2"] = "irregular_manifest: missing_description"
    del run.results["p2"]
    report = build_report(corpus, verdicts, run, findings, scopes)
    assert report.doc["accessibility_table"][VERDICT_ACCESSIBLE] == 2
    assert report.metrics["file_leakage"] == 1
    assert report.doc["unprobeable"] == {"irregular_manifest": 1}


# Report keys that are not tables: everything else is what `tables` computes.
_NOT_TABLES = ("schema_version", "snapshot_label", "corpus_size", "notes", "per_plugin")


@pytest.mark.parametrize("source", ["golden", "paper_run", "revisit_run"])
def test_tables_recount_every_report_from_its_dossiers(request, source):
    if source == "golden":
        doc = json.loads((Path(__file__).parent / "golden" / "report-paper-tables.json").read_text())
    else:
        doc = request.getfixturevalue(source).report
    recounted = tables(doc["per_plugin"].values(), doc["shared_manifest_group_sizes"])
    assert recounted == {key: value for key, value in doc.items() if key not in _NOT_TABLES}


def _probed(auth_family: str, case: str, succeeded: bool) -> dict:
    return {
        "verdict": VERDICT_ACCESSIBLE,
        "developer_domain": None,
        "probe_skip_reason": None,
        "case": case,
        "auth_family": auth_family,
        "succeeded": succeeded,
        "failure_causes": [],
        "finding_kinds": [],
        "scope_category": None,
    }


def test_token_type_summary_reference_rates():
    dossiers = [_probed("no_token", CASE4, True)] * 141 + [_probed("no_token", CASE5, False)] * 98
    dossiers += [_probed("oauth", CASE3, True)] * 27 + [_probed("oauth", CASE2, False)] * 43
    dossiers += [_probed("bearer", CASE1, True)] * 5 + [_probed("bearer", CASE2, False)] * 29
    doc = tables(dossiers, [])
    table = doc["token_type_summary"]
    assert (table["no_token"]["total"], table["no_token"]["succeeded"]) == (239, 141)
    assert table["no_token"]["success_rate"] == "59.0"
    assert (table["oauth"]["total"], table["oauth"]["succeeded"]) == (70, 27)
    assert table["oauth"]["success_rate"] == "38.6"
    assert (table["bearer"]["total"], table["bearer"]["succeeded"]) == (34, 5)
    assert table["bearer"]["success_rate"] == "14.7"
    assert "user_http" not in table  # row omitted when empty
    assert (doc["metrics"]["no_token_valid"], doc["metrics"]["oauth_valid"], doc["metrics"]["bearer_valid"]) == (141, 27, 5)


def test_token_type_summary_includes_user_http_when_present():
    table = tables([_probed("user_http", CASE2, False), _probed("no_token", CASE4, True)], [])["token_type_summary"]
    assert table["user_http"]["total"] == 1
    assert table["no_token"]["success_rate"] == "100.0"
    assert table["oauth"] == {"total": 0, "succeeded": 0, "failed": 0, "success_rate": None}


def test_render_json_is_byte_stable():
    corpus, verdicts, run, findings, scopes = _small_inputs()
    report = build_report(corpus, verdicts, run, findings, scopes)
    assert canonical_json_bytes(report.doc) == canonical_json_bytes(report.doc)
    rebuilt = build_report(corpus, verdicts, run, findings, scopes)
    assert canonical_json_bytes(report.doc) == canonical_json_bytes(rebuilt.doc)


def test_render_unknown_format_rejected():
    report = AuditReport(doc={"snapshot_label": "x"})
    with pytest.raises(ReportError, match="unknown report format"):
        render_report(report, "pdf")


def test_render_markdown_empty_report_has_headers():
    corpus = Corpus(snapshot_label="empty", created_at="now", records=[])
    report = build_report(corpus, {}, ProbeRunResult(), [], [])
    text = render_report(report, "markdown").decode()
    assert "## Accessibility of URLs" in text
    assert "## API request cases" in text
    assert "| Case 1 | 0 |" in text


def _report_with_metrics(label: str, metrics: dict) -> AuditReport:
    return AuditReport(doc={"schema_version": 1, "snapshot_label": label, "metrics": metrics})


REFERENCE_BEFORE = {
    "file_leakage": 368,
    "inconsistent_plugins": 69,
    "no_token_valid": 141,
    "oauth_valid": 27,
    "bearer_valid": 5,
}
REFERENCE_AFTER = {
    "file_leakage": 282,
    "inconsistent_plugins": 61,
    "no_token_valid": 89,
    "oauth_valid": 17,
    "bearer_valid": 3,
}


def test_diff_reference_metrics():
    diff = diff_reports(_report_with_metrics("b", REFERENCE_BEFORE), _report_with_metrics("a", REFERENCE_AFTER))
    changes = {m["name"]: m["change_pct"] for m in diff.metrics}
    assert changes == {
        "file_leakage": "-23.4",
        "inconsistent_plugins": "-11.6",
        "no_token_valid": "-36.9",
        "oauth_valid": "-37.0",
        "bearer_valid": "-40.0",
    }
    # Published rounded values, at the stated tolerance.
    published = {"file_leakage": -23.4, "inconsistent_plugins": -11.6, "no_token_valid": -36.9,
                 "oauth_valid": -37.03, "bearer_valid": -40.00}
    for name, printed in published.items():
        assert abs(float(changes[name]) - printed) <= 0.1


def test_diff_identity_is_all_zero():
    report = _report_with_metrics("same", REFERENCE_BEFORE)
    diff = diff_reports(report, report)
    assert all(m["change_pct"] == "0.0" for m in diff.metrics)


def test_diff_zero_before_renders_na():
    diff = diff_reports(
        _report_with_metrics("b", {"file_leakage": 0}), _report_with_metrics("a", {"file_leakage": 3})
    )
    assert diff.metrics[0]["change_pct"] == "n/a"


def test_diff_includes_extra_shared_metrics():
    before = _report_with_metrics("b", dict(REFERENCE_BEFORE, custom_metric=10))
    after = _report_with_metrics("a", dict(REFERENCE_AFTER, custom_metric=5))
    names = [m["name"] for m in diff_reports(before, after).metrics]
    assert names[:5] == ["file_leakage", "inconsistent_plugins", "no_token_valid", "oauth_valid", "bearer_valid"]
    assert "custom_metric" in names


def test_render_diff_markdown():
    diff = diff_reports(_report_with_metrics("b", REFERENCE_BEFORE), _report_with_metrics("a", REFERENCE_AFTER))
    text = render_diff(diff, "markdown").decode()
    assert "| file_leakage | 368 | 282 | -23.4 |" in text
    with pytest.raises(ReportError):
        render_diff(diff, "html")


def test_load_report_round_trip(tmp_path):
    corpus, verdicts, run, findings, scopes = _small_inputs()
    report = build_report(corpus, verdicts, run, findings, scopes)
    path = tmp_path / "report.json"
    write_report(report, path)
    assert load_report(path).doc == report.doc
    bad = tmp_path / "bad.json"
    for content in (
        json.dumps({"schema_version": 99}),
        json.dumps({"schema_version": 1, "snapshot_label": "x"}),  # no metrics
        json.dumps({"schema_version": 1, "metrics": []}),
        json.dumps({"schema_version": 1, "metrics": {"file_leakage": "10"}}),
        json.dumps([1]),
        "{not json",
        "[" * 100000,
    ):
        bad.write_text(content)
        with pytest.raises(ReportError):
            load_report(bad)
    with pytest.raises(ReportError):
        load_report(tmp_path / "missing.json")


def test_canonical_json_sorted_and_compact():
    payload = canonical_json_bytes({"b": 1, "a": [2, 1]})
    assert payload == b'{"a":[2,1],"b":1}\n'


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(doc=_JSON_VALUES | st.dictionaries(st.text(), st.dictionaries(st.text(), _JSON_VALUES, max_size=4), max_size=4))
def test_canonical_json_chunks_join_to_the_bytes_of_json_dumps(doc):
    expected = (json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n").encode()
    assert b"".join(canonical_json_chunks(doc)) == expected == canonical_json_bytes(doc)


def test_canonical_json_chunks_are_the_top_level_members_and_each_dossier():
    doc = {"schema_version": 1, "notes": ["é"], "per_plugin": {"p2": {"verdict": None}, "p1": {"case": "case4"}}}
    assert list(canonical_json_chunks(doc)) == [
        '{"notes":["é"]'.encode(),
        b',"per_plugin":{"p1":{"case":"case4"}',
        b',"p2":{"verdict":null}',
        b"}",
        b',"schema_version":1',
        b"}",
        b"\n",
    ]


@pytest.mark.parametrize("earlier", [None, b"earlier\n"])
def test_write_report_that_fails_late_leaves_no_partial_file(tmp_path, earlier):
    path = tmp_path / "report.json"
    if earlier is not None:
        path.write_bytes(earlier)
    per_plugin = {f"p{i}": {"developer_domain": f"p{i}.example"} for i in range(50)}
    per_plugin["zz"] = {"developer_domain": "bad\ud800.example"}  # sorts last
    with pytest.raises(ReportError, match="UTF-8"):
        write_report(AuditReport(doc={"schema_version": 1, "per_plugin": per_plugin}), path)
    assert [p.name for p in tmp_path.iterdir()] == ([] if earlier is None else ["report.json"])
    if earlier is not None:
        assert path.read_bytes() == earlier


def test_writing_a_tenfold_report_peaks_below_a_quarter_of_its_size(tmp_path):
    doc = json.loads((Path(__file__).parent / "golden" / "report-paper-tables.json").read_bytes())
    doc["per_plugin"] = {f"{pid}-{copy}": d for copy in range(10) for pid, d in doc["per_plugin"].items()}
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        write_report(AuditReport(doc=doc), path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == canonical_json_bytes(doc)
    assert path.stat().st_size > 2_000_000 and peak < path.stat().st_size / 4


def test_markdown_of_fixture_run_shows_reference_case_rows(paper_run):
    text = (paper_run.out_dir / "report.md").read_text()
    for row in (
        "| Case 1 | 8 | High risk of data leakage |",
        "| Case 2 | 74 | Effective access protection |",
        "| Case 3 | 24 | Significant authorization flaw |",
        "| Case 4 | 141 | Risk in open access |",
        "| Case 5 | 98 | Strong data protection |",
    ):
        assert row in text
    assert "| Success | 373 |" in text
    assert "| Native URLs | 518 |" in text

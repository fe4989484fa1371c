from __future__ import annotations

import json
import re
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from pluginaudit import cli
from pluginaudit.artifacts import (
    ArtifactError,
    read_findings,
    read_manifests,
    read_outcomes,
    read_scopes,
    read_verdicts,
    write_findings,
    write_json,
    write_manifests,
    write_outcomes,
    write_scopes,
    write_verdicts,
)
from pluginaudit.consistency import ConsistencyFinding, KIND_INCONSISTENT_NAME, KIND_SHARED_MANIFEST_GROUP
from pluginaudit.corpus import Corpus, PluginRecord, save_corpus
from pluginaudit.discovery import AccessibilityVerdict, VERDICT_ACCESSIBLE, VERDICT_NATIVE_UNREACHABLE
from pluginaudit.manifest import parse_manifest
from pluginaudit.probe import (
    ALL_CAUSES,
    CASE2,
    CASE4,
    CAUSE_NONE,
    NO_TOKEN,
    PluginProbeResult,
    ProbeOutcome,
    ProbeRunResult,
    TranscriptEntry,
)
from pluginaudit.scoperisk import distribution_report

MANIFEST = json.dumps(
    {
        "name_for_human": "X",
        "name_for_model": "x",
        "description_for_model": "d",
        "api": {"type": "openapi", "url": "https://x.io/openapi.json"},
    }
).encode()


def test_verdict_doc_round_trip(tmp_path):
    verdicts = {
        "a": AccessibilityVerdict(plugin_id="a", verdict=VERDICT_ACCESSIBLE, winning_url="u", http_status=200, evidence="e", candidates_tried=1),
        "b": AccessibilityVerdict(plugin_id="b", verdict=VERDICT_NATIVE_UNREACHABLE, candidates_tried=4),
    }
    path = tmp_path / "verdicts.json"
    write_verdicts(path, verdicts)
    assert read_verdicts(path, ["b", "a"]) == verdicts
    with pytest.raises(ArtifactError, match="2 rows for 1 corpus plugins, 0 without a verdict"):
        read_verdicts(path, ["a"])
    with pytest.raises(ArtifactError, match="2 rows for 3 corpus plugins, 1 without a verdict"):
        read_verdicts(path, ["a", "b", "c"])
    path.write_text(json.dumps([asdict(verdicts["a"])] * 2))
    with pytest.raises(ArtifactError, match="2 rows for 2 corpus plugins, 1 without a verdict"):
        read_verdicts(path, ["a", "b"])


def test_outcomes_round_trip(tmp_path):
    outcome = ProbeOutcome("GET", "https://x.io/s", NO_TOKEN, 200, True, 0, 0, CASE4, CAUSE_NONE, False)
    run = ProbeRunResult()
    run.results["p1"] = PluginProbeResult(auth_family="no_token", plugin_case=CASE4, succeeded=True, failure_causes=[], outcomes=[outcome])
    run.results["p0"] = PluginProbeResult(
        auth_family="oauth", plugin_case=CASE2, succeeded=False, failure_causes=["lack_authorization"]
    )
    run.skipped["p2"] = "api_unreachable: status 404"
    run.transcript.append(TranscriptEntry("p1", "GET", "https://x.io/s", NO_TOKEN, {}, 200, "ab", 1))
    path = tmp_path / "outcomes.json"
    write_outcomes(path, run, "t")

    doc = json.loads(path.read_text())
    assert list(doc["results"]) == ["p0", "p1"]
    assert doc["results"]["p1"]["outcomes"][0]["url"] == "https://x.io/s"
    assert sorted(doc["transcript"][0]) == [
        "attempts", "body_sha256", "headers", "method", "plugin_id", "status", "token_variant", "url",
    ]
    assert read_outcomes(path, "t", ["p0", "p1", "p2"]) == run


_TEXT = st.text(max_size=8)
_PROBE_RUNS = st.builds(
    ProbeRunResult,
    results=st.dictionaries(
        _TEXT,
        st.builds(
            PluginProbeResult,
            failure_causes=st.lists(st.sampled_from(ALL_CAUSES), max_size=2),
            outcomes=st.lists(st.builds(ProbeOutcome, method=_TEXT, url=_TEXT), max_size=3),
        ),
        max_size=3,
    ),
    skipped=st.dictionaries(_TEXT, _TEXT, max_size=3),
    transcript=st.lists(
        st.builds(
            TranscriptEntry,
            plugin_id=_TEXT,
            method=_TEXT,
            url=_TEXT,
            headers=st.dictionaries(_TEXT, _TEXT, max_size=2),
            body_sha256=_TEXT,
        ),
        max_size=3,
    ),
)


@settings(max_examples=60, deadline=None)
@given(run=_PROBE_RUNS)
def test_outcomes_read_back_as_written(tmp_path_factory, run):
    for plugin_id in run.results:
        run.skipped.pop(plugin_id, None)
    path = tmp_path_factory.getbasetemp() / "drawn" / "outcomes.json"
    write_outcomes(path, run, "t")
    assert read_outcomes(path, "t", [*run.results, *run.skipped]) == run


def test_findings_round_trip(tmp_path):
    findings = [
        ConsistencyFinding(plugin_id="p1", kind=KIND_INCONSISTENT_NAME, evidence={"store": "A", "manifest": "B"}),
        ConsistencyFinding(plugin_id="p2", kind=KIND_SHARED_MANIFEST_GROUP, evidence={"members": ["p2", "p3"]}),
    ]
    path = tmp_path / "findings.json"
    write_findings(path, findings, {"dev.io": 2}, "t", 3)
    assert read_findings(path, "t", ["p1", "p2", "p3"]) == findings
    doc = json.loads(path.read_text())
    assert doc["per_developer"] == {"dev.io": 2} and doc["strict_only_mismatches"] == 3
    # The report does not read strict_only_mismatches, so an artifact without it is still valid.
    del doc["strict_only_mismatches"]
    path.write_text(json.dumps(doc))
    assert read_findings(path, "t", ["p1", "p2", "p3"]) == findings


def test_scopes_round_trip(tmp_path):
    assignments = [("p2", "read_write"), ("p1", "global_access"), ("p3", "read_write")]
    path = tmp_path / "scopes.json"
    write_scopes(path, assignments, distribution_report([category for _, category in assignments]), "t")
    assert read_scopes(path, "t", ["p1", "p2", "p3"]) == sorted(assignments)


def test_manifests_round_trip(tmp_path):
    directory = tmp_path / "manifests"
    directory.mkdir()
    (directory / "stale.json").write_text("{}")
    write_manifests(directory, {"p1": parse_manifest(MANIFEST)})
    assert sorted(p.name for p in directory.iterdir()) == ["p1.json"]
    (directory / "bad.json").write_text("not a manifest")
    parsed, rejected = read_manifests(directory, ["p1", "bad"])
    assert parsed["p1"].raw_source == MANIFEST and list(rejected) == ["bad"]
    with pytest.raises(ArtifactError, match="manifests directory not found"):
        read_manifests(tmp_path / "nope", ["p1"])


@pytest.mark.parametrize("command", ["probe", "consistency", "scopes"])
def test_manifest_outside_corpus_stops_the_stage(tmp_path, capsys, command):
    """A manifest whose stem is no corpus plugin is neither probed nor counted."""
    corpus = tmp_path / "corpus.json"
    save_corpus(Corpus(snapshot_label="t", created_at="now", records=[_record("p1")]), corpus)
    directory = tmp_path / "manifests"
    write_manifests(directory, {"p1": parse_manifest(MANIFEST), "zzz": parse_manifest(MANIFEST)})
    with pytest.raises(ArtifactError, match="zzz.json: not the manifest of a corpus plugin"):
        read_manifests(directory, ["p1"])
    out = tmp_path / "out.json"
    # Any probe that got through would go to a closed local port.
    argv = [command, "--corpus", str(corpus), "--manifests", str(directory), "--out", str(out)]
    if command == "probe":
        argv += ["--base-url", "http://127.0.0.1:1", "--retries", "0"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error in stage {command}: malformed artifact {directory / 'zzz.json'}")
    assert not out.exists()


def test_reader_label_mismatch_is_error(tmp_path):
    path = tmp_path / "outcomes.json"
    write_outcomes(path, ProbeRunResult(), "other")
    with pytest.raises(ArtifactError, match="snapshot label mismatch: corpus is 't' but outcomes is 'other'"):
        read_outcomes(path, "t", [])


def test_readers_reject_missing_and_unparseable_files(tmp_path):
    with pytest.raises(ArtifactError, match=re.escape(f"artifact not found: {tmp_path / 'findings.json'}")):
        read_findings(tmp_path / "findings.json", "t", [])
    (tmp_path / "scopes.json").write_text('{"schema_version": 1,')
    with pytest.raises(ArtifactError, match=re.escape(f"artifact {tmp_path / 'scopes.json'} is not valid JSON")):
        read_scopes(tmp_path / "scopes.json", "t", [])


# --------------------------------------------------------------------------
# `audit report` over hand-written artifacts


def _record(pid: str) -> PluginRecord:
    return PluginRecord(plugin_id=pid, store_title=pid, name_for_human_store=pid, developer_domain=f"{pid}.example")


def _small_docs() -> dict[str, object]:
    def envelope(**payload):
        return {"schema_version": 1, "snapshot_label": "t", **payload}

    return {
        "verdicts": [
            {"plugin_id": "p1", "verdict": "accessible", "winning_url": "u", "http_status": 200, "candidates_tried": 1, "evidence": ""},
            {"plugin_id": "p2", "verdict": "native_unreachable", "winning_url": None, "http_status": None, "candidates_tried": 4, "evidence": ""},
        ],
        "outcomes": envelope(
            results={"p1": {"auth_family": "no_token", "plugin_case": "case4", "succeeded": True, "failure_causes": [], "outcomes": []}},
            skipped={},
            transcript=[],
        ),
        "findings": envelope(
            findings=[{"plugin_id": "p1", "kind": "inconsistent_name", "evidence": {}}],
            per_developer={"p1.example": 1},
            strict_only_mismatches=0,
        ),
        "scopes": envelope(assignments=[], distribution={}),
    }


def _report_argv(tmp_path, paths: dict) -> list[str]:
    argv = ["report", "--out", str(tmp_path / "report.json")]
    for name in ("corpus", "verdicts", "outcomes", "findings", "scopes"):
        argv += [f"--{name}", str(paths[name])]
    return argv


def _write_small_artifacts(tmp_path, docs: dict) -> dict:
    paths = {"corpus": tmp_path / "corpus.json"}
    save_corpus(Corpus(snapshot_label="t", created_at="now", records=[_record("p1"), _record("p2")]), paths["corpus"])
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


def test_report_reads_well_formed_artifacts(tmp_path):
    paths = _write_small_artifacts(tmp_path, _small_docs())
    assert cli.main(_report_argv(tmp_path, paths)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["accessibility_table"]["accessible"] == 1 and report["case_table"]["case4"] == 1


_OUTCOME_ROW = {
    "method": "GET", "url": "https://p1.example/s", "token_variant": "no_token", "status": 200, "valid_data": True,
    "t_r": 0, "t_v": 0, "case": "case4", "failure_cause": "none", "server_side": False,
}
_TRANSCRIPT_ENTRY = {
    "plugin_id": "p1", "method": "GET", "url": "https://p1.example/s", "token_variant": "no_token",
    "headers": {}, "status": 200, "body_sha256": "ab", "attempts": 1,
}


def _add_outcome_row(**changes):
    return lambda docs: docs["outcomes"]["results"]["p1"]["outcomes"].append({**_OUTCOME_ROW, **changes})


def _add_transcript_entry(entry: dict):
    return lambda docs: docs["outcomes"]["transcript"].append(entry)


def test_report_reads_outcome_rows_and_transcript(tmp_path):
    docs = _small_docs()
    _add_outcome_row()(docs)
    _add_transcript_entry(_TRANSCRIPT_ENTRY)(docs)
    paths = _write_small_artifacts(tmp_path, docs)
    assert cli.main(_report_argv(tmp_path, paths)) == 0


# case -> (artifact it breaks, mutation of the well-formed documents)
MALFORMED = {
    "verdict-row-without-verdict": ("verdicts", lambda docs: docs.update(verdicts=[{"plugin_id": "a"}])),
    "unknown-verdict": ("verdicts", lambda docs: docs["verdicts"][0].update(verdict="bogus")),
    "results-not-an-object": ("outcomes", lambda docs: docs["outcomes"].update(results=[])),
    "unknown-plugin-case": ("outcomes", lambda docs: docs["outcomes"]["results"]["p1"].update(plugin_case="case9")),
    "probed-and-skipped": ("outcomes", lambda docs: docs["outcomes"]["skipped"].update(p1="empty_api")),
    "findings-a-list": ("findings", lambda docs: docs.update(findings=[])),
    "short-scope-row": ("scopes", lambda docs: docs["scopes"].update(assignments=[["x"]])),
    "result-outside-corpus": ("outcomes", lambda docs: docs["outcomes"]["results"].update(p9=docs["outcomes"]["results"]["p1"])),
    "skip-outside-corpus": ("outcomes", lambda docs: docs["outcomes"]["skipped"].update(p9="empty_api")),
    "finding-outside-corpus": ("findings", lambda docs: docs["findings"]["findings"][0].update(plugin_id="p9")),
    "group-member-outside-corpus": (
        "findings",
        lambda docs: docs["findings"]["findings"].append(
            {"plugin_id": "p1", "kind": "shared_manifest_group", "evidence": {"members": ["p1", "p9"]}}
        ),
    ),
    "scope-outside-corpus": ("scopes", lambda docs: docs["scopes"].update(assignments=[["p9", "global_access"]])),
    "group-member-not-an-id": ("findings", lambda docs: docs["findings"]["findings"][0].update(evidence={"members": [["p1"]]})),
    "unknown-outcome-case": ("outcomes", _add_outcome_row(case="case9")),
    "outcome-t_r-not-0-or-1": ("outcomes", _add_outcome_row(t_r=2)),
    "transcript-entry-without-attempts": (
        "outcomes", _add_transcript_entry({key: value for key, value in _TRANSCRIPT_ENTRY.items() if key != "attempts"})
    ),
    "transcript-header-not-a-string": ("outcomes", _add_transcript_entry({**_TRANSCRIPT_ENTRY, "headers": {"Accept": 1}})),
}
OUTSIDE_CORPUS = [case for case in MALFORMED if case.endswith("outside-corpus")]


@pytest.mark.parametrize("case", list(MALFORMED))
def test_report_rejects_malformed_artifact(tmp_path, capsys, case):
    artifact, mutate = MALFORMED[case]
    docs = _small_docs()
    mutate(docs)
    paths = _write_small_artifacts(tmp_path, docs)
    assert cli.main(_report_argv(tmp_path, paths)) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error in stage report: malformed artifact {paths[artifact]}" in err
    assert not (tmp_path / "report.json").exists()
    if case in OUTSIDE_CORPUS:
        assert "not in the corpus: ['p9']" in err


def test_report_rejects_verdicts_of_another_snapshot(paper_run, revisit_run, tmp_path, capsys):
    paths = {
        "corpus": paper_run.corpus_path,
        "verdicts": revisit_run.out_dir / "verdicts.json",
        **{name: paper_run.out_dir / f"{name}.json" for name in ("outcomes", "findings", "scopes")},
    }
    assert cli.main(_report_argv(tmp_path, paths)) == 1
    err = capsys.readouterr().err
    assert f"malformed artifact {paths['verdicts']}" in err and "1032 corpus plugins, 705 without a verdict" in err


@pytest.mark.parametrize("content, message", [(None, "cannot read"), ("[" * 100000, "is not valid JSON")], ids=["directory", "nested-too-deeply"])
def test_reader_reports_a_file_it_cannot_read_or_parse(tmp_path, content, message):
    path = tmp_path / "verdicts.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    with pytest.raises(ArtifactError, match=message) as raised:
        read_verdicts(path, [])
    assert str(path) in str(raised.value)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None)
@given(doc=_JSON_VALUES)
def test_write_json_streams_the_bytes_of_json_dumps(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "streamed" / "doc.json"
    write_json(path, doc)
    assert path.read_bytes() == (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("utf-8")

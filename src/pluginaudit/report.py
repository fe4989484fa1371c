"""Audit report aggregation, canonical rendering, and snapshot diffing.

A report is a plain JSON-serializable document; every table cell is
re-derivable by recounting the per-plugin dossiers, and the JSON rendering
is canonical (sorted keys, fixed number formatting) so identical inputs
produce byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .consistency import (
    ALL_KINDS,
    ConsistencyFinding,
    KIND_SHARED_MANIFEST_GROUP,
    PAIRWISE_KINDS,
)
from .corpus import Corpus
from .discovery import ALL_VERDICTS, VERDICT_ACCESSIBLE, AccessibilityVerdict
from .numfmt import render_change_pct
from .probe import (
    ALL_CASES,
    ALL_CAUSES,
    CASE2,
    CASE5,
    FAMILY_BEARER,
    FAMILY_NO_TOKEN,
    FAMILY_OAUTH,
    ProbeRunResult,
    SKIP_IRREGULAR_MANIFEST,
    summarize_token_types,
)

REPORT_SCHEMA_VERSION = 1

METRIC_FILE_LEAKAGE = "file_leakage"
METRIC_INCONSISTENT = "inconsistent_plugins"
METRIC_NO_TOKEN_VALID = "no_token_valid"
METRIC_OAUTH_VALID = "oauth_valid"
METRIC_BEARER_VALID = "bearer_valid"

DIFF_METRICS = (
    METRIC_FILE_LEAKAGE,
    METRIC_INCONSISTENT,
    METRIC_NO_TOKEN_VALID,
    METRIC_OAUTH_VALID,
    METRIC_BEARER_VALID,
)

METHOD_NOTES = (
    "failure_table counts distinct failure causes per failing plugin, so its sum can exceed the failing-plugin count",
    "file_leakage counts accessible plugins whose manifest parsed without irregularity flags",
    "token_type_summary reports user_http plugins as their own row outside the three classic families",
    "scope_distribution shares use all OAuth-scoped plugins (including unspecified) as denominator",
)


class ReportError(Exception):
    pass


@dataclass
class AuditReport:
    doc: dict

    @property
    def snapshot_label(self) -> str:
        return self.doc["snapshot_label"]

    @property
    def metrics(self) -> dict[str, int]:
        return self.doc["metrics"]


@dataclass
class ReportDiff:
    metrics: list[dict]


def _auth_types_from_probe(run: ProbeRunResult) -> list[tuple[str, str, bool]]:
    rows = []
    for plugin_id in sorted(run.results):
        result = run.results[plugin_id]
        rows.append((result.auth_family, result.plugin_case, result.succeeded))
    return rows


def build_report(
    corpus: Corpus,
    verdicts: dict[str, AccessibilityVerdict],
    probe_run: ProbeRunResult,
    findings: list[ConsistencyFinding],
    scope_assignments: list[tuple[str, str]],
    scope_distribution: dict[str, dict],
) -> AuditReport:
    """Aggregate all layer outputs for one snapshot into a report."""
    accessibility = {verdict: 0 for verdict in ALL_VERDICTS}
    for v in verdicts.values():
        accessibility[v.verdict] = accessibility.get(v.verdict, 0) + 1

    case_table = {case: 0 for case in ALL_CASES}
    failure_table = {cause: 0 for cause in ALL_CAUSES}
    for result in probe_run.results.values():
        case_table[result.plugin_case] += 1
        if result.plugin_case in (CASE2, CASE5):
            for cause in result.failure_causes:
                failure_table[cause] += 1

    skip_kinds: dict[str, int] = {}
    irregular = 0
    for reason in probe_run.skipped.values():
        kind = reason.split(":", 1)[0]
        skip_kinds[kind] = skip_kinds.get(kind, 0) + 1
        if kind == SKIP_IRREGULAR_MANIFEST:
            irregular += 1

    consistency_table = {kind: 0 for kind in ALL_KINDS}
    plugins_with_pairwise: set[str] = set()
    group_sizes: list[int] = []
    for finding in findings:
        consistency_table[finding.kind] = consistency_table.get(finding.kind, 0) + 1
        if finding.kind in PAIRWISE_KINDS:
            plugins_with_pairwise.add(finding.plugin_id)
        if finding.kind == KIND_SHARED_MANIFEST_GROUP:
            group_sizes.append(len(finding.members()))

    token_summary = summarize_token_types(_auth_types_from_probe(probe_run))

    def family_stat(family: str, key: str) -> int:
        return int(token_summary.get(family, {}).get(key, 0) or 0)

    metrics = {
        METRIC_FILE_LEAKAGE: accessibility[VERDICT_ACCESSIBLE] - irregular,
        METRIC_INCONSISTENT: len(plugins_with_pairwise),
        METRIC_NO_TOKEN_VALID: family_stat(FAMILY_NO_TOKEN, "succeeded"),
        METRIC_OAUTH_VALID: family_stat(FAMILY_OAUTH, "succeeded"),
        METRIC_BEARER_VALID: family_stat(FAMILY_BEARER, "succeeded"),
    }

    finding_kinds_by_plugin: dict[str, list[str]] = {}
    for finding in findings:
        finding_kinds_by_plugin.setdefault(finding.plugin_id, []).append(finding.kind)

    scope_by_plugin = dict(scope_assignments)
    per_plugin = {}
    for record in corpus.records:
        pid = record.plugin_id
        verdict = verdicts.get(pid)
        probe_result = probe_run.results.get(pid)
        dossier = {
            "verdict": verdict.verdict if verdict else None,
            "developer_domain": record.developer_domain,
            "probe_skip_reason": probe_run.skipped.get(pid),
            "case": probe_result.plugin_case if probe_result else None,
            "auth_family": probe_result.auth_family if probe_result else None,
            "succeeded": probe_result.succeeded if probe_result else None,
            "failure_causes": probe_result.failure_causes if probe_result else [],
            "finding_kinds": sorted(finding_kinds_by_plugin.get(pid, [])),
            "scope_category": scope_by_plugin.get(pid),
        }
        per_plugin[pid] = dossier

    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "snapshot_label": corpus.snapshot_label,
        "corpus_size": len(corpus),
        "accessibility_table": accessibility,
        "probed_count": len(probe_run.results),
        "unprobeable": skip_kinds,
        "case_table": case_table,
        "failure_table": failure_table,
        "token_type_summary": token_summary,
        "consistency_table": consistency_table,
        "shared_manifest_group_sizes": sorted(group_sizes, reverse=True),
        "scope_distribution": scope_distribution,
        "metrics": metrics,
        "notes": list(METHOD_NOTES),
        "per_plugin": per_plugin,
    }
    return AuditReport(doc=doc)


def canonical_json_bytes(doc: object) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n").encode("utf-8")


def _markdown_table(headers: list[str], rows: list[list[object]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |", "|" + "|".join(" --- " for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return lines


_VERDICT_TITLES = {
    "accessible": "Success",
    "hidden_redirect": "Hidden redirects",
    "openai_protected": "OpenAI",
    "hosted_google_doc": "Google doc",
    "hosted_github": "GitHub",
    "native_unreachable": "Native URLs",
}

_CASE_IMPLICATIONS = {
    "case1": "High risk of data leakage",
    "case2": "Effective access protection",
    "case3": "Significant authorization flaw",
    "case4": "Risk in open access",
    "case5": "Strong data protection",
}


def render_report(report: AuditReport, fmt: str = "json") -> bytes:
    """Render a report as canonical JSON or as markdown tables."""
    if fmt == "json":
        return canonical_json_bytes(report.doc)
    if fmt != "markdown":
        raise ReportError(f"unknown report format: {fmt!r}")

    doc = report.doc
    lines = [f"# Plugin store audit report - {doc['snapshot_label']}", ""]
    lines.append(f"Corpus size: {doc['corpus_size']}; probed: {doc['probed_count']}")
    lines.append("")
    lines.append("## Accessibility of URLs")
    lines += _markdown_table(
        ["Category", "Count"],
        [[_VERDICT_TITLES[v], doc["accessibility_table"].get(v, 0)] for v in _VERDICT_TITLES],
    )
    lines.append("")
    lines.append("## API request cases")
    lines += _markdown_table(
        ["Case", "Count", "Security implications"],
        [[case.replace("case", "Case "), doc["case_table"].get(case, 0), _CASE_IMPLICATIONS[case]] for case in ALL_CASES],
    )
    lines.append("")
    lines.append("## Failed requests by cause")
    lines += _markdown_table(
        ["Cause", "Count"],
        [[cause, doc["failure_table"].get(cause, 0)] for cause in ALL_CAUSES],
    )
    lines.append("")
    lines.append("## Token types")
    rows = []
    for family, row in sorted(doc["token_type_summary"].items()):
        rows.append([family, row["total"], row["succeeded"], row["failed"], row["success_rate"] or "n/a"])
    lines += _markdown_table(["Family", "Total", "Succeeded", "Failed", "Success rate %"], rows)
    lines.append("")
    lines.append("## Metadata inconsistencies")
    lines += _markdown_table(
        ["Kind", "Count"],
        [[kind, doc["consistency_table"].get(kind, 0)] for kind in ALL_KINDS],
    )
    if doc["shared_manifest_group_sizes"]:
        lines.append("")
        lines.append(f"Shared-manifest group sizes: {doc['shared_manifest_group_sizes']}")
    lines.append("")
    lines.append("## OAuth scope risk distribution")
    rows = [[cat, cell["count"], cell["share"]] for cat, cell in sorted(doc["scope_distribution"].items())]
    lines += _markdown_table(["Category", "Count", "Share %"], rows)
    lines.append("")
    lines.append("## Snapshot metrics")
    lines += _markdown_table(
        ["Metric", "Value"],
        [[name, doc["metrics"][name]] for name in DIFF_METRICS],
    )
    lines.append("")
    return ("\n".join(lines)).encode("utf-8")


def diff_reports(before: AuditReport, after: AuditReport) -> ReportDiff:
    """Percentage change per shared metric, the five headline metrics first."""
    before_metrics = before.metrics
    after_metrics = after.metrics
    names = [m for m in DIFF_METRICS if m in before_metrics and m in after_metrics]
    extra = sorted(set(before_metrics) & set(after_metrics) - set(names))
    rows = []
    for name in names + extra:
        b, a = int(before_metrics[name]), int(after_metrics[name])
        rows.append({"name": name, "before": b, "after": a, "change_pct": render_change_pct(b, a)})
    return ReportDiff(metrics=rows)


def render_diff(diff: ReportDiff, fmt: str = "json") -> bytes:
    if fmt == "json":
        return canonical_json_bytes({"metrics": diff.metrics})
    if fmt != "markdown":
        raise ReportError(f"unknown diff format: {fmt!r}")
    lines = ["# Exposure comparison before and after", ""]
    lines += _markdown_table(
        ["Metric", "Before", "After", "Change %"],
        [[m["name"], m["before"], m["after"], m["change_pct"]] for m in diff.metrics],
    )
    lines.append("")
    return ("\n".join(lines)).encode("utf-8")


def load_report(path) -> AuditReport:
    """Read a report for diffing; it must carry integer `metrics`."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: JSONDecodeError, UnicodeDecodeError
        raise ReportError(f"cannot read report {path}: {exc}") from exc
    metrics = doc.get("metrics") if isinstance(doc, dict) and doc.get("schema_version") == REPORT_SCHEMA_VERSION else None
    if not isinstance(metrics, dict) or not all(type(value) is int for value in metrics.values()):
        raise ReportError(f"not a report file (expected schema v{REPORT_SCHEMA_VERSION} with integer metrics): {path}")
    return AuditReport(doc=doc)

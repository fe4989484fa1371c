"""Audit report aggregation, canonical rendering, and snapshot diffing.

A report is a plain JSON-serializable dict, and every function here takes
or returns that dict. `build_report` builds one dossier per corpus plugin,
and `tables` computes every table and metric from the dossiers, except
`shared_manifest_group_sizes`, which it takes as an input. The JSON
rendering is canonical (sorted keys, compact separators, UTF-8, fixed
number formatting), so identical inputs produce byte-identical reports.
`render_report` renders the markdown tables. `diff_reports` compares the
metrics of two reports, as a list of rows that `render_diff` renders.

`write_report` writes that rendering as it is encoded, one top-level member
or one dossier at a time, into a temporary file beside the report, and
renames the file into place once it is complete. The whole text of a
report, which grows with the store, is never held in memory, and a report
that cannot be encoded leaves no partial file and any earlier report as it
was.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, Literal

from .config import StageError
from .consistency import (
    ALL_KINDS,
    ConsistencyFinding,
    KIND_SHARED_MANIFEST_GROUP,
    PAIRWISE_KINDS,
)
from .corpus import Corpus
from .discovery import ALL_VERDICTS, VERDICT_ACCESSIBLE, AccessibilityVerdict
from .jsonfile import DecodeError, decode, read_json
from .numfmt import render_change_pct, render_ratio_pct
from .probe import (
    ALL_CASES,
    ALL_CAUSES,
    ALL_FAMILIES,
    CASE2,
    CASE5,
    FAMILY_BEARER,
    FAMILY_NO_TOKEN,
    FAMILY_OAUTH,
    PAPER_FAMILIES,
    ProbeRunResult,
    SKIP_IRREGULAR_MANIFEST,
)
from .scoperisk import distribution_report

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


class ReportError(StageError):
    pass


def build_report(
    corpus: Corpus,
    verdicts: dict[str, AccessibilityVerdict],
    probe_run: ProbeRunResult,
    findings: list[ConsistencyFinding],
    scope_assignments: list[tuple[str, str]],
) -> dict:
    """Aggregate all layer outputs for one snapshot into a report: one
    dossier per corpus plugin, then every table counted from the dossiers."""
    finding_kinds_by_plugin: dict[str, list[str]] = {}
    group_sizes: list[int] = []
    for finding in findings:
        finding_kinds_by_plugin.setdefault(finding.plugin_id, []).append(finding.kind)
        if finding.kind == KIND_SHARED_MANIFEST_GROUP:
            group_sizes.append(len(finding.members()))

    scope_by_plugin = dict(scope_assignments)
    per_plugin = {}
    for record in corpus.records:
        pid = record.plugin_id
        verdict = verdicts.get(pid)
        probe_result = probe_run.results.get(pid)
        per_plugin[pid] = {
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

    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "snapshot_label": corpus.snapshot_label,
        "corpus_size": len(corpus),
        **tables(per_plugin.values(), group_sizes),
        "notes": list(METHOD_NOTES),
        "per_plugin": per_plugin,
    }


def _counts(keys: tuple[str, ...], values: Iterable[str]) -> dict[str, int]:
    """How often each value occurs; each of `keys` is counted, if only as 0."""
    return dict.fromkeys(keys, 0) | Counter(values)


def tables(dossiers: Iterable[dict], group_sizes: Iterable[int]) -> dict:
    """Every table and metric of a report, counted from its per-plugin
    dossiers. Shared-manifest group sizes are the one input a dossier does
    not hold: it names only the kind of the finding."""
    dossiers = list(dossiers)
    probed = [d for d in dossiers if d["case"] is not None]
    skip_kinds = [d["probe_skip_reason"].split(":", 1)[0] for d in dossiers if d["probe_skip_reason"] is not None]
    accessibility = _counts(ALL_VERDICTS, (d["verdict"] for d in dossiers if d["verdict"] is not None))

    # Rates are rendered to one decimal as strings so reports are byte-stable;
    # user_http has a row only when some plugin is in it.
    token_summary = {}
    for family in ALL_FAMILIES:
        outcomes = [d["succeeded"] for d in probed if d["auth_family"] == family]
        if outcomes or family in PAPER_FAMILIES:
            total, succeeded = len(outcomes), sum(outcomes)
            token_summary[family] = {
                "total": total,
                "succeeded": succeeded,
                "failed": total - succeeded,
                "success_rate": render_ratio_pct(succeeded, total) if total else None,
            }

    return {
        "accessibility_table": accessibility,
        "probed_count": len(probed),
        "unprobeable": _counts((), skip_kinds),
        "case_table": _counts(ALL_CASES, (d["case"] for d in probed)),
        "failure_table": _counts(
            ALL_CAUSES, (cause for d in probed if d["case"] in (CASE2, CASE5) for cause in d["failure_causes"])
        ),
        "token_type_summary": token_summary,
        "consistency_table": _counts(ALL_KINDS, (kind for d in dossiers for kind in d["finding_kinds"])),
        "shared_manifest_group_sizes": sorted(group_sizes, reverse=True),
        "scope_distribution": distribution_report([d["scope_category"] for d in dossiers if d["scope_category"]]),
        "metrics": {
            METRIC_FILE_LEAKAGE: accessibility[VERDICT_ACCESSIBLE] - skip_kinds.count(SKIP_IRREGULAR_MANIFEST),
            METRIC_INCONSISTENT: sum(1 for d in dossiers if set(d["finding_kinds"]) & set(PAIRWISE_KINDS)),
            METRIC_NO_TOKEN_VALID: token_summary[FAMILY_NO_TOKEN]["succeeded"],
            METRIC_OAUTH_VALID: token_summary[FAMILY_OAUTH]["succeeded"],
            METRIC_BEARER_VALID: token_summary[FAMILY_BEARER]["succeeded"],
        },
    }


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _utf8(text: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate, from argv or a "\ud800" escape in an input file
        raise ReportError(f"report text cannot be encoded as UTF-8: {exc}") from None


def canonical_json_chunks(doc: object) -> Iterator[bytes]:
    """The UTF-8 bytes of `doc` as canonical JSON plus a newline, in chunks: a
    top-level object goes out one member at a time, and a member that is an
    object one item at a time, so a report's `per_plugin` goes out one dossier
    at a time. The keys of those two levels must be strings. Raises
    ReportError for text that cannot be encoded as UTF-8."""
    for chunk in _text_chunks(doc, 2):
        yield _utf8(chunk)
    yield b"\n"


def _text_chunks(value: object, depth: int) -> Iterator[str]:
    """`value` as JSON text; an object above `depth` 0 goes out one member at
    a time, each key joined to the first chunk of its value."""
    if not (depth and isinstance(value, dict) and value):
        yield _ENCODER.encode(value)
        return
    head = "{"
    for key in sorted(value):
        items = _text_chunks(value[key], depth - 1)
        yield head + _ENCODER.encode(key) + ":" + next(items)
        yield from items
        head = ","
    yield "}"


def canonical_json_bytes(doc: object) -> bytes:
    return b"".join(canonical_json_chunks(doc))


def write_report(report: dict, path: Path) -> None:
    """Write the canonical JSON of `report` to `path`, as it is encoded, into
    a temporary file in the same directory that then replaces `path`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with partial.open("wb") as handle:
            handle.writelines(canonical_json_chunks(report))
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


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


def render_report(doc: dict) -> bytes:
    """Render a report as markdown tables; `write_report` writes its JSON."""
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


def diff_reports(before: dict, after: dict) -> list[dict]:
    """One row per metric both reports share, with its percentage change,
    the five headline metrics first."""
    before_metrics = before["metrics"]
    after_metrics = after["metrics"]
    names = [m for m in DIFF_METRICS if m in before_metrics and m in after_metrics]
    extra = sorted(set(before_metrics) & set(after_metrics) - set(names))
    rows = []
    for name in names + extra:
        b, a = int(before_metrics[name]), int(after_metrics[name])
        rows.append({"name": name, "before": b, "after": a, "change_pct": render_change_pct(b, a)})
    return rows


def render_diff(rows: list[dict], fmt: str = "json") -> bytes:
    if fmt == "json":
        return canonical_json_bytes({"metrics": rows})
    if fmt != "markdown":
        raise ReportError(f"unknown diff format: {fmt!r}")
    lines = ["# Exposure comparison before and after", ""]
    lines += _markdown_table(
        ["Metric", "Before", "After", "Change %"],
        [[m["name"], m["before"], m["after"], m["change_pct"]] for m in rows],
    )
    lines.append("")
    return _utf8("\n".join(lines))


def load_report(path) -> dict:
    """Read a report for diffing; it must carry integer `metrics`."""
    doc = read_json(path, ReportError, "report", dict)
    try:
        decode(Literal[REPORT_SCHEMA_VERSION], doc.get("schema_version"), "schema_version")
        decode(dict[str, int], doc.get("metrics"), "metrics")
    except DecodeError as exc:
        raise ReportError(f"malformed report {path}: {exc}") from None
    return doc

"""On-disk formats of the stage artifacts: one writer and one checked reader each.

`verdicts.json` is a bare list with one row per corpus plugin and
`manifests/` holds each accessible plugin's manifest bytes as fetched.
`outcomes.json`, `findings.json` and `scopes.json` are envelopes of
`schema_version`, `snapshot_label` and the stage's payload. A reader checks
what the report reads and raises `ArtifactError` naming the file, so an
artifact of the wrong shape, from another snapshot, with a bucket the report
does not count, or with a row for a plugin outside the corpus stops the stage
instead of crashing it or being counted.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .config import StageError
from .jsonfile import write_json
from .manifest import ManifestDocument, ParseError, parse_manifest
from .probe import ALL_CASES, ALL_CAUSES, ALL_FAMILIES, PluginProbeResult, ProbeOutcome, ProbeRunResult

if TYPE_CHECKING:  # the readers import these layers, so `audit probe` loads none of them
    from .consistency import ConsistencyFinding
    from .discovery import AccessibilityVerdict

SCHEMA_VERSION = 1


class ArtifactError(StageError):
    pass


def _read_json(path: Path) -> object:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ArtifactError(f"missing input file: {path}") from exc
    except OSError as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
        raise ArtifactError(f"unparseable JSON in {path}: {exc}") from exc


def _expect(ok: bool, path: Path, problem: str) -> None:
    if not ok:
        raise ArtifactError(f"malformed artifact {path}: {problem}")


def _expect_in_corpus(path: Path, named: Iterable[str], plugin_ids: Iterable[str], what: str) -> None:
    """Every plugin id an artifact names is a corpus plugin: a row no dossier holds must not be counted."""
    unknown = sorted(set(named).difference(plugin_ids))
    _expect(not unknown, path, f"{what} for {len(unknown)} plugins not in the corpus: {unknown[:5]}")


def _envelope(snapshot_label: str, **payload) -> dict:
    return {"schema_version": SCHEMA_VERSION, "snapshot_label": snapshot_label, **payload}


def _open_envelope(path: Path, name: str, snapshot_label: str, payload: dict[str, type]) -> dict:
    """Read an envelope whose label is the corpus label and whose payload keys hold the given JSON types."""
    doc = _read_json(path)
    _expect(isinstance(doc, dict) and doc.get("schema_version") == SCHEMA_VERSION, path, "not a schema v1 object")
    if (other := doc.get("snapshot_label")) != snapshot_label:
        raise ArtifactError(f"snapshot label mismatch: corpus is {snapshot_label!r} but {name} is {other!r}")
    for key, kind in payload.items():
        _expect(isinstance(doc.get(key), kind), path, f"{key!r} is not a JSON {kind.__name__}")
    return doc


def write_verdicts(path: Path, verdicts: dict[str, AccessibilityVerdict]) -> None:
    write_json(path, [asdict(verdicts[plugin_id]) for plugin_id in sorted(verdicts)])


def read_verdicts(path: Path, plugin_ids: Iterable[str]) -> dict[str, AccessibilityVerdict]:
    """verdicts.json carries no snapshot label, so it must hold exactly one
    row per corpus plugin: a list from another snapshot cannot pass."""
    from .discovery import ALL_VERDICTS, AccessibilityVerdict

    rows = _read_json(path)
    _expect(isinstance(rows, list), path, "not a list of verdict rows")
    names = [f.name for f in fields(AccessibilityVerdict)]
    verdicts: dict[str, AccessibilityVerdict] = {}
    for index, row in enumerate(rows):
        ok = isinstance(row, dict) and isinstance(row.get("plugin_id"), str) and row.get("verdict") in ALL_VERDICTS
        _expect(ok, path, f"row {index} has no plugin_id or no known verdict")
        verdicts[row["plugin_id"]] = AccessibilityVerdict(**{name: row[name] for name in names if name in row})
    expected = set(plugin_ids)
    missing = len(expected - verdicts.keys())
    problem = f"{len(rows)} rows for {len(expected)} corpus plugins, {missing} without a verdict"
    _expect(verdicts.keys() == expected and len(rows) == len(expected), path, problem)
    return verdicts


def write_manifests(directory: Path, manifests: dict[str, ManifestDocument]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.glob("*.json"):
        stale.unlink()
    for plugin_id, manifest in sorted(manifests.items()):
        (directory / f"{plugin_id}.json").write_bytes(manifest.raw_source)


def read_manifests(
    directory: Path, plugin_ids: Iterable[str]
) -> tuple[dict[str, ManifestDocument], dict[str, ParseError]]:
    """Parse each `<plugin_id>.json` once: (parsed, rejected with the error).
    A file of a plugin outside the corpus would be probed, so it stops the stage."""
    if not directory.is_dir():
        raise ArtifactError(f"manifests directory not found: {directory}")
    plugin_ids = set(plugin_ids)
    parsed, rejected = {}, {}
    for path in sorted(directory.glob("*.json")):
        _expect(path.stem in plugin_ids, path, "not the manifest of a corpus plugin")
        try:
            parsed[path.stem] = parse_manifest(path.read_bytes())
        except ParseError as exc:
            rejected[path.stem] = exc
    return parsed, rejected


def _outcome_row(outcome: ProbeOutcome) -> dict:
    return {
        "method": outcome.request.endpoint.method,
        "url": outcome.request.full_url,
        "token_variant": outcome.request.token_variant,
        "status": outcome.http_status,
        "valid_data": outcome.valid_data,
        "t_r": outcome.t_r,
        "t_v": outcome.t_v,
        "case": outcome.case,
        "failure_cause": outcome.failure_cause,
        "server_side": outcome.server_side,
    }


def write_outcomes(path: Path, run: ProbeRunResult, snapshot_label: str) -> None:
    results = {
        plugin_id: {
            "auth_family": r.auth_family,
            "plugin_case": r.plugin_case,
            "succeeded": r.succeeded,
            "failure_causes": r.failure_causes,
            "outcomes": [_outcome_row(o) for o in r.outcomes],
        }
        for plugin_id, r in run.results.items()
    }
    transcript = [asdict(entry) for entry in run.transcript]
    write_json(path, _envelope(snapshot_label, results=results, skipped=run.skipped, transcript=transcript))


def read_outcomes(path: Path, snapshot_label: str, plugin_ids: Iterable[str]) -> ProbeRunResult:
    """The part of a probe run that the report reads: the plugin-level
    results and the skip reasons of corpus plugins. Per-request outcomes and
    the transcript are left empty."""
    doc = _open_envelope(path, "outcomes", snapshot_label, {"results": dict, "skipped": dict})
    run = ProbeRunResult()
    for plugin_id, row in doc["results"].items():
        ok = isinstance(row, dict) and row.get("auth_family") in ALL_FAMILIES and row.get("plugin_case") in ALL_CASES
        ok = ok and isinstance(row.get("succeeded"), bool) and isinstance(row.get("failure_causes"), list)
        ok = ok and all(cause in ALL_CAUSES for cause in row["failure_causes"])
        _expect(ok, path, f"result for {plugin_id!r} has an unknown auth family, case or failure cause")
        run.results[plugin_id] = PluginProbeResult(
            plugin_id, row["auth_family"], row["plugin_case"], row["succeeded"], failure_causes=row["failure_causes"]
        )
    _expect(all(isinstance(reason, str) for reason in doc["skipped"].values()), path, "a skip reason is not a string")
    both = sorted(run.results.keys() & doc["skipped"].keys())
    _expect(not both, path, f"plugins both in results and in skipped: {both}")
    _expect_in_corpus(path, [*run.results, *doc["skipped"]], plugin_ids, "results and skips")
    run.skipped = doc["skipped"]
    return run


def write_findings(
    path: Path, findings: list[ConsistencyFinding], per_developer: dict[str, int], snapshot_label: str, strict_only: int
) -> None:
    rows = [asdict(finding) for finding in findings]
    doc = _envelope(snapshot_label, findings=rows, per_developer=per_developer, strict_only_mismatches=strict_only)
    write_json(path, doc)


def read_findings(path: Path, snapshot_label: str, plugin_ids: Iterable[str]) -> list[ConsistencyFinding]:
    from .consistency import ALL_KINDS, ConsistencyFinding

    doc = _open_envelope(path, "findings", snapshot_label, {"findings": list})
    findings = []
    for index, row in enumerate(doc["findings"]):
        evidence = row.get("evidence", {}) if isinstance(row, dict) else None
        ok = isinstance(evidence, dict) and isinstance(row.get("plugin_id"), str) and row.get("kind") in ALL_KINDS
        members = evidence.get("members", []) if ok else None
        ok = ok and isinstance(members, list) and all(isinstance(member, str) for member in members)
        _expect(ok, path, f"finding {index} has no plugin_id, an unknown kind or malformed evidence")
        findings.append(ConsistencyFinding(row["plugin_id"], row["kind"], evidence))
    named = [pid for finding in findings for pid in (finding.plugin_id, *finding.members())]
    _expect_in_corpus(path, named, plugin_ids, "findings")
    return findings


def write_scopes(
    path: Path, assignments: list[tuple[str, str]], distribution: dict[str, dict], snapshot_label: str
) -> None:
    rows = [[plugin_id, category] for plugin_id, category in sorted(assignments)]
    write_json(path, _envelope(snapshot_label, assignments=rows, distribution=distribution))


def read_scopes(path: Path, snapshot_label: str, plugin_ids: Iterable[str]) -> list[tuple[str, str]]:
    """The (plugin_id, category) assignments. The report recounts the
    distribution from them, so the file's own distribution is not read."""
    from .scoperisk import ALL_CATEGORIES

    doc = _open_envelope(path, "scopes", snapshot_label, {"assignments": list})
    assignments = []
    for index, row in enumerate(doc["assignments"]):
        ok = isinstance(row, list) and len(row) == 2 and isinstance(row[0], str) and row[1] in ALL_CATEGORIES
        _expect(ok, path, f"assignment {index} is not a [plugin_id, known category] pair")
        assignments.append((row[0], row[1]))
    _expect(len(dict(assignments)) == len(assignments), path, "a plugin has more than one assignment")
    _expect_in_corpus(path, dict(assignments), plugin_ids, "assignments")
    return assignments

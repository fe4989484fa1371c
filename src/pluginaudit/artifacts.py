"""On-disk formats of the stage artifacts: one writer and one decoding reader each.

`verdicts.json` is a bare list with one row per corpus plugin and
`manifests/` holds each accessible plugin's manifest bytes as fetched.
`outcomes.json`, `findings.json` and `scopes.json` are envelopes of
`schema_version`, `snapshot_label` and the stage's payload. The dataclasses
below give each key its type: a writer writes them, and a reader decodes its
file to them. The rows of `outcomes.json` are the probe layer's own results,
down to each per-request outcome and transcript entry. A reader raises
`ArtifactError` naming the file, so an artifact of the wrong shape, from
another snapshot, with a bucket the report does not count, or with a row for
a plugin outside the corpus stops the stage instead of crashing it or being
counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Literal

from .config import StageError
from .jsonfile import DecodeError, decode, read_json, write_json
from .manifest import ManifestDocument, ParseError, parse_manifest
from .probe import PluginProbeResult, ProbeRunResult, TranscriptEntry

if TYPE_CHECKING:  # the readers import these layers, so `audit probe` loads none of them
    from .consistency import ConsistencyFinding
    from .discovery import AccessibilityVerdict

SCHEMA_VERSION = 1


class ArtifactError(StageError):
    pass


@dataclass
class _Envelope:
    schema_version: Literal[SCHEMA_VERSION]
    snapshot_label: str


@dataclass
class _OutcomesFile(_Envelope):
    results: dict[str, PluginProbeResult]
    skipped: dict[str, str]
    transcript: list[TranscriptEntry] = field(default_factory=list)


# The rows of these two hold constants of layers that `audit probe` does not
# load, so their readers decode the rows after loading the layer.
@dataclass
class _FindingsFile(_Envelope):
    findings: list
    per_developer: dict[str, int] = field(default_factory=dict)
    strict_only_mismatches: int = 0


@dataclass
class _ScopesFile(_Envelope):
    assignments: list
    distribution: dict = field(default_factory=dict)


def _expect(ok: bool, path: Path, problem: str) -> None:
    if not ok:
        raise ArtifactError(f"malformed artifact {path}: {problem}")


def _decode(path: Path, cls, value: object, where: str):
    try:
        return decode(cls, value, where)
    except DecodeError as exc:
        raise ArtifactError(f"malformed artifact {path}: {exc}") from None


def _expect_in_corpus(path: Path, named: Iterable[str], plugin_ids: Iterable[str], what: str) -> None:
    """Every plugin id an artifact names is a corpus plugin: a row no dossier holds must not be counted."""
    unknown = sorted(set(named).difference(plugin_ids))
    _expect(not unknown, path, f"{what} for {len(unknown)} plugins not in the corpus: {unknown[:5]}")


def _open_envelope(path: Path, cls, name: str, snapshot_label: str):
    """Read an envelope of the given class whose label is the corpus label."""
    doc = read_json(path, ArtifactError, "artifact", cls)
    if doc.snapshot_label != snapshot_label:
        raise ArtifactError(f"snapshot label mismatch: corpus is {snapshot_label!r} but {name} is {doc.snapshot_label!r}")
    return doc


def write_verdicts(path: Path, verdicts: dict[str, AccessibilityVerdict]) -> None:
    write_json(path, [verdicts[plugin_id] for plugin_id in sorted(verdicts)])


def read_verdicts(path: Path, plugin_ids: Iterable[str]) -> dict[str, AccessibilityVerdict]:
    """verdicts.json carries no snapshot label, so it must hold exactly one
    row per corpus plugin: a list from another snapshot cannot pass."""
    from .discovery import AccessibilityVerdict

    rows = read_json(path, ArtifactError, "artifact", list[AccessibilityVerdict])
    verdicts = {row.plugin_id: row for row in rows}
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


def write_outcomes(path: Path, run: ProbeRunResult, snapshot_label: str) -> None:
    write_json(path, _OutcomesFile(SCHEMA_VERSION, snapshot_label, run.results, run.skipped, run.transcript))


def read_outcomes(path: Path, snapshot_label: str, plugin_ids: Iterable[str]) -> ProbeRunResult:
    """The probe run as it was written, if its results and skips are of corpus plugins."""
    doc = _open_envelope(path, _OutcomesFile, "outcomes", snapshot_label)
    both = sorted(doc.results.keys() & doc.skipped.keys())
    _expect(not both, path, f"plugins both in results and in skipped: {both}")
    _expect_in_corpus(path, [*doc.results, *doc.skipped], plugin_ids, "results and skips")
    return ProbeRunResult(doc.results, doc.skipped, doc.transcript)


def write_findings(
    path: Path, findings: list[ConsistencyFinding], per_developer: dict[str, int], snapshot_label: str, strict_only: int
) -> None:
    write_json(path, _FindingsFile(SCHEMA_VERSION, snapshot_label, findings, per_developer, strict_only))


def read_findings(path: Path, snapshot_label: str, plugin_ids: Iterable[str]) -> list[ConsistencyFinding]:
    from .consistency import ConsistencyFinding

    doc = _open_envelope(path, _FindingsFile, "findings", snapshot_label)
    findings = _decode(path, list[ConsistencyFinding], doc.findings, "findings")
    for index, finding in enumerate(findings):
        members = finding.evidence.get("members", [])
        ok = isinstance(members, list) and all(isinstance(member, str) for member in members)
        _expect(ok, path, f"findings[{index}].evidence.members is not a list of strings")
    named = [pid for finding in findings for pid in (finding.plugin_id, *finding.members())]
    _expect_in_corpus(path, named, plugin_ids, "findings")
    return findings


def write_scopes(
    path: Path, assignments: list[tuple[str, str]], distribution: dict[str, dict], snapshot_label: str
) -> None:
    write_json(path, _ScopesFile(SCHEMA_VERSION, snapshot_label, sorted(assignments), distribution))


def read_scopes(path: Path, snapshot_label: str, plugin_ids: Iterable[str]) -> list[tuple[str, str]]:
    """The (plugin_id, category) assignments. The report recounts the
    distribution from them, so the file's own distribution is not read."""
    from .scoperisk import ALL_CATEGORIES

    doc = _open_envelope(path, _ScopesFile, "scopes", snapshot_label)
    assignments = _decode(path, list[tuple[str, Literal[ALL_CATEGORIES]]], doc.assignments, "assignments")
    _expect(len(dict(assignments)) == len(assignments), path, "a plugin has more than one assignment")
    _expect_in_corpus(path, dict(assignments), plugin_ids, "assignments")
    return assignments

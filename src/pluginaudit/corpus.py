"""Plugin-store index ingestion and the canonical plugin identity.

The index source is newline-delimited JSON, one object per store listing
(title, user-facing name, optional description/legal/logo links). Records
are deduplicated on (store_title, legal_info_url) and ordered by plugin_id,
so a corpus is a pure function of its source contents.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from .config import StageError
from .jsonfile import write_json
from .urlnorm import host_of, registrable_domain

SCHEMA_VERSION = 1

FLAG_LEGAL_MISSING = "legal_missing"


class CorpusError(StageError):
    """Raised for unreadable corpus files or schema-version mismatches."""


@dataclass(frozen=True)
class PluginRecord:
    plugin_id: str
    store_title: str
    name_for_human_store: str
    legal_info_url: str | None = None
    logo_url: str | None = None
    store_description: str | None = None
    developer_domain: str | None = None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class IngestError:
    line_no: int
    reason: str


@dataclass
class Corpus:
    snapshot_label: str
    created_at: str
    records: list[PluginRecord] = field(default_factory=list)
    ingest_errors: list[IngestError] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def by_id(self) -> dict[str, PluginRecord]:
        return {r.plugin_id: r for r in self.records}


def make_plugin_id(store_title: str, legal_info_url: str | None) -> str:
    """Deterministic 16-hex-char id from the dedup key."""
    key = f"{store_title}\n{legal_info_url or ''}".encode("utf-8")
    return hashlib.sha256(key).hexdigest()[:16]


def _record_from_entry(entry: dict) -> PluginRecord:
    title = entry.get("title")
    if not isinstance(title, str) or not title.strip():
        raise ValueError("entry has no title")
    title = title.strip()
    legal = entry.get("legal_info_url")
    legal = legal.strip() if isinstance(legal, str) and legal.strip() else None
    flags = () if legal else (FLAG_LEGAL_MISSING,)
    host = host_of(legal) if legal else ""
    name = entry.get("name")
    description = entry.get("description")
    logo = entry.get("logo_url")
    return PluginRecord(
        plugin_id=make_plugin_id(title, legal),
        store_title=title,
        name_for_human_store=name.strip() if isinstance(name, str) and name.strip() else title,
        legal_info_url=legal,
        logo_url=logo if isinstance(logo, str) and logo else None,
        store_description=description.strip() if isinstance(description, str) and description.strip() else None,
        developer_domain=registrable_domain(host) if host else None,
        flags=flags,
    )


def ingest_index(source: Iterable[str] | Iterable[bytes], label: str) -> Corpus:
    """Ingest an NDJSON index stream into a deduplicated, ordered corpus.

    Malformed lines, a line of bytes that is not UTF-8 among them, are
    skipped and recorded in ingest_errors; ingestion never aborts.
    Duplicate (title, legal_info_url) entries keep the first occurrence.
    """
    seen: dict[str, PluginRecord] = {}
    errors: list[IngestError] = []
    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
            if not isinstance(entry, dict):
                raise ValueError("entry is not a JSON object")
            record = _record_from_entry(entry)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
            errors.append(IngestError(line_no=line_no, reason=str(exc)))
            continue
        seen.setdefault(record.plugin_id, record)
    records = sorted(seen.values(), key=lambda r: r.plugin_id)
    created = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return Corpus(snapshot_label=label, created_at=created, records=records, ingest_errors=errors)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "snapshot_label": corpus.snapshot_label,
        "created_at": corpus.created_at,
        "records": [asdict(r) for r in corpus.records],
        "ingest_errors": [asdict(e) for e in corpus.ingest_errors],
    }
    write_json(path, doc)


_REQUIRED_TEXT = ("plugin_id", "store_title", "name_for_human_store")
_OPTIONAL_TEXT = ("legal_info_url", "logo_url", "store_description", "developer_domain")


def load_corpus(path: str | Path) -> Corpus:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise CorpusError(f"corpus file not found: {path}") from exc
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
        raise CorpusError(f"corpus file {path} is not valid JSON (expected schema v{SCHEMA_VERSION}): {exc}") from exc
    if not isinstance(doc, dict) or "records" not in doc:
        raise CorpusError(f"corpus file {path} has no records (expected schema v{SCHEMA_VERSION})")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CorpusError(f"corpus file {path} has schema version {version!r}, expected {SCHEMA_VERSION}")
    if not isinstance(doc["records"], list):
        raise CorpusError(f"corpus file {path}: records is not a list")
    records = []
    first_index: dict[str, int] = {}
    for index, raw in enumerate(doc["records"]):
        if not isinstance(raw, dict):
            raise CorpusError(f"corpus file {path}: record {index} is not an object")
        for key in _REQUIRED_TEXT:
            if key not in raw:
                raise CorpusError(f"corpus file {path}: record {index} has no {key!r}")
            if not isinstance(raw[key], str):
                raise CorpusError(f"corpus file {path}: record {index}: {key!r} is not a string")
        first = first_index.setdefault(raw["plugin_id"], index)
        if first != index:
            raise CorpusError(f"corpus file {path}: record {index}: plugin_id {raw['plugin_id']!r} repeats record {first}")
        for key in _OPTIONAL_TEXT:
            if not isinstance(raw.get(key), (str, type(None))):
                raise CorpusError(f"corpus file {path}: record {index}: {key!r} is neither a string nor null")
        flags = raw.get("flags", [])
        if not isinstance(flags, list) or not all(isinstance(flag, str) for flag in flags):
            raise CorpusError(f"corpus file {path}: record {index}: 'flags' is not a list of strings")
        records.append(PluginRecord(**{key: raw.get(key) for key in _REQUIRED_TEXT + _OPTIONAL_TEXT}, flags=tuple(flags)))
    try:
        errors = [IngestError(**e) for e in doc.get("ingest_errors", [])]
    except TypeError as exc:
        raise CorpusError(f"corpus file {path}: malformed ingest_errors: {exc}") from None
    return Corpus(
        snapshot_label=doc.get("snapshot_label", ""),
        created_at=doc.get("created_at", ""),
        records=records,
        ingest_errors=errors,
    )

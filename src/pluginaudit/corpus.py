"""Plugin-store index ingestion and the canonical plugin identity.

The index source is newline-delimited JSON, one object per store listing
(title, user-facing name, optional description/legal/logo links). Records
are deduplicated on (store_title, legal_info_url) and ordered by plugin_id,
so a corpus is a pure function of its source contents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Literal

from .config import StageError
from .digest import sha256
from .jsonfile import read_bytes, read_json, write_json
from .urlnorm import host_of, registrable_domain

SCHEMA_VERSION = 1

FLAG_LEGAL_MISSING = "legal_missing"


class CorpusError(StageError):
    """Raised for a corpus file that cannot be read, is not of schema v1, or repeats a plugin id."""


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
    return sha256(key).hexdigest()[:16]


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
    write_json(path, {"schema_version": SCHEMA_VERSION, **vars(corpus)})


def read_corpus_bytes(path: str | Path) -> bytes:
    return read_bytes(path, CorpusError, "corpus file")


@dataclass
class _CorpusFile:
    """What save_corpus writes; a corpus without a label or creation time has ""."""

    schema_version: Literal[SCHEMA_VERSION]
    records: list[PluginRecord]
    snapshot_label: str = ""
    created_at: str = ""
    ingest_errors: list[IngestError] = field(default_factory=list)


def load_corpus(path: str | Path, data: bytes | None = None) -> Corpus:
    """The corpus file at `path`; `data`, if given, is the bytes that
    `read_corpus_bytes` read from it."""
    doc = read_json(path, CorpusError, "corpus file", _CorpusFile, data)
    first_index: dict[str, int] = {}
    for index, record in enumerate(doc.records):
        first = first_index.setdefault(record.plugin_id, index)
        if first != index:
            raise CorpusError(f"corpus file {path}: record {index}: plugin_id {record.plugin_id!r} repeats record {first}")
    return Corpus(doc.snapshot_label, doc.created_at, doc.records, doc.ingest_errors)

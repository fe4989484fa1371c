from __future__ import annotations

import io
import json
import random
import re

import pytest

from pluginaudit.corpus import (
    CorpusError,
    FLAG_LEGAL_MISSING,
    ingest_index,
    load_corpus,
    make_plugin_id,
    save_corpus,
)


def _entry(title: str, legal: str | None = None, **extra) -> str:
    doc = {"title": title, "name": title}
    if legal is not None:
        doc["legal_info_url"] = legal
    doc.update(extra)
    return json.dumps(doc)


def _lines(*entries: str) -> io.StringIO:
    return io.StringIO("\n".join(entries) + "\n")


def test_ingest_full_population_count():
    lines = [_entry(f"Plugin {i:04d}", f"https://p{i:04d}.example/legal") for i in range(1033)]
    corpus = ingest_index(_lines(*lines), "bulk")
    assert len(corpus) == 1033


def test_ingest_empty_source():
    corpus = ingest_index(io.StringIO(""), "empty")
    assert len(corpus) == 0
    assert corpus.ingest_errors == []


def test_ingest_dedups_on_title_and_legal():
    corpus = ingest_index(
        _lines(
            _entry("Digital Pet", "https://a.io/legal"),
            _entry("Digital Pet", "https://a.io/legal"),
            _entry("Digital Pet", "https://b.io/legal"),
        ),
        "dedup",
    )
    assert len(corpus) == 2


def test_malformed_entries_skipped_not_fatal():
    corpus = ingest_index(
        _lines("this is not json", _entry("Good Plugin", "https://a.io/legal"), json.dumps({"name": "no title"})),
        "dirty",
    )
    assert len(corpus) == 1
    assert len(corpus.ingest_errors) == 2
    assert corpus.ingest_errors[0].line_no == 1


def test_record_fields_and_flags():
    corpus = ingest_index(
        _lines(
            _entry("With Legal", "https://Chat.OpenAI.com/x", description=" desc "),
            _entry("No Legal"),
        ),
        "fields",
    )
    with_legal = next(r for r in corpus.records if r.store_title == "With Legal")
    no_legal = next(r for r in corpus.records if r.store_title == "No Legal")
    assert with_legal.developer_domain == "openai.com"
    assert with_legal.store_description == "desc"
    assert with_legal.flags == ()
    assert no_legal.legal_info_url is None
    assert FLAG_LEGAL_MISSING in no_legal.flags
    assert no_legal.developer_domain is None


def test_developer_domain_of_an_ip_literal_is_the_address():
    hosts = {
        "[2001:db8::1]": "2001:db8::1",
        "[2001:db8::2]:8443": "2001:db8::2",
        "[::1]": "::1",
        "[::ffff:192.0.2.1]": "::ffff:192.0.2.1",
        "192.0.2.7:80": "192.0.2.7",
    }
    corpus = ingest_index(_lines(*(_entry(host, f"http://{host}/legal") for host in hosts)), "ip")
    assert {r.store_title: r.developer_domain for r in corpus.records} == hosts


def test_ingest_idempotent_and_order_independent():
    entries = [_entry(f"P {i}", f"https://p{i}.example/legal") for i in range(50)]
    first = ingest_index(_lines(*entries), "x")
    again = ingest_index(_lines(*entries), "x")
    shuffled = entries[:]
    random.Random(7).shuffle(shuffled)
    reordered = ingest_index(_lines(*shuffled), "x")
    assert first.records == again.records == reordered.records
    ids = [r.plugin_id for r in first.records]
    assert ids == sorted(ids)


def test_plugin_id_is_deterministic():
    assert make_plugin_id("T", "https://a.io") == make_plugin_id("T", "https://a.io")
    assert make_plugin_id("T", "https://a.io") != make_plugin_id("T", "https://b.io")
    assert len(make_plugin_id("T", None)) == 16


def test_save_load_round_trip(tmp_path):
    corpus = ingest_index(
        _lines(*[_entry(f"RT {i}", f"https://rt{i}.example/legal", description=f"d{i}") for i in range(5)]),
        "round-trip",
    )
    path = tmp_path / "corpus.json"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded.records == corpus.records
    assert loaded.snapshot_label == corpus.snapshot_label
    assert loaded.created_at == corpus.created_at


def _record_doc(**fields) -> str:
    """A one-record corpus file whose record has the given fields overridden."""
    record = {"plugin_id": "a", "store_title": "A", "name_for_human_store": "A", "flags": []}
    record.update(fields)
    return json.dumps({"schema_version": 1, "records": [record]})


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"schema_version": 1, "records": [', "not valid JSON"),
        ("[" * 100000, "not valid JSON"),
        ('{"schema_version": 1}', "missing key 'records' in the top level"),
        ('{"schema_version": 1, "records": {"plugin_id": "x"}}', "records is not a list"),
        ('{"schema_version": 1, "records": ["x"]}', "records[0] is not an object"),
        (
            '{"schema_version": 1, "records": [{"plugin_id": "a", "store_title": "A", "name_for_human_store": "A"},'
            ' {"store_title": "B", "name_for_human_store": "B"}]}',
            "missing key 'plugin_id' in records[1]",
        ),
        ('{"schema_version": 1, "records": [], "ingest_errors": [{"line": 1}]}', "unknown key 'line' in ingest_errors[0]"),
        (
            '{"schema_version": 1, "records": [], "ingest_errors": [{"line_no": "x", "reason": 3}]}',
            "ingest_errors[0].line_no is not an integer",
        ),
        ('{"schema_version": 1, "records": [], "snapshot_label": 5}', "snapshot_label is not a string"),
        ('{"schema_version": 1, "records": [], "snapshot_label": ["a"]}', "snapshot_label is not a string"),
        ('{"schema_version": 1, "records": [], "created_at": {}}', "created_at is not a string"),
        (
            '{"schema_version": 1, "records": [{"plugin_id": "a", "store_title": "A", "name_for_human_store": "A"},'
            ' {"plugin_id": "a", "store_title": "B", "name_for_human_store": "B"}]}',
            "record 1: plugin_id 'a' repeats record 0",
        ),
        (_record_doc(plugin_id=7), "records[0].plugin_id is not a string"),
        (_record_doc(store_title=None), "records[0].store_title is not a string"),
        (_record_doc(name_for_human_store=["A"]), "records[0].name_for_human_store is not a string"),
        (_record_doc(legal_info_url=5), "records[0].legal_info_url is not a string or null"),
        (_record_doc(logo_url={}), "records[0].logo_url is not a string or null"),
        (_record_doc(store_description=1.5), "records[0].store_description is not a string or null"),
        (_record_doc(developer_domain=True), "records[0].developer_domain is not a string or null"),
        (_record_doc(flags="legal_missing"), "records[0].flags is not a list"),
        (_record_doc(flags=[1]), "records[0].flags[0] is not a string"),
        (_record_doc(flags=None), "records[0].flags is not a list"),
    ],
    ids=[
        "truncated", "nested-too-deeply", "no-records", "records-not-a-list", "record-not-an-object", "record-without-plugin-id", "bad-ingest-error",
        "ingest-error-of-wrong-types", "int-label", "list-label", "object-created-at", "repeated-plugin-id",
        "int-plugin-id", "null-store-title", "list-name", "int-legal-url", "object-logo-url", "float-description",
        "bool-developer-domain", "string-flags", "int-flag", "null-flags",
    ],
)
def test_load_malformed_file_raises_corpus_error(tmp_path, text, message):
    path = tmp_path / "broken.json"
    path.write_text(text)
    with pytest.raises(CorpusError, match=re.escape(message)) as raised:
        load_corpus(path)
    assert str(path) in str(raised.value)


def test_load_future_schema_version_rejected(tmp_path):
    corpus = ingest_index(_lines(_entry("X", "https://x.io/legal")), "v")
    path = tmp_path / "corpus.json"
    save_corpus(corpus, path)
    doc = json.loads(path.read_text())
    doc["schema_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(CorpusError, match=re.escape(f"malformed corpus file {path}: schema_version is not one of [1]")):
        load_corpus(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(CorpusError, match="not found"):
        load_corpus(tmp_path / "nope.json")


def test_load_directory_raises_corpus_error(tmp_path):
    with pytest.raises(CorpusError, match="cannot read corpus file") as raised:
        load_corpus(tmp_path)
    assert str(tmp_path) in str(raised.value)

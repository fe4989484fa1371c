from __future__ import annotations

import ast
import dataclasses
import json
from pathlib import Path
from typing import Literal

import pytest
from hypothesis import given, settings, strategies as st

import pluginaudit
from pluginaudit.artifacts import ArtifactError, read_findings, read_outcomes, read_scopes, read_verdicts
from pluginaudit.config import AuditConfig, ConfigError, StageError, load_config
from pluginaudit.consistency import ALL_KINDS, ConsistencyFinding
from pluginaudit.corpus import CorpusError, IngestError, PluginRecord, load_corpus
from pluginaudit.discovery import ALL_VERDICTS, AccessibilityVerdict
from pluginaudit.fixture import FixtureEndpoint, FixturePlan, FixtureSite, PlanError, load_plan
from pluginaudit.jsonfile import DecodeError, decode, read_json
from pluginaudit.probe import ALL_CASES, ALL_CAUSES, ALL_FAMILIES
from pluginaudit.report import ReportError, load_report
from pluginaudit.scoperisk import ALL_CATEGORIES, LexiconError, load_seed_lexicon


@dataclasses.dataclass
class _Row:
    name: str
    pair: tuple[int, bool]
    tags: dict[str, list[str]] = dataclasses.field(default_factory=dict)


@pytest.mark.parametrize(
    "value, message",
    [
        ({"name": "a", "pair": [1, True], "extra": 0}, "unknown key 'extra' in rows[0]"),
        ({"pair": [1, True]}, "missing key 'name' in rows[0]"),
        ({"name": "a", "pair": [True, True]}, "rows[0].pair[0] is not an integer"),
        ({"name": "a", "pair": [1]}, "rows[0].pair is not a list of 2 items"),
        ({"name": "a", "pair": [1, True], "tags": {"k": ["x", 2]}}, "rows[0].tags['k'][1] is not a string"),
    ],
    ids=["unknown-key", "missing-key", "bool-for-int", "short-pair", "nested-item"],
)
def test_decode_names_the_path_to_the_first_bad_value(value, message):
    with pytest.raises(DecodeError) as raised:
        decode(list[_Row], [value], "rows")
    assert str(raised.value) == message


def test_decode_builds_values_and_does_not_descend_below_the_annotation():
    rows = decode(list[_Row], [{"name": "a", "pair": [1, False], "tags": {"k": ["x"]}}])
    assert rows == [_Row(name="a", pair=(1, False), tags={"k": ["x"]})]
    deep: list = []
    for _ in range(100_000):  # deeper than the interpreter could recurse
        deep = [deep]
    assert decode(dict[str, list], {"a": deep}) == {"a": deep}
    with pytest.raises(DecodeError, match=r"^one\['a'\] is not one of \['x'\]$"):
        decode(dict[str, Literal["x"]], {"a": "y"}, "one")


# --------------------------------------------------------------------------
# Every file a user names is untrusted: its reader returns a value or raises
# the reader's own error class, whatever the file holds.

READERS = {
    "config": (load_config, ConfigError),
    "corpus": (load_corpus, CorpusError),
    "plan": (load_plan, PlanError),
    "seed lexicon": (load_seed_lexicon, LexiconError),
    "report": (load_report, ReportError),
    "verdicts": (lambda path: read_verdicts(path, []), ArtifactError),
    "outcomes": (lambda path: read_outcomes(path, "", []), ArtifactError),
    "findings": (lambda path: read_findings(path, "", []), ArtifactError),
    "scopes": (lambda path: read_scopes(path, "", []), ArtifactError),
    # What `run-all` reads of cache.json; it takes the error for no entries.
    "cache": (lambda path: read_json(path, StageError, "cache", dict[str, str]), StageError),
}

# The keys and constants the readers look for, so that a drawn document
# reaches past the top level of some files.
_FILE_CLASSES = (AuditConfig, PluginRecord, IngestError, FixturePlan, FixtureSite, FixtureEndpoint, AccessibilityVerdict, ConsistencyFinding)
_KEYS = sorted(
    {f.name for cls in _FILE_CLASSES for f in dataclasses.fields(cls)}
    | {"schema_version", "records", "metrics", "results", "skipped", "findings", "assignments", "auth_family", "plugin_case"}
    | {"succeeded", "failure_causes", *ALL_CATEGORIES}
)
_CONSTANTS = (*ALL_VERDICTS, *ALL_KINDS, *ALL_CASES, *ALL_CAUSES, *ALL_FAMILIES, *ALL_CATEGORIES, "")
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.sampled_from(_CONSTANTS),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(), children, max_size=5),
    max_leaves=30,
)


@pytest.mark.parametrize("reader", list(READERS))
@settings(max_examples=40, deadline=None)
@given(content=st.binary(max_size=40) | _JSON_VALUES.map(lambda doc: json.dumps(doc).encode()))
def test_a_reader_returns_a_value_or_raises_its_own_error(tmp_path_factory, reader, content):
    read, error_cls = READERS[reader]
    path = tmp_path_factory.getbasetemp() / "readers" / "input.json"
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(content)
    try:
        read(path)
    except error_cls:
        pass


def test_only_jsonfile_parses_the_text_of_a_file():
    """json.load, and json.loads of a `read_text()` or `read_bytes()`, only in
    jsonfile.read_json. The parsers of fetched bytes and of index lines are
    not file readers."""
    offenders = []
    for source in sorted(Path(pluginaudit.__file__).parent.glob("*.py")):
        if source.name == "jsonfile.py":
            continue
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if not (isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
                continue
            argument = node.args[0] if node.args else None
            reads_a_file = (
                isinstance(argument, ast.Call)
                and isinstance(argument.func, ast.Attribute)
                and argument.func.attr in ("read_text", "read_bytes")
            )
            if node.func.attr == "load" or (node.func.attr == "loads" and reads_a_file):
                offenders.append(f"{source.name}:{node.lineno}")
    assert not offenders


def test_only_digest_imports_hashlib():
    """hashlib maps OpenSSL's libcrypto; every SHA-256 of the package comes
    from pluginaudit.digest, which imports hashlib only as its fallback."""
    offenders = []
    for source in sorted(Path(pluginaudit.__file__).parent.glob("*.py")):
        if source.name == "digest.py":
            continue
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] in ("hashlib", "_hashlib") for name in names):
                offenders.append(f"{source.name}:{node.lineno}")
    assert not offenders

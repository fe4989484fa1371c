from __future__ import annotations

import hashlib
import importlib
import sys

from hypothesis import given, settings, strategies as st

import pluginaudit
from pluginaudit import digest


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=2048))
def test_digest_matches_hashlib(data):
    assert digest.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.binary(max_size=300), max_size=8))
def test_digest_of_chained_updates_matches_hashlib(parts):
    ours, theirs = digest.sha256(), hashlib.sha256()
    for part in parts:
        ours.update(part)
        theirs.update(part)
    assert ours.hexdigest() == theirs.hexdigest()


def test_an_interpreter_without_a_built_in_sha256_falls_back_to_hashlib(monkeypatch):
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)  # import raises ImportError
    monkeypatch.delitem(sys.modules, "pluginaudit.digest")
    monkeypatch.setattr(pluginaudit, "digest", digest)  # restored after the import below rebinds it
    fallback = importlib.import_module("pluginaudit.digest")
    assert fallback.sha256 is hashlib.sha256
    assert fallback.sha256(b"abc").hexdigest() == digest.sha256(b"abc").hexdigest()

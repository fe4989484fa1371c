"""The one writer of the JSON files the audit leaves on disk.

The text is what `json.dumps(doc, indent=1, sort_keys=True)` returns,
ASCII-only, plus a final newline. It goes to the file as the encoder yields
it, so no file's whole text is held in memory.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

_ENCODER = json.JSONEncoder(indent=1, sort_keys=True)
# Chunks joined per write: one write per chunk costs about a quarter more
# CPU than json.dumps, and a batch this size holds a few tens of KB.
_BATCH = 1024


def write_json(path: str | Path, doc: object) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    chunks = _ENCODER.iterencode(doc)
    with path.open("w", encoding="utf-8") as handle:
        while batch := list(islice(chunks, _BATCH)):
            handle.write("".join(batch))
        handle.write("\n")

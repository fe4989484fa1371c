"""The one reader and the one writer of the audit's JSON files.

`write_json` writes what `json.dumps(doc, indent=1, sort_keys=True)` returns,
ASCII-only, plus a final newline; a dataclass in `doc` is written as the
object of its fields. The text goes to the file as the encoder yields it, so
no file's whole text is held in memory.

A file a user names is untrusted: `read_json` gives its reader a value of
the declared type, or the reader's own error naming the file and the path
to the first value that does not fit, such as `records[3].flags[0]`.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import types
import typing
from pathlib import Path

_ENCODER = json.JSONEncoder(indent=1, sort_keys=True, default=vars)
# Chunks joined per write: one write per chunk costs about a quarter more
# CPU than json.dumps, and a batch this size holds a few tens of KB.
_BATCH = 1024

_NAMES = {str: "a string", int: "an integer", bool: "a boolean", dict: "an object", list: "a list", type(None): "null"}


def write_json(path: str | Path, doc: object) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    chunks = _ENCODER.iterencode(doc)
    with path.open("w", encoding="utf-8") as handle:
        while batch := list(itertools.islice(chunks, _BATCH)):
            handle.write("".join(batch))
        handle.write("\n")


def read_bytes(path: str | Path, error_cls: type[Exception], what: str) -> bytes:
    """The bytes of the file at `path`; a file that is missing or cannot be
    read raises `error_cls`, whose message names `what` and the file."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise error_cls(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise error_cls(f"cannot read {what} {path}: {exc}") from exc


def read_json(path: str | Path, error_cls: type[Exception], what: str, cls, data: bytes | None = None):
    """The JSON file at `path` decoded to `cls`. A file that is missing,
    cannot be read, is not JSON or does not fit `cls` raises `error_cls`,
    whose message starts with `what` and names the file. `data`, if given,
    is the file's bytes as `read_bytes` returned them, and is not read again."""
    if data is None:
        data = read_bytes(path, error_cls, what)
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
        raise error_cls(f"{what} {path} is not valid JSON: {exc}") from exc
    try:
        return decode(cls, doc)
    except DecodeError as exc:
        raise error_cls(f"malformed {what} {path}: {exc}") from None


class DecodeError(ValueError):
    """A JSON value that does not fit its type: str() names the path to it."""

    def __init__(self, before: str, after: str = ""):
        super().__init__(before, after)
        self.where = ""

    def __str__(self) -> str:
        return f"{self.args[0]}{self.where.lstrip('.') or 'the top level'}{self.args[1]}"


def decode(cls, value: object, where: str = ""):
    """`value`, a parsed JSON value, as a `cls`; `where` names it in errors.

    `cls` is `str`, `int` (a bool is not one), `bool`, `dict` or `list` (any
    JSON object or list), `X | None`, `Literal[...]` (one of the constants),
    `list[X]`, `tuple[X, ...]`, `tuple[X, Y]` (a JSON list of two items),
    `dict[str, X]`, or a dataclass: a JSON object of its fields, each decoded
    to its annotation, where a field without a default is required and no
    other key is allowed. Raises DecodeError at the first value that does not
    fit. The recursion follows `cls`, so it never goes deeper than `cls`.
    """
    return _decode(_spec(cls), value, "{}", where)


def _decode(spec, value: object, step: str, key: object):
    """`value` decoded to `spec`; an error adds `step.format(key)` to its path."""
    kinds, inner, name = spec
    try:
        if type(value) not in kinds:
            _fail(name)
        return value if inner is None or value is None else inner(value)
    except DecodeError as exc:
        exc.where = step.format(key) + exc.where
        raise


def _fail(name: str):
    raise DecodeError("", f" is not {name}")


@functools.cache
def _spec(cls) -> tuple[tuple[type, ...], typing.Callable | None, str]:
    """The JSON types a value of `cls` may have, the function that decodes
    inside one (None: it is used as it is), and the name of `cls` in errors.
    Cached, so each dataclass's type hints are resolved once."""
    origin, args = typing.get_origin(cls), typing.get_args(cls)
    if isinstance(cls, types.UnionType):  # X | None, where None is used as it is
        kinds, inner, name = _spec(next(arg for arg in args if arg is not type(None)))
        return (*kinds, type(None)), inner, f"{name} or null"
    if origin is typing.Literal:
        name = f"one of {list(args)}"
        return tuple({type(arg) for arg in args}), lambda value: value if value in args else _fail(name), name
    if dataclasses.is_dataclass(cls):
        hints = typing.get_type_hints(cls)
        fields = {
            f.name: (_spec(hints[f.name]), f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(cls)
        }
        return (dict,), functools.partial(_build, cls, fields), "an object"
    if origin is dict:
        values = _spec(args[1])
        return (dict,), lambda doc: {key: _decode(values, item, "[{!r}]", key) for key, item in doc.items()}, "an object"
    if origin in (list, tuple):
        fixed = origin is tuple and args[-1] is not Ellipsis
        specs = [_spec(arg) for arg in args if arg is not Ellipsis]
        name = f"a list of {len(specs)} items" if fixed else "a list"

        def items(value: list):
            if fixed and len(value) != len(specs):
                _fail(name)
            pairs = enumerate(zip(specs if fixed else itertools.repeat(specs[0]), value))
            return origin(_decode(spec, item, "[{}]", index) for index, (spec, item) in pairs)

        return (list,), items, name
    return (cls,), None, _NAMES[cls]


def _build(cls, fields: dict, doc: dict):
    """A `cls` of the keys of `doc`; `fields` holds each field's spec and whether it is required."""
    if not doc.keys() <= fields.keys():
        raise DecodeError(f"unknown key {next(key for key in doc if key not in fields)!r} in ")
    values = {}
    for name, (spec, required) in fields.items():
        if name in doc:
            values[name] = _decode(spec, doc[name], ".{}", name)
        elif required:
            raise DecodeError(f"missing key {name!r} in ")
    return cls(**values)

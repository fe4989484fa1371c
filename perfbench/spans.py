"""In-memory span recorder around pluginaudit's public functions.

Run as a script, it installs the wrappers, calls the `audit` CLI entry
point in-process with the given arguments, and writes every recorded span
to one JSON file when the command returns:

    PYTHONPATH=src python3 perfbench/spans.py --spans-out spans.json -- run-all ...

The wrappers live here, outside the program: no source file of pluginaudit
knows it is being traced. A name that `from x import y` copied into other
modules is replaced in every module that holds it, so calls through any
binding are counted. A wrapped name that no longer exists is listed under
"missing" instead of failing the run.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time


def _fetch_attrs(bound, result):
    attrs = {"url": bound.get("url"), "method": bound.get("method", "GET")}
    if result is not None:
        attrs.update(
            status=result.status,
            attempts=result.attempts,
            hops=len(result.redirect_chain),
            bytes=len(result.body),
            chain=list(result.redirect_chain) + [result.final_url],
        )
    return attrs


def _count(key):
    return lambda bound, result: {key: len(result)} if result is not None else {}


# (module, attribute path, per-plugin id argument, annotate(bound arguments, result or None))
WRAPPED = (
    ("pluginaudit.cli", "stage_discover", None, None),
    ("pluginaudit.cli", "stage_probe", None, None),
    ("pluginaudit.cli", "stage_consistency", None, None),
    ("pluginaudit.cli", "stage_scopes", None, None),
    ("pluginaudit.cli", "stage_report", None, None),
    ("pluginaudit.discovery", "discover_corpus", None,
     lambda b, r: {"plugins": len(r.verdicts)} if r is not None else {}),
    ("pluginaudit.discovery", "generate_candidates", None, _count("candidates")),
    ("pluginaudit.discovery", "classify_accessibility", "plugin",
     lambda b, r: {"verdict": r.verdict} if r is not None else {}),
    ("pluginaudit.discovery", "body_is_manifest", None, None),
    ("pluginaudit.fetch", "Fetcher.fetch", None, _fetch_attrs),
    ("pluginaudit.manifest", "parse_manifest", None, None),
    ("pluginaudit.manifest", "parse_openapi", None, None),
    ("pluginaudit.probe", "probe_manifests", None, None),
    ("pluginaudit.probe", "probe_plugin", "plugin_id",
     lambda b, r: {"probed": r[0] is not None, "skipped": r[1] is not None} if r is not None else {}),
    ("pluginaudit.consistency", "analyze_consistency", None, _count("findings")),
    ("pluginaudit.consistency", "aggregate_discrepancies", None, None),
    ("pluginaudit.consistency", "count_strict_only", None, None),
    ("pluginaudit.scoperisk", "categorize_corpus", None,
     lambda b, r: {"documents": len(b["docs"])}),
    ("pluginaudit.scoperisk", "distribution_report", None, None),
    ("pluginaudit.report", "build_report", None, None),
    ("pluginaudit.report", "render_report", None, _count("bytes")),
    ("pluginaudit.report", "load_report", None, None),
    ("pluginaudit.corpus", "load_corpus", None, None),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.rpartition('.')[2]}.{attr}"


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, thread.

    Spans on pool threads have no caller on their own thread; their parent is
    the innermost open span of the thread that created the tracer, which is
    the thread that submitted the pool's work. CPU time (process-wide) is
    taken only for spans on that thread.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, plugin_arg: str | None = None, annotate=None):
        signature = inspect.signature(fn) if plugin_arg or annotate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            on_main = stack is self._main_stack
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = self._main_stack[-1]
                except IndexError:
                    parent = None
            span_id = next(self._ids)
            stack.append(span_id)
            cpu_start = time.process_time() if on_main else None
            start = time.perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as caught:
                exc = caught
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": span_id, "parent": parent, "name": name, "thread": threading.get_ident(),
                        "start": start, "end": end}
                if cpu_start is not None:
                    span["cpu"] = time.process_time() - cpu_start
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    arguments = bound.arguments
                    if plugin_arg:
                        value = arguments[plugin_arg]
                        span["plugin"] = value if isinstance(value, str) else getattr(value, "plugin_id", None)
                    if annotate:
                        span["attrs"] = annotate(arguments, result)
                if exc is not None:
                    span["error"] = type(exc).__name__
                self.spans.append(span)

        return traced


def install(tracer: Tracer, wrapped=WRAPPED) -> tuple[dict[str, int], list[str]]:
    """Wrap each listed function in every pluginaudit module that binds it.

    Returns (bindings replaced per span name, span names that do not exist).
    """
    bindings: dict[str, int] = {}
    missing: list[str] = []
    for module_name, attr, plugin_arg, annotate in wrapped:
        name = span_name(module_name, attr)
        try:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        wrapper = tracer.wrap(name, original, plugin_arg, annotate)
        if path:
            setattr(owner, leaf, wrapper)
            bindings[name] = 1
            continue
        count = 0
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("pluginaudit"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    count += 1
        bindings[name] = count
    return bindings, missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    cli = importlib.import_module("pluginaudit.cli")
    tracer = Tracer()
    _, missing = install(tracer)
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    with open(args.spans_out, "w", encoding="utf-8") as handle:
        json.dump({"missing": missing, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())

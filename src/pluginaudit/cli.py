"""Single `audit` entry point wiring the pipeline subcommands.

Every stage writes its artifact under the output directory. `run-all`
executes discover -> probe -> consistency -> scopes -> report in order and
hands each stage's typed result to the next in memory, parsing each
manifest once. It content-addresses the network stages by input hash, so
`--cached` reruns skip fetching and reproduce byte-identical reports; only
then are `verdicts.json`, `manifests/` and `outcomes.json` read back. The
single-stage subcommands read their inputs from the artifacts.

Exit codes: 0 success, 1 fatal stage error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
from pathlib import Path

from . import consistency as consistency_mod
from . import corpus as corpus_mod
from . import discovery as discovery_mod
from . import fixture as fixture_mod
from . import probe as probe_mod
from . import report as report_mod
from . import scoperisk as scoperisk_mod
from .config import AuditConfig, ConfigError, load_config
from .fetch import Fetcher
from .manifest import ManifestDocument, ParseError, parse_manifest

EXIT_OK = 0
EXIT_STAGE_ERROR = 1
EXIT_CONFIG_ERROR = 2


class StageError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


_LOG_LOCK = threading.Lock()


def _json_log_fn(method, result):
    line = json.dumps(
        {
            "event": "fetch",
            "method": method,
            "url": result.url,
            "final_url": result.final_url,
            "status": result.status,
            "attempts": result.attempts,
        },
        sort_keys=True,
    )
    # One write under a lock: print() writes the newline separately, so
    # lines from concurrent fetches could interleave.
    with _LOG_LOCK:
        sys.stderr.write(line + "\n")


def _make_fetcher(config: AuditConfig) -> Fetcher:
    return Fetcher(
        max_concurrency=config.max_concurrency,
        per_host_delay_ms=config.per_host_delay_ms,
        timeout_ms=config.timeout_ms,
        retries=config.retries,
        base_url=config.base_url_override,
        log_fn=_json_log_fn if config.json_logs else None,
    )


def _write_json(path: Path, doc: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _read_json(path: Path, stage: str) -> object:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise StageError(stage, f"missing input file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise StageError(stage, f"unparseable JSON in {path}: {exc}") from exc


# --------------------------------------------------------------------------
# Stage implementations (shared by the single-stage commands and run-all)


def stage_discover(corpus, config: AuditConfig, verdicts_path: Path, manifests_dir: Path):
    fetcher = _make_fetcher(config)
    result = discovery_mod.discover_corpus(corpus, fetcher)
    _write_json(verdicts_path, discovery_mod.verdicts_to_doc(result.verdicts))
    manifests_dir.mkdir(parents=True, exist_ok=True)
    for stale in manifests_dir.glob("*.json"):
        stale.unlink()
    for plugin_id, manifest in sorted(result.manifests.items()):
        (manifests_dir / f"{plugin_id}.json").write_bytes(manifest.raw_source)
    return result


def _load_manifests(
    manifests_dir: Path, stage: str
) -> tuple[dict[str, ManifestDocument], dict[str, ParseError]]:
    """Parse each `<plugin_id>.json` once: (parsed, rejected with the error)."""
    if not manifests_dir.is_dir():
        raise StageError(stage, f"manifests directory not found: {manifests_dir}")
    parsed, rejected = {}, {}
    for path in sorted(manifests_dir.glob("*.json")):
        try:
            parsed[path.stem] = parse_manifest(path.read_bytes())
        except ParseError as exc:
            rejected[path.stem] = exc
    return parsed, rejected


def stage_probe(
    manifests: dict[str, ManifestDocument],
    rejected: dict[str, ParseError],
    config: AuditConfig,
    label: str,
    outcomes_path: Path,
):
    fetcher = _make_fetcher(config)
    run = probe_mod.probe_manifests(
        manifests, fetcher, budget=config.probe_budget, redact_tokens=config.redact_tokens
    )
    for plugin_id, exc in rejected.items():
        run.skipped[plugin_id] = f"{probe_mod.SKIP_IRREGULAR_MANIFEST}: {exc}"
    _write_json(outcomes_path, probe_mod.probe_run_to_doc(run, label))
    return run


def stage_consistency(corpus, manifests: dict[str, ManifestDocument], findings_path: Path):
    findings = consistency_mod.analyze_consistency(corpus, manifests)
    discrepancies = consistency_mod.aggregate_discrepancies(findings, corpus)
    strict_only = consistency_mod.count_strict_only(corpus, manifests)
    _write_json(
        findings_path,
        consistency_mod.findings_to_doc(findings, discrepancies, corpus.snapshot_label, strict_only),
    )
    return findings


def stage_scopes(manifests: dict[str, ManifestDocument], label: str, scopes_path: Path, lexicon=None):
    docs = []
    for plugin_id in sorted(manifests):
        manifest = manifests[plugin_id]
        if manifest.auth.auth_type == "oauth":
            docs.append(scoperisk_mod.make_scope_document(plugin_id, manifest.auth.scope))
    assignments = scoperisk_mod.categorize_corpus(docs, lexicon)
    distribution = scoperisk_mod.distribution_report(assignments)
    _write_json(scopes_path, scoperisk_mod.scopes_to_doc(assignments, distribution, label))
    return assignments, distribution


def stage_report(
    corpus, verdicts, probe_run, findings, assignments, distribution, input_labels: dict[str, str], out_path: Path
):
    try:
        report = report_mod.build_report(
            corpus, verdicts, probe_run, findings, assignments, distribution, input_labels=input_labels
        )
    except report_mod.ReportError as exc:
        raise StageError("report", str(exc)) from exc
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_bytes(report_mod.render_report(report, "json"))
    return report


# --------------------------------------------------------------------------
# Commands


def cmd_ingest(args) -> int:
    source = Path(args.input)
    if not source.is_file():
        print(f"error: index file not found: {source}", file=sys.stderr)
        return EXIT_STAGE_ERROR
    with source.open("r", encoding="utf-8") as handle:
        corpus = corpus_mod.ingest_index(handle, args.label)
    corpus_mod.save_corpus(corpus, args.out)
    print(f"ingested {len(corpus)} plugins ({len(corpus.ingest_errors)} malformed entries skipped) -> {args.out}")
    return EXIT_OK


def _load_corpus_or_fail(path: str):
    try:
        return corpus_mod.load_corpus(path)
    except corpus_mod.CorpusError as exc:
        raise StageError("corpus", str(exc)) from exc


def cmd_discover(args) -> int:
    config = _config_from_args(args)
    corpus = _load_corpus_or_fail(args.corpus)
    manifests_dir = Path(args.manifests_dir) if args.manifests_dir else Path(args.out).parent / "manifests"
    result = stage_discover(corpus, config, Path(args.out), manifests_dir)
    exposed = sum(1 for v in result.verdicts.values() if v.verdict == discovery_mod.VERDICT_ACCESSIBLE)
    print(f"discovered {exposed}/{len(corpus)} exposed manifests -> {args.out}")
    return EXIT_OK


def cmd_probe(args) -> int:
    config = _config_from_args(args)
    corpus = _load_corpus_or_fail(args.corpus)
    manifests, rejected = _load_manifests(Path(args.manifests), "probe")
    run = stage_probe(manifests, rejected, config, corpus.snapshot_label, Path(args.out))
    print(f"probed {len(run.results)} plugins, skipped {len(run.skipped)} -> {args.out}")
    return EXIT_OK


def cmd_consistency(args) -> int:
    corpus = _load_corpus_or_fail(args.corpus)
    manifests, _ = _load_manifests(Path(args.manifests), "consistency")
    findings = stage_consistency(corpus, manifests, Path(args.out))
    print(f"found {len(findings)} consistency findings -> {args.out}")
    return EXIT_OK


def cmd_scopes(args) -> int:
    corpus = _load_corpus_or_fail(args.corpus)
    manifests, _ = _load_manifests(Path(args.manifests), "scopes")
    lexicon = scoperisk_mod.load_seed_lexicon(args.seed_lexicon) if args.seed_lexicon else None
    assignments, _ = stage_scopes(manifests, corpus.snapshot_label, Path(args.out), lexicon)
    print(f"categorized {len(assignments)} OAuth scopes -> {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    corpus = _load_corpus_or_fail(args.corpus)
    verdicts = discovery_mod.verdicts_from_doc(_read_json(Path(args.verdicts), "report"))
    probe_run, probe_label = probe_mod.probe_run_from_doc(_read_json(Path(args.outcomes), "report"))
    findings, findings_label = consistency_mod.findings_from_doc(_read_json(Path(args.findings), "report"))
    assignments, distribution, scopes_label = scoperisk_mod.scopes_from_doc(_read_json(Path(args.scopes), "report"))
    labels = {"outcomes": probe_label, "findings": findings_label, "scopes": scopes_label}
    report = stage_report(corpus, verdicts, probe_run, findings, assignments, distribution, labels, Path(args.out))
    if args.format == "markdown":
        md_path = Path(args.out).with_suffix(".md")
        md_path.write_bytes(report_mod.render_report(report, "markdown"))
        print(f"report -> {args.out} and {md_path}")
    else:
        print(f"report -> {args.out}")
    return EXIT_OK


def cmd_diff(args) -> int:
    try:
        before = report_mod.load_report(args.before)
        after = report_mod.load_report(args.after)
    except (report_mod.ReportError, FileNotFoundError, json.JSONDecodeError) as exc:
        raise StageError("diff", str(exc)) from exc
    diff = report_mod.diff_reports(before, after)
    payload = report_mod.render_diff(diff, args.format)
    if args.out:
        Path(args.out).write_bytes(payload)
        print(f"diff -> {args.out}")
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return EXIT_OK


def cmd_gen_plan(args) -> int:
    plan = fixture_mod.generate_plan(args.profile, args.seed)
    fixture_mod.save_plan(plan, args.out)
    if args.index_out:
        fixture_mod.write_index_ndjson(plan, args.index_out)
        print(f"plan ({args.profile}, seed {args.seed}) -> {args.out}; index -> {args.index_out}")
    else:
        print(f"plan ({args.profile}, seed {args.seed}) -> {args.out}")
    return EXIT_OK


def cmd_serve_fixtures(args) -> int:
    plan = fixture_mod.load_plan(args.plan)
    try:
        server = fixture_mod.serve_fixtures(plan, args.port)
    except OSError as exc:
        print(f"error: cannot bind port {args.port}: {exc}", file=sys.stderr)
        return EXIT_STAGE_ERROR
    print(f"fixture store serving {len(plan.index)} plugins at {server.base_url} (Ctrl-C to stop)")
    try:
        server.wait()
    except KeyboardInterrupt:
        server.stop()
    return EXIT_OK


def _fingerprint(*parts: bytes | str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8") if isinstance(part, str) else part)
        digest.update(b"\x1f")
    return digest.hexdigest()


def cmd_run_all(args) -> int:
    config = _config_from_args(args)
    corpus_path = Path(args.corpus)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = _load_corpus_or_fail(args.corpus)
    corpus_bytes = corpus_path.read_bytes()
    label = corpus.snapshot_label

    verdicts_path = out_dir / "verdicts.json"
    manifests_dir = out_dir / "manifests"
    outcomes_path = out_dir / "outcomes.json"
    findings_path = out_dir / "findings.json"
    scopes_path = out_dir / "scopes.json"
    report_path = out_dir / "report.json"
    cache_path = out_dir / "cache.json"

    cache: dict = {}
    if cache_path.is_file():
        try:
            cache = json.loads(cache_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            cache = {}

    fetch_knobs = f"{config.base_url_override}|{config.timeout_ms}|{config.retries}"
    discover_fp = _fingerprint(corpus_bytes, "discover", fetch_knobs)
    if args.cached and cache.get("discover") == discover_fp and verdicts_path.is_file() and manifests_dir.is_dir():
        verdicts = discovery_mod.verdicts_from_doc(_read_json(verdicts_path, "discover"))
        manifests, rejected = _load_manifests(manifests_dir, "discover")
        print("discover: cached")
    else:
        discovered = stage_discover(corpus, config, verdicts_path, manifests_dir)
        verdicts, manifests, rejected = discovered.verdicts, discovered.manifests, {}
        cache["discover"] = discover_fp
        _write_json(cache_path, cache)
        print("discover: done")

    probe_fp = _fingerprint(
        discover_fp, "probe", fetch_knobs, str(config.probe_budget), str(config.redact_tokens)
    )
    input_labels: dict[str, str] = {}
    if args.cached and cache.get("probe") == probe_fp and outcomes_path.is_file():
        probe_run, input_labels["outcomes"] = probe_mod.probe_run_from_doc(_read_json(outcomes_path, "probe"))
        print("probe: cached")
    else:
        probe_run = stage_probe(manifests, rejected, config, label, outcomes_path)
        cache["probe"] = probe_fp
        _write_json(cache_path, cache)
        print("probe: done")

    findings = stage_consistency(corpus, manifests, findings_path)
    print("consistency: done")
    assignments, distribution = stage_scopes(manifests, label, scopes_path)
    print("scopes: done")

    report = stage_report(corpus, verdicts, probe_run, findings, assignments, distribution, input_labels, report_path)
    (out_dir / "report.md").write_bytes(report_mod.render_report(report, "markdown"))
    print(f"report: done -> {report_path}")
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument parsing


def _add_fetch_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (or set AUDIT_CONFIG)")
    parser.add_argument("--base-url", dest="base_url", help="redirect all traffic to this fixture base URL")
    parser.add_argument("--max-concurrency", dest="max_concurrency", type=int)
    parser.add_argument("--per-host-delay-ms", dest="per_host_delay_ms", type=int)
    parser.add_argument("--timeout-ms", dest="timeout_ms", type=int)
    parser.add_argument("--retries", type=int)
    parser.add_argument("--json-logs", dest="json_logs", action="store_true", default=None,
                        help="one structured log line per fetch on stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="audit", description="Plugin-store security audit toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="ingest an NDJSON store index into a corpus file")
    p.set_defaults(func=cmd_ingest)
    p.add_argument("--input", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("discover", help="layer 1: manifest exposure discovery")
    p.set_defaults(func=cmd_discover)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifests-dir", dest="manifests_dir")
    _add_fetch_flags(p)

    p = sub.add_parser("probe", help="layer 2: API authentication probing")
    p.set_defaults(func=cmd_probe)
    p.add_argument("--corpus", required=True)
    p.add_argument("--manifests", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--budget", dest="probe_budget", type=int)
    p.add_argument("--no-redact", dest="redact_tokens", action="store_false", default=None)
    _add_fetch_flags(p)

    p = sub.add_parser("consistency", help="layer 3: metadata consistency analysis")
    p.set_defaults(func=cmd_consistency)
    p.add_argument("--corpus", required=True)
    p.add_argument("--manifests", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("scopes", help="OAuth scope risk categorization")
    p.set_defaults(func=cmd_scopes)
    p.add_argument("--corpus", required=True)
    p.add_argument("--manifests", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed-lexicon", dest="seed_lexicon")

    p = sub.add_parser("report", help="aggregate all layer outputs into one report")
    p.set_defaults(func=cmd_report)
    p.add_argument("--corpus", required=True)
    p.add_argument("--verdicts", required=True)
    p.add_argument("--outcomes", required=True)
    p.add_argument("--findings", required=True)
    p.add_argument("--scopes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["json", "markdown"], default="json")

    p = sub.add_parser("diff", help="diff two snapshot reports")
    p.set_defaults(func=cmd_diff)
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--format", choices=["json", "markdown"], default="markdown")
    p.add_argument("--out")

    p = sub.add_parser("serve-fixtures", help="run the mock plugin store")
    p.set_defaults(func=cmd_serve_fixtures)
    p.add_argument("--plan", required=True)
    p.add_argument("--port", type=int, default=0)

    p = sub.add_parser("gen-plan", help="generate a fixture plan")
    p.set_defaults(func=cmd_gen_plan)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--profile", choices=[fixture_mod.PROFILE_PAPER_TABLES, fixture_mod.PROFILE_REVISIT],
                   default=fixture_mod.PROFILE_PAPER_TABLES)
    p.add_argument("--out", required=True)
    p.add_argument("--index-out", dest="index_out")

    p = sub.add_parser("run-all", help="discover, probe, analyze, and report in one pass")
    p.set_defaults(func=cmd_run_all)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--cached", action="store_true", help="reuse network-stage artifacts when input hashes match")
    p.add_argument("--budget", dest="probe_budget", type=int)
    p.add_argument("--no-redact", dest="redact_tokens", action="store_false", default=None)
    _add_fetch_flags(p)

    return parser


def _config_from_args(args) -> AuditConfig:
    overrides = {
        "max_concurrency": getattr(args, "max_concurrency", None),
        "per_host_delay_ms": getattr(args, "per_host_delay_ms", None),
        "timeout_ms": getattr(args, "timeout_ms", None),
        "retries": getattr(args, "retries", None),
        "probe_budget": getattr(args, "probe_budget", None),
        "base_url_override": getattr(args, "base_url", None),
        "redact_tokens": getattr(args, "redact_tokens", None),
        "json_logs": getattr(args, "json_logs", None),
    }
    return load_config(getattr(args, "config", None), overrides)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except StageError as exc:
        print(f"error in stage {exc.stage}: {exc}", file=sys.stderr)
        return EXIT_STAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

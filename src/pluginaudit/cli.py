"""Single `audit` entry point wiring the pipeline subcommands.

Every stage writes its artifact under the output directory in the formats
of `artifacts`. `run-all` executes discover -> probe -> consistency ->
scopes -> report in order and hands each stage's typed result to the next
in memory, parsing each manifest once. `--cached` reuses a network stage's
artifacts only when its input hash matches and they are the bytes it wrote,
so reruns skip fetching and reproduce byte-identical reports. The
single-stage subcommands read their inputs from the artifacts.

Each command imports, at the top of its body, the layers it runs, so that
`ingest`, `gen-plan` and `serve-fixtures` load no audit layer and `probe`
loads no analysis layer.

Exit codes: 0 success, 1 fatal stage error or unwritable output, 2
configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import threading
from pathlib import Path
from typing import TYPE_CHECKING

from .config import AuditConfig, ConfigError, StageError, load_config

if TYPE_CHECKING:
    from .corpus import Corpus
    from .fetch import Fetcher
    from .manifest import ManifestDocument, ParseError

EXIT_OK = 0
EXIT_STAGE_ERROR = 1
EXIT_CONFIG_ERROR = 2

# fixture.PROFILES, named here so that only gen-plan and serve-fixtures
# load the fixture module; the first is the default.
FIXTURE_PROFILES = ("paper-tables", "revisit")


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
    from .fetch import Fetcher

    return Fetcher(
        max_concurrency=config.max_concurrency,
        per_host_delay_ms=config.per_host_delay_ms,
        timeout_ms=config.timeout_ms,
        retries=config.retries,
        base_url=config.base_url_override,
        log_fn=_json_log_fn if config.json_logs else None,
    )


# --------------------------------------------------------------------------
# Stage implementations (shared by the single-stage commands and run-all)


def stage_discover(corpus, config: AuditConfig, verdicts_path: Path, manifests_dir: Path):
    from . import artifacts, discovery as discovery_mod

    fetcher = _make_fetcher(config)
    result = discovery_mod.discover_corpus(corpus, fetcher)
    artifacts.write_verdicts(verdicts_path, result.verdicts)
    artifacts.write_manifests(manifests_dir, result.manifests)
    return result


def stage_probe(
    manifests: dict[str, ManifestDocument],
    rejected: dict[str, ParseError],
    config: AuditConfig,
    label: str,
    outcomes_path: Path,
):
    from . import artifacts, probe as probe_mod

    fetcher = _make_fetcher(config)
    run = probe_mod.probe_manifests(
        manifests, fetcher, budget=config.probe_budget, redact_tokens=config.redact_tokens
    )
    for plugin_id, exc in rejected.items():
        run.skipped[plugin_id] = f"{probe_mod.SKIP_IRREGULAR_MANIFEST}: {exc}"
    artifacts.write_outcomes(outcomes_path, run, label)
    return run


def stage_consistency(corpus, manifests: dict[str, ManifestDocument], findings_path: Path):
    from . import artifacts, consistency as consistency_mod

    findings = consistency_mod.analyze_consistency(corpus, manifests)
    per_developer = consistency_mod.aggregate_discrepancies(findings, corpus)
    strict_only = consistency_mod.count_strict_only(corpus, manifests)
    artifacts.write_findings(findings_path, findings, per_developer, corpus.snapshot_label, strict_only)
    return findings


def stage_scopes(manifests: dict[str, ManifestDocument], label: str, scopes_path: Path, lexicon=None):
    from . import artifacts, scoperisk as scoperisk_mod

    docs = []
    for plugin_id in sorted(manifests):
        manifest = manifests[plugin_id]
        if manifest.auth.auth_type == "oauth":
            docs.append(scoperisk_mod.make_scope_document(plugin_id, manifest.auth.scope))
    assignments = scoperisk_mod.categorize_corpus(docs, lexicon)
    artifacts.write_scopes(scopes_path, assignments, scoperisk_mod.distribution_report(assignments), label)
    return assignments


def stage_report(corpus, verdicts, probe_run, findings, assignments, out_path: Path):
    from . import report as report_mod

    report = report_mod.build_report(corpus, verdicts, probe_run, findings, assignments)
    report_mod.write_report(report, out_path)
    return report


# --------------------------------------------------------------------------
# Commands


def cmd_ingest(args) -> int:
    from . import corpus as corpus_mod

    try:
        args.label.encode("utf-8")
    except UnicodeEncodeError:  # argv bytes that are not UTF-8 arrive as lone surrogates
        raise ConfigError(f"--label {args.label!r} cannot be encoded as UTF-8") from None
    source = Path(args.input)
    if not source.is_file():
        print(f"error: index file not found: {source}", file=sys.stderr)
        return EXIT_STAGE_ERROR
    with source.open("rb") as handle:
        corpus = corpus_mod.ingest_index(handle, args.label)
    corpus_mod.save_corpus(corpus, args.out)
    print(f"ingested {len(corpus)} plugins ({len(corpus.ingest_errors)} malformed entries skipped) -> {args.out}")
    return EXIT_OK


def cmd_discover(args) -> int:
    from . import corpus as corpus_mod, discovery as discovery_mod

    config = _config_from_args(args)
    corpus = corpus_mod.load_corpus(args.corpus)
    manifests_dir = Path(args.manifests_dir) if args.manifests_dir else Path(args.out).parent / "manifests"
    result = stage_discover(corpus, config, Path(args.out), manifests_dir)
    exposed = sum(1 for v in result.verdicts.values() if v.verdict == discovery_mod.VERDICT_ACCESSIBLE)
    print(f"discovered {exposed}/{len(corpus)} exposed manifests -> {args.out}")
    return EXIT_OK


def cmd_probe(args) -> int:
    from . import artifacts, corpus as corpus_mod

    config = _config_from_args(args)
    corpus = corpus_mod.load_corpus(args.corpus)
    manifests, rejected = artifacts.read_manifests(Path(args.manifests), corpus.by_id().keys())
    run = stage_probe(manifests, rejected, config, corpus.snapshot_label, Path(args.out))
    print(f"probed {len(run.results)} plugins, skipped {len(run.skipped)} -> {args.out}")
    return EXIT_OK


def cmd_consistency(args) -> int:
    from . import artifacts, corpus as corpus_mod

    corpus = corpus_mod.load_corpus(args.corpus)
    manifests, _ = artifacts.read_manifests(Path(args.manifests), corpus.by_id().keys())
    findings = stage_consistency(corpus, manifests, Path(args.out))
    print(f"found {len(findings)} consistency findings -> {args.out}")
    return EXIT_OK


def cmd_scopes(args) -> int:
    from . import artifacts, corpus as corpus_mod, scoperisk as scoperisk_mod

    corpus = corpus_mod.load_corpus(args.corpus)
    manifests, _ = artifacts.read_manifests(Path(args.manifests), corpus.by_id().keys())
    lexicon = scoperisk_mod.load_seed_lexicon(args.seed_lexicon) if args.seed_lexicon else None
    assignments = stage_scopes(manifests, corpus.snapshot_label, Path(args.out), lexicon)
    print(f"categorized {len(assignments)} OAuth scopes -> {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    from . import artifacts, corpus as corpus_mod, report as report_mod

    if args.format == "markdown" and Path(args.out).suffix.lower() == ".md":
        raise ConfigError(f"--out {args.out} ends in .md, the path of the markdown report; give the JSON report's path")
    corpus = corpus_mod.load_corpus(args.corpus)
    label, ids = corpus.snapshot_label, corpus.by_id().keys()
    verdicts = artifacts.read_verdicts(Path(args.verdicts), ids)
    probe_run = artifacts.read_outcomes(Path(args.outcomes), label, ids)
    findings = artifacts.read_findings(Path(args.findings), label, ids)
    assignments = artifacts.read_scopes(Path(args.scopes), label, ids)
    report = stage_report(corpus, verdicts, probe_run, findings, assignments, Path(args.out))
    if args.format == "markdown":
        md_path = Path(args.out).with_suffix(".md")
        md_path.write_bytes(report_mod.render_report(report, "markdown"))
        print(f"report -> {args.out} and {md_path}")
    else:
        print(f"report -> {args.out}")
    return EXIT_OK


def cmd_diff(args) -> int:
    from . import report as report_mod

    before = report_mod.load_report(args.before)
    after = report_mod.load_report(args.after)
    diff = report_mod.diff_reports(before, after)
    payload = report_mod.render_diff(diff, args.format)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_bytes(payload)
        print(f"diff -> {args.out}")
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return EXIT_OK


def cmd_gen_plan(args) -> int:
    from . import fixture as fixture_mod

    plan = fixture_mod.generate_plan(args.profile, args.seed)
    fixture_mod.save_plan(plan, args.out)
    if args.index_out:
        fixture_mod.write_index_ndjson(plan, args.index_out)
        print(f"plan ({args.profile}, seed {args.seed}) -> {args.out}; index -> {args.index_out}")
    else:
        print(f"plan ({args.profile}, seed {args.seed}) -> {args.out}")
    return EXIT_OK


def cmd_serve_fixtures(args) -> int:
    from . import fixture as fixture_mod

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


def _fingerprint(*parts: bytes | str | Path) -> str:
    """SHA-256 of the parts; a file adds its name, length and bytes, read one file at a time."""
    from .digest import sha256

    digest = sha256()
    for part in parts:
        if isinstance(part, Path):
            data = part.read_bytes()
            digest.update(f"{part.name}\x1f{len(data)}\x1f".encode("utf-8"))
            part = data
        digest.update(part.encode("utf-8") if isinstance(part, str) else part)
        digest.update(b"\x1f")
    return digest.hexdigest()


def _code_identity(package: Path = Path(__file__).parent) -> str:
    """Fingerprint of the audit's source files, so an artifact is served only to the code that computed it."""
    return _fingerprint(*sorted(package.glob("*.py")))


def _load_keyed_corpus(path: str, fetch_knobs: str) -> tuple[Corpus, str]:
    """The corpus at `path` and its discover cache key. The file is read once,
    so the key is the key of the corpus audited, and its bytes are not kept."""
    from . import corpus as corpus_mod

    data = corpus_mod.read_corpus_bytes(path)
    return corpus_mod.load_corpus(path, data), _fingerprint(data, "discover", fetch_knobs, _code_identity())


def cmd_run_all(args) -> int:
    # Every stage before the corpus: each compiled at its stage, after the
    # corpus, they raised run-all's peak RSS by about 0.16 MB.
    from . import artifacts, report as report_mod
    from . import consistency, discovery, probe, scoperisk  # noqa: F401

    config = _config_from_args(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fetch_knobs = f"{config.base_url_override}|{config.timeout_ms}|{config.retries}"
    corpus, discover_key = _load_keyed_corpus(args.corpus, fetch_knobs)
    label, ids = corpus.snapshot_label, corpus.by_id().keys()

    verdicts_path = out_dir / "verdicts.json"
    manifests_dir = out_dir / "manifests"
    outcomes_path = out_dir / "outcomes.json"
    findings_path = out_dir / "findings.json"
    scopes_path = out_dir / "scopes.json"
    report_path = out_dir / "report.json"
    cache_path = out_dir / "cache.json"

    try:
        cache = artifacts.read_json(cache_path, StageError, "cache", dict[str, str])
    except StageError:  # anything unreadable is no entries
        cache = {}

    # A stage's cache entry hashes its input key with the bytes it wrote, so
    # an artifact changed on disk since is not served. The probe key chains
    # from the discover entry, so both keys cover the code.
    def discover_entry() -> str:
        return _fingerprint(discover_key, verdicts_path, *sorted(manifests_dir.glob("*.json")))

    if args.cached and verdicts_path.is_file() and manifests_dir.is_dir() and cache.get("discover") == discover_entry():
        verdicts = artifacts.read_verdicts(verdicts_path, ids)
        manifests, rejected = artifacts.read_manifests(manifests_dir, ids)
        print("discover: cached")
    else:
        discovered = stage_discover(corpus, config, verdicts_path, manifests_dir)
        verdicts, manifests, rejected = discovered.verdicts, discovered.manifests, {}
        cache["discover"] = discover_entry()
        artifacts.write_json(cache_path, cache)
        print("discover: done")

    probe_key = _fingerprint(
        cache["discover"], "probe", fetch_knobs, str(config.probe_budget), str(config.redact_tokens)
    )
    if args.cached and outcomes_path.is_file() and cache.get("probe") == _fingerprint(probe_key, outcomes_path):
        probe_run = artifacts.read_outcomes(outcomes_path, label, ids)
        print("probe: cached")
    else:
        probe_run = stage_probe(manifests, rejected, config, label, outcomes_path)
        cache["probe"] = _fingerprint(probe_key, outcomes_path)
        artifacts.write_json(cache_path, cache)
        print("probe: done")

    findings = stage_consistency(corpus, manifests, findings_path)
    print("consistency: done")
    assignments = stage_scopes(manifests, label, scopes_path)
    print("scopes: done")

    report = stage_report(corpus, verdicts, probe_run, findings, assignments, report_path)
    (out_dir / "report.md").write_bytes(report_mod.render_report(report, "markdown"))
    print(f"report: done -> {report_path}")
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument parsing


def _add_fetch_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (or set AUDIT_CONFIG)")
    parser.add_argument("--base-url", dest="base_url_override", help="redirect all traffic to this fixture base URL")
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
    p.add_argument("--profile", choices=FIXTURE_PROFILES, default=FIXTURE_PROFILES[0])
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
    """Each flag's dest is the name of the config key it overrides."""
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(AuditConfig)}
    return load_config(getattr(args, "config", None), overrides)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (StageError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error in stage {args.command}: {exc}", file=sys.stderr)
        return EXIT_STAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

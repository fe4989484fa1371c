from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pluginaudit import cli, corpus as corpus_mod, fixture as fixture_mod, manifest as manifest_mod
from pluginaudit.fixture import FixturePlan, FixtureSite, serve_fixtures


def test_ingest_writes_corpus(tmp_path, capsys):
    index = tmp_path / "index.ndjson"
    index.write_text('{"title": "X", "legal_info_url": "https://x.example/legal"}\n')
    out = tmp_path / "corpus.json"
    assert cli.main(["ingest", "--input", str(index), "--label", "t", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["snapshot_label"] == "t"
    assert "ingested 1 plugins" in capsys.readouterr().out


def test_ingest_missing_input_fails(tmp_path):
    assert cli.main(["ingest", "--input", str(tmp_path / "nope"), "--label", "t", "--out", str(tmp_path / "c")]) == 1


def test_ingest_records_an_undecodable_line_and_goes_on(tmp_path, capsys):
    index = tmp_path / "index.ndjson"
    index.write_bytes(b'{"title": "A"}\n{"title": "caf\xe9"}\n\n[1]\n' + b"[" * 100000 + b'\n{"title": "B"}\n')
    out = tmp_path / "corpus.json"
    assert cli.main(["ingest", "--input", str(index), "--label", "t", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sorted(record["store_title"] for record in doc["records"]) == ["A", "B"]
    undecodable, not_an_object, too_deep = doc["ingest_errors"]
    assert undecodable["line_no"] == 2 and undecodable["reason"].startswith("'utf-8' codec can't decode byte 0xe9")
    assert not_an_object == {"line_no": 4, "reason": "entry is not a JSON object"}
    assert too_deep["line_no"] == 5 and "recursion" in too_deep["reason"]
    assert "ingested 2 plugins (3 malformed entries skipped)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "config file not found"),
        ("directory", "cannot read config file"),
        (b'{"retries": "\xff"}', "is not valid JSON"),
        (b"{retries: 1}", "is not valid JSON"),
        (b"[" * 100000, "is not valid JSON"),
        (b"[1]", "the top level is not an object"),
        (b'{"json_logs": "false"}', "json_logs is not a boolean"),
        (b'{"redact_tokens": "no"}', "redact_tokens is not a boolean"),
        (b'{"base_url_override": 5}', "base_url_override is not a string or null"),
        (b'{"maximum_concurrency": 5}', "unknown key 'maximum_concurrency' in the top level"),
    ],
    ids=[
        "missing", "directory", "not-utf-8", "not-json", "nested-too-deeply", "not-an-object", "text-json-logs",
        "text-redact-tokens", "int-base-url", "unknown-key",
    ],
)
def test_config_file_that_cannot_be_used_exits_2(tmp_path, capsys, content, message):
    config = tmp_path / "cfg.json"
    if content == "directory":
        config.mkdir()
    elif content is not None:
        config.write_bytes(content)
    rc = cli.main(["run-all", "--corpus", str(tmp_path / "c.json"), "--out-dir", str(tmp_path / "o"), "--config", str(config)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and str(config) in err


def test_run_all_on_a_corpus_directory_exits_1(tmp_path, capsys):
    rc = cli.main(["run-all", "--corpus", str(tmp_path), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error in stage run-all: cannot read corpus file {tmp_path}")


def test_run_all_unreadable_corpus_exits_1(tmp_path):
    rc = cli.main(["run-all", "--corpus", str(tmp_path / "missing.json"), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert not (tmp_path / "out" / "report.json").exists()


def test_run_all_bad_concurrency_exits_2(tmp_path):
    rc = cli.main(
        ["run-all", "--corpus", str(tmp_path / "c.json"), "--out-dir", str(tmp_path / "o"), "--max-concurrency", "0"]
    )
    assert rc == 2


def test_config_file_and_env(tmp_path, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"max_concurrency": 0}))
    monkeypatch.setenv("AUDIT_CONFIG", str(config))
    rc = cli.main(["run-all", "--corpus", str(tmp_path / "c.json"), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    # Flag overrides the bad file value; failure moves on to the corpus stage.
    rc = cli.main(
        ["run-all", "--corpus", str(tmp_path / "c.json"), "--out-dir", str(tmp_path / "o"), "--max-concurrency", "4"]
    )
    assert rc == 1


def test_unknown_config_key_rejected(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"maximum_concurrency": 5}))
    rc = cli.main(
        ["run-all", "--corpus", str(tmp_path / "c.json"), "--out-dir", str(tmp_path / "o"), "--config", str(config)]
    )
    assert rc == 2


def test_gen_plan_profile_choices_are_the_fixture_profiles(capsys):
    for profile in fixture_mod.PROFILES:
        assert cli.build_parser().parse_args(["gen-plan", "--profile", profile, "--out", "p"]).profile == profile
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["gen-plan", "--profile", "bogus", "--out", "p"])
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_cli_names_the_fixture_profiles_in_their_order():
    assert cli.FIXTURE_PROFILES == tuple(fixture_mod.PROFILES)
    assert cli.FIXTURE_PROFILES[0] == fixture_mod.PROFILE_PAPER_TABLES


def test_gen_plan_and_serve_port_conflict(tmp_path):
    plan_path = tmp_path / "plan.json"
    assert cli.main(["gen-plan", "--seed", "1", "--profile", "revisit", "--out", str(plan_path)]) == 0
    from pluginaudit.fixture import load_plan, serve_fixtures

    server = serve_fixtures(load_plan(plan_path), 0)
    try:
        rc = cli.main(["serve-fixtures", "--plan", str(plan_path), "--port", str(server.port)])
        assert rc == 1
    finally:
        server.stop()


def test_gen_plan_writes_the_plan_and_its_index(tmp_path, capsys):
    plan_path, index_path = tmp_path / "plan.json", tmp_path / "index.ndjson"
    argv = ["gen-plan", "--profile", "revisit", "--seed", "3", "--out", str(plan_path), "--index-out", str(index_path)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == f"plan (revisit, seed 3) -> {plan_path}; index -> {index_path}\n"
    assert index_path.read_text() == fixture_mod.index_ndjson(fixture_mod.load_plan(plan_path))


def test_serve_fixtures_prints_its_url_and_stops_on_ctrl_c(tmp_path, capsys, monkeypatch):
    plan_path = tmp_path / "plan.json"
    fixture_mod.save_plan(FixturePlan(profile="empty", seed=0, index=[{"title": "T"}]), plan_path)
    real_wait, served = fixture_mod.FixtureServer.wait, []

    def interrupted(server):
        served.append(server)
        server.httpd.shutdown()  # the serving thread ends, so the real wait returns
        real_wait(server)
        raise KeyboardInterrupt

    monkeypatch.setattr(fixture_mod.FixtureServer, "wait", interrupted)
    assert cli.main(["serve-fixtures", "--plan", str(plan_path)]) == 0
    (server,) = served
    assert capsys.readouterr().out == f"fixture store serving 1 plugins at {server.base_url} (Ctrl-C to stop)\n"
    assert server.httpd.socket.fileno() == -1  # stopped: the listening socket is closed


def test_serve_fixtures_on_bad_plan_exits_1(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"profile": "old", "seed": 0, "index": [], "sites": {
        "a.example": {"host": "a.example", "rate_limit": 3, "endpoints": []},
    }}))
    assert cli.main(["serve-fixtures", "--plan", str(plan_path), "--port", "0"]) == 1
    err = capsys.readouterr().err
    assert str(plan_path) in err and "'rate_limit'" in err
    plan_path.write_text("{")
    assert cli.main(["serve-fixtures", "--plan", str(plan_path), "--port", "0"]) == 1
    assert str(plan_path) in capsys.readouterr().err


@pytest.mark.parametrize("status_ok", ["two hundred", True, 99, 600])
def test_serve_fixtures_refuses_a_status_that_is_no_http_status(tmp_path, capsys, monkeypatch, status_ok):
    plan_path = tmp_path / "plan.json"
    site = {"host": "a.example", "endpoints": [{"path": "/api/status", "status_ok": status_ok}]}
    plan_path.write_text(json.dumps({"profile": "p", "seed": 0, "index": [], "sites": {"a.example": site}}))
    monkeypatch.setattr(fixture_mod.FixtureServer, "wait", fixture_mod.FixtureServer.stop)
    assert cli.main(["serve-fixtures", "--plan", str(plan_path), "--port", "0"]) == 1
    err = capsys.readouterr().err
    where = f"malformed plan file {plan_path}: sites['a.example'].endpoints[0].status_ok is not"
    assert err.startswith(f"error in stage serve-fixtures: {where}") and "Traceback" not in err


def test_diff_cli_markdown(tmp_path, capsys):
    def write_report(path, leak):
        doc = {
            "schema_version": 1,
            "snapshot_label": "x",
            "metrics": {"file_leakage": leak, "inconsistent_plugins": 1, "no_token_valid": 1, "oauth_valid": 1, "bearer_valid": 1},
        }
        path.write_text(json.dumps(doc))

    before, after = tmp_path / "b.json", tmp_path / "a.json"
    write_report(before, 368)
    write_report(after, 282)
    assert cli.main(["diff", "--before", str(before), "--after", str(after), "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert "-23.4" in out


def test_report_label_mismatch_exits_1(tmp_path):
    corpus_doc = {
        "schema_version": 1,
        "snapshot_label": "first",
        "created_at": "now",
        "records": [],
        "ingest_errors": [],
    }
    (tmp_path / "corpus.json").write_text(json.dumps(corpus_doc))
    (tmp_path / "verdicts.json").write_text("[]")
    (tmp_path / "outcomes.json").write_text(json.dumps({"schema_version": 1, "snapshot_label": "other", "results": {}, "skipped": {}, "transcript": []}))
    (tmp_path / "findings.json").write_text(json.dumps({"schema_version": 1, "snapshot_label": "first", "findings": [], "per_developer": {}}))
    (tmp_path / "scopes.json").write_text(json.dumps({"schema_version": 1, "snapshot_label": "first", "assignments": [], "distribution": {}}))
    rc = cli.main(
        [
            "report",
            "--corpus", str(tmp_path / "corpus.json"),
            "--verdicts", str(tmp_path / "verdicts.json"),
            "--outcomes", str(tmp_path / "outcomes.json"),
            "--findings", str(tmp_path / "findings.json"),
            "--scopes", str(tmp_path / "scopes.json"),
            "--out", str(tmp_path / "report.json"),
        ]
    )
    assert rc == 1


def _report_argv(tmp_path, out: Path, label: str = "t") -> list[str]:
    """The report command on an empty corpus and empty artifacts of its snapshot, writing `out`."""
    envelope = {"schema_version": 1, "snapshot_label": label}
    (tmp_path / "corpus.json").write_text(json.dumps({**envelope, "created_at": "now", "records": [], "ingest_errors": []}))
    (tmp_path / "verdicts.json").write_text("[]")
    (tmp_path / "outcomes.json").write_text(json.dumps({**envelope, "results": {}, "skipped": {}, "transcript": []}))
    (tmp_path / "findings.json").write_text(json.dumps({**envelope, "findings": [], "per_developer": {}}))
    (tmp_path / "scopes.json").write_text(json.dumps({**envelope, "assignments": [], "distribution": {}}))
    inputs = ("corpus", "verdicts", "outcomes", "findings", "scopes")
    return ["report", *(arg for name in inputs for arg in (f"--{name}", str(tmp_path / f"{name}.json"))), "--out", str(out)]


def _diff_argv(tmp_path, out: Path) -> list[str]:
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"schema_version": 1, "snapshot_label": "x", "metrics": {"file_leakage": 10}}))
    return ["diff", "--before", str(report), "--after", str(report), "--out", str(out)]


def _ingest_argv(tmp_path, out: Path) -> list[str]:
    index = tmp_path / "index.ndjson"
    index.write_text('{"title": "X"}\n')
    return ["ingest", "--input", str(index), "--label", "t", "--out", str(out)]


@pytest.mark.parametrize(
    "command, argv",
    [
        ("run-all", lambda tmp, blocker: ["run-all", "--corpus", str(tmp / "c.json"), "--out-dir", str(blocker)]),
        ("ingest", lambda tmp, blocker: _ingest_argv(tmp, blocker / "c.json")),
        ("report", lambda tmp, blocker: _report_argv(tmp, blocker / "r.json")),
        ("gen-plan", lambda tmp, blocker: ["gen-plan", "--profile", "revisit", "--seed", "1", "--out", str(blocker / "p.json")]),
        ("diff", lambda tmp, blocker: _diff_argv(tmp, blocker / "d.md")),
    ],
    ids=["run-all", "ingest", "report", "gen-plan", "diff"],
)
def test_an_output_path_that_cannot_be_written_exits_1(tmp_path, capsys, command, argv):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    assert cli.main(argv(tmp_path, blocker)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error in stage {command}: ") and str(blocker) in err and "Traceback" not in err


def test_ingest_refuses_a_label_that_cannot_be_encoded_as_utf8(tmp_path, capsys):
    out = tmp_path / "c.json"
    argv = _ingest_argv(tmp_path, out)
    argv[argv.index("--label") + 1] = "lab\udcff"  # how Python's argv holds the bytes b"lab\xff"
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "--label" in err and "Traceback" not in err
    assert not out.exists()


def test_report_text_that_cannot_be_encoded_exits_1_and_keeps_the_earlier_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    out.write_bytes(b"earlier\n")
    argv = _report_argv(tmp_path, out, label="lab\udcff")
    before = sorted(tmp_path.iterdir())
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error in stage report: ") and "UTF-8" in err and "Traceback" not in err
    assert out.read_bytes() == b"earlier\n" and sorted(tmp_path.iterdir()) == before


def test_run_all_report_that_cannot_be_encoded_exits_1_and_keeps_the_earlier_report(small_store, capsys):
    out_dir = Path(small_store[small_store.index("--out-dir") + 1])
    assert cli.main(small_store) == 0
    earlier = (out_dir / "report.json").read_bytes()
    names = sorted(path.name for path in out_dir.iterdir())
    corpus = Path(small_store[small_store.index("--corpus") + 1])
    doc = json.loads(corpus.read_text())
    doc["records"][-1]["developer_domain"] = "bad\ud800.example"  # the dossier that sorts last
    corpus.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(small_store) == 1
    err = capsys.readouterr().err
    assert err.startswith("error in stage run-all: ") and "UTF-8" in err and "Traceback" not in err
    assert (out_dir / "report.json").read_bytes() == earlier
    assert sorted(path.name for path in out_dir.iterdir()) == names


def test_diff_out_creates_its_directory(tmp_path, capsys):
    out = tmp_path / "no" / "dir" / "diff.md"
    assert cli.main(_diff_argv(tmp_path, out)) == 0
    assert out.read_bytes() and capsys.readouterr().out == f"diff -> {out}\n"


@pytest.mark.parametrize("name", ["r.md", "r.MD"])
def test_report_markdown_refuses_an_out_path_ending_in_md(tmp_path, capsys, name):
    out = tmp_path / name
    assert cli.main([*_report_argv(tmp_path, out), "--format", "markdown"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and str(out) in captured.err and not captured.out
    assert not out.exists()


def test_single_stage_commands_reproduce_the_run_all_report(paper_run, tmp_path):
    """consistency, scopes and report, run one by one on the session run's
    artifacts, write the golden report.json and run-all's report.md."""
    run_dir = paper_run.out_dir
    inputs = ["--corpus", str(paper_run.corpus_path), "--manifests", str(run_dir / "manifests")]
    assert cli.main(["consistency", *inputs, "--out", str(tmp_path / "findings.json")]) == 0
    assert cli.main(["scopes", *inputs, "--out", str(tmp_path / "scopes.json")]) == 0
    report_argv = [
        "report",
        "--corpus", str(paper_run.corpus_path),
        "--verdicts", str(run_dir / "verdicts.json"),
        "--outcomes", str(run_dir / "outcomes.json"),
        "--findings", str(tmp_path / "findings.json"),
        "--scopes", str(tmp_path / "scopes.json"),
        "--out", str(tmp_path / "report.json"),
        "--format", "markdown",
    ]
    assert cli.main(report_argv) == 0
    golden = Path(__file__).parent / "golden" / "report-paper-tables.json"
    assert (tmp_path / "report.json").read_bytes() == golden.read_bytes()
    assert (tmp_path / "report.md").read_bytes() == (run_dir / "report.md").read_bytes()


def test_probe_missing_manifest_dir_exits_1(tmp_path):
    corpus_doc = {"schema_version": 1, "snapshot_label": "x", "created_at": "now", "records": [], "ingest_errors": []}
    (tmp_path / "corpus.json").write_text(json.dumps(corpus_doc))
    rc = cli.main(
        [
            "probe",
            "--corpus", str(tmp_path / "corpus.json"),
            "--manifests", str(tmp_path / "manifests"),
            "--out", str(tmp_path / "outcomes.json"),
        ]
    )
    assert rc == 1


def test_json_logs_emit_one_line_per_fetch(tmp_path, capsys):
    from pluginaudit.fixture import FixturePlan, FixtureSite, serve_fixtures

    site = FixtureSite(host="solo.example")
    site.manifest = {
        "name_for_human": "Solo",
        "name_for_model": "solo",
        "description_for_model": "d",
        "api": {"type": "openapi", "url": "https://solo.example/openapi.json"},
    }
    plan = FixturePlan(profile="solo", seed=0)
    plan.sites["solo.example"] = site
    index = tmp_path / "index.ndjson"
    index.write_text('{"title": "Solo", "legal_info_url": "https://solo.example/legal"}\n')
    corpus = tmp_path / "corpus.json"
    assert cli.main(["ingest", "--input", str(index), "--label", "t", "--out", str(corpus)]) == 0
    capsys.readouterr()

    server = serve_fixtures(plan, 0)
    try:
        rc = cli.main(
            [
                "discover",
                "--corpus", str(corpus),
                "--out", str(tmp_path / "verdicts.json"),
                "--base-url", server.base_url,
                "--per-host-delay-ms", "0",
                "--retries", "0",
                "--json-logs",
            ]
        )
    finally:
        server.stop()
    assert rc == 0
    err_lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert len(err_lines) == 1  # manifest found on the first candidate
    event = json.loads(err_lines[0])
    assert event["event"] == "fetch" and event["status"] == 200 and event["error"] is None


def test_json_logs_name_the_transport_error(tmp_path, capsys):
    import socket

    index = tmp_path / "index.ndjson"
    index.write_text('{"title": "Gone", "legal_info_url": "https://gone.example/"}\n')
    corpus = tmp_path / "corpus.json"
    assert cli.main(["ingest", "--input", str(index), "--label", "t", "--out", str(corpus)]) == 0
    with socket.socket() as sock:  # a port that was free a moment ago: nothing listens there
        sock.bind(("127.0.0.1", 0))
        closed_port = sock.getsockname()[1]
    capsys.readouterr()
    rc = cli.main(
        [
            "discover",
            "--corpus", str(corpus),
            "--out", str(tmp_path / "verdicts.json"),
            "--base-url", f"http://127.0.0.1:{closed_port}",
            "--per-host-delay-ms", "0",
            "--retries", "0",
            "--json-logs",
        ]
    )
    assert rc == 0
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert [event["url"] for event in events] == [
        "https://gone.example/.well-known/ai-plugin.json", "https://gone.example/.well-known/",
    ]
    for event in events:
        assert event["status"] == 0 and event["attempts"] == 1
        assert event["error"].startswith("ConnectionRefusedError: ")


def test_json_logs_stay_whole_under_concurrency(capsys):
    from pluginaudit.fetch import Fetcher
    from pluginaudit.fixture import FixturePlan, serve_fixtures

    server = serve_fixtures(FixturePlan(profile="empty", seed=0), 0)
    urls = [f"https://h{i % 40}.example/x/{i}" for i in range(200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fetcher = Fetcher(
            max_concurrency=8, per_host_delay_ms=0, retries=0, base_url=server.base_url, log_fn=cli._json_log_fn
        )
        fetcher.map_concurrent(fetcher.fetch, urls)
    finally:
        sys.setswitchinterval(interval)
        server.stop()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == len(urls)
    assert sorted(json.loads(line)["url"] for line in lines) == sorted(urls)


def test_run_all_keeps_the_per_host_delay_across_discover_and_probe(tmp_path, monkeypatch):
    # One plugin: discover's manifest GET and probe's OpenAPI GET go to the
    # same logical host, so the second waits the delay after the first.
    from pluginaudit.fetch import Fetcher

    site = FixtureSite(host="solo.example")
    site.manifest = {
        "name_for_human": "Solo",
        "name_for_model": "solo",
        "description_for_model": "d",
        "api": {"type": "openapi", "url": "https://solo.example/openapi.json"},
    }
    plan = FixturePlan(profile="solo", seed=0)
    plan.sites["solo.example"] = site
    index = tmp_path / "index.ndjson"
    index.write_text('{"title": "Solo", "legal_info_url": "https://solo.example/legal"}\n')
    corpus = tmp_path / "corpus.json"
    assert cli.main(["ingest", "--input", str(index), "--label", "t", "--out", str(corpus)]) == 0

    exchange = Fetcher._exchange
    spans: dict[str, list[tuple[float, float]]] = {}

    def timed(self, method, parts, headers, body):
        start = time.monotonic()
        try:
            return exchange(self, method, parts, headers, body)
        finally:
            spans.setdefault(parts.hostname, []).append((start, time.monotonic()))

    monkeypatch.setattr(Fetcher, "_exchange", timed)
    server = serve_fixtures(plan, 0)
    try:
        rc = cli.main(
            [
                "run-all",
                "--corpus", str(corpus),
                "--out-dir", str(tmp_path / "out"),
                "--base-url", server.base_url,
                "--per-host-delay-ms", "300",
                "--retries", "0",
            ]
        )
    finally:
        server.stop()
    assert rc == 0
    solo = spans["solo.example"]
    assert len(solo) >= 2  # the manifest, then the OpenAPI document
    gaps = [start - end for (_, end), (start, _) in zip(solo, solo[1:])]
    assert min(gaps) >= 0.3


def test_run_all_spaces_requests_to_two_hosts_of_one_site(tmp_path, monkeypatch):
    # a.shared.example and b.shared.example are one site, so their requests
    # share one clock, even with four workers free to send them at once.
    from pluginaudit.fetch import Fetcher

    plan = FixturePlan(profile="shared", seed=0)
    index = tmp_path / "index.ndjson"
    for host in ("a.shared.example", "b.shared.example"):
        plan.sites[host] = FixtureSite(host=host)
        with index.open("a") as handle:
            handle.write(json.dumps({"title": host, "legal_info_url": f"https://{host}/"}) + "\n")
    corpus = tmp_path / "corpus.json"
    assert cli.main(["ingest", "--input", str(index), "--label", "t", "--out", str(corpus)]) == 0

    exchange = Fetcher._exchange
    spans: list[tuple[float, float]] = []

    def timed(self, method, parts, headers, body):
        start = time.monotonic()
        try:
            return exchange(self, method, parts, headers, body)
        finally:
            spans.append((start, time.monotonic()))

    monkeypatch.setattr(Fetcher, "_exchange", timed)
    server = serve_fixtures(plan, 0)
    try:
        rc = cli.main(
            [
                "run-all",
                "--corpus", str(corpus),
                "--out-dir", str(tmp_path / "out"),
                "--base-url", server.base_url,
                "--per-host-delay-ms", "300",
                "--max-concurrency", "4",
                "--retries", "0",
            ]
        )
    finally:
        server.stop()
    assert rc == 0
    assert len(spans) == 4  # the well-known pair at each origin
    spans.sort()
    gaps = [start - end for (_, end), (start, _) in zip(spans, spans[1:])]
    assert min(gaps) >= 0.3


def _modules_loaded(cwd: Path, argv: list[str] | None) -> tuple[int | None, set[str]]:
    """(exit code, sys.modules) of a fresh interpreter that imports the CLI
    and, given an argv, runs `cli.main(argv)` in `cwd`."""
    run = f"rc = cli.main({argv!r})" if argv is not None else "rc = None"
    code = f"import json, sys; from pluginaudit import cli; {run}; print(json.dumps([rc, sorted(sys.modules)]))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=60, check=True)
    rc, modules = json.loads(out.stdout.splitlines()[-1])
    return rc, set(modules)


def test_cli_import_loads_no_third_party_http_client(tmp_path):
    # Nor what only some commands run: TLS, YAML, the fixture store's server, and every stage;
    # nor OpenSSL's hashes.
    unused = {"requests", "urllib3", "http.client", "http.server", "ssl", "_hashlib", "email", "yaml", "pluginaudit.fixture"}
    _, modules = _modules_loaded(tmp_path, None)
    assert not unused & modules
    assert {name for name in modules if name.startswith("pluginaudit.")} == {"pluginaudit.cli", "pluginaudit.config"}


_NETWORK_AND_AUDIT = ("fetch", "manifest", "discovery", "probe", "consistency", "scoperisk", "report", "artifacts")
# OpenSSL: its hashes, and TLS, which no command loads before an https origin.
_OPENSSL = ("_hashlib", "ssl")
# The network stages run on plain threads, not an executor.
_THREAD_POOL = ("concurrent.futures", "logging")


@pytest.mark.parametrize(
    "argv, rc, absent",
    [
        (["ingest", "--input", "index.ndjson", "--label", "t", "--out", "corpus.json"], 0, (*_NETWORK_AND_AUDIT, *_OPENSSL)),
        (["gen-plan", "--profile", "revisit", "--seed", "1", "--out", "plan.json"], 0,
         (*_NETWORK_AND_AUDIT, "http.server", *_OPENSSL)),
        (["serve-fixtures", "--plan", "bad-plan.json"], 1, (*_NETWORK_AND_AUDIT, *_OPENSSL)),
        (["probe", "--corpus", "corpus.json", "--manifests", "manifests", "--out", "outcomes.json"], 0,
         ("discovery", "consistency", "scoperisk", "report", "fixture", *_OPENSSL, *_THREAD_POOL)),
        (None, 0, ("fixture", "http.server", *_OPENSSL, *_THREAD_POOL)),  # run-all against small_store, over http
    ],
    ids=["ingest", "gen-plan", "serve-fixtures", "probe", "run-all"],
)
def test_each_command_loads_only_the_layers_it_runs(request, tmp_path, argv, rc, absent):
    argv = argv or request.getfixturevalue("small_store")
    (tmp_path / "index.ndjson").write_text('{"title": "X", "legal_info_url": "https://x.example/legal"}\n')
    (tmp_path / "bad-plan.json").write_text("{")
    corpus_doc = {"schema_version": 1, "snapshot_label": "t", "created_at": "now", "records": [], "ingest_errors": []}
    (tmp_path / "corpus.json").write_text(json.dumps(corpus_doc))
    (tmp_path / "manifests").mkdir()
    code, modules = _modules_loaded(tmp_path, argv)
    assert code == rc
    loaded = {name for name in absent if name in modules or f"pluginaudit.{name}" in modules}
    assert not loaded, f"{argv[0]} loaded {sorted(loaded)}"


@pytest.mark.parametrize("fmt", ["json", "markdown"])
def test_diff_formats(tmp_path, fmt):
    doc = {"schema_version": 1, "snapshot_label": "x", "metrics": {"file_leakage": 10}}
    before, after = tmp_path / "b.json", tmp_path / "a.json"
    before.write_text(json.dumps(doc))
    after.write_text(json.dumps(doc))
    out = tmp_path / "diff.out"
    assert cli.main(["diff", "--before", str(before), "--after", str(after), "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "markdown"])
def test_diff_of_a_metric_name_that_cannot_be_encoded_exits_1(tmp_path, capsys, fmt):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"schema_version": 1, "metrics": {"bad\ud800": 1}}))
    assert cli.main(["diff", "--before", str(path), "--after", str(path), "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error in stage diff: ") and "UTF-8" in captured.err and not captured.out


@pytest.fixture
def small_store(tmp_path):
    """Two accessible plugins, one hidden redirect and one native plugin,
    served by a fixture store; yields the run-all argv without --cached.
    a1.example's API has two endpoints, so it is probed with two requests."""
    plan = FixturePlan(profile="small", seed=0)
    for host in ("a1.example", "a2.example"):
        site = FixtureSite(host=host)
        site.manifest = {
            "name_for_human": host,
            "name_for_model": host.split(".")[0],
            "description_for_model": "d",
            "api": {"type": "openapi", "url": f"https://{host}/openapi.json"},
        }
        plan.sites[host] = site
    plan.sites["a1.example"].openapi = {
        "openapi": "3.0.1",
        "info": {"title": "A1", "version": "1"},
        "servers": [{"url": "https://a1.example/api"}],
        "paths": {"/one": {"get": {}}, "/two": {"get": {}}},
    }
    plan.sites["r.example"] = FixtureSite(host="r.example", redirect_to="https://landing.adsite.example/")
    index = tmp_path / "index.ndjson"
    index.write_text(
        "".join(
            json.dumps({"title": host, "legal_info_url": f"https://{host}/"}) + "\n"
            for host in ("a1.example", "a2.example", "r.example", "n.example")
        )
    )
    corpus = tmp_path / "corpus.json"
    assert cli.main(["ingest", "--input", str(index), "--label", "small", "--out", str(corpus)]) == 0
    server = serve_fixtures(plan, 0)
    try:
        yield [
            "run-all",
            "--corpus", str(corpus),
            "--out-dir", str(tmp_path / "out"),
            "--base-url", server.base_url,
            "--per-host-delay-ms", "0",
            "--retries", "0",
        ]
    finally:
        server.stop()


def _count_manifest_parses(monkeypatch) -> list[bool]:
    """Wrap parse_manifest in every pluginaudit module that binds it; each
    call appends whether it succeeded."""
    original = manifest_mod.parse_manifest
    calls: list[bool] = []

    def counted(data):
        try:
            parsed = original(data)
        except manifest_mod.ParseError:
            calls.append(False)
            raise
        calls.append(True)
        return parsed

    for name, module in list(sys.modules.items()):
        if name.startswith("pluginaudit"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_run_all_parses_each_manifest_once(small_store, monkeypatch, tmp_path):
    accessible, redirect_bodies = 2, 2  # both well-known candidates of r.example land on a 2xx HTML page
    calls = _count_manifest_parses(monkeypatch)
    assert cli.main(small_store) == 0
    verdicts = json.loads((tmp_path / "out" / "verdicts.json").read_text())
    assert sorted(v["verdict"] for v in verdicts) == ["accessible", "accessible", "hidden_redirect", "native_unreachable"]
    assert calls.count(True) == accessible
    assert len(calls) == accessible + redirect_bodies

    calls.clear()
    assert cli.main(small_store + ["--cached"]) == 0
    assert calls == [True] * accessible


def test_run_all_cached_does_not_serve_edited_outcomes(small_store, tmp_path, capsys):
    assert cli.main(small_store) == 0
    fresh = (tmp_path / "out" / "report.json").read_bytes()
    outcomes = tmp_path / "out" / "outcomes.json"
    doc = json.loads(outcomes.read_text())
    outcomes.write_text(json.dumps({**doc, "snapshot_label": "other"}))
    capsys.readouterr()
    assert cli.main(small_store + ["--cached"]) == 0
    assert "probe: done" in capsys.readouterr().out.splitlines()
    assert json.loads(outcomes.read_text())["snapshot_label"] == "small"
    assert (tmp_path / "out" / "report.json").read_bytes() == fresh


def test_run_all_cached_reprobes_after_a_probe_rewrote_outcomes(small_store, tmp_path, capsys):
    corpus, out_dir, fetch_flags = small_store[2], Path(small_store[4]), small_store[5:]
    assert cli.main(small_store) == 0
    fresh_report, fresh_outcomes = (out_dir / "report.json").read_bytes(), (out_dir / "outcomes.json").read_bytes()
    probe = ["probe", "--corpus", corpus, "--manifests", str(out_dir / "manifests"), "--out", str(out_dir / "outcomes.json")]
    assert cli.main(probe + ["--budget", "1"] + fetch_flags) == 0
    assert (out_dir / "outcomes.json").read_bytes() != fresh_outcomes
    capsys.readouterr()
    assert cli.main(small_store + ["--cached"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "discover: cached" in lines and "probe: done" in lines
    assert (out_dir / "outcomes.json").read_bytes() == fresh_outcomes
    assert (out_dir / "report.json").read_bytes() == fresh_report


def test_run_all_cached_does_not_serve_a_corpus_replaced_after_it_was_read(small_store, monkeypatch, capsys):
    """The discover cache key is that of the corpus the run audited, not of a
    file that replaced it after it was decoded."""
    corpus_path = Path(small_store[2])
    doc = json.loads(corpus_path.read_text())
    doc["records"][0]["name_for_human_store"] = "Renamed"
    load_corpus = corpus_mod.load_corpus

    def load_then_replace(*args):
        corpus = load_corpus(*args)
        corpus_path.write_text(json.dumps(doc))
        return corpus

    monkeypatch.setattr(corpus_mod, "load_corpus", load_then_replace)
    assert cli.main(small_store) == 0
    monkeypatch.undo()
    capsys.readouterr()
    assert cli.main(small_store + ["--cached"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "discover: cached" not in lines and "discover: done" in lines


def test_run_all_cached_serves_a_corpus_rewritten_with_the_same_values(small_store, capsys):
    """The discover cache key covers the corpus as decoded, not the layout of its file."""
    corpus_path = Path(small_store[2])
    assert cli.main(small_store) == 0
    compact = json.dumps(json.loads(corpus_path.read_text()))
    assert compact.encode() != corpus_path.read_bytes()
    corpus_path.write_text(compact)
    capsys.readouterr()
    assert cli.main(small_store + ["--cached"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "discover: cached" in lines and "probe: cached" in lines


def test_run_all_cached_does_not_serve_artifacts_of_other_code(small_store, monkeypatch, capsys):
    assert cli.main(small_store) == 0
    monkeypatch.setattr(cli, "_code_identity", lambda: "other code")
    capsys.readouterr()
    assert cli.main(small_store + ["--cached"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "discover: done" in lines and "probe: done" in lines


def test_code_identity_changes_with_any_source_file(tmp_path):
    package = Path(cli.__file__).parent
    for source in package.glob("*.py"):
        (tmp_path / source.name).write_bytes(source.read_bytes())
    assert cli._code_identity(tmp_path) == cli._code_identity()
    edited = tmp_path / "discovery.py"
    edited.write_bytes(edited.read_bytes() + b"#")
    assert cli._code_identity(tmp_path) != cli._code_identity()


def test_run_all_treats_a_cache_nested_too_deeply_as_empty(small_store, tmp_path):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "cache.json").write_text("[" * 100000)
    assert cli.main(small_store + ["--cached"]) == 0
    assert sorted(json.loads((tmp_path / "out" / "cache.json").read_text())) == ["discover", "probe"]


def test_run_all_treats_a_non_object_cache_as_empty(small_store, tmp_path):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "cache.json").write_text("[]")
    assert cli.main(small_store) == 0
    assert sorted(json.loads((tmp_path / "out" / "cache.json").read_text())) == ["discover", "probe"]


def test_traced_run_all_records_every_annotated_span(small_store, tmp_path):
    # perfbench/spans.py wraps functions by name and reads their arguments and
    # results; a renamed or retyped one would only drop a per-layer metric.
    src = Path(cli.__file__).parents[1]
    spans_out = tmp_path / "spans.json"
    argv = [sys.executable, str(src.parent / "perfbench" / "spans.py"), "--spans-out", str(spans_out), "--", *small_store]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    trace = json.loads(spans_out.read_text())
    assert set(trace["missing"]) <= {"discovery.body_is_manifest"}
    attrs: dict[str, list[dict]] = {}
    for span in trace["spans"]:
        attrs.setdefault(span["name"], []).append(span.get("attrs"))
    verdicts = sorted(a["verdict"] for a in attrs["discovery.classify_accessibility"])
    assert verdicts == ["accessible", "accessible", "hidden_redirect", "native_unreachable"]
    assert [a["candidates"] for a in attrs["discovery.generate_candidates"]] == [2, 2, 2, 2]
    assert attrs["scoperisk.categorize_corpus"] == [{"documents": 0}]
    assert [a["bytes"] > 0 for a in attrs["report.render_report"]] == [True]
    # a2.example serves no OpenAPI document, so it is skipped.
    assert sorted((a["probed"], a["skipped"]) for a in attrs["probe.probe_plugin"]) == [(False, True), (True, False)]


@pytest.mark.parametrize(
    "lexicon, message",
    [
        (None, "seed lexicon not found: {path}"),
        ("{bad", "seed lexicon {path} is not valid JSON"),
        ('{"identity_email": ["mail"], "nope": ["x"]}', "unknown scope categories in lexicon {path}"),
        ('{"identity_email": "mail"}', "malformed seed lexicon {path}: ['identity_email'] is not a list"),
        ("[" * 100000, "seed lexicon {path} is not valid JSON"),
        ('{"global_access": [1, null]}', "malformed seed lexicon {path}: ['global_access'][0] is not a string"),
    ],
    ids=["missing", "not-json", "unknown-category", "seeds-not-a-list", "nested-too-deeply", "seeds-not-strings"],
)
def test_scopes_bad_seed_lexicon_exits_1(tmp_path, capsys, lexicon, message):
    corpus_doc = {"schema_version": 1, "snapshot_label": "x", "created_at": "now", "records": [], "ingest_errors": []}
    (tmp_path / "corpus.json").write_text(json.dumps(corpus_doc))
    (tmp_path / "manifests").mkdir()
    lexicon_path = tmp_path / "lexicon.json"
    if lexicon is not None:
        lexicon_path.write_text(lexicon)
    rc = cli.main(
        [
            "scopes",
            "--corpus", str(tmp_path / "corpus.json"),
            "--manifests", str(tmp_path / "manifests"),
            "--out", str(tmp_path / "scopes.json"),
            "--seed-lexicon", str(lexicon_path),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error in stage scopes: {message.format(path=lexicon_path)}")
    assert str(lexicon_path) in err
    assert not (tmp_path / "scopes.json").exists()


def _stage_inputs(tmp_path, manifests: dict[str, bytes]) -> list[str]:
    """A corpus of the given plugin ids and their manifest files, as the
    --corpus and --manifests arguments of a single-stage command."""
    records = [{"plugin_id": pid, "store_title": pid, "name_for_human_store": pid} for pid in manifests]
    (tmp_path / "corpus.json").write_text(json.dumps({"schema_version": 1, "snapshot_label": "x", "records": records}))
    (tmp_path / "manifests").mkdir()
    for plugin_id, body in manifests.items():
        (tmp_path / "manifests" / f"{plugin_id}.json").write_bytes(body)
    return ["--corpus", str(tmp_path / "corpus.json"), "--manifests", str(tmp_path / "manifests")]


def test_probe_no_redact_keeps_the_token_and_an_unparseable_manifest_is_skipped(tmp_path):
    bearer = json.dumps({
        "name_for_human": "B",
        "name_for_model": "b",
        "description_for_model": "d",
        "auth": {"type": "service_http", "verification_tokens": {"openai": "vt-1"}},
        "api": {"type": "openapi", "url": "https://b.example/openapi.json"},
    }).encode()
    inputs = _stage_inputs(tmp_path, {"p1": b"{", "p2": bearer})
    site = FixtureSite(host="b.example")
    site.openapi = {"openapi": "3.0.1", "servers": [{"url": "https://b.example/api"}], "paths": {"/a": {"get": {}}}}
    site.endpoints = [fixture_mod.FixtureEndpoint(path="/api/a", method="GET", required_token="vt-1")]
    plan = FixturePlan(profile="bearer", seed=0)
    plan.sites["b.example"] = site
    server = serve_fixtures(plan, 0)
    try:
        argv = ["probe", *inputs, "--out", str(tmp_path / "outcomes.json"), "--no-redact", "--base-url", server.base_url]
        assert cli.main(argv + ["--per-host-delay-ms", "0", "--retries", "0"]) == 0
    finally:
        server.stop()
    doc = json.loads((tmp_path / "outcomes.json").read_text())
    assert list(doc["skipped"]) == ["p1"] and doc["skipped"]["p1"].startswith("irregular_manifest: syntax: ")
    sent = [(entry["token_variant"], entry["headers"].get("Authorization"), entry["status"]) for entry in doc["transcript"]]
    assert sent == [("no_token", None, 401), ("leaked_token", "Bearer vt-1", 200), ("fabricated_token", "Bearer invalid-token-0000", 401)]


def _oauth_manifest(scope: str) -> bytes:
    return json.dumps({
        "name_for_human": "O",
        "name_for_model": "o",
        "description_for_model": "d",
        "auth": {"type": "oauth", "authorization_url": "https://o.example/auth", "scope": scope},
        "api": {"type": "openapi", "url": "https://o.example/openapi.json"},
    }).encode()


def test_scopes_with_a_seed_lexicon_that_names_unspecified(tmp_path):
    # A scope nearest to the lexicon's own "unspecified" seeds is unspecified.
    inputs = _stage_inputs(tmp_path, {"p1": _oauth_manifest("mystery box"), "p2": _oauth_manifest("email")})
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_text(json.dumps({"unspecified": ["mystery"], "identity_email": ["email"]}))
    argv = ["scopes", *inputs, "--out", str(tmp_path / "scopes.json"), "--seed-lexicon", str(lexicon)]
    assert cli.main(argv) == 0
    doc = json.loads((tmp_path / "scopes.json").read_text())
    assert doc["assignments"] == [["p1", "unspecified"], ["p2", "identity_email"]]

"""Per-layer metrics computed from the spans `spans.py` records.

Each layer is a pluginaudit module. A metric is 0 when its layer did no
work on the workload (no discovery on paper-probe, no fetches on
paper-rerun). A metric whose wrapped function no longer exists is left out
and named by `absent_metrics`, so a renamed function never crashes a run.
"""

from __future__ import annotations

from collections import Counter
from urllib.parse import urlsplit

FETCH = "fetch.Fetcher.fetch"
DISCOVER = "discovery.discover_corpus"
PROBE = "probe.probe_manifests"
PARSE = "manifest.parse_manifest"
OPENAPI = "manifest.parse_openapi"

MIN_TAIL_SAMPLES = 10

UNITS = {
    "fetch.calls": "count",
    "fetch.http_requests": "count",
    "fetch.redirect_hops": "count",
    "fetch.retries": "count",
    "fetch.failed": "count",
    "fetch.latency_p50_ms": "ms",
    "fetch.latency_tail_ms": "ms",
    "fetch.busy_s": "s",
    "fetch.in_flight_mean": "count",
    "fetch.bytes": "B",
    "fetch.duplicate_calls": "count",
    "fetch.busiest_host_requests": "count",
    "fetch.cpu_per_request_ms": "ms",
    "discovery.wall_s": "s",
    "discovery.cpu_s": "s",
    "discovery.fetches": "count",
    "discovery.fetches_per_plugin": "count",
    "discovery.candidates_generated": "count",
    "discovery.manifest_hit_ratio": "ratio",
    "discovery.classify_s": "s",
    "probe.wall_s": "s",
    "probe.cpu_s": "s",
    "probe.fetches": "count",
    "probe.plugins_probed": "count",
    "probe.skipped": "count",
    "probe.requests_per_probed_plugin": "count",
    "probe.plugin_tail_s": "s",
    "manifest.parse_calls": "count",
    "manifest.parse_calls_per_accessible": "count",
    "manifest.parse_s": "s",
    "manifest.openapi_parse_calls": "count",
    "manifest.openapi_parse_s": "s",
    "consistency.wall_s": "s",
    "consistency.findings": "count",
    "scoperisk.wall_s": "s",
    "scoperisk.documents": "count",
    "report.build_s": "s",
    "report.render_s": "s",
    "report.bytes": "B",
    "report.load_s": "s",
    "corpus.load_s": "s",
    "cli.import_s": "s",
    "cli.artifact_io_s": "s",
    "cli.run_all_self_s": "s",
    "fixture.cpu_s": "s",
    "fixture.cpu_per_request_ms": "ms",
    "trace.overhead_share": "ratio",
}

# metric name, or family prefix ending in "." -> span names it cannot do without
NEEDS = {
    "fetch.": (FETCH,),
    "fetch.in_flight_mean": (FETCH, DISCOVER, PROBE),
    "fetch.cpu_per_request_ms": (FETCH, DISCOVER, PROBE),
    "discovery.": (DISCOVER,),
    "discovery.fetches": (DISCOVER, FETCH),
    "discovery.fetches_per_plugin": (DISCOVER, FETCH),
    "discovery.candidates_generated": ("discovery.generate_candidates",),
    "discovery.manifest_hit_ratio": (DISCOVER, FETCH, "discovery.classify_accessibility"),
    "discovery.classify_s": ("discovery.classify_accessibility",),
    "probe.": (PROBE, "probe.probe_plugin"),
    "probe.fetches": (PROBE, FETCH),
    "probe.requests_per_probed_plugin": (PROBE, FETCH, "probe.probe_plugin"),
    "manifest.": (PARSE,),
    "manifest.openapi_parse_calls": (OPENAPI,),
    "manifest.openapi_parse_s": (OPENAPI,),
    "consistency.": ("consistency.analyze_consistency", "consistency.aggregate_discrepancies",
                     "consistency.count_strict_only"),
    "scoperisk.": ("scoperisk.categorize_corpus", "scoperisk.distribution_report"),
    "report.build_s": ("report.build_report",),
    "report.render_s": ("report.render_report",),
    "report.bytes": ("report.render_report",),
    "report.load_s": ("report.load_report",),
    "corpus.": ("corpus.load_corpus",),
    "cli.import_s": (),
    "cli.artifact_io_s": ("cli.stage_discover", "cli.stage_probe", "cli.stage_consistency",
                          "cli.stage_scopes", "cli.stage_report"),
    "fixture.cpu_per_request_ms": (FETCH,),
}


def _needs(metric: str) -> tuple[str, ...]:
    if metric in NEEDS:
        return NEEDS[metric]
    family = metric.split(".", 1)[0] + "."
    return NEEDS.get(family, ())


def absent_metrics(missing: list[str]) -> list[str]:
    """Metrics that depend on a wrapped name the program no longer has."""
    gone = set(missing)
    return sorted(m for m in UNITS if gone.intersection(_needs(m)))


def tail_percentile(n: int) -> float | None:
    """Highest percentile with at least MIN_TAIL_SAMPLES samples beyond it.

    Candidates are 99.9 and the whole percentiles 99 down to 50; None when
    even the median has fewer than MIN_TAIL_SAMPLES samples above it.
    """
    for tenths in (999, *range(990, 499, -10)):
        if n * (1000 - tenths) >= 1000 * MIN_TAIL_SAMPLES:
            return tenths / 10
    return None


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail(values: list[float]) -> tuple[float, float | None]:
    """(value, percentile) of the highest percentile tail_percentile allows."""
    pct = tail_percentile(len(values))
    if pct is None:
        return 0.0, None
    return percentile(values, pct), pct


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def _host(url: str) -> str:
    return (urlsplit(url).hostname or "").lower()


def per_layer(spans: list[dict], *, accessible: int, import_s: float, fixture_cpu_s: float,
              traced_wall_s: float, untraced_wall_s: float) -> tuple[dict[str, float], dict[str, dict]]:
    """Every metric in UNITS from one traced run, and for each tail metric
    the percentile it reports and its sample count.

    accessible: manifests the run's input or discovery holds (373 on the
    paper-tables population); import_s: fresh-interpreter import cost of the
    CLI; fixture_cpu_s: fixture-server CPU over the traced run.
    """
    by_id = {s["id"]: s for s in spans}
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def named(*names: str) -> list[dict]:
        return [s for n in names for s in by_name.get(n, [])]

    def dur(items: list[dict]) -> float:
        return sum(s["end"] - s["start"] for s in items)

    def stage(span: dict) -> str | None:
        """The network stage (discover or probe) a span ran under, if any."""
        node = span
        while node is not None and node["name"] not in (DISCOVER, PROBE):
            node = by_id.get(node["parent"])
        return node["name"] if node is not None else None

    fetches = named(FETCH)
    attrs = [f.get("attrs", {}) for f in fetches]
    requests = sum(a.get("attempts", 0) for a in attrs)
    hops = sum(a.get("hops", 0) for a in attrs)
    latencies = [(f["end"] - f["start"]) * 1000 for f in fetches]
    latency_tail, latency_pct = tail(latencies)
    network = named(DISCOVER, PROBE)
    network_wall = dur(network)
    network_cpu = sum(s.get("cpu", 0.0) for s in network)
    busy = dur(fetches)
    per_host = Counter(_host(u) for a in attrs for u in a.get("chain", []))
    distinct = {(a.get("method"), a.get("url")) for a in attrs}

    discover = named(DISCOVER)
    discover_fetches = [f for f in fetches if stage(f) == DISCOVER]
    discover_plugins = sum(s.get("attrs", {}).get("plugins", 0) for s in discover)
    classified = named("discovery.classify_accessibility")
    hits = sum(1 for s in classified if s.get("attrs", {}).get("verdict") == "accessible")

    probe = named(PROBE)
    probe_fetches = [f for f in fetches if stage(f) == PROBE]
    probe_requests = sum(f.get("attrs", {}).get("attempts", 0) for f in probe_fetches)
    plugins = named("probe.probe_plugin")
    probed = sum(1 for s in plugins if s.get("attrs", {}).get("probed"))
    plugin_tail, plugin_pct = tail([s["end"] - s["start"] for s in plugins])

    parses = named(PARSE)
    openapi = named(OPENAPI)
    renders = named("report.render_report")
    own = self_times(spans)
    stages = [s for s in spans if s["name"].startswith("cli.stage_")]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    tails = {
        "fetch.latency_tail_ms": {"percentile": latency_pct, "samples": len(latencies)},
        "probe.plugin_tail_s": {"percentile": plugin_pct, "samples": len(plugins)},
    }
    return {
        "fetch.calls": len(fetches),
        "fetch.http_requests": requests,
        "fetch.redirect_hops": hops,
        "fetch.retries": sum(a.get("attempts", 0) - a.get("hops", 0) - 1 for a in attrs if "attempts" in a),
        "fetch.failed": sum(1 for a in attrs if a.get("status", 0) == 0),
        "fetch.latency_p50_ms": percentile(latencies, 50) if latencies else 0.0,
        "fetch.latency_tail_ms": latency_tail,
        "fetch.busy_s": busy,
        "fetch.in_flight_mean": ratio(busy, network_wall),
        "fetch.bytes": sum(a.get("bytes", 0) for a in attrs),
        "fetch.duplicate_calls": len(fetches) - len(distinct),
        "fetch.busiest_host_requests": max(per_host.values(), default=0),
        "fetch.cpu_per_request_ms": ratio(network_cpu * 1000, requests),
        "discovery.wall_s": dur(discover),
        "discovery.cpu_s": sum(s.get("cpu", 0.0) for s in discover),
        "discovery.fetches": len(discover_fetches),
        "discovery.fetches_per_plugin": ratio(len(discover_fetches), discover_plugins),
        "discovery.candidates_generated": sum(
            s.get("attrs", {}).get("candidates", 0) for s in named("discovery.generate_candidates")),
        "discovery.manifest_hit_ratio": ratio(hits, len(discover_fetches)),
        "discovery.classify_s": dur(classified),
        "probe.wall_s": dur(probe),
        "probe.cpu_s": sum(s.get("cpu", 0.0) for s in probe),
        "probe.fetches": len(probe_fetches),
        "probe.plugins_probed": probed,
        "probe.skipped": sum(1 for s in plugins if s.get("attrs", {}).get("skipped")),
        "probe.requests_per_probed_plugin": ratio(probe_requests, probed),
        "probe.plugin_tail_s": plugin_tail,
        "manifest.parse_calls": len(parses),
        "manifest.parse_calls_per_accessible": ratio(len(parses), accessible),
        "manifest.parse_s": dur(parses),
        "manifest.openapi_parse_calls": len(openapi),
        "manifest.openapi_parse_s": dur(openapi),
        "consistency.wall_s": dur(named("consistency.analyze_consistency", "consistency.aggregate_discrepancies",
                                        "consistency.count_strict_only")),
        "consistency.findings": sum(s.get("attrs", {}).get("findings", 0)
                                    for s in named("consistency.analyze_consistency")),
        "scoperisk.wall_s": dur(named("scoperisk.categorize_corpus", "scoperisk.distribution_report")),
        "scoperisk.documents": sum(s.get("attrs", {}).get("documents", 0)
                                   for s in named("scoperisk.categorize_corpus")),
        "report.build_s": dur(named("report.build_report")),
        "report.render_s": dur(renders),
        "report.bytes": sum(s.get("attrs", {}).get("bytes", 0) for s in renders),
        "report.load_s": dur(named("report.load_report")),
        "corpus.load_s": dur(named("corpus.load_corpus")),
        "cli.import_s": import_s,
        "cli.artifact_io_s": sum(own[s["id"]] for s in stages),
        "cli.run_all_self_s": sum(own[s["id"]] for s in named("cli.main")),
        "fixture.cpu_s": fixture_cpu_s,
        "fixture.cpu_per_request_ms": ratio(fixture_cpu_s * 1000, requests),
        "trace.overhead_share": ratio(traced_wall_s, untraced_wall_s) - 1 if untraced_wall_s else 0.0,
    }, tails

"""Self-tests of the benchmark's own arithmetic and guards.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys

import pytest

import layers
import run
import spans


@pytest.mark.parametrize(
    "n, expected",
    [(10000, 99.9), (3904, 99), (1200, 99), (1000, 99), (999, 98), (833, 98), (345, 97), (20, 50), (19, None)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert layers.tail_percentile(n) == expected


def test_nearest_rank_percentile():
    values = [float(v) for v in range(1, 101)]
    assert layers.percentile(values, 50) == 50.0
    assert layers.percentile(values, 99) == 99.0
    assert layers.percentile(values, 99.9) == 100.0
    assert layers.percentile([7.0], 99) == 7.0


def _span(span_id, parent, start, end, name="x"):
    return {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_subtracts_union_of_direct_children():
    spans_ = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),   # overlaps the next child, as pool threads do
        _span(3, 1, 2.0, 5.0),
        _span(4, 1, 8.0, 12.0),  # outlives the parent; only 8..10 counts
        _span(5, 3, 2.5, 4.5),   # grandchild: already inside span 3
    ]
    own = layers.self_times(spans_)
    assert own[1] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[3] == pytest.approx(3.0 - 2.0)
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(4.0)


def test_cache_hit_guard_needs_both_network_stages_cached():
    assert run.cache_hit("discover: cached\nprobe: cached\nconsistency: done\n")
    assert not run.cache_hit("discover: done\nprobe: cached\n")
    assert not run.cache_hit("discover: cached\nprobe: done\n")
    assert not run.cache_hit("")


def test_rerun_check_rejects_a_cache_miss(tmp_path):
    bench = object.__new__(run.Bench)
    bench.name, bench.work, bench.prep = "paper-rerun", tmp_path, tmp_path
    bench.golden = b"golden"
    (tmp_path / "report.json").write_bytes(b"golden")
    hit = run.Invocation(code=0, wall_s=0.5, cpu_s=0.4, rss_mb=40.0, output="discover: cached\nprobe: cached\n")
    miss = run.Invocation(code=0, wall_s=8.8, cpu_s=3.0, rss_mb=40.0, output="discover: done\nprobe: done\n")
    assert bench.check(hit, "0") is None
    assert "cache" in bench.check(miss, "0")


@pytest.fixture
def restore_pluginaudit():
    import pluginaudit.cli  # noqa: F401 - imports every layer module

    saved = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("pluginaudit")}
    saved_fetch = sys.modules["pluginaudit.fetch"].Fetcher.fetch
    yield
    for name, namespace in saved.items():
        vars(sys.modules[name]).update(namespace)
    sys.modules["pluginaudit.fetch"].Fetcher.fetch = saved_fetch


def test_every_binding_is_wrapped_and_missing_names_are_absent(restore_pluginaudit):
    from pluginaudit import cli, discovery, manifest, probe

    tracer = spans.Tracer()
    wrapped = (*spans.WRAPPED, ("pluginaudit.manifest", "parse_manifest_v2", None, None))
    bindings, missing = spans.install(tracer, wrapped)

    assert bindings["manifest.parse_manifest"] == 4  # manifest, discovery, probe, cli
    assert bindings["manifest.parse_openapi"] == 2  # manifest, probe
    assert all(count >= 1 for count in bindings.values())
    assert missing == ["manifest.parse_manifest_v2"]
    assert discovery.parse_manifest is probe.parse_manifest is cli.parse_manifest is manifest.parse_manifest

    assert discovery.body_is_manifest(b"not a manifest") is False
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["manifest.parse_manifest"]["parent"] == by_name["discovery.body_is_manifest"]["id"]
    assert by_name["manifest.parse_manifest"]["error"] == "ParseError"


def test_metrics_of_a_vanished_name_are_absent():
    assert "manifest.parse_calls" in layers.absent_metrics(["manifest.parse_manifest"])
    assert "manifest.openapi_parse_calls" not in layers.absent_metrics(["manifest.parse_manifest"])
    assert layers.absent_metrics([]) == []
    per_layer, tails = layers.per_layer([], accessible=0, import_s=0.3, fixture_cpu_s=0.0,
                                        traced_wall_s=1.0, untraced_wall_s=0.0)
    assert set(per_layer) == set(layers.UNITS)
    assert tails["fetch.latency_tail_ms"] == {"percentile": None, "samples": 0}

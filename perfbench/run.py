"""End-to-end benchmark of the `audit` CLI on the paper-tables population.

    python3 perfbench/run.py --workload paper-cold --seed 42 --seconds 10 --trace 0

Run from anywhere inside a checkout of the repository; it needs `src/` and
`tests/golden/`. Every audit is the real CLI (`python -m pluginaudit.cli`,
PYTHONPATH=src) in its own process, against `audit serve-fixtures` in
another process over loopback. With `--trace 1` the untraced runs are
followed by one traced run (perfbench/spans.py) that yields the per-layer
metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every audit passed its output check. See perfbench/NOTES.md for why
the workloads are what they are.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "report-paper-tables.json"
SPANS = Path(__file__).resolve().parent / "spans.py"

PROFILE = "paper-tables"
LABEL = "first-assessment"
PLUGINS = 1032
FIXED_FLAGS = ("--per-host-delay-ms", "0", "--retries", "0", "--timeout-ms", "5000")
# Preparation runs are not measured; they use the test suite's concurrency.
PREP_CONCURRENCY = 16
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
AUDIT_TIMEOUT_S = 90  # every run must end within 180 s; one audit takes under 30 s
SERVER_START_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    concurrency: int
    plugins: int  # plugins in the audit's input


# Why each workload exists, and why paper-cold runs at 8: perfbench/NOTES.md.
WORKLOADS = {
    "paper-cold": Workload(8, PLUGINS),
    "paper-probe": Workload(2, 373),
    "paper-rerun": Workload(2, PLUGINS),
}

END_TO_END_UNITS = {
    "audit_wall_s": "s",
    "plugins_per_s": "1/s",
    "client_cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark could not set up or prepare; no result is printed."""


@dataclass
class Invocation:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    output: str  # stdout and stderr


def _env() -> dict[str, str]:
    # Proxy variables would route loopback traffic elsewhere.
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(cmd: list[str], cwd: Path, log: Path, timeout_s: float = AUDIT_TIMEOUT_S) -> Invocation:
    """Run one process to completion; its own rusage comes from wait4."""
    with open(log, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=_env(), stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        output=log.read_text(encoding="utf-8", errors="replace"),
    )


def audit_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "pluginaudit.cli", *args]


class FixtureStore:
    """`audit serve-fixtures` in its own process, on an ephemeral port."""

    def __init__(self, plan: Path, cwd: Path):
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "pluginaudit.cli", "serve-fixtures", "--plan", str(plan), "--port", "0"],
            cwd=cwd, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        timer = threading.Timer(SERVER_START_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        match = re.search(r"http://127\.0\.0\.1:\d+", line)
        if match is None:
            self.stop()
            raise BenchError(f"fixture server did not print its URL: {line!r}")
        self.url = match.group(0)

    def cpu_s(self) -> float:
        """CPU the server has used so far, read while it runs."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.returncode is None:
            self.proc.terminate()
            self.proc.wait()
        self.proc.stdout.close()


def set_up(work: Path, seed: int) -> tuple[list[float], FixtureStore]:
    """gen-plan, ingest, and server launch until it prints its URL, repeated;
    the last repetition's server stays up."""
    times: list[float] = []
    store = None
    for _ in range(SETUP_REPEATS):
        if store is not None:
            store.stop()
        start = time.perf_counter()
        steps = (
            audit_cmd("gen-plan", "--seed", str(seed), "--profile", PROFILE,
                      "--out", "plan.json", "--index-out", "index.ndjson"),
            audit_cmd("ingest", "--input", "index.ndjson", "--label", LABEL, "--out", "corpus.json"),
        )
        for cmd in steps:
            done = run_process(cmd, work, work / "setup.log")
            if done.code != 0:
                raise BenchError(f"set-up step failed ({done.code}): {' '.join(cmd[3:5])}\n{done.output}")
        store = FixtureStore(work / "plan.json", work)
        times.append(time.perf_counter() - start)
    return times, store


def run_all_args(out_dir: Path, url: str, concurrency: int, cached: bool = False) -> list[str]:
    return ["run-all", "--corpus", "corpus.json", "--out-dir", str(out_dir), *(["--cached"] if cached else []),
            "--base-url", url, "--max-concurrency", str(concurrency), *FIXED_FLAGS]


def cache_hit(stdout: str) -> bool:
    """A --cached rerun that re-ran discovery or probing fetched again."""
    lines = set(stdout.splitlines())
    return "discover: cached" in lines and "probe: cached" in lines


def probe_sections(path: Path) -> tuple[object, object]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc.get("results"), doc.get("skipped")


class Bench:
    """One workload's runs against one fixture server in one work dir."""

    def __init__(self, name: str, work: Path, store: FixtureStore):
        self.name = name
        self.spec = WORKLOADS[name]
        self.work = work
        self.store = store
        self.golden = GOLDEN.read_bytes()
        self.prep = work / "prep"
        self.attempted = 0
        self.failures: list[str] = []
        if name != "paper-cold":
            done = run_process(audit_cmd(*run_all_args(self.prep, store.url, PREP_CONCURRENCY)), work,
                               work / "prep.log")
            if done.code != 0 or (self.prep / "report.json").read_bytes() != self.golden:
                raise BenchError(f"preparation run-all failed or missed the golden report:\n{done.output}")
            self.expected_probe = probe_sections(self.prep / "outcomes.json")

    def manifests(self) -> int:
        source = self.prep if self.name != "paper-cold" else self.work / "cold-traced"
        return len(list((source / "manifests").glob("*.json")))

    def invoke(self, tag: str, program: list[str]) -> Invocation:
        """One audit of this workload, with its output check."""
        url, conc = self.store.url, self.spec.concurrency
        if self.name == "paper-cold":
            out = self.work / f"cold-{tag}"
            shutil.rmtree(out, ignore_errors=True)
            args = run_all_args(out, url, conc)
        elif self.name == "paper-probe":
            out = self.work / f"probe-{tag}.json"
            args = ["probe", "--corpus", "corpus.json", "--manifests", str(self.prep / "manifests"),
                    "--out", str(out), "--base-url", url, "--max-concurrency", str(conc), *FIXED_FLAGS]
        else:
            for stale in ("report.json", "report.md"):
                (self.prep / stale).unlink(missing_ok=True)
            args = run_all_args(self.prep, url, conc, cached=True)
        self.attempted += 1
        done = run_process(program + args, self.work, self.work / f"{tag}.log")
        problem = self.check(done, tag)
        if problem:
            self.failures.append(f"{tag}: {problem}")
        if self.name == "paper-cold" and tag != "traced":
            shutil.rmtree(self.work / f"cold-{tag}", ignore_errors=True)
        return done

    def check(self, done: Invocation, tag: str) -> str | None:
        if done.code != 0:
            return f"exit code {done.code}: {done.output[-2000:]}"
        if self.name == "paper-probe":
            out = self.work / f"probe-{tag}.json"
            if not out.is_file() or probe_sections(out) != self.expected_probe:
                return "probe results/skipped differ from the preparation run's outcomes.json"
            return None
        if self.name == "paper-rerun" and not cache_hit(done.output):
            return "rerun missed the run-all cache (discover/probe not both cached)"
        out = self.work / f"cold-{tag}" if self.name == "paper-cold" else self.prep
        report = out / "report.json"
        if not report.is_file() or report.read_bytes() != self.golden:
            return "report.json differs from tests/golden/report-paper-tables.json"
        return None


def import_cost(work: Path) -> float:
    """Median fresh-interpreter `import pluginaudit.cli` minus a bare start."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(run_process([sys.executable, "-c", "pass"], work, work / "import.log").wall_s)
        full.append(run_process([sys.executable, "-c", "import pluginaudit.cli"], work, work / "import.log").wall_s)
    return statistics.median(full) - statistics.median(bare)


def traced_run(bench: Bench, untraced_wall: float) -> tuple[dict[str, float], dict]:
    """One traced audit: per-layer metrics, and notes on tails and absent names."""
    spans_path = bench.work / "spans.json"
    cpu_before = bench.store.cpu_s()
    done = bench.invoke("traced", [sys.executable, str(SPANS), "--spans-out", str(spans_path), "--"])
    fixture_cpu = bench.store.cpu_s() - cpu_before
    if not spans_path.is_file():
        raise BenchError(f"traced run wrote no spans:\n{done.output[-2000:]}")
    trace = json.loads(spans_path.read_text(encoding="utf-8"))
    metrics, tails = layers.per_layer(
        trace["spans"],
        accessible=bench.manifests(),
        import_s=import_cost(bench.work),
        fixture_cpu_s=fixture_cpu,
        traced_wall_s=done.wall_s,
        untraced_wall_s=untraced_wall,
    )
    absent = layers.absent_metrics(trace["missing"])
    for name in absent:
        metrics.pop(name, None)
    return metrics, {"tails": tails, "absent_metrics": absent}


def environment(seed: int, workload: str, samples: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        requests_version = importlib.metadata.version("requests")
    except importlib.metadata.PackageNotFoundError:
        requests_version = None
    return {
        "workload": workload,
        "seed": seed,
        "concurrency": WORKLOADS[workload].concurrency,
        "samples": samples,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "requests": requests_version,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "network": "loopback 127.0.0.1 only; no wire latency measured",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="pluginaudit end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pluginaudit" / "cli.py").is_file() or not GOLDEN.is_file():
        print(f"error: {ROOT} is not a pluginaudit checkout (needs src/ and tests/golden/)", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    store = None
    try:
        setup_times, store = set_up(work, args.seed)
        bench = Bench(args.workload, work, store)
        program = audit_cmd()
        samples: list[Invocation] = []
        start = time.perf_counter()
        # Start another audit only if it should end within --seconds.
        while not samples or time.perf_counter() - start + samples[-1].wall_s <= args.seconds:
            samples.append(bench.invoke(str(len(samples)), program))
        wall = statistics.median(s.wall_s for s in samples)
        metrics = {
            "audit_wall_s": wall,
            "plugins_per_s": bench.spec.plugins / wall,
            "client_cpu_s": statistics.median(s.cpu_s for s in samples),
            "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END_UNITS
        notes: dict = {}
        if args.trace:
            metrics, notes = traced_run(bench, wall)
            units = layers.UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if store is not None:
            store.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    env = environment(args.seed, args.workload, len(samples))
    env.update(notes)
    print(json.dumps({"environment": env}, sort_keys=True))
    for failure in bench.failures:
        print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not bench.failures else 1


if __name__ == "__main__":
    sys.exit(main())

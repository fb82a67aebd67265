#!/usr/bin/env python3
"""End-to-end benchmark of the bismark_study CLI, with a traced per-layer ladder.

Run from the repository root:

    python3 perfbench/run.py --workload paper_report [--seed N] [--seconds S] [--trace 0|1]

The first run builds bismark_study and the tracer (Release) into .bench_build/.
Every run prints a human-readable table, then, as the last line of stdout, one
JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 times the real bismark_study binary as child processes, one
invocation at a time (a closed loop with one client; the program itself uses
at most 4 worker threads), and reports the end-to-end metrics. --trace 1
replays the workload's CLI call sequence in-process (perfbench/trace/
bench_trace.cpp), with a span around each public call of home, collect and
analysis plus the counters sim, traffic, bismark and net expose, and reports
the per-layer ladder. Spans and full results are written under perfbench/out/.

Other options: --toy shrinks every workload to a few dozen homes (the self-test
uses it); --record-digests rewrites perfbench/digests.json, the outputs of the
default seed that every later run is checked against.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = HERE / ".work"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 20131023
OPTIMISED_BUILD_TYPES = {"Release", "RelWithDebInfo", "MinSizeRel"}
STARTUP_PROBES = 20  # set-up samples per run of a workload with no input
# The traced run makes at least this many (untraced call, traced replay)
# pairs, or as many as start within this many seconds.
TRACE_PAIRS, TRACE_PAIR_SECONDS = 5, 60.0


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: the timed bismark_study call and its input.

    Argument lists use {spill}, {snapshot}, {export} for the invocation's
    fresh directories and {input} for the snapshot the set-up wrote.
    """

    argv: tuple[str, ...]
    toy_argv: tuple[str, ...]
    # Workload seeds per run: --seed and seeds hashed from it. A paper-size
    # call's work varies by 15-25% from one seed to the next (which homes
    # carry traffic, and how much), so those runs average over several seeds;
    # fleet sizes average that out inside one invocation.
    seeds: int = 1
    # Timed invocations per run at least, besides one per seed; more follow,
    # cycling through the seeds, while they fit in --seconds.
    min_timed: int = 1
    # The warm-up invocation, discarded from timing, runs the timed call on
    # the first seed, at `warmup_workers` workers if set: that also gives the
    # seed's timed call an output to match, since the program promises
    # identical output at any --workers. `toy_warmup` runs the toy-size call
    # instead, where a full one would cost as much as a timed invocation and
    # only the binary and the file system need warming.
    warmup_workers: str = ""
    toy_warmup: bool = False
    setup_argv: tuple[str, ...] = ()
    toy_setup_argv: tuple[str, ...] = ()
    setups: int = 0
    outputs: tuple[str, ...] = ()  # directories digested besides stdout
    setup_outputs: tuple[str, ...] = ()


FLEET_DIRS = ("--spill-dir", "{spill}", "--snapshot-out", "{snapshot}")
# Why each workload exists, and the layers it loads or bypasses, is recorded
# with its name in BENCHMARK.json.
WORKLOADS = {
    "paper_report": Workload(
        argv=("report", "--workers", "1"),
        toy_argv=("report", "--workers", "1", "--homes", "12", "--weeks", "1"),
        seeds=10,
        warmup_workers="4",
    ),
    "paper_cgn": Workload(
        argv=("run", "--workers", "1", "--cgn"),
        toy_argv=("run", "--workers", "1", "--cgn", "--homes", "12", "--weeks", "1"),
        seeds=10,
        warmup_workers="4",
    ),
    "fleet_10k": Workload(
        argv=("run", "--homes", "10000", "--weeks", "1", "--workers", "4",
              "--memory-budget-mb", "64", *FLEET_DIRS, "--export", "{export}"),
        toy_argv=("run", "--homes", "40", "--weeks", "1", "--workers", "4",
                  "--memory-budget-mb", "1", *FLEET_DIRS, "--export", "{export}"),
        toy_warmup=True,
        outputs=("snapshot", "export"),
    ),
    "analyze_5k": Workload(
        argv=("analyze", "{input}", "--workers", "4"),
        toy_argv=("analyze", "{input}", "--workers", "4"),
        min_timed=3,
        setup_argv=("run", "--homes", "5000", "--weeks", "4", "--workers", "4",
                    "--memory-budget-mb", "64", *FLEET_DIRS),
        toy_setup_argv=("run", "--homes", "40", "--weeks", "4", "--workers", "4",
                        "--memory-budget-mb", "1", *FLEET_DIRS),
        setups=2,
        setup_outputs=("snapshot",),
    ),
}

# End-to-end metrics: name -> (unit, meaning). The first four are the JSON
# metrics of a --trace 0 run (BENCHMARK.json end_to_end); disk_mb and
# error_rate are printed but kept out of the JSON because they are 0 on an
# unmodified tree for most workloads (failures reach the JSON as "failed").
END_TO_END = {
    "wall_s": ("s", "exec to exit of the timed invocation"),
    "cpu_s": ("s", "user + sys time of the child, from wait4"),
    "peak_rss_mb": ("MiB", "the child's ru_maxrss"),
    "setup_s": ("s", "median time to prepare one input: analyze_5k's snapshot-writing run; "
                "for the workloads with no input, starting the program (--help)"),
    "disk_mb": ("MiB", "bytes left at exit in the invocation's spill, snapshot and export "
                "directories"),
    "error_rate": ("ratio", "invocations that exit non-zero or fail the output check, over "
                   "invocations attempted"),
}
JSON_END_TO_END = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")


@dataclasses.dataclass(frozen=True)
class LayerMetric:
    unit: str
    better: str
    moves: str  # the end-to-end metric a change to this layer should move
    most: str  # workloads doing most of this work / little or none of it
    value: object  # (Trace) -> float


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def _layer_table() -> dict[str, LayerMetric]:
    m = LayerMetric
    ns = 1e9
    # "moves" and "most" follow the benchmark's design table. analyze_5k's
    # home, sim, traffic, bismark, spill and snapshot-write values come from
    # the traced replay of its set-up, the run that writes its snapshot.
    home, sim = "paper_report (sharded run ~90%) / analyze_5k timed call", \
        "paper_report, paper_cgn / analyze_5k timed call"
    upload, spill = "paper_report, fleet_10k / analyze_5k timed call", \
        "fleet_10k, analyze_5k set-up / paper_*"
    read = "analyze_5k / fleet_10k, paper_*"
    return {
        "home.build_s": m("s", "lower", "wall_s", home, lambda t: t.span("home.build")),
        "home.run_s": m("s", "lower", "wall_s", home, lambda t: t.span("home.run")),
        "home.sharded_run_s": m("s", "lower", "wall_s", home,
                                lambda t: t.c("telemetry.sharded_run_s")),
        "home.commit_s": m("s", "lower", "wall_s", "paper_report (~5%) / analyze_5k timed call",
                           lambda t: t.c("telemetry.commit_s")),
        "home.worker_busy_share": m(
            "ratio", "higher", "wall_s", "fleet_10k, analyze_5k set-up (4 workers) / paper_*",
            lambda t: _ratio(t.c("telemetry.busy_s"),
                             t.c("telemetry.workers") * t.c("telemetry.sharded_run_s"))),
        "sim.events_executed": m("count", "lower", "wall_s, cpu_s", sim,
                                 lambda t: t.c("metrics.bismark_engine_events_executed_total")),
        "sim.events_cancelled": m("count", "lower", "wall_s, cpu_s", sim,
                                  lambda t: t.c("metrics.bismark_engine_events_cancelled_total")),
        "sim.callbacks_heap": m("count", "lower", "wall_s, cpu_s", sim,
                                lambda t: t.c("metrics.bismark_engine_callbacks_heap_total")),
        "sim.queue_peak": m("count", "lower", "wall_s, cpu_s", sim,
                            lambda t: t.c("metrics.bismark_engine_queue_peak")),
        "sim.busy_ns_per_event": m(
            "ns/event", "lower", "wall_s, cpu_s", sim,
            lambda t: _ratio(t.c("telemetry.busy_s"),
                             t.c("metrics.bismark_engine_events_executed_total"), ns)),
        "traffic.events": m("count", "lower", "wall_s, cpu_s", sim,
                            lambda t: t.c("metrics.bismark_traffic_engine_events_total")),
        "traffic.flow_rows": m("count", "lower", "wall_s, cpu_s", sim,
                               lambda t: t.c("rows.traffic_flow")),
        "net.cgn_translations_out": m("count", "lower", "wall_s, cpu_s",
                                      "paper_cgn / the rest (struct-path NAT)",
                                      lambda t: t.c("cgn.translations_out")),
        "net.cgn_exhaustion_drops": m("count", "lower", "wall_s, cpu_s",
                                      "paper_cgn / the rest (struct-path NAT)",
                                      lambda t: t.c("cgn.exhaustion_drops")),
        "bismark.upload_records_spooled": m("count", "lower", "cpu_s", upload,
                                            lambda t: t.c("upload.records_spooled")),
        "bismark.upload_attempts": m("count", "lower", "cpu_s", upload,
                                     lambda t: t.c("upload.attempts")),
        "bismark.upload_retries": m("count", "lower", "cpu_s",
                                    "none: no workload injects upload faults",
                                    lambda t: t.c("upload.retries")),
        "bismark.upload_records_per_batch": m(
            "count", "higher", "cpu_s", upload,
            lambda t: _ratio(t.c("upload.records_delivered"), t.c("upload.batches_delivered"))),
        "collect.ingest_rows": m("count", "lower", "wall_s, disk_mb", upload,
                                 lambda t: t.c("metrics.bismark_ingest_records_committed_total")),
        "collect.spill_sections": m("count", "lower", "wall_s, disk_mb", spill,
                                    lambda t: t.c("spill.sections")),
        "collect.spill_bytes": m("B", "lower", "wall_s, disk_mb", spill,
                                 lambda t: t.c("spill.bytes")),
        "collect.spill_bytes_per_row": m("B/row", "lower", "wall_s, disk_mb", spill,
                                         lambda t: _ratio(t.c("spill.bytes"),
                                                          t.c("spill.rows"))),
        "collect.merge_scratch_bytes": m("B", "lower", "wall_s, disk_mb",
                                         "fleet_10k / paper_*, analyze_5k",
                                         lambda t: t.c("spill.merge_scratch_bytes")),
        "collect.merge_s": m("s", "lower", "wall_s, disk_mb", "fleet_10k / paper_*, analyze_5k",
                             lambda t: t.probe_scan_s("spilled")),
        "collect.merge_ns_per_row": m(
            "ns/row", "lower", "wall_s, disk_mb", "fleet_10k / paper_*, analyze_5k",
            lambda t: _ratio(t.probe_scan_s("spilled"), t.c("probe.scan_rows"), ns)),
        "collect.snapshot_write_s": m("s", "lower", "wall_s (fleet_10k), setup_s (analyze_5k)",
                                      spill, lambda t: t.span("collect.snapshot_write")),
        "collect.snapshot_bytes": m("B", "lower", "wall_s (fleet_10k), setup_s (analyze_5k)",
                                    spill, lambda t: t.sizes.get("snapshot", 0)),
        "collect.snapshot_write_ns_per_row": m(
            "ns/row", "lower", "wall_s (fleet_10k), setup_s (analyze_5k)", spill,
            lambda t: _ratio(t.span("collect.snapshot_write"), t.c("rows.total"), ns)),
        "collect.snapshot_open_s": m("s", "lower", "wall_s, peak_rss_mb", read,
                                     lambda t: t.span("collect.snapshot_open")),
        "collect.snapshot_verify_s": m("s", "lower", "wall_s, peak_rss_mb",
                                       "analyze_5k, fleet_10k (its output) / paper_*",
                                       lambda t: t.span("probe.verify")),
        "collect.snapshot_bytes_mapped": m("B", "lower", "wall_s, peak_rss_mb", read,
                                           lambda t: t.c("io.bytes_mapped")),
        "collect.column_scan_ns_per_row": m(
            "ns/row", "lower", "wall_s, peak_rss_mb", read,
            lambda t: _ratio(t.probe_scan_s("columns"), t.c("probe.scan_rows"), ns)),
        "collect.export_s": m("s", "lower", "wall_s, disk_mb", "fleet_10k / the rest",
                              lambda t: t.span("collect.export")),
        "collect.export_bytes": m("B", "lower", "wall_s, disk_mb", "fleet_10k / the rest",
                                  lambda t: t.sizes.get("export", 0)),
        "collect.export_ns_per_row": m(
            "ns/row", "lower", "wall_s, disk_mb", "fleet_10k / the rest",
            lambda t: _ratio(t.span("collect.export"), t.c("export.rows"), ns)),
        "analysis.summarize_fleet_s": m("s", "lower", "wall_s",
                                        "fleet_10k (spilled, serial), analyze_5k set-up / paper_*",
                                        lambda t: t.span("analysis.summarize_fleet")),
        "analysis.summarize_columns_s": m("s", "lower", "wall_s", "analyze_5k / the rest",
                                          lambda t: t.span("analysis.summarize_columns")),
        "analysis.summarize_ns_per_row": m(
            "ns/row", "lower", "wall_s", "analyze_5k (columns), fleet_10k (spilled) / paper_*",
            lambda t: _ratio(t.span("analysis.summarize_columns") or
                             t.span("analysis.summarize_fleet"), t.c("summary.rows"), ns)),
        "analysis.availability_s": m("s", "lower", "wall_s",
                                     "analyze_5k, paper_report / paper_cgn, fleet_10k",
                                     lambda t: t.span("analysis.availability")),
        "analysis.unique_devices_s": m("s", "lower", "wall_s",
                                       "analyze_5k, paper_report / paper_cgn, fleet_10k",
                                       lambda t: t.span("analysis.unique_devices")),
        "analysis.section4_s": m("s", "lower", "wall_s", "paper_report (~3% for 4-6) / the rest",
                                 lambda t: t.span("analysis.section4")),
        "analysis.section5_s": m("s", "lower", "wall_s", "paper_report / the rest",
                                 lambda t: t.span("analysis.section5")),
        "analysis.section6_s": m("s", "lower", "wall_s", "paper_report / the rest",
                                 lambda t: t.span("analysis.section6")),
        "analysis.cgn_s": m("s", "lower", "wall_s", "paper_cgn / the rest",
                            lambda t: t.span("analysis.cgn")),
        "trace.coverage": m("ratio", "higher", "n/a", "every workload; within 0.1 of 1",
                            lambda t: t.coverage),
    }


LADDER = _layer_table()


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build and machine record


class BuildError(RuntimeError):
    pass


def build() -> tuple[Path, Path]:
    """Configure (once) and build bismark_study and bench_trace, Release."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BuildError(f"{ROOT} holds no bismark-repro source tree to build")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release",
                     f"-DCMAKE_PROJECT_INCLUDE={HERE / 'trace' / 'bench_trace.cmake'}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        _run_build_step(configure)
    _run_build_step(["cmake", "--build", str(BUILD), "--target", "bismark_study", "bench_trace",
                     "-j", "4"])
    return BUILD / "tools" / "bismark_study", BUILD / "perfbench" / "bench_trace"


def _run_build_step(cmd: list[str]) -> None:
    log(" ".join(cmd))
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BuildError(f"build step failed with exit code {proc.returncode}")


def _cmake_cache() -> dict[str, str]:
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text(errors="replace").splitlines():
        m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line)
        if m:
            cache[m.group(1)] = m.group(2)
    return cache


def machine_record() -> dict:
    cache = _cmake_cache()
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), "unknown")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        compiler_version = subprocess.run([compiler, "--version"], capture_output=True,
                                          text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        compiler_version = compiler
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": build_type or "(none)",
        "optimised": build_type in OPTIMISED_BUILD_TYPES,
        "compiler": compiler_version,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "BISMARK_OBS": cache.get("BISMARK_OBS", "ON"),
    }


def _commit() -> str:
    """HEAD of the checkout, if the checkout itself is a git repository."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _source_digest() -> str:
    """Digest of the program's sources, standing in for the commit hash where
    the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*")),
             *sorted((ROOT / "tools").rglob("*"))]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


# --------------------------------------------------------------------------
# Invocations


@dataclasses.dataclass
class Sample:
    role: str  # "main", "setup" or "reference"
    cli_seed: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    disk_mb: float
    ok: bool
    why: str = ""


class Runner:
    """Runs invocations in fresh directories and checks their outputs."""

    def __init__(self, workload: Workload, toy: bool, binary: Path, tracer: Path):
        self.workload = workload
        self.size = "toy" if toy else "full"
        self.binary = binary
        self.tracer = tracer
        self.root = WORK / f"run-{os.getpid()}"
        self.counter = 0
        self.samples: list[Sample] = []
        self.references: dict[tuple[str, str, int], dict[str, str]] = {}
        self.recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.name = next(k for k, v in WORKLOADS.items() if v is workload)

    def fresh_dir(self, label: str) -> Path:
        self.counter += 1
        d = self.root / f"{self.counter:03d}-{label}"
        d.mkdir(parents=True)
        return d

    @staticmethod
    def expand(argv: tuple[str, ...], d: Path, input_dir: Path | None) -> list[str]:
        subst = {"{spill}": str(d / "spill"), "{snapshot}": str(d / "snapshot"),
                 "{export}": str(d / "export"), "{input}": str(input_dir or "")}
        return [subst.get(a, a) for a in argv]

    def invoke(self, role: str, argv: tuple[str, ...], cli_seed: int, outputs: tuple[str, ...],
               input_dir: Path | None = None, keep: bool = False,
               size: str | None = None) -> tuple[Sample, Path]:
        """Run bismark_study once; time it, digest its outputs, free its disk.
        `size` names the call's size ("full" or "toy") when it is not the run's."""
        d = self.fresh_dir(role)
        cmd = [str(self.binary), *self.expand(argv, d, input_dir), "--seed", str(cli_seed)]
        with open(d / "stdout", "wb") as out, open(d / "stderr", "wb") as err:
            wall, status, usage = _wait4_child(cmd, out, err)
        rc = os.waitstatus_to_exitcode(status)
        sizes = {name: _tree_bytes(d / name) for name in ("spill", "snapshot", "export")}
        digest = self.digest(d, outputs, input_dir)
        ok, why = self.check(role, size or self.size, cli_seed, digest, rc, d)
        sample = Sample(role, cli_seed, wall, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024.0, sum(sizes.values()) / 2**20, ok, why)
        self.samples.append(sample)
        if not keep:
            shutil.rmtree(d)
        return sample, d

    def digest(self, d: Path, outputs: tuple[str, ...], input_dir: Path | None) -> dict[str, str]:
        parts = {}
        stdout_path = d / "stdout"
        if stdout_path.is_file():
            text = stdout_path.read_bytes().replace(str(d).encode(), b"<dir>")
            if input_dir is not None:
                text = text.replace(str(input_dir).encode(), b"<input>")
            parts["stdout"] = hashlib.sha256(text).hexdigest()
        for name in outputs:
            parts[name] = _tree_digest(d / name)
        return parts

    def check(self, role: str, size: str, cli_seed: int, digest: dict[str, str], rc: int,
              d: Path) -> tuple[bool, str]:
        """Exit 0, and every digested part equal to the default seed's recorded
        digest or, for any other seed, to the first invocation of this seed."""
        if rc != 0:
            err = (d / "stderr").read_text(errors="replace").strip().splitlines()
            return False, f"exit {rc}: {err[-1] if err else ''}"
        ref_role = "main" if role == "reference" else role
        key = (size, ref_role, cli_seed)
        if key not in self.references:
            recorded = self.recorded.get(f"{self.name}/{size}/{ref_role}")
            self.references[key] = dict(recorded) if cli_seed == DEFAULT_SEED and recorded \
                else dict(digest)
        reference = self.references[key]
        for part, value in digest.items():
            reference.setdefault(part, value)
            if reference[part] != value:
                return False, f"{part} differs from the reference output"
        return True, ""


def _wait4_child(cmd, out, err):
    """fork/exec one child and reap it with wait4: wall time, status, rusage."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, status, usage


def _tree_bytes(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    if path.is_dir():
        for f in sorted(p for p in path.rglob("*") if p.is_file()):
            fh = hashlib.sha256()
            with open(f, "rb") as stream:
                for block in iter(lambda: stream.read(1 << 20), b""):
                    fh.update(block)
            h.update(f"{f.relative_to(path)} {fh.hexdigest()}\n".encode())
    return h.hexdigest()


def derive_seeds(seed: int, count: int) -> list[int]:
    """The run's CLI seeds: --seed itself, then seeds hashed from it."""
    seeds = [seed]
    for i in range(1, count):
        digest = hashlib.sha256(f"{seed}:{i}".encode()).digest()
        seeds.append(int.from_bytes(digest[:4], "little") & 0x7FFFFFFF)
    return seeds


def _fits(started: float, seconds: float, durations: list[float]) -> bool:
    """True if one more invocation is expected to end within the run length."""
    return time.perf_counter() - started + statistics.median(durations) <= seconds


# --------------------------------------------------------------------------
# --trace 0: end-to-end metrics


def set_up(runner: Runner, argv: tuple[str, ...], cli_seed: int) -> tuple[list[float], Path | None]:
    """Prepare the workload's input. Returns the set-up times and the input
    directory: the snapshot of the last snapshot-writing run for analyze_5k;
    for a workload with no input, the set-up is only starting the program,
    timed as `bismark_study --help`."""
    w = runner.workload
    if not w.setups:
        with open(os.devnull, "wb") as null:
            return [_wait4_child([str(runner.binary), "--help"], null, null)[0]
                    for _ in range(STARTUP_PROBES)], None
    times, input_dir = [], None
    for _ in range(w.setups):
        sample, d = runner.invoke("setup", argv, cli_seed, w.setup_outputs, keep=True)
        times.append(sample.wall_s)
        shutil.rmtree(d / "spill", ignore_errors=True)
        if input_dir is not None:
            shutil.rmtree(input_dir.parent)
        input_dir = d / "snapshot"
    return times, input_dir


def warm_up(runner: Runner, toy: bool, cli_seed: int, input_dir: Path | None) -> None:
    w = runner.workload
    argv = w.toy_argv if toy else w.argv
    if w.toy_warmup:
        runner.invoke("reference", w.toy_argv, cli_seed, w.outputs, input_dir, size="toy")
        return
    if w.warmup_workers:
        i = argv.index("--workers")
        argv = (*argv[:i + 1], w.warmup_workers, *argv[i + 2:])
    runner.invoke("reference", argv, cli_seed, w.outputs, input_dir)


def run_timed(w: Workload, runner: Runner, seed: int, seconds: float, toy: bool) -> dict:
    argv = w.toy_argv if toy else w.argv
    seeds = derive_seeds(seed, w.seeds)
    setup_times, input_dir = set_up(runner, w.toy_setup_argv if toy else w.setup_argv, seeds[0])
    warm_up(runner, toy, seeds[0], input_dir)
    started = time.perf_counter()
    durations: list[float] = []
    while len(durations) < max(len(seeds), w.min_timed) or _fits(started, seconds, durations):
        seed_i = seeds[len(durations) % len(seeds)]
        durations.append(runner.invoke("main", argv, seed_i, w.outputs, input_dir)[0].wall_s)
    if input_dir is not None:
        shutil.rmtree(input_dir.parent)

    timed = [s for s in runner.samples if s.role == "main"]

    def per_seed_mean(field: str) -> float:
        # Each seed's median over its repeats, then the mean over seeds: the
        # median rejects machine noise, the mean averages the seeds' work.
        by_seed: dict[int, list[float]] = {}
        for s in timed:
            by_seed.setdefault(s.cli_seed, []).append(getattr(s, field))
        return statistics.fmean(statistics.median(v) for v in by_seed.values())

    values = {f: per_seed_mean(f) for f in ("wall_s", "cpu_s", "peak_rss_mb", "disk_mb")}
    values["setup_s"] = statistics.median(setup_times)
    attempted = len(runner.samples)
    failed = sum(not s.ok for s in runner.samples)
    values["error_rate"] = failed / attempted
    return {"values": values, "seeds": seeds, "timed": len(timed), "setups": len(setup_times),
            "attempted": attempted, "failed": failed}


# --------------------------------------------------------------------------
# --trace 1: per-layer ladder


class Trace:
    """The spans and counters of one traced run, with the accessors LADDER uses.

    Spans of every replay (the set-up's, the timed call's, the probes') are
    merged into one list; `parent` becomes an index into that list.
    """

    def __init__(self, documents: list[dict], sizes: dict[str, int], untraced_wall_s: float):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        for doc in documents:
            base = len(self.spans)
            for s in doc["spans"]:
                self.spans.append({
                    "name": s["name"], "invocation": s["invocation"],
                    "start_s": doc["origin_s"] + s["start_s"],
                    "end_s": doc["origin_s"] + s["end_s"],
                    "parent": None if s["parent"] < 0 else base + s["parent"]})
            self.counters.update(doc["counters"])
        self.sizes = sizes
        self.untraced_wall_s = untraced_wall_s
        top = [s for s in self.spans if s["invocation"] == "main" and s["parent"] is None]
        self.coverage = sum(s["end_s"] - s["start_s"] for s in top) / untraced_wall_s

    def c(self, name: str) -> float:
        return float(self.counters.get(name, 0.0))

    def span(self, name: str) -> float:
        """Total duration of the spans with this name (0 if the call never ran)."""
        return sum(s["end_s"] - s["start_s"] for s in self.spans if s["name"] == name)

    def probe_scan_s(self, backing: str) -> float:
        """The scan probe's time if the timed call's repository has this
        backing ("spilled": a merge; "columns": a column scan), else 0."""
        return self.span("probe.scan") if self.c(f"repo.{backing}") else 0.0

    def self_times(self) -> dict[str, float]:
        """Self time per layer (a span name's first component): each span's
        duration minus the part of its interval that its children cover."""
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        layers: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            covered, cursor = 0.0, s["start_s"]
            for ch in sorted(children.get(i, []), key=lambda x: x["start_s"]):
                lo, hi = max(ch["start_s"], cursor), min(ch["end_s"], s["end_s"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            layer = s["name"].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + s["end_s"] - s["start_s"] - covered
        return layers


def traced_replay(runner: Runner, invocation: str, argv: tuple[str, ...], seed: int, d: Path,
                  outputs: tuple[str, ...], input_dir: Path | None,
                  probes: bool) -> dict | None:
    """Run bench_trace for one invocation. Returns its spans and counters, or
    None if it failed or wrote other files than the CLI call it replays."""
    out = d / "trace.json"
    cmd = [str(runner.tracer), "--trace-out", str(out), "--invocation", invocation,
           *(["--probes"] if probes else []), *runner.expand(argv, d, input_dir),
           "--seed", str(seed)]
    with open(d / "stdout", "wb") as so, open(d / "stderr", "wb") as se:
        _, status, _ = _wait4_child(cmd, so, se)
    rc = os.waitstatus_to_exitcode(status)
    if rc != 0 or not out.is_file():
        err = (d / "stderr").read_text(errors="replace").strip().splitlines()
        log(f"traced {invocation} failed with exit {rc}: {err[-1] if err else ''}")
        return None
    role = "setup" if invocation == "setup" else "main"
    reference = runner.references.get((runner.size, role, seed), {})
    if not reference and seed == DEFAULT_SEED:
        reference = runner.recorded.get(f"{runner.name}/{runner.size}/{role}", {})
    for part in outputs:
        digest = _tree_digest(d / part)
        if reference.get(part, digest) != digest:
            log(f"traced {invocation} wrote a different {part} than the CLI")
            return None
    return json.loads(out.read_text())


def run_traced(w: Workload, runner: Runner, seed: int, seconds: float, toy: bool) -> dict:
    """The traced run on --seed (for analyze_5k, after a traced replay of its
    set-up, which also writes the snapshot the calls read): pairs of one
    untraced invocation and one traced replay with the probes. Pairing
    adjacent calls keeps the host's drift out of coverage; the ladder comes
    from the pair whose coverage is the median."""
    argv = w.toy_argv if toy else w.argv
    setup_docs: list[dict] = []
    failed_replays = 0
    sizes: dict[str, int] = {}
    input_dir = None
    if w.setups:
        d = runner.fresh_dir("traced-setup")
        doc = traced_replay(runner, "setup", w.toy_setup_argv if toy else w.setup_argv, seed,
                            d, w.setup_outputs, None, probes=False)
        if doc is None:
            failed_replays += 1  # and the calls that read its snapshot fail too
        else:
            setup_docs.append(doc)
        sizes["snapshot"] = _tree_bytes(d / "snapshot")
        shutil.rmtree(d / "spill", ignore_errors=True)
        input_dir = d / "snapshot"
    warm_up(runner, toy, seed, input_dir)
    traces: list[Trace] = []
    started, durations = time.perf_counter(), []
    while (len(durations) < TRACE_PAIRS and time.perf_counter() - started < TRACE_PAIR_SECONDS) \
            or _fits(started, seconds, durations):
        t0 = time.perf_counter()
        wall = runner.invoke("main", argv, seed, w.outputs, input_dir)[0].wall_s
        d = runner.fresh_dir("traced-main")
        doc = traced_replay(runner, "main", argv, seed, d, w.outputs, input_dir, probes=True)
        for part in ("snapshot", "export"):
            if (d / part).is_dir():
                sizes[part] = _tree_bytes(d / part)
        shutil.rmtree(d)
        durations.append(time.perf_counter() - t0)
        if doc is None:
            failed_replays += 1
            break
        traces.append(Trace([*setup_docs, doc], sizes, wall))
    if input_dir is not None:
        shutil.rmtree(input_dir.parent)

    traces.sort(key=lambda t: t.coverage)
    trace = traces[len(traces) // 2] if traces else Trace(setup_docs, sizes, wall)
    return {"values": {name: float(spec.value(trace)) for name, spec in LADDER.items()},
            "trace": trace, "pairs": len(traces),
            "attempted": len(runner.samples) + (1 if w.setups else 0) + len(durations),
            "failed": sum(not s.ok for s in runner.samples) + failed_replays}


# --------------------------------------------------------------------------
# Output


def print_record(name: str, args, machine: dict, result: dict) -> None:
    print(f"perfbench {name}: seed {args.seed}, --seconds {args.seconds:g}, "
          f"trace {args.trace}{', toy size' if args.toy else ''}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    if not machine["optimised"]:
        print("WARNING: unoptimised build; these numbers are not a baseline")
    print(f"invocations: {result['attempted']} attempted, {result['failed']} failed")


def print_timed(result: dict) -> None:
    print(f"CLI seeds {result['seeds']}; {result['timed']} timed invocations (each seed's "
          f"median, then the mean over seeds); setup_s is the median of {result['setups']}")
    for metric, (unit, meaning) in END_TO_END.items():
        print(f"  {metric:<12} {result['values'][metric]:>12.4f} {unit:<6} {meaning}")


def print_ladder(result: dict) -> None:
    trace: Trace = result["trace"]
    print(f"ladder from the median of {result['pairs']} (untraced call, traced replay) pairs; "
          f"its untraced wall_s {trace.untraced_wall_s:.4f} s")
    print(f"  {'metric':<34} {'value':>13} {'unit':<8} should move; most work in / little "
          "or none in")
    for metric, spec in LADDER.items():
        print(f"  {metric:<34} {result['values'][metric]:>13.6g} {spec.unit:<8} "
              f"{spec.moves}; {spec.most}")
    print("self time per layer (s): " + ", ".join(
        f"{layer} {seconds:.4f}" for layer, seconds in sorted(trace.self_times().items())))


def write_results(name: str, args, machine: dict, runner: Runner, result: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    stem = f"{name}{'-toy' if args.toy else ''}-seed{args.seed}-trace{args.trace}"
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "toy": args.toy, "machine": machine,
              "values": result["values"], "attempted": result["attempted"],
              "failed": result["failed"],
              "invocations": [dataclasses.asdict(s) for s in runner.samples]}
    if args.trace:
        trace: Trace = result["trace"]
        spans_path = OUT / f"spans-{stem}.json"
        spans_path.write_text(json.dumps({"spans": trace.spans, "counters": trace.counters,
                                          "self_s": trace.self_times()}, indent=1) + "\n")
        record["spans"] = str(spans_path.relative_to(ROOT))
    path = OUT / f"result-{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def record_digests(binary: Path, tracer: Path) -> int:
    """Rewrite digests.json: one invocation of every role, default seed."""
    digests = {}
    for toy in (False, True):
        for name, w in WORKLOADS.items():
            runner = Runner(w, toy, binary, tracer)
            runner.recorded = {}
            try:
                input_dir = None
                if w.setups:
                    _, d = runner.invoke("setup", w.toy_setup_argv if toy else w.setup_argv,
                                         DEFAULT_SEED, w.setup_outputs, keep=True)
                    input_dir = d / "snapshot"
                runner.invoke("main", w.toy_argv if toy else w.argv, DEFAULT_SEED, w.outputs,
                              input_dir)
            finally:
                shutil.rmtree(runner.root, ignore_errors=True)
            if any(not s.ok for s in runner.samples):
                log(f"{name}: an invocation failed; digests not written")
                return 1
            for (size, role, _), parts in runner.references.items():
                digests[f"{name}/{size}/{role}"] = parts
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    log(f"wrote {DIGESTS.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="a few dozen homes per workload (the self-test size)")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the default seed")
    args = parser.parse_args(argv)
    if not args.workload and not args.record_digests:
        parser.error("--workload is required")
    # SIGTERM unwinds like Ctrl-C: the running child is killed and reaped and
    # the run's directories are removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        binary, tracer = build()
    except (BuildError, OSError) as e:
        log(f"cannot build the benchmark: {e}")
        return 2
    machine = machine_record()
    if args.record_digests:
        return record_digests(binary, tracer)

    w = WORKLOADS[args.workload]
    runner = Runner(w, args.toy, binary, tracer)
    try:
        if args.trace:
            result = run_traced(w, runner, args.seed, args.seconds, args.toy)
        else:
            result = run_timed(w, runner, args.seed, args.seconds, args.toy)
    finally:
        shutil.rmtree(runner.root, ignore_errors=True)
    print_record(args.workload, args, machine, result)
    if args.trace:
        print_ladder(result)
        names = {name: spec.unit for name, spec in LADDER.items()}
    else:
        print_timed(result)
        names = {name: END_TO_END[name][0] for name in JSON_END_TO_END}
    for s in runner.samples:
        if not s.ok:
            print(f"FAILED {s.role} invocation, CLI seed {s.cli_seed}: {s.why}")
    path = write_results(args.workload, args, machine, runner, result)
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["values"][n], "unit": u} for n, u in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

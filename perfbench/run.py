#!/usr/bin/env python3
"""Benchmark of the texelkit CLI on seeded workloads.

    python3 perfbench/run.py --workload detect-dense --seed 1 --seconds 20 --trace 0

Run from the repository root; texelkit is imported from ./src. Every timed
call is texelkit.cli.main(argv) on PGM files that texelkit.testgen wrote
during set-up, run in a fresh fork of this warmed process (see in_fork).
Calls form a closed loop with one client: the next call starts when the
previous one has returned and its outputs have been checked against the
generator's ground truth. Interpreter start-up is not timed; one warm-up
call in this process is part of set-up.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced calls and prints the per-layer metrics (see spans.py), each the low
median over traced calls of its value per CLI call. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the full
record (environment, per-call times, output sha256) goes to
perfbench/_results/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "_results"
WORK_DIR = BENCH_DIR / "_work"

# fixture generation and writing is repeated; setup_s takes the median
SETUP_REPEATS = 3

END_TO_END = {
    "call_s_p50": "s",
    "mpix_per_s": "Mpx/s",
    "peak_alloc_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "periodicity.row_dmf.s": "s",
    "periodicity.column_dmf.s": "s",
    "periodicity.row_dmf.calls": "count",
    "periodicity.column_dmf.calls": "count",
    "periodicity.estimate_periods.self_s": "s",
    "periodicity.dmf_share": "frac",
    "image.load_pgm.s": "s",
    "image.save_pgm.s": "s",
    "image.GrayImage.calls": "count",
    "image.GrayImage.px": "px",
    "stats.features_of_region.s": "s",
    "stats.features_of_region.calls": "count",
    "blocks.classify_blocks.self_s": "s",
    "synthesis.highlight_anomalies.self_s": "s",
    "image.draw_rect_outline.calls": "count",
    "synthesis.synthesize.s": "s",
    "synthesis.extract_texel.s": "s",
    "cli.report.s": "s",
    "cli.report.bytes": "bytes",
    "cli.self_s": "s",
    "cli.main.s": "s",
    "trace.overhead_s": "s",
}

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def import_texelkit() -> float:
    """Import texelkit.cli (and numpy with it) from ./src; returns seconds."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    cli = importlib.import_module("texelkit.cli")
    seconds = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"texelkit imported from {cli.__file__}, not from {src}")
    return seconds


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def in_fork(fn):
    """fn() run in a forked copy of this process; returns its JSON-able
    result, or None when the child died without one.

    Each timed call runs in a fresh fork of the warmed benchmark process, so
    every call starts from the same interpreter and heap state, as a new CLI
    process would apart from interpreter start-up. A fork also draws fresh
    memory pages, so one run averages over many page placements instead of
    keeping the placement its first call happened to get.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(fn(), pipe)
            status = 0
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    return json.loads(data) if status == 0 and data else None


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 import_s: float, workdir: Path):
    """One benchmark run; returns (record, spans of the traced calls)."""
    import texelkit.cli as cli
    from spans import Tracer
    from workloads import check, write_fixture

    # set-up: fixtures (repeated), then one warm-up call in this process
    fixture_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        fx = write_fixture(workload, seed, workdir)
        fixture_s.append(time.perf_counter() - start)
    argv = fx.argv()

    def timed_call(mode="plain"):
        """One CLI call; {"rc": exit code or error text, "s": seconds, ...}."""
        out = {}
        tracer = Tracer() if mode == "traced" else None
        if mode == "peak":
            tracemalloc.start()
        start = time.perf_counter()
        try:
            out["rc"] = tracer.call(cli.main, argv) if tracer else cli.main(argv)
        except (Exception, SystemExit) as exc:
            out["rc"] = f"raised {exc!r}"
        out["s"] = time.perf_counter() - start
        if mode == "peak":
            out["peak"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        if tracer:
            out["layers"] = tracer.summary()
            out["spans"] = tracer.spans
            out["report_bytes"] = (fx.report_path.stat().st_size
                                   if fx.report_path.exists() else 0)
        return out

    attempted = failed = 0
    problems: list[str] = []
    digests: dict[str, set] = {}

    def checked(result):
        nonlocal attempted, failed
        attempted += 1
        if result is None:
            found, found_digests = ["benchmark child exited without a result"], {}
        elif isinstance(result["rc"], str):
            found, found_digests = [result["rc"]], {}
        else:
            found, found_digests = check(fx, result["rc"])
        for name, digest in found_digests.items():
            digests.setdefault(name, set()).add(digest)
        if found:
            failed += 1
            if len(problems) < 10:
                problems.extend(found)
        # a call that writes nothing must not pass on the previous call's files
        fx.report_path.unlink(missing_ok=True)
        fx.output_path.unlink(missing_ok=True)
        return result

    warmup_s = checked(timed_call())["s"]
    setup_s = import_s + statistics.median(fixture_s) + warmup_s

    if not trace:
        result = checked(in_fork(lambda: timed_call("peak")))
        peak = result["peak"] if result else 0.0

    call_s: list[float] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not call_s or (trace and not traced):
        mode = "traced" if trace and len(call_s) > len(traced) else "plain"
        start = time.perf_counter()
        result = checked(in_fork(lambda: timed_call(mode)))
        if result is None:  # the child died: a failed call, timed from here
            result = {"s": time.perf_counter() - start, "layers": {}, "spans": [],
                      "report_bytes": 0}
        if mode == "plain":
            call_s.append(result["s"])
        else:
            traced.append(result)

    spans = []
    if trace:
        per_call = []
        for call_id, result in enumerate(traced):
            m = result["layers"]
            m["cli.report.s"] = (m.get("blocks.AnalysisResult.to_dict.s", 0.0)
                                 + m.get("cli.emit_json.s", 0.0))
            m["cli.report.bytes"] = result["report_bytes"]
            m["cli.self_s"] = m.get("cli.main.self_s", 0.0)
            m["periodicity.dmf_share"] = (
                m.get("periodicity.row_dmf.s", 0.0)
                + m.get("periodicity.column_dmf.s", 0.0)) / result["s"]
            per_call.append(m)
            spans.extend([*span, call_id] for span in result["spans"])
        # median_low picks a real sample, so counts stay whole numbers
        metrics = {name: statistics.median_low(m.get(name, 0) for m in per_call)
                   for name in PER_LAYER if name != "trace.overhead_s"}
        traced_s = [r["s"] for r in traced]
        metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(call_s)
        units = PER_LAYER
    else:
        traced_s = []
        metrics = {
            "call_s_p50": statistics.median(call_s),
            "mpix_per_s": workload.input_mpx * len(call_s) / sum(call_s),
            "peak_alloc_mb": peak / 1e6,
            "setup_s": setup_s,
        }
        units = END_TO_END

    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "calls_per_run": len(call_s) + len(traced_s),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "call_s": call_s,
        "traced_call_s": traced_s,
        "setup": {"import_s": import_s, "fixture_s": fixture_s, "warmup_s": warmup_s},
        "output_sha256": {k: sorted(v) for k, v in sorted(digests.items())},
        "environment": environment(),
    }
    return record, spans


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        import_s = import_texelkit()
    except ImportError as exc:
        print(f"error: cannot import texelkit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    try:
        record, spans = run_workload(workload, args.seed, args.seconds,
                                     bool(args.trace), import_s, WORK_DIR)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        with open(RESULTS_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    print(f"texelkit benchmark: workload={workload.name} seed={args.seed} "
          f"trace={args.trace} calls={record['calls_per_run']} "
          f"record={RESULTS_DIR.relative_to(ROOT) / (stem + '.json')}")
    rows = dict(record["metrics"])
    if not args.trace:
        rows["failed_frac"] = {"value": record["failed_frac"], "unit": "frac"}
    for name, m in rows.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    for problem in record["problems"]:
        print(f"  check failed: {problem}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

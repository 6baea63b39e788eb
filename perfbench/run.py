#!/usr/bin/env python3
"""Repository benchmark: wall time to regenerate the paper's artefacts on
the monitored cycle-accurate model, split by layer in a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {table1,ccf,machine_check}
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record --workload W --seed N

The run builds the artefact binaries and the `perfbench` harness from
source, then

* with `--trace 0` regenerates the workload's artefacts back to back for
  `--seconds` (at least once) and reports the end-to-end metrics;
* with `--trace 1` runs the artefacts once untraced and once traced, plus
  the harness's layer split, and reports the per-layer metrics.

Every artefact output is checked against the reference recorded for the
seed under `perfbench/reference/` (seed 0 is the paper protocol's seeds),
record by record; a seed without a reference is checked by the artefacts'
own self-checks only. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
REFERENCE = os.path.join(BENCH, "reference")
OUT = os.path.join(ROOT, ".bench_out")

JOBS = 2
WORKLOADS = ("table1", "ccf", "machine_check")
# How much a CCF fault plan simulates depends on its seed: a fault that
# hangs a kernel runs its trial to the 80 M-cycle budget, and seeds 1, 2
# and 3 take 4.5x, 2x and 4x as long as the protocol plan. A speed
# benchmark must not measure that, so `ccf` runs the protocol plan (seed 0)
# whatever `--seed` says.
PROTOCOL_ONLY = ("ccf",)
BINARIES = ("table1", "ccf_campaign", "prove_soundness", "transform_diversity")
# A line each binary prints only when its own self-checks passed.
PASS_LINES = {
    "table1": "all kernels passed their self-checks on both cores",
    "prove_soundness": "PROVE-SOUNDNESS: PASS",
    "transform_diversity": "TRANSFORM-DIVERSITY: PASS",
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
}
PER_LAYER = {
    # Per layer rather than end to end: on `ccf` the peak depends on whether
    # two memory-heavy faulted trials overlap on the two workers (112 or
    # 149 MB across identical runs, 76 MB at --jobs 1), which no bound on a
    # regression can cover.
    "peak_rss_mb": "MB",
    "sim.ns_per_cycle": "ns/cycle",
    "sim.mcps": "Mcyc/s",
    "sim.remainder_ns_per_cycle": "ns/cycle",
    "soc.pipeline.ns_per_cycle": "ns/cycle",
    "soc.cycles": "count",
    "soc.retired": "count",
    "soc.hold_share": "share",
    "soc.uncore.ns_per_cycle": "ns/cycle",
    "soc.bus.transactions": "count",
    "soc.bus.contended_share": "share",
    "soc.l1d.miss_ratio": "share",
    "soc.l2.miss_ratio": "share",
    "soc.mem.lines": "count",
    "soc.load_us": "us",
    "core.monitor.ns_per_cycle": "ns/cycle",
    "core.monitor.ds_match_share": "share",
    "core.monitor.is_match_share": "share",
    "core.regs.ns_per_cycle": "ns/cycle",
    "core.dcls.ns_per_cycle": "ns/cycle",
    "core.obs.ns_per_cycle": "ns/cycle",
    "faults.trials": "count",
    "faults.prefix_share": "share",
    "tacle.images": "count",
    "tacle.build_us": "us",
    "asm.transform_ms": "ms",
    "analysis.prove_ms": "ms",
    "analysis.pair_ms": "ms",
    "campaign.cells": "count",
    "campaign.cell_p50_ms": "ms",
    "campaign.cell_p95_ms": "ms",
    "campaign.idle_share": "share",
    "trace.overhead_share": "share",
    # Per layer rather than end to end: an end-to-end bound is a share of
    # the parent's median, and this reads 0 on every correct run.
    "failed_share": "share",
}

# The layers the harness reports (the rest come from the artefact runs).
HARNESS_METRICS = [m for m in PER_LAYER if m not in ("peak_rss_mb", "failed_share")
                   and not m.startswith(("campaign.", "trace."))]


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Builds the four artefact binaries and the harness (release)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    bins = [arg for b in BINARIES for arg in ("--bin", b)]
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "safedm-bench", *bins],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(BENCH, "Cargo.toml")],
    ):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")


def binary(name):
    return os.path.join(target_dir(), "release", name)


# --------------------------------------------------------------------------
# Artefact runs


def artefact_commands(workload, seed, timing):
    """(binary, args, outputs) per artefact process of `workload`. The
    outputs map an output name to the file the process writes it to."""
    def events(name):
        path = os.path.join(OUT, f"{name}.events")
        return ["--events-out", path] + (["--events-timing"] if timing else []), path

    jobs = ["--jobs", str(JOBS)]
    if workload == "table1":
        ev, ev_path = events("table1")
        json_path = os.path.join(OUT, "table1.json")
        seed_args = ["--root-seed", str(seed)] if seed else []
        return [("table1", jobs + seed_args + ev + ["--json", json_path],
                 {"table1.events": ev_path, "table1.json": json_path})]
    if workload == "ccf":
        ev, ev_path = events("ccf_campaign")
        return [("ccf_campaign", jobs + ["--seed", str(seed or 2024)] + ev,
                 {"ccf_campaign.events": ev_path})]
    ps_ev, ps_path = events("prove_soundness")
    td_ev, td_path = events("transform_diversity")
    seed_args = ["--seed", str(seed)] if seed else []
    return [
        ("prove_soundness", jobs + ps_ev, {"prove_soundness.events": ps_path}),
        ("transform_diversity", jobs + seed_args + td_ev,
         {"transform_diversity.events": td_path}),
    ]


def run_process(argv):
    """Runs one process to completion; returns (stdout, exit code, wall
    seconds, CPU seconds, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    return stdout, os.waitstatus_to_exitcode(status), wall, cpu, usage.ru_maxrss / 1024.0


def run_artefacts(workload, seed, timing=False):
    """One regeneration of the workload's artefacts. Returns the timing
    totals and every output by name (event files as lists of lines)."""
    os.makedirs(OUT, exist_ok=True)
    rep = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "outputs": {}, "exit": {}}
    for name, args, files in artefact_commands(workload, seed, timing):
        for path in files.values():
            if os.path.exists(path):
                os.remove(path)
        stdout, code, wall, cpu, rss = run_process([binary(name), *args])
        rep["wall_s"] += wall
        rep["cpu_s"] += cpu
        rep["peak_rss_mb"] = max(rep["peak_rss_mb"], rss)
        rep["exit"][name] = code
        rep["outputs"][f"{name}.stdout"] = stdout
        with open(os.path.join(OUT, f"{name}.stdout"), "wb") as f:
            f.write(stdout)
        for out_name, path in files.items():
            data = open(path, "rb").read() if os.path.exists(path) else b""
            if out_name.endswith(".events"):
                rep["outputs"][out_name] = data.splitlines()
            else:
                rep["outputs"][out_name] = data
    return rep


# --------------------------------------------------------------------------
# Output checks

WALL_US = re.compile(rb',"wall_us":\d+')


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def manifest(outputs):
    """Digests of every record: one per event line (timing stripped), one
    per whole output file."""
    out = {}
    for name, data in sorted(outputs.items()):
        if isinstance(data, list):
            out[name] = [digest(WALL_US.sub(b"", line)) for line in data]
        else:
            out[name] = [digest(data)]
    return out


def reference_path(workload, seed):
    return os.path.join(REFERENCE, workload, f"seed-{seed}.json")


def load_reference(workload, seed):
    path = reference_path(workload, seed)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def self_check_failures(outputs, exits):
    """Per output name, the indices of records failing the artefact's own
    checks: a nonzero exit fails the process's stdout record, a missing
    PASS line fails it too, and an event with `"ok": false` fails itself."""
    bad = {}
    for name, code in exits.items():
        stdout = outputs.get(f"{name}.stdout", b"")
        line = PASS_LINES.get(name)
        if code != 0 or (line and line.encode() not in stdout):
            bad.setdefault(f"{name}.stdout", set()).add(0)
    for name, data in outputs.items():
        if isinstance(data, list):
            for i, rec in enumerate(data):
                try:
                    ok = json.loads(rec).get("ok") is True
                except ValueError:
                    ok = False
                if not ok:
                    bad.setdefault(name, set()).add(i)
    return bad


def count_failures(actual, reference, self_bad):
    """(attempted, failed) records: a record fails when it differs from the
    reference (or has no counterpart there) or fails a self-check."""
    attempted = failed = 0
    names = set(actual) | set(reference or {})
    for name in sorted(names):
        got = actual.get(name, [])
        want = (reference or {}).get(name)
        n = max(len(got), len(want)) if want is not None else len(got)
        for i in range(n):
            attempted += 1
            differs = want is not None and (
                i >= len(got) or i >= len(want) or got[i] != want[i])
            if differs or i in self_bad.get(name, ()):
                failed += 1
    return attempted, failed


def check(rep, reference):
    """(attempted, failed) for one artefact regeneration."""
    actual = manifest(rep["outputs"])
    return count_failures(actual, reference, self_check_failures(rep["outputs"], rep["exit"]))


# --------------------------------------------------------------------------
# Metrics


def percentile(values, p):
    """Nearest-rank percentile, or None unless at least ten samples lie
    beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def campaign_metrics(cell_ms, wall_s):
    p50, p95 = percentile(cell_ms, 50), percentile(cell_ms, 95)
    if p50 is None or p95 is None:
        raise BenchError(f"{len(cell_ms)} cell timings are too few for a p95")
    return {
        "campaign.cells": float(len(cell_ms)),
        "campaign.cell_p50_ms": p50,
        "campaign.cell_p95_ms": p95,
        "campaign.idle_share": 1.0 - sum(cell_ms) / 1e3 / (JOBS * wall_s),
    }


def event_cell_ms(rep):
    cells = []
    for name, data in rep["outputs"].items():
        if isinstance(data, list):
            cells += [json.loads(line)["wall_us"] / 1e3 for line in data]
    return cells


def harness(*args):
    proc = subprocess.run([binary("perfbench"), *args], cwd=ROOT, stdout=subprocess.PIPE)
    if proc.returncode != 0:
        raise BenchError(f"perfbench {' '.join(args)} failed")
    return json.loads(proc.stdout)


def setup_samples(workload, seed):
    return harness("setup", workload, "--seed", str(seed))["setup_s"]


def end_to_end(workload, seed, seconds, reference):
    # Set-up takes well under a second, while the host's speed drifts over
    # tens of seconds; timing it before and after the regenerations samples
    # two moments of the run instead of one.
    setup = setup_samples(workload, seed)
    reps, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        rep = run_artefacts(workload, seed)
        a, f = check(rep, reference)
        attempted, failed = attempted + a, failed + f
        reps.append(rep)
        # Start another regeneration only if it fits in the window.
        if time.perf_counter() - start + rep["wall_s"] > seconds:
            break
    metrics = {m: statistics.median(r[m] for r in reps) for m in ("wall_s", "cpu_s")}
    metrics["setup_s"] = statistics.median(setup + setup_samples(workload, seed))
    log(f"{workload}: {len(reps)} regeneration(s), walls "
        + ", ".join(f"{r['wall_s']:.3f}" for r in reps))
    return metrics, attempted, failed


def traced(workload, seed, reference):
    untraced = run_artefacts(workload, seed)
    attempted, failed = check(untraced, reference)
    spans = os.path.join(OUT, f"spans-{workload}.jsonl")
    layers = harness("layers", workload, "--seed", str(seed), "--spans", spans)
    log(f"{workload}: layer split sampled " + ", ".join(
        f"{n} x {s}" for s, n in layers["sampled_setups"].items()))
    metrics = {m: layers["metrics"][m] for m in HARNESS_METRICS}
    metrics["peak_rss_mb"] = untraced["peak_rss_mb"]
    if workload == "ccf":
        # The ccf binary folds its trials inside the faults crate, so its
        # traced form is the harness's campaign with one span per trial,
        # compared with the same campaign run without spans. Its per-kernel
        # results must match the artefact's.
        events = [json.loads(line) for line in untraced["outputs"]["ccf_campaign.events"]]
        for row in layers["ccf_rows"]:
            attempted += 1
            match = [e for e in events if e["kernel"] == row["kernel"]]
            if not match or (match[0]["violations"], match[0]["no_div"]) != (
                    row["violations"], row["no_div"]):
                failed += 1
        cell_ms, traced_wall = layers["cell_ms"], layers["campaign_wall_s"]
        untraced_wall = layers["untraced_campaign_wall_s"]
    else:
        rep = run_artefacts(workload, seed, timing=True)
        a, f = check(rep, reference)
        attempted, failed = attempted + a, failed + f
        cell_ms, traced_wall = event_cell_ms(rep), rep["wall_s"]
        untraced_wall = untraced["wall_s"]
    metrics.update(campaign_metrics(cell_ms, traced_wall))
    metrics["trace.overhead_share"] = traced_wall / untraced_wall - 1.0
    metrics["failed_share"] = failed / attempted
    log(f"{workload}: spans written to {os.path.relpath(spans, ROOT)}")
    return metrics, attempted, failed


def result(correct, attempted, failed, metrics, units):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def record(workload, seed):
    rep = run_artefacts(workload, seed)
    bad = self_check_failures(rep["outputs"], rep["exit"])
    if bad:
        raise BenchError(f"refusing to record a failing run: {sorted(bad)}")
    path = reference_path(workload, seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(manifest(rep["outputs"]), f, indent=0, sort_keys=True)
        f.write("\n")
    log(f"recorded {os.path.relpath(path, ROOT)}")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="record the reference outputs of this workload and seed")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be a 64-bit unsigned integer")
    seed = 0 if args.workload in PROTOCOL_ONLY else args.seed
    try:
        build()
        if args.record:
            record(args.workload, seed)
            return 0
        reference = load_reference(args.workload, seed)
        if reference is None:
            log(f"no reference recorded for seed {seed}: artefact self-checks only")
        if args.trace:
            metrics, attempted, failed = traced(args.workload, seed, reference)
            units = PER_LAYER
        else:
            metrics, attempted, failed = end_to_end(args.workload, seed, args.seconds, reference)
            units = END_TO_END
    except BenchError as e:
        log(str(e))
        return 2
    correct = failed == 0
    if not correct:
        log(f"{failed} of {attempted} records failed their checks; outputs kept in "
            f"{os.path.relpath(OUT, ROOT)}")
    print(json.dumps(result(correct, attempted, failed, metrics, units)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

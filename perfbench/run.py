#!/usr/bin/env python3
"""Wall-clock benchmark of the SwitchML simulator.

    python3 perfbench/run.py --workload rack-timing-100g --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1
    python3 perfbench/run.py --self-test

Run from the repository root or anywhere else: paths are taken from this
file's location. The first run builds perfbench/ (the simulator's libraries
from src/, unmodified, at RelWithDebInfo, plus the workload program in
perfbench/workload.cpp) into .bench_build/. Each run then starts the workload
program in a process of its own, pinned to one CPU, and prints every metric
by name and unit. Time metrics are reported at the host's nominal speed: the
program times a fixed calibration before every reduction, and its time over
its nominal time divides the host's slowdowns out. The wall-clock figures are
printed beside them. The last line of standard output is one JSON object:

    {"correct": true, "attempted": 20, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload once
untraced and once traced, prints every metric and reports the per-layer ones:
counts from the untraced process, engine maxima, spans and probes from the
traced one. --workload all runs every workload in turn, each ending with its
own JSON line. Raw results and spans are written to .bench_out/. The exit
status is 0 when every output check passed, 1 when one failed and 2 when the
benchmark could not run (for example, no simulator sources next to
perfbench/).

perfbench/README.md explains the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "perfbench_workload"

# Wall seconds per reduction, with the calibration before it, on the host the
# benchmark was tuned on (a 4-vCPU KVM guest on a Xeon, RelWithDebInfo). A run
# does round(--seconds / nominal) reductions, and at least MIN_REDUCTIONS, so
# its work is fixed by --seconds and is the same on every commit: a faster
# program finishes sooner. A traced run splits them between its untraced and
# its traced process.
WORKLOADS = {
    "rack-timing-100g": {"nominal_s": 0.7, "seeded": False, "builds": "core"},
    "ring-timing-100g": {"nominal_s": 0.13, "seeded": False, "builds": "collectives"},
    "rack-data-lossy-10g": {"nominal_s": 0.45, "seeded": True, "builds": "core"},
}
MIN_REDUCTIONS = 3
CHILD_TIMEOUT_S = 170

# Wall nanoseconds of one calibration unit on that host. Only the ratio of a
# run's measured calibration time to this matters, and it is the same
# constant on every commit.
CALIBRATION_NOMINAL_NS = 4.3e6

END_TO_END = [
    ("setup_s", "s"),
    ("elems_per_s", "elements/s"),
    ("peak_rss_mb", "MiB"),
]
# Printed with the end-to-end metrics but not reported to the JSON line: it
# is 0 on a healthy run. Failures reach the JSON line as "failed".
FAIL_RATIO = ("fail_ratio", "ratio")

PER_LAYER = [
    ("core.build_s", "s"),
    ("collectives.build_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.peak_queue", "count"),
    ("sim.peak_cancelled", "count"),
    ("net.link.packets", "count"),
    ("net.link.drops", "count"),
    ("net.link.send_ns", "ns"),
    ("net.packet.checksum_ns", "ns"),
    ("net.reliable.segments", "count"),
    ("net.reliable.retransmissions", "count"),
    ("net.reliable.timeouts", "count"),
    ("worker.updates_sent", "count"),
    ("worker.retransmissions", "count"),
    ("worker.timeouts", "count"),
    ("worker.duplicate_results", "count"),
    ("worker.useful_ratio", "ratio"),
    ("worker.rtt_samples_held", "count"),
    ("switchml_switch.updates", "count"),
    ("switchml_switch.duplicates", "count"),
    ("switchml_switch.completions", "count"),
    ("switchml_switch.unicast_replies", "count"),
    ("switchml_switch.useful_ratio", "ratio"),
    ("dataplane.register_accesses", "count"),
    ("dataplane.accesses_per_packet", "1/packet"),
    ("dataplane.rmw_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
]
# The per-layer metrics the workload program counts; they repeat exactly
# across untraced runs with one seed. The engine maxima are sampled instead.
COUNTS = [name for name, unit in PER_LAYER
          if unit == "count" and name not in ("sim.peak_queue", "sim.peak_cancelled")]


class BenchError(Exception):
    """The benchmark could not run; exit status 2, no result line."""


# --- build ----------------------------------------------------------------


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no simulator sources: {ROOT / 'src'} is missing")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake is not installed")
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in cache.read_text():
        shutil.rmtree(BUILD_DIR)  # configured from another checkout
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR.parent / "build.log"
    steps = []
    if not cache.is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append([cmake, "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append([cmake, "--build", str(BUILD_DIR), "--target", "perfbench_workload", "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))


# --- one workload process -------------------------------------------------


def pinned_cpu():
    """The CPU every workload process runs on: the last one this process may use."""
    return max(os.sched_getaffinity(0))


def run_workload(workload, seed, reductions, spans=None, corrupt=False):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--reductions", str(reductions)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    if corrupt:
        cmd.append("--corrupt")
    cpu = pinned_cpu()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode not in (0, 1):
        raise BenchError(f"{workload} exited with {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} printed no result: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    result["cpu"] = cpu
    return result


def fingerprint(result):
    """Digest of everything an untraced run must repeat exactly for one seed."""
    blob = json.dumps({"tat_ns": result["tat_ns"], "counts": result["counts"]}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# How much slower than nominal the host ran during the run: the calibration's
# summed wall time over its nominal time. Other guests on the host slow every
# piece of work by up to 1.7x in streaks of seconds to minutes; the
# calibration runs on the same CPU just before every reduction, so it meets
# the same streaks. It uses nothing from src/, so a change to the program
# leaves it alone.
def host_slowness(result):
    cal = result["calibration"]
    nominal = len(cal["ns"]) * cal["units_per_reduction"] * CALIBRATION_NOMINAL_NS
    return sum(cal["ns"]) / nominal


# Elements over the summed wall time of all the run's reductions: the
# throughput the closed loop's caller waits for. The first reduction, which
# pays for slab and heap growth, counts like every other.
def wall_elems_per_s(result):
    walls = result["wall_ns"]
    return result["elems_per_reduction"] * len(walls) / (sum(walls) * 1e-9)


# The same at the host's nominal speed.
def elems_per_s(result):
    return wall_elems_per_s(result) * host_slowness(result)


# Set-up seconds of every build of the workload's own layer, spread over the
# whole run. Only the first is cold, so their median measures warm
# construction.
def setup_samples(result, workload):
    return result["builds"][WORKLOADS[workload]["builds"]]["setup_s"]


# The process's peak resident set without the calibration's arrays, which
# stay resident from before the first build to the end.
def peak_rss_mb(result):
    return (result["peak_rss_kib"] - result["calibration"]["rss_kib"]) / 1024


def ratio(num, den):
    return num / den if den else 0.0


# --- metrics --------------------------------------------------------------


def end_to_end(result, workload):
    return {
        "setup_s": statistics.median(setup_samples(result, workload)) / host_slowness(result),
        "elems_per_s": elems_per_s(result),
        "peak_rss_mb": peak_rss_mb(result),
    }


def per_layer(untraced, traced):
    counts = untraced["counts"]
    probes = traced["probes"]
    values = {name: counts[name] for name in COUNTS}
    values.update({name: probes[name] for name, _ in PER_LAYER if name in probes})
    build_s = {layer: statistics.median(traced["builds"][layer]["build_s"]) / host_slowness(traced)
               for layer in ("core", "collectives")}
    values.update({
        "core.build_s": build_s["core"],
        "collectives.build_s": build_s["collectives"],
        "sim.events_per_s": counts["sim.events"] / (sum(untraced["wall_ns"]) * 1e-9)
        * host_slowness(untraced),
        "worker.useful_ratio": ratio(counts["worker.results_received"], counts["worker.updates_sent"]),
        "switchml_switch.useful_ratio": ratio(
            counts["switchml_switch.updates"] - counts["switchml_switch.duplicates"],
            counts["switchml_switch.updates"]),
        "dataplane.accesses_per_packet": ratio(counts["dataplane.register_accesses"],
                                               counts["dataplane.packets"]),
        "trace.overhead_ratio": elems_per_s(traced) / elems_per_s(untraced),
    })
    return values


def span_summary(path):
    """Count, total and self seconds per span name; self time is a span's
    duration minus the time its children cover."""
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    child_ns = {}
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    summary = {}
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        row = summary.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += dur * 1e-9
        row["self_s"] += (dur - child_ns.get(s["id"], 0)) * 1e-9
    return summary


# --- provenance -----------------------------------------------------------


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(result, seed):
    built = result["provenance"]
    return {
        **built,
        "commit": commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": [result["cpu"]],
        "cpus_allowed": sorted(os.sched_getaffinity(0)),
    }


# --- report ---------------------------------------------------------------


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, reductions, untraced, traced):
    results = [untraced] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    prov = provenance(untraced, args.seed)
    seeded = WORKLOADS[args.workload]["seeded"]
    e2e = end_to_end(untraced, args.workload)

    print(f"perfbench {args.workload}  seed {args.seed}"
          + ("" if seeded else " (not used: this workload has no loss and no random inputs)")
          + f"  trace {args.trace}")
    gates = " ".join(f"{k}={v}" for k, v in prov["gates"].items())
    print(f"build: {prov['build_type']} [{prov['cxx_flags'].strip()}] {prov['compiler']}; {gates}")
    print(f"source: commit {prov['commit']}, src sha256 {prov['src_sha256']}; "
          f"nproc {prov['nproc']}, pinned to cpu {prov['cpu_affinity']} of {prov['cpus_allowed']}")
    print(f"closed loop, one caller: {reductions} reductions of "
          f"{untraced['elems_per_reduction']} elements; {untraced['setups']} set-ups")
    setups = setup_samples(untraced, args.workload)
    print(f"setup_s: first (cold) build {setups[0]:.6f}, median of {len(setups)} "
          f"{statistics.median(setups):.6f}")
    walls = untraced["wall_ns"]
    print("wall_s per reduction: " + " ".join(f"{w * 1e-9:.4f}" for w in walls))
    summary = (f"mean {statistics.mean(walls) * 1e-9:.4f}, min {min(walls) * 1e-9:.4f}, "
               f"median {statistics.median(walls) * 1e-9:.4f}")
    tail = int(100 * (1 - 10 / len(walls)))  # the highest percentile with 10 samples above it
    if tail > 50:
        summary += f", p{tail} {statistics.quantiles(walls, n=100)[tail - 1] * 1e-9:.4f}"
    print(f"wall_s per reduction: {summary} (n={len(walls)})")
    cal = untraced["calibration"]
    print(f"host slowness {host_slowness(untraced):.4f} (calibration: "
          f"{cal['units_per_reduction']} units before each reduction, nominal "
          f"{CALIBRATION_NOMINAL_NS * 1e-6:g} ms each; ms per reduction: "
          + " ".join(f"{c * 1e-6:.1f}" for c in cal["ns"]) + ")")
    print(f"at wall speed: elems_per_s {wall_elems_per_s(untraced):.6g}, "
          f"setup_s {statistics.median(setups):.6g}; peak RSS with the calibration "
          f"{untraced['peak_rss_kib'] / 1024:.6g} MiB")
    print("modeled TAT per reduction, worker 0 (ms): "
          + " ".join(f"{t[0] * 1e-6:.4f}" if t else "-" for t in untraced["tat_ns"]))
    print(f"fingerprint {fingerprint(untraced)} (modeled TATs and counts of the untraced run;"
          " equal across runs with one seed)")
    for r in results:
        for f in r["failures"]:
            kind = "traced" if r["traced"] else "untraced"
            print(f"FAILED {kind} reduction {f['reduction']}: {f['reason']}")
    # The sampler adds only daemon events, so the traced run must count what
    # the untraced one did: a second same-seed run checked for free.
    repeated = traced is None or traced["counts"] == untraced["counts"]
    if not repeated:
        print("FAILED the traced run's counts differ from the untraced run's")

    print("end-to-end (times at the host's nominal speed):")
    for name, unit in END_TO_END:
        print(f"  {name:34} {fmt(e2e[name]):>14} {unit}")
    print(f"  {FAIL_RATIO[0]:34} {fmt(ratio(failed, attempted)):>14} {FAIL_RATIO[1]}"
          f"  ({failed} of {attempted} reductions)")

    layer = None
    spans = None
    if traced:
        layer = per_layer(untraced, traced)
        print("per-layer (counts from the untraced run, the rest from the traced run):")
        for name, unit in PER_LAYER:
            print(f"  {name:34} {fmt(layer[name]):>14} {unit}")
        spans = span_summary(Path(traced["spans_path"]))
        print("spans of the traced run (count, total s, self s):")
        for name, row in spans.items():
            print(f"  {name:34} {row['count']:>6} {row['total_s']:>12.6f} {row['self_s']:>12.6f}")
        print(f"  spans written to {traced['spans_path']}")
    else:
        print("per-layer counts (untraced run):")
        for name in COUNTS:
            print(f"  {name:34} {untraced['counts'][name]:>14} count")

    correct = failed == 0 and repeated
    metrics = ({n: {"value": layer[n], "unit": u} for n, u in PER_LAYER} if traced
               else {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END})
    artifact = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    artifact.write_text(json.dumps({
        "provenance": prov, "reductions": reductions, "untraced": untraced, "traced": traced,
        "end_to_end": e2e, "per_layer": layer, "spans": spans, "fail_ratio": ratio(failed, attempted),
    }, indent=1))
    print(f"raw results written to {artifact}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def bench(args):
    build()
    nominal = WORKLOADS[args.workload]["nominal_s"] * (2 if args.trace else 1)
    reductions = max(MIN_REDUCTIONS, round(args.seconds / nominal))
    OUT_DIR.mkdir(exist_ok=True)
    untraced = run_workload(args.workload, args.seed, reductions, corrupt=args.corrupt)
    traced = None
    if args.trace:
        spans = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
        traced = run_workload(args.workload, args.seed, reductions, spans=spans,
                              corrupt=args.corrupt)
        traced["spans_path"] = str(spans)
    return report(args, reductions, untraced, traced)


# --- self-test ------------------------------------------------------------


def self_test():
    """Tiny runs of every workload through the command line: every metric is
    printed with its unit, two untraced runs repeat their counts and TATs
    exactly, and a corrupted data-mode output is reported as a failure."""
    build()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [(m["name"], m["unit"]) for m in declared["end_to_end"]] != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if [(m["name"], m["unit"]) for m in declared["per_layer"]] != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.py")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")

    def cli(workload, trace, *extra):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", "7", "--trace", str(trace), "--seconds", "0.01", *extra]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S * 2)
        lines = proc.stdout.strip().splitlines()
        return proc.returncode, lines, json.loads(lines[-1]) if lines else None

    for workload in WORKLOADS:
        prints = {}
        for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
            code, lines, result = cli(workload, trace)
            if code != 0 or not result or not result["correct"]:
                problems.append(f"{workload} --trace {trace}: exit {code}")
                continue
            if {n: m["unit"] for n, m in result["metrics"].items()} != dict(expected):
                problems.append(f"{workload} --trace {trace}: wrong metric set in the JSON line")
            for name, unit in expected + ([FAIL_RATIO] if trace == 0 else []):
                if not any(line.split()[:1] == [name] and line.split()[2:3] == [unit]
                           for line in lines):
                    problems.append(f"{workload} --trace {trace}: {name} not printed with {unit}")
            prints[trace] = [line for line in lines if line.startswith("fingerprint")]
        if len(prints) == 2 and prints[0] != prints[1]:
            problems.append(f"{workload}: two untraced runs differ: {prints[0]} vs {prints[1]}")
        print(f"self-test: {workload} checked", flush=True)

    code, _, result = cli("rack-data-lossy-10g", 0, "--corrupt")
    if code != 1 or not result or result["correct"] or result["failed"] != 1:
        problems.append(f"a corrupted output was not reported as one failure (exit {code})")

    for p in problems:
        print(f"self-test: FAILED: {p}")
    print("self-test: ok" if not problems else f"self-test: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one data-mode output element, to check the output check")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return max(bench(argparse.Namespace(**{**vars(args), "workload": w}))
                       for w in WORKLOADS)
        return bench(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

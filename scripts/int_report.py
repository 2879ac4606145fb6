#!/usr/bin/env python3
"""Per-hop telemetry tables and verdict summary from an INT sweep JSONL sidecar.

Usage:
  int_report.py HOPS_JSONL [--scenario NAME] [--json]
  int_report.py --selftest

The input is what bench/int_sweep writes to int_sweep_hops.jsonl: one JSON
object per line, either a per-(worker, hop) stats row,

  {"scenario": "flap", "record": "hop", "worker": "worker-0", "hop": "up",
   "kind": "link", "hop_id": 0, "next_hop": 10000, "samples": 123,
   "latency_p50_ns": 679, "latency_p99_ns": 1200, "queue_bytes": 0,
   "queue_pkts": 0, "drops": 7}

or a localization verdict (FaultLocalizer::to_json plus the sweep's fields;
"a" and "b" are the node ids the subject names),

  {"kind": "slow_link", "subject": "worker-0<->switch", "a": 0, "b": 10000,
   "detail": 7, "at_ns": 985000, "scenario": "flap", "record": "verdict",
   "matched": true}

The report renders, per scenario: the verdicts (with time and whether the
sweep scored them against ground truth), and a hop table aggregated across
the workers that observed each hop (worst p50/p99, max queue depth, max
cumulative drops) — the view an operator would use to answer "which hop is
sick". --scenario filters to one scenario; --json emits the structured
report instead of tables.

Exit codes: 0 = report printed, 1 = input had no records (or a verdict line
the sweep marked unmatched — the localizer named a healthy component),
2 = usage / unreadable input.
"""

import json
import sys

HOP_FIELDS = ("scenario", "worker", "hop", "kind", "hop_id", "next_hop",
              "samples", "latency_p50_ns", "latency_p99_ns", "queue_bytes",
              "queue_pkts", "drops")
VERDICT_FIELDS = ("scenario", "kind", "subject", "detail", "at_ns", "matched")


def load(path):
    """Returns (hops, verdicts): parsed rows split by record type."""
    hops, verdicts = [], []
    try:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    raise SystemExit(f"int_report: {path}:{lineno}: bad JSON: {e}")
                kind = obj.get("record")
                if kind == "hop":
                    missing = [k for k in HOP_FIELDS if k not in obj]
                elif kind == "verdict":
                    missing = [k for k in VERDICT_FIELDS if k not in obj]
                else:
                    raise SystemExit(
                        f"int_report: {path}:{lineno}: unknown record {kind!r}")
                if missing:
                    raise SystemExit(
                        f"int_report: {path}:{lineno}: record missing {missing[0]!r}")
                (hops if kind == "hop" else verdicts).append(obj)
    except OSError as e:
        raise SystemExit(f"int_report: cannot read {path}: {e}")
    return hops, verdicts


def aggregate_hops(hops):
    """Collapses per-worker rows into one row per (scenario, hop identity).

    Latencies take the worst observer (each worker's view of a shared hop is
    its own distribution); queue depths and the cumulative drop counter take
    the max — gauges and monotone counters, not summable across observers.
    Samples sum: each worker's packets through the hop are distinct.
    """
    agg = {}
    for h in hops:
        key = (h["scenario"], h["kind"], h["hop_id"], h["next_hop"])
        a = agg.setdefault(key, {
            "scenario": h["scenario"], "kind": h["kind"],
            "hop_id": h["hop_id"], "next_hop": h["next_hop"],
            "name": h["hop"], "observers": 0, "samples": 0,
            "latency_p50_ns": 0, "latency_p99_ns": 0,
            "queue_bytes": 0, "queue_pkts": 0, "drops": 0,
        })
        a["observers"] += 1
        a["samples"] += h["samples"]
        a["latency_p50_ns"] = max(a["latency_p50_ns"], h["latency_p50_ns"])
        a["latency_p99_ns"] = max(a["latency_p99_ns"], h["latency_p99_ns"])
        a["queue_bytes"] = max(a["queue_bytes"], h["queue_bytes"])
        a["queue_pkts"] = max(a["queue_pkts"], h["queue_pkts"])
        a["drops"] = max(a["drops"], h["drops"])
    return sorted(agg.values(),
                  key=lambda a: (a["scenario"], a["kind"], a["hop_id"], a["next_hop"]))


def analyze(hops, verdicts, scenario=None):
    """Returns the report dict; filters to one scenario when asked."""
    if scenario is not None:
        hops = [h for h in hops if h["scenario"] == scenario]
        verdicts = [v for v in verdicts if v["scenario"] == scenario]
    scenarios = sorted({r["scenario"] for r in hops}
                       | {r["scenario"] for r in verdicts})
    return {
        "scenarios": scenarios,
        "hop_rows": len(hops),
        "verdicts": verdicts,
        "unmatched_verdicts": sum(1 for v in verdicts if not v["matched"]),
        "hops": aggregate_hops(hops),
    }


def print_report(report):
    for sc in report["scenarios"]:
        print(f"=== scenario: {sc} ===")
        sc_verdicts = [v for v in report["verdicts"] if v["scenario"] == sc]
        if sc_verdicts:
            for v in sc_verdicts:
                score = "matched" if v["matched"] else "UNMATCHED (false positive)"
                print(f"  verdict: {v['kind']}({v['subject']}) "
                      f"detail={v['detail']} at {v['at_ns']} ns [{score}]")
        else:
            print("  verdicts: none")
        rows = [a for a in report["hops"] if a["scenario"] == sc]
        if rows:
            header = (f"  {'hop':<12} {'kind':<7} {'obs':>3} {'samples':>9} "
                      f"{'p50 ns':>9} {'p99 ns':>9} {'q bytes':>9} {'drops':>7}")
            print(header)
            for a in rows:
                print(f"  {a['name']:<12} {a['kind']:<7} {a['observers']:>3} "
                      f"{a['samples']:>9} {a['latency_p50_ns']:>9} "
                      f"{a['latency_p99_ns']:>9} {a['queue_bytes']:>9} "
                      f"{a['drops']:>7}")
        print()
    if report["unmatched_verdicts"]:
        print(f"{report['unmatched_verdicts']} verdict(s) named a healthy "
              "component — the localizer false-positived")


def selftest():
    def hop(scenario, worker, name, kind, hop_id, next_hop, samples, p50,
            p99=0, qb=0, qp=0, drops=0):
        return {"scenario": scenario, "record": "hop", "worker": worker,
                "hop": name, "kind": kind, "hop_id": hop_id,
                "next_hop": next_hop, "samples": samples,
                "latency_p50_ns": p50, "latency_p99_ns": p99,
                "queue_bytes": qb, "queue_pkts": qp, "drops": drops}

    # Two workers observing the same switch hop plus their own uplinks.
    hops = [
        hop("flap", "worker-0", "up", "link", 0, 100, 50, 679, 900, drops=7),
        hop("flap", "worker-0", "switch", "switch", 100, 0, 50, 1000, 2000),
        hop("flap", "worker-1", "switch", "switch", 100, 1, 60, 27000, 41000),
        hop("flap", "worker-1", "up", "link", 1, 100, 60, 700, 950),
    ]
    verdicts = [
        {"scenario": "flap", "record": "verdict", "kind": "slow_link",
         "subject": "worker-0<->switch", "detail": 7, "at_ns": 985000,
         "matched": True},
    ]

    agg = aggregate_hops(hops)
    assert len(agg) == 4, f"4 rows, all distinct hop identities, got {len(agg)}"
    # Distinct (hop_id, next_hop) under kind "switch": per-destination copies
    # of the switch record stay separate rows (each worker sees its own).
    switch_rows = [a for a in agg if a["kind"] == "switch"]
    assert len(switch_rows) == 2
    up0 = next(a for a in agg if a["kind"] == "link" and a["hop_id"] == 0)
    assert up0["samples"] == 50 and up0["drops"] == 7 and up0["observers"] == 1

    # Same hop seen by two observers: samples sum, worst latency wins.
    shared = aggregate_hops([
        hop("s", "worker-0", "down", "link", 100, 0, 10, 500, 800, qb=1000),
        hop("s", "worker-1", "down", "link", 100, 0, 15, 700, 600, qb=900),
    ])
    assert len(shared) == 1
    assert shared[0]["samples"] == 25 and shared[0]["observers"] == 2
    assert shared[0]["latency_p50_ns"] == 700          # worst observer
    assert shared[0]["latency_p99_ns"] == 800          # independently worst
    assert shared[0]["queue_bytes"] == 1000            # max, not sum

    report = analyze(hops, verdicts)
    assert report["scenarios"] == ["flap"]
    assert report["hop_rows"] == 4
    assert report["unmatched_verdicts"] == 0

    # A false positive is surfaced in the count (drives exit code 1).
    fp = analyze(hops, verdicts + [
        {"scenario": "flap", "record": "verdict", "kind": "straggler",
         "subject": "worker-1", "detail": 1, "at_ns": 1, "matched": False}])
    assert fp["unmatched_verdicts"] == 1

    # --scenario filters both record kinds.
    other = analyze(hops + [hop("other", "worker-0", "up", "link", 0, 100, 1, 1)],
                    verdicts, scenario="other")
    assert other["scenarios"] == ["other"] and other["hop_rows"] == 1
    assert not other["verdicts"]

    # Empty input stays well-formed.
    empty = analyze([], [])
    assert empty["scenarios"] == [] and empty["hops"] == []

    print("int_report selftest: OK")


def main(argv):
    if "--selftest" in argv:
        selftest()
        return 0
    as_json = "--json" in argv
    scenario = None
    paths = []
    skip = False
    for i, a in enumerate(argv):
        if skip:
            skip = False
            continue
        if a == "--json":
            continue
        if a == "--scenario":
            if i + 1 >= len(argv):
                print("int_report: --scenario needs a name", file=sys.stderr)
                return 2
            scenario = argv[i + 1]
            skip = True
        elif a.startswith("--scenario="):
            scenario = a.split("=", 1)[1]
        elif a.startswith("--"):
            print(f"int_report: unknown flag {a}", file=sys.stderr)
            return 2
        else:
            paths.append(a)
    if len(paths) != 1:
        print(__doc__, file=sys.stderr)
        return 2

    hops, verdicts = load(paths[0])
    report = analyze(hops, verdicts, scenario)
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        print_report(report)
    if not hops and not verdicts:
        print("int_report: no records in input", file=sys.stderr)
        return 1
    return 1 if report["unmatched_verdicts"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

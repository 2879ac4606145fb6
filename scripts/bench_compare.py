#!/usr/bin/env python3
"""Compare a fresh BenchReport JSON against a committed baseline.

Usage:
  bench_compare.py BASELINE CURRENT [--tolerance-scale S]
  bench_compare.py --selftest

Exit codes: 0 = within tolerance, 1 = regression or shape mismatch,
2 = usage / unreadable / unsupported schema.

Comparison rules:
  * schema_version and bench name must match exactly;
  * every metric present in the baseline must exist in the current report
    (a vanished metric is a failure — the bench silently stopped measuring
    something); metrics only present in the current report are listed but do
    not fail, since the baseline must be re-recorded to start guarding them;
  * scalars compare relatively: |cur - base| <= tol * max(|base|, |cur|),
    where tol = max(baseline rel_tol, current rel_tol) * tolerance_scale.
    Values that are both ~0 (< 1e-12 in magnitude) compare equal, so
    honestly-zero series (e.g. loss-free retransmit counts) never flap.

The per-metric tolerances live in the reports themselves (BenchReport::add's
rel_tol argument): sim-deterministic values carry ~1e-9, host-measured
calibrations ~0.25. This keeps policy next to the measurement instead of in
a side table here.

Reports are read as JSON, so the layout does not matter: the committed
baselines put each metric on one line with 17-digit values, while reports
written now put each key on its own line with the shortest exact digits.
"""

import json
import sys

SUPPORTED_SCHEMA = 1
ZERO_EPS = 1e-12


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"bench_compare: cannot read {path}: {e}")
    if report.get("schema_version") != SUPPORTED_SCHEMA:
        raise SystemExit(
            f"bench_compare: {path}: unsupported schema_version "
            f"{report.get('schema_version')!r} (supported: {SUPPORTED_SCHEMA})"
        )
    for key in ("bench", "metrics"):
        if key not in report:
            raise SystemExit(f"bench_compare: {path}: missing {key!r}")
    return report


def compare(baseline, current, tolerance_scale=1.0):
    """Returns (ok, lines): pass/fail plus human-readable findings."""
    lines = []
    ok = True
    if baseline["bench"] != current["bench"]:
        return False, [
            f"bench name mismatch: baseline {baseline['bench']!r} vs "
            f"current {current['bench']!r}"
        ]
    if baseline.get("mode") != current.get("mode"):
        lines.append(
            f"note: mode differs (baseline {baseline.get('mode')!r}, "
            f"current {current.get('mode')!r}) — values may not be comparable"
        )

    base_metrics = baseline["metrics"]
    cur_metrics = current["metrics"]
    for name in sorted(base_metrics):
        base = base_metrics[name]
        cur = cur_metrics.get(name)
        if cur is None:
            ok = False
            lines.append(f"FAIL {name}: present in baseline, missing from current report")
            continue
        bval, cval = float(base["value"]), float(cur["value"])
        tol = max(float(base.get("rel_tol", 0.0)), float(cur.get("rel_tol", 0.0)))
        tol *= tolerance_scale
        if abs(bval) < ZERO_EPS and abs(cval) < ZERO_EPS:
            continue
        scale = max(abs(bval), abs(cval))
        rel = abs(cval - bval) / scale
        if rel > tol:
            ok = False
            lines.append(
                f"FAIL {name}: baseline {bval:.9g} vs current {cval:.9g} "
                f"(rel diff {rel:.3g} > tol {tol:.3g})"
            )
    for name in sorted(set(cur_metrics) - set(base_metrics)):
        lines.append(f"note: new metric {name} (not guarded; re-record the baseline)")
    return ok, lines


def selftest():
    def report(metrics, bench="b", mode="fast", schema=SUPPORTED_SCHEMA):
        return {
            "schema_version": schema,
            "bench": bench,
            "mode": mode,
            "metrics": {
                k: {"value": v, "rel_tol": t} for k, (v, t) in metrics.items()
            },
        }

    # Identical reports pass.
    a = report({"x.tat_ms": (1.25, 1e-9)})
    ok, _ = compare(a, a)
    assert ok, "identical reports must pass"

    # Within tolerance passes; outside fails.
    base = report({"x.tat_ms": (1.0, 0.01)})
    ok, _ = compare(base, report({"x.tat_ms": (1.005, 0.01)}))
    assert ok, "0.5% diff within 1% tol must pass"
    ok, lines = compare(base, report({"x.tat_ms": (1.05, 0.01)}))
    assert not ok and any("FAIL x.tat_ms" in l for l in lines), "5% diff must fail"

    # Tight tolerance catches a tiny injected slowdown.
    base = report({"x.tat_ms": (1.0, 1e-9)})
    ok, _ = compare(base, report({"x.tat_ms": (1.0 + 1e-6, 1e-9)}))
    assert not ok, "1e-6 drift must fail a 1e-9 tolerance"

    # Missing metric fails; new metric only notes.
    base = report({"x.tat_ms": (1.0, 0.01), "y.rtt_us": (2.0, 0.01)})
    ok, lines = compare(base, report({"x.tat_ms": (1.0, 0.01)}))
    assert not ok and any("missing" in l for l in lines), "vanished metric must fail"
    ok, lines = compare(
        report({"x.tat_ms": (1.0, 0.01)}),
        report({"x.tat_ms": (1.0, 0.01), "z.new": (3.0, 0.01)}),
    )
    assert ok and any("new metric z.new" in l for l in lines), "new metric must only note"

    # Both ~zero compares equal regardless of tolerance.
    ok, _ = compare(report({"n.resent": (0.0, 1e-9)}), report({"n.resent": (0.0, 1e-9)}))
    assert ok, "zero vs zero must pass"

    # Zero baseline, nonzero current fails (relative to the larger magnitude).
    ok, _ = compare(report({"n.resent": (0.0, 0.1)}), report({"n.resent": (5.0, 0.1)}))
    assert not ok, "0 -> 5 must fail"

    # tolerance_scale loosens the gate.
    base = report({"x.tat_ms": (1.0, 0.01)})
    ok, _ = compare(base, report({"x.tat_ms": (1.05, 0.01)}), tolerance_scale=10.0)
    assert ok, "10x scale must absorb a 5% diff at 1% tol"

    # Bench name mismatch fails.
    ok, _ = compare(report({}, bench="a"), report({}, bench="b"))
    assert not ok, "bench mismatch must fail"

    print("bench_compare selftest: OK")


def main(argv):
    if "--selftest" in argv:
        selftest()
        return 0
    args = [a for a in argv if not a.startswith("--")]
    tolerance_scale = 1.0
    for a in argv:
        if a.startswith("--tolerance-scale="):
            tolerance_scale = float(a.split("=", 1)[1])
        elif a.startswith("--") and a != "--selftest":
            print(f"bench_compare: unknown flag {a}", file=sys.stderr)
            return 2
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    baseline, current = load_report(args[0]), load_report(args[1])
    ok, lines = compare(baseline, current, tolerance_scale)
    for line in lines:
        print(line)
    n = len(baseline["metrics"])
    verdict = "OK" if ok else "REGRESSION"
    print(f"bench_compare: {baseline['bench']}: {verdict} ({n} guarded metrics)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

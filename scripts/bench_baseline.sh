#!/usr/bin/env bash
# Record or check the bench regression baselines.
#
# Every measured bench emits a schema-versioned BenchReport JSON
# ("<bench>_report.json") with a per-metric relative tolerance. This script
# runs the benches in --fast (smoke) mode inside a scratch directory, then:
#   --record        copies each report to results/baselines/BENCH_<bench>.json
#                   (commit these — they are the guarded reference);
#   --check         diffs each fresh report against the committed baseline via
#                   scripts/bench_compare.py and fails on any regression;
#   --run           runs the benches and keeps the reports (use with --out;
#                   CI's bench-smoke job uploads the directory as artifacts);
#   --compare-only  no bench runs: diffs reports already sitting in --out
#                   against the committed baselines (CI's baseline-compare
#                   job, fed by the bench-smoke artifact).
#
# --same-as DIR is the zero-drift check for changes that must not move any
# modelled number: after the runs (or with --compare-only) it byte-compares
# every artifact in the output directory (reports, metrics sidecars,
# timelines, traces, attribution and INT hop files) with the same file in
# DIR, typically the parent commit's `--run --timelines --out DIR` output for
# the same benches. The host-timed benches (micro_events, fig8_datatypes)
# are skipped. It prints the number of identical files and each differing or
# missing one, and fails on any difference. Baselines guard only report
# metrics, at their tolerances; this covers every byte of every artifact.
#
# The default bench set is the sim-deterministic smoke subset; pass bench
# names to override (e.g. fig8_datatypes, whose conversion calibration is
# host-measured and carries a loose tolerance).
#
# Each bench run also prints its wall seconds, and the script ends with the
# total for the set. These are information only (host speed is no gate).
#
# Usage:
#   scripts/bench_baseline.sh --record|--check [options] [bench...]
# Options:
#   --build-dir DIR        where the bench binaries live (default: ./build)
#   --out DIR              keep reports/sidecars there instead of a temp dir
#   --timelines            also write per-run timeline sidecars (JSONL)
#   --tolerance-scale S    loosen every tolerance by S (forwarded to compare)
#   --same-as DIR          byte-compare every artifact with DIR's (see above)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
baseline_dir="$repo_root/results/baselines"

mode=""
build_dir="$repo_root/build"
out_dir=""
timelines=0
tolerance_scale=""
same_as=""
benches=()

while [ $# -gt 0 ]; do
  case "$1" in
    --record|--check|--run|--compare-only) mode="${1#--}" ;;
    --build-dir) build_dir="$2"; shift ;;
    --out) out_dir="$2"; shift ;;
    --timelines) timelines=1 ;;
    --tolerance-scale) tolerance_scale="$2"; shift ;;
    --same-as) same_as="$2"; shift ;;
    --*) echo "bench_baseline: unknown option $1" >&2; exit 2 ;;
    *) benches+=("$1") ;;
  esac
  shift
done

if [ -z "$mode" ]; then
  echo "usage: scripts/bench_baseline.sh --record|--check|--run|--compare-only" \
       "[options] [bench...]" >&2
  exit 2
fi
if [ "$mode" = compare-only ] && [ -z "$out_dir" ]; then
  echo "bench_baseline: --compare-only needs --out DIR with the reports" >&2
  exit 2
fi
if [ -n "$same_as" ] && [ ! -d "$same_as" ]; then
  echo "bench_baseline: --same-as $same_as is not a directory" >&2
  exit 2
fi

if [ ${#benches[@]} -eq 0 ]; then
  # Sim-deterministic smoke subset (fig8's conversion cost is host-measured,
  # so it is opt-in).
  benches=(fig2_pool_size fig3_speedup fig4_ate_scaling fig5_loss_inflation
           fig6_loss_timeline fig7_mtu fig10_quantization
           table1_training_throughput fault_sweep int_sweep recovery_sweep
           micro_events transport_crossover)
fi

if [ -n "$out_dir" ]; then
  mkdir -p "$out_dir"
  workdir="$(cd "$out_dir" && pwd)"
else
  workdir="$(mktemp -d)"
  trap 'rm -rf "$workdir"' EXIT
fi

# Seconds since the epoch, to the millisecond.
wall_now() { python3 -c 'import time; print(f"{time.time():.3f}")'; }
seconds_between() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.1f", b - a }'; }

status=0
set_started="$(wall_now)"
for b in "${benches[@]}"; do
  report="$workdir/${b}_report.json"
  if [ "$mode" != compare-only ]; then
    bin="$build_dir/bench/$b"
    if [ ! -x "$bin" ]; then
      echo "bench_baseline: missing $bin — build first (cmake --build $build_dir)" >&2
      exit 2
    fi
    echo "== $b (--fast) =="
    args=(--fast)
    [ "$timelines" -eq 1 ] && args+=(--timeline-out "${b}_timeline")
    started="$(wall_now)"
    (cd "$workdir" && "$bin" "${args[@]}" > "${b}_stdout.txt")
    echo "   wall: $(seconds_between "$started" "$(wall_now)") s"
  fi
  if [ ! -f "$report" ]; then
    echo "bench_baseline: missing ${b}_report.json in $workdir" >&2
    exit 2
  fi
  case "$mode" in
    run) ;;
    record)
      mkdir -p "$baseline_dir"
      cp "$report" "$baseline_dir/BENCH_${b}.json"
      echo "recorded $baseline_dir/BENCH_${b}.json"
      ;;
    check|compare-only)
      baseline="$baseline_dir/BENCH_${b}.json"
      if [ ! -f "$baseline" ]; then
        echo "bench_baseline: no committed baseline $baseline (run --record first)" >&2
        exit 2
      fi
      compare_args=("$baseline" "$report")
      [ -n "$tolerance_scale" ] && compare_args+=("--tolerance-scale=$tolerance_scale")
      if ! python3 "$repo_root/scripts/bench_compare.py" "${compare_args[@]}"; then
        status=1
      fi
      ;;
  esac
done

if [ "$mode" != compare-only ]; then
  echo "bench_baseline: wall time $(seconds_between "$set_started" "$(wall_now)") s" \
       "for ${#benches[@]} benches (info only)"
fi
case "$mode" in
  check|compare-only)
    if [ "$status" -eq 0 ]; then echo "bench_baseline: all checks passed"; else
      echo "bench_baseline: REGRESSION detected" >&2
    fi
    ;;
esac

if [ -n "$same_as" ]; then
  identical=0
  differing=0
  declare -A compared=()
  for f in "$workdir"/* "$same_as"/*; do
    name="$(basename "$f")"
    case "$name" in
      *_report.json|*_metrics.json|*_timeline*|*_trace.json|*_attribution*|*_hops*) ;;
      *) continue ;;
    esac
    case "$name" in
      *_stdout.txt|micro_events_*|fig8_datatypes_*) continue ;; # output, or host-timed
    esac
    [ -n "${compared[$name]:-}" ] && continue
    compared[$name]=1
    if [ ! -f "$workdir/$name" ] || [ ! -f "$same_as/$name" ]; then
      echo "same-as: missing $name"
      differing=$((differing + 1))
    elif cmp -s "$workdir/$name" "$same_as/$name"; then
      identical=$((identical + 1))
    else
      echo "same-as: differs $name"
      differing=$((differing + 1))
    fi
  done
  echo "bench_baseline: $identical artifacts identical to $same_as," \
       "$differing differing or missing"
  [ "$differing" -eq 0 ] || status=1
fi
exit "$status"

#!/usr/bin/env bash
# Copyright 2026 the pdblb authors. MIT license.
#
# Writes the seed-deterministic outputs of every bench and example into one
# directory, so that two builds can be compared byte for byte:
#
#   bench/golden_outputs.sh BUILD_DIR OUT_DIR
#   diff -r OUT_A OUT_B
#
# A refactor that must not change any simulated number (the determinism
# contract) proves itself by an empty diff against its parent's directory;
# running the script at two JOBS values and diffing also checks that the
# worker count leaks into nothing.  JOBS (default 4) is every bench's
# --jobs.  About 30 s at JOBS=4 on a 4-vCPU machine.
#
# The set:
#  * the CSV of each of the 19 CSV-writing figure and ablation benches at
#    --fast (<bench>.csv);
#  * the seven fig5 --filter=/10 traces (fig5_trace.<i>.csv) and the
#    attribution table of that run's stdout (fig5_trace_attribution.txt) —
#    the rest of the stdout holds host time (the kern Mev/s column and the
#    points/min line);
#  * the stdout of fig4_parameters and of the six examples (<name>.out);
#  * fig9_heterogeneous and ablate_concurrency under a scripted crash,
#    partition and query timeout (<bench>_faults.csv): supervised OLTP,
#    updates and 2PL joins.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
build=$1
out=$2
jobs=${JOBS:-4}
mkdir -p "$out"

csv_benches=(
  ablate_concurrency ablate_control_interval ablate_eviction
  ablate_join_method ablate_lum_adaptive ablate_mpl ablate_pphj
  baseline_ratematch chaos elastic fault_recovery fig1_response_curves
  fig5_static_degree fig6_dynamic_degree fig7_memory_bound
  fig8_join_complexity fig9_heterogeneous shared_disk skew_handling
)
examples=(memory_pressure mixed_workload query_mix quickstart
          strategy_explorer trace_replay)
faults="crash@1500:pe3;recover@3000:pe3;partition@2000:pe1-pe4;"
faults+="heal@2600:pe1-pe4;timeout=3000"

run() {  # bench, then its arguments; stdout is discarded
  "$build/bench/$1" --fast --quiet --jobs="$jobs" "${@:2}" > /dev/null
}

for d in "${csv_benches[@]}"; do
  run "$d" --csv="$out/$d.csv"
done
for d in fig9_heterogeneous ablate_concurrency; do
  run "$d" --faults="$faults" --csv="$out/${d}_faults.csv"
done

"$build/bench/fig5_static_degree" --fast --quiet --jobs="$jobs" \
  --filter=/10 --trace="$out/fig5_trace" |
  sed -n '/=== trace attribution/,/^$/p' > "$out/fig5_trace_attribution.txt"
[[ -s "$out/fig5_trace_attribution.txt" ]] || {
  echo "fig5 --trace printed no attribution table" >&2
  exit 1
}

"$build/bench/fig4_parameters" > "$out/fig4_parameters.out"
for e in "${examples[@]}"; do
  "$build/examples/$e" > "$out/$e.out"
done

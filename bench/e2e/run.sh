#!/usr/bin/env bash
# Builds and runs the served-path end-to-end benchmark (bench/e2e/README.md).
# Run it from the repository root.
#
#   bench/e2e/run.sh [--workload W]... [--seed S] [--seconds T] [--repeat N]
#                    [--trace [0|1]] [--quick] [--self-check] [--out DIR]
#   bench/e2e/run.sh --compare A B
#
# Configures and builds build-e2e/ (Release), then runs each selected
# workload (default: all four) in its own process, reversing the workload
# order on every other repeat; repeat r uses seed S + r. Every run prints
# `workload metric value unit` lines and ends with one JSON result line; its
# record lands in build-e2e/records/ (or --out). Exits non-zero when any run
# fails verification. --quick is a 20k-row smoke run of every workload.
# --compare A B compares two record directories (or files) against the
# bounds in BENCHMARK.json.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${root}/build-e2e"

usage() {
  sed -n '4,8p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

all_workloads=(hot_point cold_scan republish_churn restart_recover)
workloads=()
seed=20150323
seconds=""
repeat=1
trace=0
quick=0
passthrough=()
compare=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) [[ $# -ge 2 ]] || usage; workloads+=("$2"); shift 2 ;;
    --seed) [[ $# -ge 2 ]] || usage; seed="$2"; shift 2 ;;
    --seconds) [[ $# -ge 2 ]] || usage; seconds="$2"; shift 2 ;;
    --repeat) [[ $# -ge 2 ]] || usage; repeat="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --quick) quick=1; shift ;;
    --self-check) passthrough+=(--self-check); shift ;;
    --out) [[ $# -ge 2 ]] || usage; passthrough+=(--out "$2"); shift 2 ;;
    --compare) [[ $# -ge 3 ]] || usage; compare=("$2" "$3"); shift 3 ;;
    *) usage ;;
  esac
done

jobs="$(nproc)"
if (( jobs > 4 )); then jobs=4; fi
cmake -S "${here}" -B "${build}" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "${build}" -j "${jobs}" >&2
bin="${build}/bench_e2e"

if [[ ${#compare[@]} -eq 2 ]]; then
  exec "${bin}" --compare "${compare[@]}" --benchmark "${root}/BENCHMARK.json"
fi

if [[ -z "${seconds}" ]]; then
  if (( quick )); then
    seconds=3
  else
    seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' \
                "${root}/BENCHMARK.json")"
  fi
fi
if (( quick )); then passthrough+=(--quick); fi
if [[ ${#workloads[@]} -eq 0 ]]; then workloads=("${all_workloads[@]}"); fi

status=0
for (( r = 0; r < repeat; r++ )); do
  order=("${workloads[@]}")
  if (( r % 2 == 1 )); then
    order=()
    for (( i = ${#workloads[@]} - 1; i >= 0; i-- )); do
      order+=("${workloads[i]}")
    done
  fi
  for w in "${order[@]}"; do
    "${bin}" --workload "${w}" --seed "$(( seed + r ))" --seconds "${seconds}" \
        --trace "${trace}" --benchmark "${root}/BENCHMARK.json" \
        ${passthrough[@]+"${passthrough[@]}"} || status=$?
  done
done
exit "${status}"

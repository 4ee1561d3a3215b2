#!/usr/bin/env bash
# Regenerates every artifact of the G-QED evaluation (DESIGN.md §3) into
# results/. Expect roughly an hour of wall-clock on a laptop-class CPU:
# the bug-detection sweep (table2) and the scaling figure (fig1) dominate.
# The campaign and the table2/table3 sweeps parallelize across all cores.
set -euo pipefail
cd "$(dirname "$0")/.."

out=results
mkdir -p "$out"
jobs=$(nproc 2>/dev/null || echo 2)

echo "== building (release) =="
cargo build --release --workspace

run() {
  local name="$1"
  shift
  echo "== $name =="
  cargo run --release -q -p gqed-bench --bin "$name" -- "$@" | tee "$out/$name.md"
}

echo "== campaign (full obligation sweep, $jobs workers) =="
cargo run --release -q --bin gqed -- campaign --all \
  --jobs "$jobs" --deadline-ms 600000 \
  --telemetry "$out/campaign.jsonl" | tee "$out/campaign.txt"

echo "== portfolio smoke (PDR win on the seeded non-inductive design) =="
# bitflip's clean-design proof is beyond bounded BMC; the bmc,pdr
# portfolio must settle it Proven via IC3/PDR.
cargo run --release -q --bin gqed -- campaign bitflip \
  --jobs "$jobs" --engines bmc,pdr \
  --telemetry "$out/portfolio-smoke.jsonl" | tee "$out/portfolio-smoke.txt"
grep -E 'engine wins: [0-9]+ bmc, [1-9][0-9]* pdr' \
  "$out/portfolio-smoke.txt" >/dev/null \
  || { echo "portfolio smoke: expected a PDR win on bitflip" >&2; exit 1; }

echo "== serve smoke (content-addressed verdict cache over TCP) =="
scripts/serve_smoke.sh target/release/gqed | tee "$out/serve-smoke.txt"

echo "== fleet chaos smoke (seeded worker kills, byte-identical summary) =="
scripts/fleet_chaos_smoke.sh target/release/gqed | tee "$out/fleet-chaos-smoke.txt"

echo "== mutation campaign (seeded detection-rate table, $jobs workers) =="
cargo run --release -q --bin gqed -- mutants \
  --seed 1 --per-design 10 --jobs "$jobs" \
  --out "$out/BENCH_mutants.json" | tee "$out/mutants.txt"

run table1
run table4
run table5
run obscan
run table2 --jobs "$jobs"
run table3 --jobs "$jobs"
run fig3
run fig1
run fig2
run ablation

echo "== pipeline bench (resume accounting, PDR and inprocessing probes) =="
cargo run --release -q --bin gqed -- bench \
  --out "$out/BENCH_pipeline.json" | tee "$out/bench.txt"

echo
echo "all artifacts written to $out/"

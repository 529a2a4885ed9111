#!/bin/bash
# Regenerates every table/figure reproduction into experiments/. Builds the
# bench binaries once, then keeps only each binary's standard output; build
# lines and the host-dependent worker count go to the terminal. Exits 1 if
# the build or any binary fails.
set -u
cd "$(dirname "$0")"
BINS="table1 fig1_scan_trace fig2_bitonic_layout fig_collectives fig_scan_vs_naive fig_bitonic_vs_mergesort fig_permutation_lb fig_allpairs fig_rank2 fig_merge2d fig_selection fig_pram fig_spmv fig_mesh fig_networks fig_selection_c fig_multiselect fig_spmm"
cargo build -p bench --release --bins || exit 1
bin_dir="${CARGO_TARGET_DIR:-target}/release"
status=0
for b in $BINS; do
  echo "=== running $b ==="
  "$bin_dir/$b" > "experiments/$b.txt" || { echo "FAILED: $b"; status=1; }
done
echo "all experiments done"
exit $status

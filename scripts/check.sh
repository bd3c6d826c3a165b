#!/usr/bin/env bash
# One-shot verify: configure + build + ctest (the tier-1 command).
#
#   scripts/check.sh [BUILD_TYPE] [OPENMP]
#
#   BUILD_TYPE  Release (default) | Debug | RelWithDebInfo | Asan
#               Asan = RelWithDebInfo with -fsanitize=address,undefined
#               (the CI sanitizer job; arena/index refactors are exactly
#               where ASan+UBSan pay off)
#   OPENMP      ON (default) | OFF
#
# Also greps for test sources that exist on disk but are not registered in
# any tests/**/CMakeLists.txt, so new files cannot be silently skipped.
set -euo pipefail

cd "$(dirname "$0")/.."

build_type="${1:-Release}"
openmp="${2:-ON}"
sanitize=""
case "$build_type" in
  Asan|asan|Sanitize|sanitize)
    build_type="RelWithDebInfo"
    sanitize="address,undefined"
    ;;
esac
build_dir="build-check-${build_type,,}-omp${openmp,,}${sanitize:+-asan}"

# Every tests/**/test_*.cpp must appear in its directory's CMakeLists.txt.
missing=0
while IFS= read -r src; do
  dir="$(dirname "$src")"
  base="$(basename "$src")"
  if ! grep -q "$base" "$dir/CMakeLists.txt" 2>/dev/null; then
    echo "UNREGISTERED TEST SOURCE: $src (add it to $dir/CMakeLists.txt)" >&2
    missing=1
  fi
done < <(find tests -name 'test_*.cpp')
[ "$missing" -eq 0 ] || exit 1

cmake -B "$build_dir" -S . \
  -DCMAKE_BUILD_TYPE="$build_type" \
  -DSPAR_ENABLE_OPENMP="$openmp" \
  -DSPAR_SANITIZE="$sanitize" \
  -DSPAR_WERROR=ON
cmake --build "$build_dir" -j "$(nproc)"
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

# Ingestion smoke: the I/O bench must run clean (it exits nonzero if the
# legacy/parallel/binary loads disagree). The text->MM->binary->text
# byte-identity round trip already ran above as the ctest
# `sparsify_tool_format_roundtrip` (examples/CMakeLists.txt).
"$build_dir/bench/bench_io" --quick=1

# Streaming smoke: bench_stream exits nonzero if the file stream disagrees
# with the memory stream, thread counts disagree, or a small-config streamed
# sparsifier certifies outside the requested eps. (The fuzz/property suites
# -- SPARBIN corruption sweeps, the quality_report matrix, the streaming
# golden hash -- already ran above under ctest.)
"$build_dir/bench/bench_stream" --quick=1

# Chain-build smoke: bench_chain exits nonzero if a dense- or streamed-built
# chain fails to solve within tolerance, the streamed build differs across
# thread counts, a small-config streamed square certifies outside eps, or the
# streamed build fails to undercut the dense peak resident product.
"$build_dir/bench/bench_chain" --quick=1

# Solver smoke: bench_solver (E7) exits nonzero if chain-pcg, plain CG,
# Jacobi-PCG or multigrid misses its 1e-8 tolerance on any row.
"$build_dir/bench/bench_solver" --quick=1

# Dynamic smoke: bench_dynamic exits nonzero if the incremental tower's live
# graph disagrees with the replayed survivor multiset, a checkpoint's
# certified eps exceeds the budget, a small-config checkpoint certifies
# outside the requested eps, or thread counts 1 and 4 disagree. (The oracle-
# differential sweep and the dynamic golden hash already ran above under
# ctest.) The tool-level --make-updates -> --updates round trip ran as the
# ctest `sparsify_tool_dynamic_updates_smoke`.
"$build_dir/bench/bench_dynamic" --quick=1

# Batched-solve smoke: bench_multi_rhs exits nonzero if the batched
# solve_sdd_multi solutions are not bit-identical to the per-RHS solve_sdd
# loop, or any solve misses tolerance, or the effective-resistance sketch
# changes with its block size.
"$build_dir/bench/bench_multi_rhs" --quick=1

# Application-layer smoke: bench_apps exits nonzero if Fiedler/PageRank
# hashes drift across thread counts, the chain-reuse identity breaks, the
# dense lambda_2 oracle misses, or a quality-on-task metric falls outside
# its measured pencil window. The apps_tool leg drives the batch front end
# end to end and greps the JSON fields the tooling contract promises.
"$build_dir/bench/bench_apps" --quick=1
apps_json="$(mktemp /tmp/spar_apps_XXXXXX.json)"
"$build_dir/examples/apps_tool" gen:grid:12x12 --app=partition,pagerank,quality \
  --eps=1.0 --pairs=4 --json="$apps_json"
grep -q '"fiedler_hash"' "$apps_json"
grep -q '"pagerank_hash"' "$apps_json"
grep -q '"cross_conductance"' "$apps_json"
rm -f "$apps_json"

# Solver-service smoke: boot the daemon on a throwaway socket, replay a
# quick request stream against it (singletons and coalesced batches mixed,
# every reply memcmp'd against the local per-RHS oracle), then take the
# kShutdown drain path. load_gen exits nonzero on any bit-identity
# violation or protocol error; a hung drain trips the wait.
sock="$(mktemp -u /tmp/spar_check_XXXXXX.sock)"
"$build_dir/src/server/solver_server" --socket="$sock" --max-batch=8 --deadline-us=1500 &
server_pid=$!
for _ in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.05; done
"$build_dir/src/server/load_gen" --quick --socket="$sock" --shutdown-server
wait "$server_pid"

# Multi-process shard smoke: a 4-shard UNIX-socket mesh of real dist_worker
# processes runs the spanner and one PARALLELSAMPLE round; bench_dist_shard
# --selftest exits nonzero unless both outputs hash-equal the one-shard run
# and the framed wire bytes reconcile exactly with the words shipped.
"$build_dir/bench/bench_dist_shard" --selftest --worker "$build_dir/src/dist/dist_worker"

# Documentation gates: undocumented public symbols in src/solver,
# src/resistance, src/apps, src/server and src/sparsify, and broken relative
# links in the top-level markdown.
scripts/check_docs.sh

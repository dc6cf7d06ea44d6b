#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints (warnings are errors), the
# tier-1 test suite (the root package, every crate's suites and the compat
# shims' own tests, through the workspace's `default-members`), and smoke runs of the benches. Run from
# anywhere; it cds to the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

# `--all-targets`: tests, examples and every bench binary too, not only the
# libraries.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test -q"
cargo test -q

# The regex engine is the test-side oracle of the ETL byte scanner, never a
# dependency of the library itself.
echo "==> hpclog-core does not link rex"
if cargo tree -p hpclog-core -e normal --offline | grep -qw rex; then
  echo "rex is a normal dependency of hpclog-core" >&2
  exit 1
fi

# Every analytics op selects its rows from column blocks. The row-side
# readers stay as the references the tests compare against; product code
# (each file's lines before its first `#[cfg(test)]`, or before the
# `#![cfg(test)]` of a test-only module file) calls none of them.
echo "==> no analytics op reads rows"
shopt -s globstar
row_reads="$(for f in crates/core/src/**/*.rs; do
  awk -v file="$f" '/#!?\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// || /fn (events_by_type|events_by_source|distribution_of)\(/ { next }
    /(events_by_type|events_by_source|distribution_of)\(/ { print file ":" FNR ": " $0 }' "$f"
done)"
if [ -n "$row_reads" ]; then
  echo "product code reads rows:" >&2
  echo "$row_reads" >&2
  exit 1
fi

# A decorated key carries its murmur3 token, and rasdb's maps keyed by one
# hash that token through `partitioner::TokenMap` (a seeded one-multiply mix),
# not SipHash over it. Product code (each file's lines before its first
# `#[cfg(test)]`) declares no `HashMap`/`HashSet` keyed by `DecoratedKey` or
# `&DecoratedKey` with another hasher.
echo "==> rasdb partition maps hash the token"
untokened="$(for f in crates/rasdb/src/**/*.rs; do
  awk -v file="$f" '/#!?\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /Hash(Map|Set)<[[:space:]]*&?('"'"'[a-z_]+[[:space:]]+)?DecoratedKey/ && !/TokenHashing/ {
      print file ":" FNR ": " $0 }' "$f"
done)"
if [ -n "$untokened" ]; then
  echo "a map keyed by DecoratedKey without the token hasher (use TokenMap):" >&2
  echo "$untokened" >&2
  exit 1
fi

# rasdb's suites assert against one storage model, `support/model.rs`, which
# folds copies of a row by its own last-write-wins rule. No suite pulls in
# another support module, and the model calls none of rasdb's merges
# (`RowEntry::merge`, `Cell::merge`, an `upsert`, or `sorted_cells`, which
# upserts). Comment lines are skipped.
echo "==> rasdb suites share one storage model"
other_models="$(grep -rnE --include='*.rs' '#\[path *= *"support/' crates/rasdb/tests \
  | grep -v '"support/model.rs"' || true)"
borrowed_merges="$(grep -nE 'RowEntry::merge|Cell::merge|sorted_cells|\.upsert\(' \
  crates/rasdb/tests/support/model.rs | grep -vE '^[0-9]+:[[:space:]]*//' \
  | sed 's#^#crates/rasdb/tests/support/model.rs:#' || true)"
if [ -n "$other_models$borrowed_merges" ]; then
  echo "a second storage model, or a model that borrows rasdb's merge:" >&2
  printf '%s\n' "$other_models" "$borrowed_merges" | sed '/^$/d' >&2
  exit 1
fi

# Simulated delay is a named, documented cost, never a hidden one: product
# code (each file's lines before its first `#[cfg(test)]`) sleeps only in
# these functions, once each — the coordinator's simulated replica latency,
# a slow range-stream chunk under a topology fault plan, and the stream's
# publish backoff and store retry. Any other site is printed.
echo "==> product code sleeps only at the four named sites"
allowed_sleeps=" crates/rasdb/src/cluster/read.rs:charge crates/rasdb/src/cluster/membership.rs:send_chunk"
allowed_sleeps+=" crates/core/src/etl/stream.rs:send_with_retry"
allowed_sleeps+=" crates/core/src/etl/stream.rs:store_with_retry "
stray_sleeps="$(for f in crates/*/src/**/*.rs; do
  awk -v file="$f" -v allowed="$allowed_sleeps" '/#!?\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    match($0, /(^|[^A-Za-z0-9_])fn [A-Za-z0-9_]+/) {
      fn = substr($0, RSTART, RLENGTH); sub(/.*fn /, "", fn) }
    /thread::sleep|(^|[^A-Za-z0-9_.:])sleep\(/ {
      site = file ":" fn
      if (index(allowed, " " site " ") == 0 || seen[site]++) print file ":" FNR " (in fn " fn "): " $0 }' "$f"
done)"
if [ -n "$stray_sleeps" ]; then
  echo "a thread::sleep outside the four named sites:" >&2
  echo "$stray_sleeps" >&2
  exit 1
fi

# No source file grows back past 1,250 lines (its tests included): a file
# that does is split along its seams, as `rasdb/src/cluster/` and
# `core/src/server/engine/` were. Each longer file is printed.
echo "==> no crate source file over 1,250 lines"
long_files="$(wc -l crates/*/src/**/*.rs | awk '$2 != "total" && $1 > 1250 { print $2 ": " $1 " lines" }')"
if [ -n "$long_files" ]; then
  echo "a source file over 1,250 lines:" >&2
  echo "$long_files" >&2
  exit 1
fi

# Counters and gauges belong to a framework's registry (DESIGN §6); the
# process-wide one holds only span histograms. Product code (each file's lines
# before its first `#[cfg(test)]`) calls `global()` only in the span module
# and once in the exporter's span-histogram read. Any other call is printed.
echo "==> product code calls telemetry::global() only for spans"
allowed_globals=" crates/telemetry/src/span.rs crates/core/src/server/telemetry_export.rs:snapshot "
stray_globals="$(for f in crates/*/src/**/*.rs; do
  awk -v file="$f" -v allowed="$allowed_globals" '/#!?\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    match($0, /(^|[^A-Za-z0-9_])fn [A-Za-z0-9_]+/) {
      fn = substr($0, RSTART, RLENGTH); sub(/.*fn /, "", fn) }
    /(^|[^A-Za-z0-9_])global\(/ && !/fn global\(/ {
      site = file ":" fn
      if (index(allowed, " " file " ") > 0) next
      if (index(allowed, " " site " ") == 0 || seen[site]++) print file ":" FNR " (in fn " fn "): " $0 }' "$f"
done)"
if [ -n "$stray_globals" ]; then
  echo "a telemetry::global() call outside the span module and the exporter's histogram read:" >&2
  echo "$stray_globals" >&2
  exit 1
fi

echo "==> doc-link check (README/DESIGN/EXPERIMENTS intra-repo links)"
scripts/check_doc_links.sh

echo "==> query cache bench (smoke mode)"
QUERY_CACHE_SMOKE=1 cargo bench -q -p hpclog-bench --bench query_cache

echo "==> rebalance bench (smoke mode)"
REBALANCE_SMOKE=1 cargo bench -q -p hpclog-bench --bench rebalance

echo "==> observability bench (smoke mode)"
OBSERVABILITY_SMOKE=1 cargo bench -q -p hpclog-bench --bench observability

echo "==> loadgen bench (smoke mode, asserts the goodput-under-overload gate)"
LOADGEN_SMOKE=1 cargo bench -q -p hpclog-bench --bench loadgen

# Any perfbench build rewrites perfbench/Cargo.lock (it still lists `rex`,
# `crossbeam` and `bytes`):
# keep the committed copy and put it back however this script ends, so a run
# leaves the tree clean.
saved_lock="$(mktemp)"
cp perfbench/Cargo.lock "$saved_lock"
trap 'cp "$saved_lock" perfbench/Cargo.lock; rm -f "$saved_lock"' EXIT

# perfbench is a package of its own, outside the workspace, so tier-1 never
# reaches the harness's unit tests.
echo "==> perfbench harness unit tests"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

# The exit code is the check: what the generator wrote vs what was stored,
# (dash_cold) the stored rows read back through read_multi and the column
# blocks against generator truth, responses byte-identical across rounds, and
# (dash_live) the same panels over HTTP beside a live stream, `distribution`
# over an open hour included.
for workload in import_day stream_storm dash_cold dash_live; do
  echo "==> pipeline smoke: perfbench $workload"
  cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin pipeline -- \
    --workload "$workload" --smoke
done

echo "All checks passed."

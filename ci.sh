#!/usr/bin/env bash
# Full local gate: build, tests, lints, formatting, the determinism
# regressions for the parallel experiment runner (--jobs 1 vs --jobs 4,
# event-horizon coalescing on vs off, and render caching on vs off must
# all produce byte-identical EXPERIMENTS.md / .json artifacts), the
# detector-on replays of the detection experiment, the 16-seed campaign
# metamorphic-oracle sweep, a short run of every perfbench workload, and
# the bench medians gate.
set -euo pipefail
cd "$(dirname "$0")"

# Byte compare that fails loudly: on divergence, print a bounded unified
# diff before exiting non-zero (a bare `cmp` offset helps nobody).
same() {
    if ! cmp -s "$1" "$2"; then
        echo "ci: FAIL — $1 and $2 differ:" >&2
        diff -u "$1" "$2" | head -40 >&2 || true
        return 1
    fi
}

# The committed snapshots the gates below anchor on. A missing file must
# be a loud failure up front, not a confusing mid-run error.
for snap in BENCH_pipelines.json leakcheck.json tests/golden/trace_fig4_small.jsonl; do
    if [ ! -f "$snap" ]; then
        echo "ci: FAIL — committed snapshot $snap is missing; the gate it" >&2
        echo "    anchors cannot run (see its regeneration note in README.md)" >&2
        exit 1
    fi
done

echo "== build (release) =="
cargo build --offline --release --workspace

echo "== tests =="
cargo test --offline -q --workspace

echo "== clippy =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== fmt =="
cargo fmt --check

echo "== docs (rustdoc, warnings denied; vendored stand-ins exempt) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace -q \
    --exclude criterion --exclude proptest --exclude rand \
    --exclude serde --exclude serde_derive --exclude serde_json

echo "== static leakage audit (snapshot + dynamic agreement) =="
cargo run --offline --release -q -p containerleaks-experiments --bin leakcheck -- \
    --check --deny-missing-dep

echo "== flow analysis vs runtime: single-subsystem mutation containment =="
cargo test --offline -q --release --test flow_dynamic_agreement

echo "== fault matrix: graceful degradation under injected faults =="
cargo test --offline -q --release --test fault_matrix

echo "== determinism: --jobs 1 vs --jobs 4 (artifacts + simtrace) =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run --offline --release -q -p containerleaks-experiments --bin all -- \
    --jobs 1 --out "$tmp/j1.md" --trace "$tmp/j1.trace" >/dev/null
cargo run --offline --release -q -p containerleaks-experiments --bin all -- \
    --jobs 4 --out "$tmp/j4.md" --trace "$tmp/j4.trace" >/dev/null
same "$tmp/j1.md" "$tmp/j4.md"
same "$tmp/j1.json" "$tmp/j4.json"
# The trace is compared raw: exec-dependent counters never enter the
# artifact, so the byte-compare needs no filtering across job counts.
same "$tmp/j1.trace" "$tmp/j4.trace"
echo "byte-identical across job counts (trace included)"

echo "== determinism: coalescing on (--jobs 1) vs off (--jobs 4) =="
cargo run --offline --release -q -p containerleaks-experiments --bin all -- \
    --jobs 4 --coalesce off --out "$tmp/c0.md" --trace "$tmp/c0.trace" >/dev/null
same "$tmp/j1.md" "$tmp/c0.md"
same "$tmp/j1.json" "$tmp/c0.json"
# Coalescing legitimately reshapes quiescent ticks into spans; those
# lines carry the documented mode-exempt tag. Everything else must be
# byte-identical across the two modes.
grep -v '"group":"mode-exempt"' "$tmp/j1.trace" > "$tmp/j1.trace.portable"
grep -v '"group":"mode-exempt"' "$tmp/c0.trace" > "$tmp/c0.trace.portable"
same "$tmp/j1.trace.portable" "$tmp/c0.trace.portable"
echo "byte-identical with coalescing disabled (trace modulo mode-exempt)"

echo "== determinism under faults: fault_matrix --jobs 1 vs --jobs 4 =="
cargo run --offline --release -q -p containerleaks-experiments --bin fault_matrix -- \
    --jobs 1 --out "$tmp/f1.md" --trace "$tmp/f1.trace" >/dev/null
cargo run --offline --release -q -p containerleaks-experiments --bin fault_matrix -- \
    --jobs 4 --out "$tmp/f4.md" --trace "$tmp/f4.trace" >/dev/null
same "$tmp/f1.md" "$tmp/f4.md"
same "$tmp/f1.json" "$tmp/f4.json"
same "$tmp/f1.trace" "$tmp/f4.trace"
echo "byte-identical across job counts with faults active (trace included)"

echo "== determinism under faults: coalescing on vs off =="
cargo run --offline --release -q -p containerleaks-experiments --bin fault_matrix -- \
    --jobs 4 --coalesce off --out "$tmp/fc0.md" --trace "$tmp/fc0.trace" >/dev/null
same "$tmp/f1.md" "$tmp/fc0.md"
same "$tmp/f1.json" "$tmp/fc0.json"
grep -v '"group":"mode-exempt"' "$tmp/f1.trace" > "$tmp/f1.trace.portable"
grep -v '"group":"mode-exempt"' "$tmp/fc0.trace" > "$tmp/fc0.trace.portable"
same "$tmp/f1.trace.portable" "$tmp/fc0.trace.portable"
echo "byte-identical with coalescing disabled and faults active (trace modulo mode-exempt)"

echo "== determinism: render caching on vs off =="
cargo run --offline --release -q -p containerleaks-experiments --bin all -- \
    --jobs 4 --render-cache off --out "$tmp/r0.md" --trace "$tmp/r0.trace" >/dev/null
same "$tmp/j1.md" "$tmp/r0.md"
same "$tmp/j1.json" "$tmp/r0.json"
# Cache-occupancy counters exist only while caching is on; every other
# trace line — the per-channel read counters included — must match byte
# for byte, proving the cache never changes *what* gets read.
grep -v '"name":"pseudofs.cache_' "$tmp/j1.trace" > "$tmp/j1.trace.nocache"
grep -v '"name":"pseudofs.cache_' "$tmp/r0.trace" > "$tmp/r0.trace.nocache"
same "$tmp/j1.trace.nocache" "$tmp/r0.trace.nocache"
echo "byte-identical with render caching disabled (trace modulo cache occupancy)"

echo "== determinism under faults: render caching on vs off =="
cargo run --offline --release -q -p containerleaks-experiments --bin fault_matrix -- \
    --jobs 4 --render-cache off --out "$tmp/fr0.md" --trace "$tmp/fr0.trace" >/dev/null
same "$tmp/f1.md" "$tmp/fr0.md"
same "$tmp/f1.json" "$tmp/fr0.json"
grep -v '"name":"pseudofs.cache_' "$tmp/f1.trace" > "$tmp/f1.trace.nocache"
grep -v '"name":"pseudofs.cache_' "$tmp/fr0.trace" > "$tmp/fr0.trace.nocache"
same "$tmp/f1.trace.nocache" "$tmp/fr0.trace.nocache"
echo "byte-identical with render caching disabled and faults active (trace modulo cache occupancy)"

echo "== determinism: fleet shards 1 vs 8 =="
cargo run --offline --release -q -p containerleaks-experiments --bin all -- \
    --jobs 4 --shards 1 --out "$tmp/s1.md" --trace "$tmp/s1.trace" >/dev/null
cargo run --offline --release -q -p containerleaks-experiments --bin all -- \
    --jobs 4 --shards 8 --out "$tmp/s8.md" --trace "$tmp/s8.trace" >/dev/null
same "$tmp/j1.md" "$tmp/s1.md"
same "$tmp/s1.md" "$tmp/s8.md"
same "$tmp/s1.json" "$tmp/s8.json"
# Shard membership changes which calendar a host's horizon lives in —
# and so the calendar-pop/sync bookkeeping, which carries the documented
# mode-exempt tag. Every observable line must be byte-identical.
grep -v '"group":"mode-exempt"' "$tmp/s1.trace" > "$tmp/s1.trace.portable"
grep -v '"group":"mode-exempt"' "$tmp/s8.trace" > "$tmp/s8.trace.portable"
same "$tmp/s1.trace.portable" "$tmp/s8.trace.portable"
echo "byte-identical across shard counts (trace modulo mode-exempt)"

echo "== determinism under faults: fleet shards 1 vs 8 =="
cargo run --offline --release -q -p containerleaks-experiments --bin fault_matrix -- \
    --jobs 4 --shards 1 --out "$tmp/fs1.md" --trace "$tmp/fs1.trace" >/dev/null
cargo run --offline --release -q -p containerleaks-experiments --bin fault_matrix -- \
    --jobs 4 --shards 8 --out "$tmp/fs8.md" --trace "$tmp/fs8.trace" >/dev/null
same "$tmp/f1.md" "$tmp/fs1.md"
same "$tmp/fs1.md" "$tmp/fs8.md"
same "$tmp/fs1.json" "$tmp/fs8.json"
grep -v '"group":"mode-exempt"' "$tmp/fs1.trace" > "$tmp/fs1.trace.portable"
grep -v '"group":"mode-exempt"' "$tmp/fs8.trace" > "$tmp/fs8.trace.portable"
same "$tmp/fs1.trace.portable" "$tmp/fs8.trace.portable"
echo "byte-identical across shard counts with faults active (trace modulo mode-exempt)"

echo "== determinism with detector on: --jobs 1 vs --jobs 4 =="
# The online detector observes every read and swaps masking policies
# mid-run, so it exercises the cross-thread verdict/apply path directly.
# Its verdicts, policy updates, and counters are all portable-group:
# the traced run must be byte-identical across worker counts.
cargo run --offline --release -q -p containerleaks-experiments --bin all -- \
    --only detection --detector on --jobs 1 \
    --out "$tmp/d1.md" --trace "$tmp/d1.trace" >/dev/null
cargo run --offline --release -q -p containerleaks-experiments --bin all -- \
    --only detection --detector on --jobs 4 \
    --out "$tmp/d4.md" --trace "$tmp/d4.trace" >/dev/null
same "$tmp/d1.md" "$tmp/d4.md"
same "$tmp/d1.json" "$tmp/d4.json"
same "$tmp/d1.trace" "$tmp/d4.trace"
echo "byte-identical across job counts with detector on (trace included)"

echo "== determinism with detector on: fleet shards 1 vs 8 =="
cargo run --offline --release -q -p containerleaks-experiments --bin all -- \
    --only detection --detector on --jobs 4 --shards 1 \
    --out "$tmp/ds1.md" --trace "$tmp/ds1.trace" >/dev/null
cargo run --offline --release -q -p containerleaks-experiments --bin all -- \
    --only detection --detector on --jobs 4 --shards 8 \
    --out "$tmp/ds8.md" --trace "$tmp/ds8.trace" >/dev/null
same "$tmp/d1.md" "$tmp/ds1.md"
same "$tmp/ds1.md" "$tmp/ds8.md"
same "$tmp/ds1.json" "$tmp/ds8.json"
grep -v '"group":"mode-exempt"' "$tmp/ds1.trace" > "$tmp/ds1.trace.portable"
grep -v '"group":"mode-exempt"' "$tmp/ds8.trace" > "$tmp/ds8.trace.portable"
same "$tmp/ds1.trace.portable" "$tmp/ds8.trace.portable"
echo "byte-identical across shard counts with detector on (trace modulo mode-exempt)"

echo "== campaign: 16-seed metamorphic sweep, --jobs 1 vs --jobs 4 =="
# Every scenario must pass every oracle (the bin exits non-zero on any
# violation or panic), and the report artifacts must not depend on the
# worker count.
cargo run --offline --release -q -p containerleaks-experiments --bin campaign -- \
    --seeds 16 --jobs 1 --out "$tmp/camp1.md" >/dev/null 2>&1
cargo run --offline --release -q -p containerleaks-experiments --bin campaign -- \
    --seeds 16 --jobs 4 --out "$tmp/camp4.md" >/dev/null 2>&1
same "$tmp/camp1.md" "$tmp/camp4.md"
same "$tmp/camp1.json" "$tmp/camp4.json"
echo "16 scenarios green, report byte-identical across job counts"

echo "== benchmark harness: build, tests, a short run of every workload =="
# perfbench is a Cargo package of its own, so the workspace steps above
# never compile it; without this step a public-API change could break
# the benchmark unnoticed. Each workload runs through the BENCHMARK.json
# command and must exit zero with every output check passing.
cargo test --offline -q --manifest-path perfbench/Cargo.toml
python3 perfbench/test_steady.py
for w in power_watch tenant_scan fleet_week; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 2 --trace 0 > "$tmp/bench-$w.txt"
    if ! tail -n 1 "$tmp/bench-$w.txt" | grep -q '"correct": true'; then
        echo "ci: FAIL — perfbench $w reported failed checks:" >&2
        tail -n 3 "$tmp/bench-$w.txt" >&2
        exit 1
    fi
done
echo "perfbench builds, its tests pass, every workload runs clean"

echo "== bench medians vs committed baseline =="
./scripts/bench_compare.sh

echo "== all checks passed =="

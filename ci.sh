#!/usr/bin/env bash
# Offline CI for the spider-repro workspace.
#
# The workspace's contract is hermeticity: a clean checkout must build and
# test with an EMPTY registry and no network. Every step below therefore
# runs with --offline; if any crate ever grows a registry dependency, the
# build steps and the dependency-freeze check both fail.
#
# Usage: ./ci.sh            (from the repo root)

set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n== %s ==\n' "$*"; }

step "simlint (determinism, panic-path & panic-reach policy)"
# The first gate, before anything else builds: unordered-map state,
# wall-clock reads, float partial_cmp orderings, env reads, ambient
# randomness, unwaived panic paths, transitive panic reachability, and
# unclassified crate dirs all fail CI here. Run twice — cold (cache
# deleted) then warm — timing both: the warm run must be served 100%
# from the fact cache, which is what keeps this gate sub-second for
# every CI run after this one. The JSON artifact is archived next to
# the bench artifacts.
cargo build -q --release --offline -p simlint
rm -f target/simlint-cache.json
t0=$(date +%s%N)
./target/release/simlint --quiet --json target/SIMLINT.json
t1=$(date +%s%N)
./target/release/simlint --json target/SIMLINT.json | tee target/simlint-warm.out
t2=$(date +%s%N)
if ! grep -q 'files warm (100%)' target/simlint-warm.out; then
    echo "error: warm simlint run did not hit the cache for 100% of files" >&2
    exit 1
fi
echo "ok: simlint clean — cold $(( (t1 - t0) / 1000000 ))ms, warm $(( (t2 - t1) / 1000000 ))ms, warm run 100% cached (archived target/SIMLINT.json)"

step "dependency freeze (no registry sources)"
# Path-only dependencies serialize as "source": null in cargo metadata; any
# quoted source string means a registry/git dependency sneaked in.
metadata=$(cargo metadata --offline --format-version 1)
if printf '%s' "$metadata" | grep -Eo '"source":"[^"]+"' | sort -u | grep .; then
    echo "error: non-path dependency sources found (listed above)." >&2
    echo "This workspace must stay registry-free; see Cargo.toml." >&2
    exit 1
fi
echo "ok: every package source is null (path-only workspace)"

step "cargo build --release --offline"
cargo build --release --offline --workspace --all-targets

step "cargo test --offline"
cargo test -q --offline --workspace

step "golden output (experiments all --no-cache vs experiments_output.txt)"
# Every table and figure at the committed defaults, run uncached, must
# print exactly the committed golden file. A change that moves any
# number regenerates the file with the same command and says why in
# CHANGES.md; there is no bless flag.
./target/release/experiments all --no-cache >target/experiments_all.out 2>/dev/null
if ! cmp -s target/experiments_all.out experiments_output.txt; then
    echo "error: experiments all --no-cache differs from experiments_output.txt" >&2
    diff experiments_output.txt target/experiments_all.out | head -40 >&2 || true
    exit 1
fi
echo "ok: experiments all --no-cache stdout byte-identical to experiments_output.txt"

step "campaign cache smoke test (fig5 twice, second run must be all hits)"
smoke_dir=$(mktemp -d target/campaign-smoke.XXXXXX)
trap 'rm -rf "$smoke_dir"' EXIT
# Two separate OS processes with deliberately different irrelevant
# environments: cache hits require byte-identical records, so this also
# proves results don't depend on per-process state (hash-map iteration
# order, env contents, ASLR).
SPIDER_ORDER_PROBE=first-process-aaaa \
    ./target/release/experiments fig5 --scale 1 --cache-dir "$smoke_dir/cache" \
    >"$smoke_dir/first.out" 2>"$smoke_dir/first.err"
SPIDER_ORDER_PROBE=second-process-zzzz-different-length \
    ./target/release/experiments fig5 --scale 1 --cache-dir "$smoke_dir/cache" \
    >"$smoke_dir/second.out" 2>"$smoke_dir/second.err"
if ! cmp -s "$smoke_dir/first.out" "$smoke_dir/second.out"; then
    echo "error: cached second fig5 run is not byte-identical to the first" >&2
    diff "$smoke_dir/first.out" "$smoke_dir/second.out" >&2 || true
    exit 1
fi
if ! grep -q 'campaign: [0-9]* shards — [0-9]* hits, 0 misses, 0 cancelled' \
    "$smoke_dir/second.err"; then
    echo "error: second fig5 run was not served 100% from cache:" >&2
    cat "$smoke_dir/second.err" >&2
    exit 1
fi
echo "ok: second run 100% cache hits, stdout byte-identical"

step "fleet smoke test (fig5 --exec process: identical output, then all hits)"
# The same fig5 campaign executed on worker OS processes over the framed
# stdin/stdout protocol must be byte-identical to the threaded run above,
# and a second process-mode pass must be served 100% from its own cache.
./target/release/experiments fig5 --scale 1 --workers 4 --exec process \
    --cache-dir "$smoke_dir/fleet-cache" \
    >"$smoke_dir/fleet.out" 2>"$smoke_dir/fleet.err"
if ! cmp -s "$smoke_dir/first.out" "$smoke_dir/fleet.out"; then
    echo "error: --exec process fig5 output differs from the threaded run" >&2
    diff "$smoke_dir/first.out" "$smoke_dir/fleet.out" >&2 || true
    exit 1
fi
./target/release/experiments fig5 --scale 1 --workers 4 --exec process \
    --cache-dir "$smoke_dir/fleet-cache" \
    >"$smoke_dir/fleet2.out" 2>"$smoke_dir/fleet2.err"
if ! grep -q 'campaign: [0-9]* shards — [0-9]* hits, 0 misses, 0 cancelled' \
    "$smoke_dir/fleet2.err"; then
    echo "error: second --exec process fig5 run was not served 100% from cache:" >&2
    cat "$smoke_dir/fleet2.err" >&2
    exit 1
fi
echo "ok: process-exec output byte-identical to threads, second pass all hits"

step "metro smoke test (channel-assignment twice, byte-identical + all hits)"
# The 1024-AP metro worlds behind the channel-assignment experiment must
# hold the same determinism contract as fig5: two OS processes sharing a
# cache directory produce byte-identical stdout, and the second is served
# entirely from cache (the spatial grid is a query accelerator, not a
# semantics change).
./target/release/experiments channel-assignment --scale 1 \
    --cache-dir "$smoke_dir/metro-cache" \
    >"$smoke_dir/metro1.out" 2>"$smoke_dir/metro1.err"
./target/release/experiments channel-assignment --scale 1 \
    --cache-dir "$smoke_dir/metro-cache" \
    >"$smoke_dir/metro2.out" 2>"$smoke_dir/metro2.err"
if ! cmp -s "$smoke_dir/metro1.out" "$smoke_dir/metro2.out"; then
    echo "error: cached second channel-assignment run is not byte-identical" >&2
    diff "$smoke_dir/metro1.out" "$smoke_dir/metro2.out" >&2 || true
    exit 1
fi
if ! grep -q 'campaign: [0-9]* shards — [0-9]* hits, 0 misses, 0 cancelled' \
    "$smoke_dir/metro2.err"; then
    echo "error: second channel-assignment run was not served 100% from cache:" >&2
    cat "$smoke_dir/metro2.err" >&2
    exit 1
fi
echo "ok: 1024-AP metro campaign byte-identical across processes, second pass all hits"

step "client-fleet smoke test (N=1 identity + 8-client world across exec modes)"
# Two latches on the fleet subsystem. First: a world built with an
# explicitly empty fleet must replay the historical single-client world
# byte-for-byte at RunRecord fidelity — the fleet-identity target exits
# nonzero on any divergence, and two separate processes must print the
# same record. Second: the fleet-contention campaign (convoys up to 8
# clients over the 1024-AP metro grid) must be byte-identical between
# in-process threads and worker OS processes, each on a fresh cache —
# this drives fleet WorldConfigs through the codec-v2 worker protocol.
./target/release/experiments fleet-identity \
    >"$smoke_dir/ident1.out" 2>/dev/null
./target/release/experiments fleet-identity \
    >"$smoke_dir/ident2.out" 2>/dev/null
if ! cmp -s "$smoke_dir/ident1.out" "$smoke_dir/ident2.out"; then
    echo "error: fleet-identity output differs between processes" >&2
    diff "$smoke_dir/ident1.out" "$smoke_dir/ident2.out" >&2 || true
    exit 1
fi
./target/release/experiments fleet-contention --scale 1 \
    --cache-dir "$smoke_dir/convoy-threads" \
    >"$smoke_dir/convoy1.out" 2>"$smoke_dir/convoy1.err"
./target/release/experiments fleet-contention --scale 1 --workers 4 --exec process \
    --cache-dir "$smoke_dir/convoy-procs" \
    >"$smoke_dir/convoy2.out" 2>"$smoke_dir/convoy2.err"
if ! cmp -s "$smoke_dir/convoy1.out" "$smoke_dir/convoy2.out"; then
    echo "error: fleet-contention differs between threads and worker processes" >&2
    diff "$smoke_dir/convoy1.out" "$smoke_dir/convoy2.out" >&2 || true
    exit 1
fi
echo "ok: empty fleet replays the single-client world; 8-client convoy byte-identical across exec modes"

step "bench regression check (gating)"
# The gate runs through ./target/release/bench (built above): cargo bench
# swallows bench-target exit codes, a first-class binary does not. Exit
# contract: 0 ok / no regression, 2 regression (fails CI when the machine
# has proven itself), 3 measurement inconclusive (reported, never gates),
# anything else = the harness itself broke (always fails CI).
#
# The ladder, in order:
#   1. selftest            — interleaved A/A must read no-difference and
#                            an injected +10% workload must read
#                            regression, inside one process.
#   2. capture → A/A       — a fresh capture compared against a fresh
#                            re-measurement of the identical closure:
#                            proves back-to-back *cross-run* comparisons
#                            hold still on this machine right now.
#   3. capture → +10%      — the same committed-baseline machinery must
#                            flag a deliberately injected slowdown.
#   4. committed baseline  — des_core vs benches/baselines/des_core.json.
# A regression verdict from step 4 fails CI only when steps 1–3 all
# passed; on a machine that cannot hold still, the verdict is reported
# loudly as inconclusive instead of silently passing or flaking.
BENCH=./target/release/bench
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
trajectory="$PWD/target/BENCH_trajectory.jsonl"
machine_quiet=1

rc=0
"$BENCH" selftest --budget-ms 500 || rc=$?
case $rc in
    0) echo "ok: selftest (A/A quiet, injected slowdown detected)" ;;
    3) echo "report: selftest inconclusive — machine too noisy to gate benches this run"
       machine_quiet=0 ;;
    *) echo "error: bench selftest failed to run (exit $rc)" >&2; exit 1 ;;
esac

rc=0
"$BENCH" gate_selfcheck --budget-ms 500 \
    --capture target/BENCH_gate_baseline.json >/dev/null || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "error: bench gate_selfcheck capture failed (exit $rc)" >&2; exit 1
fi
rc=0
"$BENCH" gate_selfcheck --budget-ms 500 --min-effect 5 \
    --compare target/BENCH_gate_baseline.json >/dev/null || rc=$?
case $rc in
    0) echo "ok: cross-run A/A of the identical closure reads no-difference" ;;
    2|3) echo "report: cross-run A/A unstable (exit $rc) — committed-baseline verdicts demoted to reports"
         machine_quiet=0 ;;
    *) echo "error: bench gate_selfcheck A/A compare failed to run (exit $rc)" >&2; exit 1 ;;
esac
rc=0
SPIDER_GATE_INJECT_PCT=10 "$BENCH" gate_selfcheck --budget-ms 500 --min-effect 5 \
    --compare target/BENCH_gate_baseline.json >/dev/null || rc=$?
case $rc in
    2) echo "ok: injected +10% slowdown flagged as a regression" ;;
    0|3) echo "report: injected slowdown not resolved (exit $rc) — committed-baseline verdicts demoted to reports"
         machine_quiet=0 ;;
    *) echo "error: bench gate_selfcheck injected compare failed to run (exit $rc)" >&2; exit 1 ;;
esac

rc=0
"$BENCH" des_core --min-effect 10 \
    --compare crates/bench/benches/baselines/des_core.json \
    --json "$PWD/target/BENCH_des.json" \
    --trajectory "$trajectory" --commit "$commit" \
    >target/BENCH_des.out 2>&1 || rc=$?
cat target/BENCH_des.out
case $rc in
    0) echo "ok: des_core within baseline (target/BENCH_des.json, trajectory appended)" ;;
    2) if [ "$machine_quiet" -eq 1 ]; then
           echo "error: des_core regressed against the committed baseline" >&2
           exit 1
       fi
       echo "report: des_core regression verdict on a machine that failed its self-check — not gating" ;;
    3) echo "report: des_core measurement inconclusive (machine not stationary) — not gating" ;;
    *) echo "error: bench des_core failed to run (exit $rc)" >&2; exit 1 ;;
esac

# One RTO timer per connection, moved with EventQueue::rearm, must beat
# cancel + push (one tombstone per ACK). Same grep-the-verdict contract
# as des_metro and des_fleet below: bench_pair verdicts never feed the
# exit code, and the gate demotes to a report when the machine failed its
# self-check.
if grep -q 'rto_rearm_vs_cancel_push.* — improvement ' target/BENCH_des.out; then
    echo "ok: lazy rearm beats cancel + push on des_core"
elif [ "$machine_quiet" -eq 1 ]; then
    echo "error: rearm did not beat cancel + push on a machine that passed its self-check" >&2
    exit 1
else
    echo "report: rearm-vs-cancel+push verdict not 'improvement' on a machine that failed its self-check — not gating"
fi

step "bench des_metro (grid vs linear scan, verdict greped)"
# The spatial grid must beat the linear scan it replaced on the 1024-AP
# downtown at the contention query radius. bench_pair verdicts never feed
# the exit code (that channel belongs to committed-baseline compares), so
# the gate greps the printed interleaved-A/B verdict instead — demoted to
# a report when the machine failed its own self-check above.
rc=0
"$BENCH" des_metro --budget-ms 1000 \
    --json "$PWD/target/BENCH_metro.json" \
    --trajectory "$trajectory" --commit "$commit" \
    >target/BENCH_metro.out 2>&1 || rc=$?
if [ "$rc" -ne 0 ]; then
    cat target/BENCH_metro.out >&2
    echo "error: bench des_metro failed to run (exit $rc)" >&2; exit 1
fi
if grep -q 'inrange_1024aps_linear_scan_vs_grid_x256.* — improvement ' \
    target/BENCH_metro.out; then
    echo "ok: grid beats linear scan on des_metro (target/BENCH_metro.json)"
elif [ "$machine_quiet" -eq 1 ]; then
    cat target/BENCH_metro.out >&2
    echo "error: grid did not beat the linear scan on a machine that passed its self-check" >&2
    exit 1
else
    echo "report: grid-vs-scan verdict not 'improvement' on a machine that failed its self-check — not gating"
fi

step "bench des_fleet (one fleet world vs N-times replication, verdict greped)"
# One 8-client fleet world must beat running the whole world 8 times —
# the shared deployment, AP timers, and event queue are the point of the
# subsystem. Same grep-the-verdict contract as des_metro: bench_pair
# verdicts never feed the exit code, and the gate demotes to a report
# when the machine failed its self-check. The 1→64 scaling sweep lands
# wall-clock ns per delivered event in the trajectory artifact either way.
rc=0
"$BENCH" des_fleet --budget-ms 1000 \
    --json "$PWD/target/BENCH_fleet.json" \
    --trajectory "$trajectory" --commit "$commit" \
    >target/BENCH_fleet.out 2>&1 || rc=$?
if [ "$rc" -ne 0 ]; then
    cat target/BENCH_fleet.out >&2
    echo "error: bench des_fleet failed to run (exit $rc)" >&2; exit 1
fi
if grep -q 'fleet8_one_world_vs_8x_replication.* — improvement ' \
    target/BENCH_fleet.out; then
    echo "ok: one 8-client world beats 8x replication (target/BENCH_fleet.json)"
elif [ "$machine_quiet" -eq 1 ]; then
    cat target/BENCH_fleet.out >&2
    echo "error: fleet world did not beat replication on a machine that passed its self-check" >&2
    exit 1
else
    echo "report: fleet-vs-replication verdict not 'improvement' on a machine that failed its self-check — not gating"
fi

step "bench artifact (campaign substrates)"
# Machine-readable artifact for the campaign hot paths; a bench that
# fails to *run* fails CI — only measurement verdicts are non-gating.
rc=0
"$BENCH" substrates campaign --budget-ms 100 \
    --json "$PWD/target/BENCH_campaign.json" \
    --trajectory "$trajectory" --commit "$commit" >/dev/null || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "error: substrates bench failed to run (exit $rc)" >&2; exit 1
fi
[ -s target/BENCH_campaign.json ] || {
    echo "error: substrates bench wrote no artifact" >&2; exit 1; }
echo "ok: wrote target/BENCH_campaign.json"

step "bench trajectory (cross-commit drift report, non-gating)"
# Joins the append-only per-commit log the gated steps above wrote into
# per-bench tables and flags monotone drifts no single-commit gate can
# see. A reader, not a gate: drift findings are reported, only a broken
# log fails CI.
"$BENCH" trajectory "$trajectory" || {
    echo "error: bench trajectory could not read $trajectory" >&2; exit 1; }

step "cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check
else
    echo "skip: rustfmt not installed"
fi

step "cargo clippy -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "skip: clippy not installed"
fi

printf '\nCI passed.\n'

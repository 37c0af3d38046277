#!/usr/bin/env bash
# bench.sh — campaign-engine performance trajectory.
#
# Runs the Figure 5 matrix (the 105-cell design × workload × load
# campaign, via the figures that consume it) three ways:
#
#   1. sequential  (-workers 1, cold cache)
#   2. parallel    (-workers N, cold cache)   N = BENCH_WORKERS or nproc
#   3. warm        (-workers N, warm cache from run 2)
#
# and writes BENCH_campaign.json with wall times, cells/sec, cache-hit
# rates, and speedups. It also asserts the engine's core guarantee:
# stdout tables from all three runs are byte-identical (modulo the
# per-experiment "took" timing lines).
#
# The campaign section then runs the cold 105-cell tails campaign (the
# Figure 5(d) queueing stage as content-addressed cells over one shared
# micro-sim per design × workload). The "cold_two_phase" stanza records
# its wall time and micro-sims computed vs cells completed; the section
# fails unless exactly 35 micro-sims were simulated for 105 cells and
# the tables match the committed golden file byte for byte
# (scripts/golden/tails_<ModelVersion>_scale<S>_seed1.txt; a scale
# without a golden file skips the table check with a warning).
#
# It then runs the energyprop sweep once and writes BENCH_energy.json:
# sweep throughput plus the RSC deep-idle vs Duplexity-fill envelope
# (idle power, µJ/request, p99, tail penalty) at low/mid/high load.
#
# It then runs cmd/simbench twice and writes BENCH_simcore.json with a
# stanza per configuration: "moderate" (steady load, full batch
# population — parity territory, the event engine must simply never be
# slower) and "stall_heavy" (near-idle load, no batch threads — the
# paper's killer-microsecond regime, where the discrete-event engine
# must hold a >=10x speedup over cycle stepping; simbench's -floor flag
# makes the measurement itself the gate). Each stanza records simulated
# cycles/sec for stepped and event execution plus the event engine's
# skip ratio, alongside the sequential campaign throughput in cells/sec
# when the campaign section ran.
#
# Finally it boots duplexityd on a loopback port and drives it with the
# built-in load generator — one closed-loop run (cold cache, real
# simulations) and one open-loop run (warm, mostly cache hits) — and
# writes BENCH_serve.json with both envelopes: sent/ok/shed counts,
# request throughput, and p50/p99 request latency — plus a tracing
# on/off A/B over the warm cache pinning the trace plane's overhead.
#
# Finally it benchmarks the distributed tier: the same small campaign
# run against a single-node daemon and against a coordinator sharding
# over two local worker daemons, writing BENCH_fleet.json with both
# cells/sec figures. (On a single-core host the fleet adds overhead
# rather than speedup; the envelope records, it does not assert.)
#
# Finally it benchmarks the multi-tenant job store: two equal batch
# jobs from tenants weighted 2:1 run to completion (scheduler
# throughput in cells/sec, plus the observed mid-run fair-share ratio),
# then single-cell probe jobs race a saturating batch job through the
# interactive and batch lanes, writing BENCH_jobs.json with both
# per-lane latency envelopes. (Like the fleet figure, the envelope
# records; it does not assert.)
#
# Every BENCH_*.json envelope records the host environment uniformly:
# host_cpus, go_version, gomaxprocs, git_commit — so a regression found
# in a stored envelope can be pinned to the exact tree that produced it.
#
# Tunables: BENCH_SCALE (default 0.05), BENCH_WORKERS (default nproc),
# BENCH_SERVE_ADDR (default 127.0.0.1:8124), BENCH_SERVE_REQUESTS
# (default 32), BENCH_FLEET_BASE_PORT (default 8141).
# BENCH_ONLY selects sections as a comma list from
# {campaign,energy,simcore,serve,fleet,jobs} — e.g. BENCH_ONLY=simcore
# refreshes BENCH_simcore.json alone. Unset runs everything. Every
# envelope restamps git_commit (with a -dirty suffix when the tree
# differs from HEAD) and host metadata on every run, so a stored
# envelope can never silently describe an older tree.
# Note: the parallel speedup is only meaningful on a multi-core host;
# the warm-cache speedup is meaningful anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${BENCH_SCALE:-0.05}"
WORKERS="${BENCH_WORKERS:-$(nproc)}"
EXPTS=(fig5a fig5b fig5c fig5f fig6)
OUT="BENCH_campaign.json"

# The uniform host-environment stanza every BENCH_*.json carries,
# recomputed on every invocation so stored envelopes always name the
# tree that actually produced them; a worktree that differs from HEAD
# gets a -dirty suffix.
NCPU="$(nproc)"
GOVER="$(go env GOVERSION)"
GMP="${GOMAXPROCS:-$NCPU}"
GITSHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [[ "$GITSHA" != "unknown" ]] && ! git diff --quiet HEAD -- 2>/dev/null; then
    GITSHA="$GITSHA-dirty"
fi
ENV_JSON="\"host_cpus\": $NCPU, \"go_version\": \"$GOVER\", \"gomaxprocs\": $GMP, \"git_commit\": \"$GITSHA\""

# should_run <section>: true when BENCH_ONLY is unset/empty or names the
# section in its comma list.
should_run() {
    [[ -z "${BENCH_ONLY:-}" || ",${BENCH_ONLY}," == *",$1,"* ]]
}

tmp="$(mktemp -d)"
cleanup() {
    [[ -n "${serve_pid:-}" ]] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "== build =="
if should_run campaign || should_run energy; then
    go build -o "$tmp/duplexity" ./cmd/duplexity
fi
if should_run serve || should_run fleet || should_run jobs; then
    go build -o "$tmp/duplexityd" ./cmd/duplexityd
fi

if should_run campaign; then

# run <name> <workers> <cachedir>: executes the matrix figures, records
# wall seconds to $tmp/<name>.wall and the campaign summary counters to
# $tmp/<name>.cells/.hits/.misses.
run() {
    local name="$1" workers="$2" cdir="$3"
    echo "== $name: -workers $workers =="
    local t0 t1
    t0="$(date +%s.%N)"
    "$tmp/duplexity" -scale "$SCALE" -seed 1 -workers "$workers" -cachedir "$cdir" \
        "${EXPTS[@]}" >"$tmp/$name.out" 2>"$tmp/$name.err"
    t1="$(date +%s.%N)"
    awk -v a="$t0" -v b="$t1" 'BEGIN{printf "%.3f", b-a}' >"$tmp/$name.wall"
    # Last campaign summary line: campaign: workers=N cells=C hits=H misses=M ...
    local line
    line="$(grep '^campaign:' "$tmp/$name.err" | tail -1)"
    echo "$line"
    echo "$line" | sed 's/.*cells=\([0-9]*\).*/\1/'  >"$tmp/$name.cells"
    echo "$line" | sed 's/.*hits=\([0-9]*\).*/\1/'   >"$tmp/$name.hits"
    echo "$line" | sed 's/.*misses=\([0-9]*\).*/\1/' >"$tmp/$name.misses"
    grep -v " took " "$tmp/$name.out" >"$tmp/$name.tables"
}

run sequential 1          "$tmp/cache-seq"
run parallel   "$WORKERS" "$tmp/cache-par"
run warm       "$WORKERS" "$tmp/cache-par"

# run_tails <name> <cachedir> [flags...]: executes the tails campaign,
# recording the same wall/cells files as run() plus the phase-1
# micro-sim simulation count (the M of the "phase1=H/M" summary field).
run_tails() {
    local name="$1" cdir="$2"; shift 2
    echo "== $name: tails $* =="
    local t0 t1
    t0="$(date +%s.%N)"
    "$tmp/duplexity" -scale "$SCALE" -seed 1 -workers "$WORKERS" -cachedir "$cdir" \
        "$@" tails >"$tmp/$name.out" 2>"$tmp/$name.err"
    t1="$(date +%s.%N)"
    awk -v a="$t0" -v b="$t1" 'BEGIN{printf "%.3f", b-a}' >"$tmp/$name.wall"
    local line
    line="$(grep '^campaign:' "$tmp/$name.err" | tail -1)"
    echo "$line"
    echo "$line" | sed 's/.*cells=\([0-9]*\).*/\1/' >"$tmp/$name.cells"
    echo "$line" | sed 's/.* phase1=[0-9]*\/\([0-9]*\).*/\1/' >"$tmp/$name.micros"
    grep -v " took " "$tmp/$name.out" >"$tmp/$name.tables"
}

# The cold tails run: 105 cells resolve over exactly 35 shared
# micro-sims (one per design × workload — baselines need none of their
# own, but every non-baseline family pulls the baseline in), and the
# tables must equal the committed golden ones for this model and scale.
run_tails two_phase_cold "$tmp/cache-tp"

echo "== two-phase check =="
TP_MICROS="$(cat "$tmp/two_phase_cold.micros")"
TP_CELLS="$(cat "$tmp/two_phase_cold.cells")"
if [[ "$TP_MICROS" != "35" || "$TP_CELLS" != "105" ]]; then
    echo "FAIL: cold tails simulated $TP_MICROS micro-sims for $TP_CELLS cells, want 35 for 105 (one per design x workload)"
    exit 1
fi
MODEL="$(sed -n 's/^const ModelVersion = "\(.*\)"$/\1/p' internal/core/design.go)"
GOLDEN="scripts/golden/tails_${MODEL}_scale${SCALE}_seed1.txt"
if [[ -f "$GOLDEN" ]]; then
    cmp "$GOLDEN" "$tmp/two_phase_cold.tables" \
        || { echo "FAIL: cold tails tables differ from $GOLDEN"; exit 1; }
    echo "tables match $GOLDEN; $TP_MICROS micro-sims for $TP_CELLS cells"
else
    echo "WARN: no $GOLDEN; tables not checked; $TP_MICROS micro-sims for $TP_CELLS cells"
fi

echo "== determinism check =="
cmp "$tmp/sequential.tables" "$tmp/parallel.tables" \
    || { echo "FAIL: -workers $WORKERS tables differ from -workers 1"; exit 1; }
cmp "$tmp/sequential.tables" "$tmp/warm.tables" \
    || { echo "FAIL: warm-cache tables differ"; exit 1; }
if [[ "$(cat "$tmp/warm.misses")" != "0" ]]; then
    echo "FAIL: warm run re-simulated $(cat "$tmp/warm.misses") cells"
    exit 1
fi
echo "tables byte-identical across sequential/parallel/warm; warm run simulated 0 cells"

awk -v scale="$SCALE" -v workers="$WORKERS" -v envjson="$ENV_JSON" \
    -v sw="$(cat "$tmp/sequential.wall")" -v sc="$(cat "$tmp/sequential.cells")" \
    -v pw="$(cat "$tmp/parallel.wall")"   -v pc="$(cat "$tmp/parallel.cells")" \
    -v ww="$(cat "$tmp/warm.wall")"       -v wh="$(cat "$tmp/warm.hits")" \
    -v wc="$(cat "$tmp/warm.cells")" \
    -v tpw="$(cat "$tmp/two_phase_cold.wall")" \
    -v tpc="$(cat "$tmp/two_phase_cold.cells")" \
    -v tpm="$(cat "$tmp/two_phase_cold.micros")" 'BEGIN {
    printf "{\n"
    printf "  \"bench\": \"campaign-fig5-matrix\",\n"
    printf "  \"scale\": %s,\n", scale
    printf "  %s,\n", envjson
    printf "  \"experiments\": [\"fig5a\", \"fig5b\", \"fig5c\", \"fig5f\", \"fig6\"],\n"
    printf "  \"sequential\": {\"workers\": 1, \"wall_seconds\": %s, \"cells\": %d, \"cells_per_sec\": %.3f},\n", sw, sc, sc/sw
    printf "  \"parallel\": {\"workers\": %d, \"wall_seconds\": %s, \"cells\": %d, \"cells_per_sec\": %.3f, \"speedup_vs_sequential\": %.2f},\n", workers, pw, pc, pc/pw, sw/pw
    printf "  \"warm_cache\": {\"workers\": %d, \"wall_seconds\": %s, \"cells\": %d, \"hits\": %d, \"hit_rate\": %.3f, \"speedup_vs_sequential\": %.2f},\n", workers, ww, wc, wh, wh/wc, sw/ww
    printf "  \"cold_two_phase\": {\"experiment\": \"tails\", \"workers\": %d, \"cells\": %d, \"micro_sims_computed\": %d, \"wall_seconds\": %s}\n", workers, tpc, tpm, tpw
    printf "}\n"
}' >"$OUT"

echo "== $OUT =="
cat "$OUT"
fi # campaign

# --- energy-proportionality benchmark -----------------------------------
# BENCH_energy.json records the energyprop sweep's envelope: campaign
# throughput over the governor-keyed cells, plus the headline
# deep-idle-vs-Duplexity-fill comparison on RSC at low/mid/high load —
# idle power, energy per request, p99, and the tail penalty in percent.
# The figures record the trade the paper argues (sleep states save idle
# power, fill preserves the tail and harvests throughput); the envelope
# records, it does not assert — scripts/energyprop_smoke.sh is the gate.
if should_run energy; then
ENERGYOUT="BENCH_energy.json"
echo "== energyprop bench =="
t0="$(date +%s.%N)"
"$tmp/duplexity" -scale "$SCALE" -seed 1 -workers "$WORKERS" \
    -cachedir "$tmp/energy-cache" energyprop \
    >"$tmp/energy.out" 2>"$tmp/energy.err"
t1="$(date +%s.%N)"
ENERGY_WALL="$(awk -v a="$t0" -v b="$t1" 'BEGIN{printf "%.3f", b-a}')"
eline="$(grep '^campaign:' "$tmp/energy.err" | tail -1)"
echo "$eline"
ENERGY_CELLS="$(sed 's/.*cells=\([0-9]*\).*/\1/' <<<"$eline")"

# Columns: workload load design/governor util idle_frac avg_W idle_W
# uJ/req batch_GIPS p99_us. One stanza per load level, deep vs fill.
awk -v scale="$SCALE" -v workers="$WORKERS" -v envjson="$ENV_JSON" \
    -v wall="$ENERGY_WALL" -v cells="$ENERGY_CELLS" '
$1 == "RSC" && $3 == "Baseline/deep"  { dIdle[$2] = $7; dUj[$2] = $8; dP99[$2] = $10 }
$1 == "RSC" && $3 == "Duplexity/fill" { fIdle[$2] = $7; fUj[$2] = $8; fGips[$2] = $9; fP99[$2] = $10 }
END {
    printf "{\n"
    printf "  \"bench\": \"energyprop\",\n"
    printf "  %s,\n", envjson
    printf "  \"scale\": %s,\n", scale
    printf "  \"workers\": %d,\n", workers
    printf "  \"sweep\": {\"cells\": %d, \"wall_seconds\": %s, \"cells_per_sec\": %.3f},\n", cells, wall, cells/wall
    printf "  \"rsc_deep_vs_fill\": {\n"
    n = split("0.10 0.50 0.90", loads, " ")
    for (i = 1; i <= n; i++) {
        l = loads[i]
        printf "    \"%s\": {\"deep\": {\"idle_w\": %s, \"uj_per_req\": %s, \"p99_us\": %s}, " \
               "\"fill\": {\"idle_w\": %s, \"uj_per_req\": %s, \"batch_gips\": %s, \"p99_us\": %s}, " \
               "\"deep_p99_penalty_pct\": %.1f}%s\n", \
            l, dIdle[l], dUj[l], dP99[l], fIdle[l], fUj[l], fGips[l], fP99[l], \
            (dP99[l] - fP99[l]) / fP99[l] * 100, (i < n ? "," : "")
    }
    printf "  }\n"
    printf "}\n"
}' "$tmp/energy.out" >"$ENERGYOUT"
python3 -m json.tool "$ENERGYOUT" >/dev/null \
    || { echo "FAIL: $ENERGYOUT is not valid JSON"; exit 1; }

echo "== $ENERGYOUT =="
cat "$ENERGYOUT"
fi # energy

# --- simulator-core benchmark -------------------------------------------
# BENCH_simcore.json reports how fast the cycle-level simulator itself
# runs: simulated cycles per wall second stepped cycle by cycle and on
# the discrete-event engine, plus the event engine's skip ratio — under
# two configurations:
#
#   moderate    steady load, full batch population: compute-bound, the
#               event engine's job is to never be slower than stepping
#   stall_heavy near-idle load, no batch threads: the killer-microsecond
#               regime, where the event engine must hold >=10x; the
#               -floor flag turns the run into a gate (non-zero exit
#               below the floor), so the headline win cannot rot
#
# simbench also cross-checks that both modes retire identical work,
# failing the benchmark on any divergence. The campaign throughput
# figure rides along when the campaign section ran in this invocation.
if should_run simcore; then
SIMOUT="BENCH_simcore.json"
echo "== simbench =="
go build -o "$tmp/simbench" ./cmd/simbench
"$tmp/simbench" -cycles "${BENCH_SIM_CYCLES:-3000000}" -seed 1 >"$tmp/sim-moderate.json"
cat "$tmp/sim-moderate.json"
"$tmp/simbench" -cycles "${BENCH_SIM_CYCLES:-3000000}" -seed 1 \
    -load 0.02 -batch 0 -designs baseline,duplexity \
    -floor "${BENCH_SIM_FLOOR:-10}" >"$tmp/sim-stall.json"
cat "$tmp/sim-stall.json"

{
    echo "{"
    echo "  \"bench\": \"simcore\","
    echo "  $ENV_JSON,"
    if [[ -f "$tmp/sequential.wall" ]]; then
        awk -v sw="$(cat "$tmp/sequential.wall")" -v sc="$(cat "$tmp/sequential.cells")" \
            'BEGIN { printf "  \"campaign_cells_per_sec\": %.3f,\n", sc/sw }'
    fi
    echo "  \"moderate\":"
    sed -e 's/^/  /' -e '$s/$/,/' "$tmp/sim-moderate.json"
    echo "  \"stall_heavy\":"
    sed 's/^/  /' "$tmp/sim-stall.json"
    echo "}"
} >"$SIMOUT"
python3 -m json.tool "$SIMOUT" >/dev/null \
    || { echo "FAIL: $SIMOUT is not valid JSON"; exit 1; }

echo "== $SIMOUT =="
cat "$SIMOUT"
fi # simcore

# --- serving-layer benchmark --------------------------------------------
# BENCH_serve.json reports the daemon's request envelope under the two
# canonical load regimes. The closed-loop run hits a cold cache, so its
# latency is dominated by real simulation time; the open-loop run reuses
# the now-warm cache, so its latency is the serving overhead itself
# (admission, coalescing, HTTP). Shed counts quantify the admission
# controller rather than failing the bench: overload answers 429.
if should_run serve; then
SERVEOUT="BENCH_serve.json"
SADDR="${BENCH_SERVE_ADDR:-127.0.0.1:8124}"
SREQS="${BENCH_SERVE_REQUESTS:-32}"
echo "== duplexityd loadgen =="
"$tmp/duplexityd" serve -addr "$SADDR" -scale "$SCALE" -seed 1 \
    -workers "$WORKERS" -cachedir "$tmp/serve-cache" 2>"$tmp/served.log" &
serve_pid=$!
for i in $(seq 1 100); do
    curl -fsS "http://$SADDR/v1/healthz" >/dev/null 2>&1 && break
    kill -0 "$serve_pid" 2>/dev/null \
        || { echo "FAIL: duplexityd died during boot"; cat "$tmp/served.log"; exit 1; }
    sleep 0.1
done

"$tmp/duplexityd" loadgen -addr "$SADDR" -conc "$WORKERS" -requests "$SREQS" \
    -spread 16 >"$tmp/serve-closed.json"
cat "$tmp/serve-closed.json"
"$tmp/duplexityd" loadgen -addr "$SADDR" -qps 100 -duration 3s \
    -spread 16 >"$tmp/serve-open.json"
cat "$tmp/serve-open.json"

kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "FAIL: duplexityd drain exited nonzero"; cat "$tmp/served.log"; exit 1; }
serve_pid=""
[[ -f "$tmp/serve-cache/checkpoint.json" ]] \
    || { echo "FAIL: no checkpoint after drain"; exit 1; }

# Tracing A/B: the same warm closed-loop load against the same cache,
# once with tracing on and once off. Warm requests are pure serving
# overhead, so this is the worst case for the trace plane's cost; the
# overhead_pct figure pins the ISSUE's <2% tracing budget.
AB_REQS="${BENCH_AB_REQUESTS:-400}"
ab_run() {
    local flag="$1" out="$2"
    "$tmp/duplexityd" serve -addr "$SADDR" -scale "$SCALE" -seed 1 \
        -workers "$WORKERS" -cachedir "$tmp/serve-cache" -tracing="$flag" \
        2>"$tmp/served-ab.log" &
    serve_pid=$!
    for i in $(seq 1 100); do
        curl -fsS "http://$SADDR/v1/healthz" >/dev/null 2>&1 && break
        kill -0 "$serve_pid" 2>/dev/null \
            || { echo "FAIL: duplexityd died during A/B boot"; cat "$tmp/served-ab.log"; exit 1; }
        sleep 0.1
    done
    "$tmp/duplexityd" loadgen -addr "$SADDR" -conc "$WORKERS" -requests "$AB_REQS" \
        -spread 16 >"$out"
    kill -TERM "$serve_pid"
    wait "$serve_pid" || true
    serve_pid=""
}
echo "== tracing A/B (warm, $AB_REQS requests) =="
ab_run true  "$tmp/serve-ab-on.json"
ab_run false "$tmp/serve-ab-off.json"
cat "$tmp/serve-ab-on.json" "$tmp/serve-ab-off.json"
RPS_ON="$(sed 's/.*"rps":\([0-9.]*\).*/\1/' "$tmp/serve-ab-on.json")"
RPS_OFF="$(sed 's/.*"rps":\([0-9.]*\).*/\1/' "$tmp/serve-ab-off.json")"
AB_JSON="$(awk -v on="$RPS_ON" -v off="$RPS_OFF" -v n="$AB_REQS" 'BEGIN {
    printf "{\"requests\": %d, \"rps_tracing_on\": %.3f, \"rps_tracing_off\": %.3f, \"overhead_pct\": %.2f}", n, on, off, (off - on) / off * 100
}')"
echo "tracing A/B: $AB_JSON"

{
    echo "{"
    echo "  \"bench\": \"serve-loadgen\","
    echo "  $ENV_JSON,"
    echo "  \"scale\": $SCALE,"
    echo "  \"workers\": $WORKERS,"
    echo "  \"closed_cold\": $(cat "$tmp/serve-closed.json"),"
    echo "  \"open_warm\": $(cat "$tmp/serve-open.json"),"
    echo "  \"tracing_ab\": $AB_JSON"
    echo "}"
} >"$SERVEOUT"

echo "== $SERVEOUT =="
cat "$SERVEOUT"
fi # serve

# --- fleet benchmark ----------------------------------------------------
# BENCH_fleet.json compares campaign throughput (cells/sec, cold cache)
# through a single-node daemon against a coordinator sharding the same
# campaign over two local worker daemons. On a single-core host the
# fleet's extra hop costs more than the second worker earns; on
# multi-core (or real multi-host) fleets the two-worker figure should
# approach 2x.
if should_run fleet; then
FLEETOUT="BENCH_fleet.json"
FBASE="${BENCH_FLEET_BASE_PORT:-8141}"
F_SINGLE="127.0.0.1:$FBASE"
F_W1="127.0.0.1:$((FBASE + 1))"
F_W2="127.0.0.1:$((FBASE + 2))"
F_CO="127.0.0.1:$((FBASE + 3))"
FLEET_LOADS="${BENCH_FLEET_LOADS:-0.2,0.4,0.6,0.8}"
echo "== fleet bench =="

fleet_pids=()
boot() {
    local log="$1"; shift
    "$tmp/duplexityd" "$@" 2>"$log" &
    local pid=$!
    fleet_pids+=("$pid")
    local addr
    addr="$(sed -n 's/.*-addr \([^ ]*\).*/\1/p' <<<"$*")"
    for i in $(seq 1 100); do
        curl -fsS "http://$addr/v1/healthz" >/dev/null 2>&1 && return 0
        kill -0 "$pid" 2>/dev/null || { echo "FAIL: daemon died booting"; cat "$log"; exit 1; }
        sleep 0.1
    done
    echo "FAIL: daemon on $addr never became healthy"; cat "$log"; exit 1
}
fleet_cleanup() { for p in "${fleet_pids[@]:-}"; do kill "$p" 2>/dev/null || true; done; }
trap 'fleet_cleanup; cleanup' EXIT

# timed_campaign <addr> <out-wall> <out-cells>
timed_campaign() {
    local addr="$1" wall="$2" cells="$3" t0 t1
    t0="$(date +%s.%N)"
    "$tmp/duplexityd" submit -addr "$addr" -campaign -kind fig5 \
        -designs Baseline,Duplexity -workloads RSC -loads "$FLEET_LOADS" \
        >"$tmp/fleetbench.ndjson" 2>/dev/null
    t1="$(date +%s.%N)"
    awk -v a="$t0" -v b="$t1" 'BEGIN{printf "%.3f", b-a}' >"$wall"
    sed '$d' "$tmp/fleetbench.ndjson" | wc -l | tr -d ' ' >"$cells"
}

boot "$tmp/fb-single.log" serve -addr "$F_SINGLE" -scale "$SCALE" -seed 1 \
    -workers "$WORKERS" -cachedir "$tmp/fb-single-cache"
timed_campaign "$F_SINGLE" "$tmp/fb-single.wall" "$tmp/fb-single.cells"

boot "$tmp/fb-w1.log" serve -addr "$F_W1" -scale "$SCALE" -seed 1 \
    -workers "$WORKERS" -cachedir "$tmp/fb-w1-cache"
boot "$tmp/fb-w2.log" serve -addr "$F_W2" -scale "$SCALE" -seed 1 \
    -workers "$WORKERS" -cachedir "$tmp/fb-w2-cache"
boot "$tmp/fb-co.log" coordinate -addr "$F_CO" -fleet "$F_W1,$F_W2" \
    -cachedir "$tmp/fb-co-cache"
timed_campaign "$F_CO" "$tmp/fb-fleet.wall" "$tmp/fb-fleet.cells"
fleet_cleanup
fleet_pids=()

awk -v scale="$SCALE" -v workers="$WORKERS" -v envjson="$ENV_JSON" \
    -v sw="$(cat "$tmp/fb-single.wall")" -v sc="$(cat "$tmp/fb-single.cells")" \
    -v fw="$(cat "$tmp/fb-fleet.wall")"  -v fc="$(cat "$tmp/fb-fleet.cells")" 'BEGIN {
    printf "{\n"
    printf "  \"bench\": \"fleet-campaign\",\n"
    printf "  %s,\n", envjson
    printf "  \"scale\": %s,\n", scale
    printf "  \"single_node\": {\"workers\": %d, \"wall_seconds\": %s, \"cells\": %d, \"cells_per_sec\": %.3f},\n", workers, sw, sc, sc/sw
    printf "  \"fleet_2_workers\": {\"workers_per_node\": %d, \"wall_seconds\": %s, \"cells\": %d, \"cells_per_sec\": %.3f, \"speedup_vs_single\": %.2f}\n", workers, fw, fc, fc/fw, sw/fw
    printf "}\n"
}' >"$FLEETOUT"

echo "== $FLEETOUT =="
cat "$FLEETOUT"
fi # fleet

# --- job-store benchmark ------------------------------------------------
# BENCH_jobs.json reports the multi-tenant control plane's envelope on a
# deliberately narrow daemon (-workers 2) so saturation is reproducible
# regardless of host core count:
#
#   * scheduler throughput: two 12-cell batch jobs from tenants alpha
#     (weight 2) and beta (weight 1) submitted together, cells/sec over
#     the whole run
#   * fairness ratio: alpha's vs beta's completed cells sampled mid-run
#     (expected to track the 2:1 weights)
#   * lane latency: single-cell probe jobs submitted while a 24-cell
#     batch job saturates the pool, alternating interactive and batch
#     lanes; per-lane mean and worst-case job latency
if should_run jobs; then
JOBSOUT="BENCH_jobs.json"
JADDR="${BENCH_JOBS_ADDR:-127.0.0.1:8146}"
JWORKERS=2
echo "== jobs bench =="

"$tmp/duplexityd" serve -addr "$JADDR" -scale "$SCALE" -seed 1 \
    -workers "$JWORKERS" -cachedir "$tmp/jobs-cache" \
    -tenant-weights alpha=2,beta=1 2>"$tmp/jobsd.log" &
serve_pid=$!
for i in $(seq 1 100); do
    curl -fsS "http://$JADDR/v1/healthz" >/dev/null 2>&1 && break
    kill -0 "$serve_pid" 2>/dev/null \
        || { echo "FAIL: jobs-bench daemon died during boot"; cat "$tmp/jobsd.log"; exit 1; }
    sleep 0.1
done

submit_job() { # submit_job <tenant> <lane> <loads> -> job id on stdout
    "$tmp/duplexityd" jobs -addr "$JADDR" -submit -kind fig5 \
        -designs Baseline,Duplexity -workloads RSC -loads "$3" \
        -tenant "$1" -lane "$2" 2>/dev/null \
        | python3 -c "import json,sys; print(json.load(sys.stdin)['id'])"
}
job_done() { # job_done <id> -> completed count; "done" appended when finished
    curl -fsS "http://$JADDR/v1/jobs/$1" | python3 -c \
        "import json,sys; j=json.load(sys.stdin); print(j['completed'], 'done' if j['done'] else '')"
}

t0="$(date +%s.%N)"
job_a="$(submit_job alpha batch 0.11,0.22,0.33,0.44,0.55,0.66)"
job_b="$(submit_job beta  batch 0.12,0.23,0.34,0.45,0.56,0.67)"
fair_a=""; fair_b=""
while :; do
    read -r ca da <<<"$(job_done "$job_a")"
    read -r cb db <<<"$(job_done "$job_b")"
    # First sample past the halfway mark is the fairness observation.
    if [[ -z "$fair_a" && $((ca + cb)) -ge 12 ]]; then fair_a="$ca"; fair_b="$cb"; fi
    [[ "$da" == "done" && "$db" == "done" ]] && break
    sleep 0.025
done
t1="$(date +%s.%N)"
# If both jobs finished between polls the mid-run sample never fired;
# fall back to the final (uninformative, 1.0) counts so the envelope
# stays well-formed.
[[ -n "$fair_a" ]] || { fair_a="$ca"; fair_b="$cb"; }
SCHED_WALL="$(awk -v a="$t0" -v b="$t1" 'BEGIN{printf "%.3f", b-a}')"
echo "scheduler: 24 cells in ${SCHED_WALL}s; mid-run completed alpha=$fair_a beta=$fair_b"

# Lane probes: a long batch job keeps both pool slots busy while
# single-cell jobs race through each lane. Probe loads are unique so
# every probe is a real (cold) simulation.
sat_job="$(submit_job beta batch 0.13,0.24,0.35,0.46,0.57,0.68,0.79,0.85,0.14,0.25,0.36,0.47)"
probe() { # probe <lane> <load> -> wall seconds for the 1-cell job
    local pt0 pt1
    pt0="$(date +%s.%N)"
    "$tmp/duplexityd" jobs -addr "$JADDR" -submit -kind fig5 \
        -designs Baseline -workloads RSC -loads "$2" \
        -tenant alpha -lane "$1" -stream >/dev/null 2>&1
    pt1="$(date +%s.%N)"
    awk -v a="$pt0" -v b="$pt1" 'BEGIN{printf "%.4f", b-a}'
}
int_lat=(); bat_lat=()
for i in 1 2 3 4; do
    int_lat+=("$(probe interactive "0.15$i")")
    bat_lat+=("$(probe batch "0.16$i")")
done
read -r _ sat_done <<<"$(job_done "$sat_job")"
echo "lane probes: interactive=(${int_lat[*]}) batch=(${bat_lat[*]}) saturator_done=${sat_done:-no}"
while :; do
    read -r _ d <<<"$(job_done "$sat_job")"
    [[ "$d" == "done" ]] && break
    sleep 0.1
done

kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "FAIL: jobs-bench daemon drain exited nonzero"; cat "$tmp/jobsd.log"; exit 1; }
serve_pid=""

lane_stats() { # lane_stats <lat...> -> {"mean_s":..,"worst_s":..,"samples":N}
    awk 'BEGIN { n = ARGC - 1; sum = 0; max = 0
        for (i = 1; i < ARGC; i++) { sum += ARGV[i]; if (ARGV[i] + 0 > max) max = ARGV[i] + 0 }
        printf "{\"samples\": %d, \"mean_s\": %.4f, \"worst_s\": %.4f}", n, sum / n, max
    }' "$@"
}
awk -v scale="$SCALE" -v workers="$JWORKERS" -v envjson="$ENV_JSON" \
    -v sw="$SCHED_WALL" -v fa="$fair_a" -v fb="$fair_b" \
    -v intj="$(lane_stats "${int_lat[@]}")" -v batj="$(lane_stats "${bat_lat[@]}")" 'BEGIN {
    printf "{\n"
    printf "  \"bench\": \"jobstore-scheduler\",\n"
    printf "  %s,\n", envjson
    printf "  \"scale\": %s,\n", scale
    printf "  \"workers\": %d,\n", workers
    printf "  \"tenant_weights\": {\"alpha\": 2, \"beta\": 1},\n"
    printf "  \"scheduler\": {\"cells\": 24, \"wall_seconds\": %s, \"cells_per_sec\": %.3f},\n", sw, 24/sw
    printf "  \"fairness\": {\"mid_run_completed\": {\"alpha\": %d, \"beta\": %d}, \"ratio\": %.2f, \"weight_ratio\": 2.0},\n", fa, fb, (fb > 0 ? fa/fb : fa)
    printf "  \"lane_probe_jobs\": {\"interactive\": %s, \"batch\": %s}\n", intj, batj
    printf "}\n"
}' >"$JOBSOUT"

echo "== $JOBSOUT =="
cat "$JOBSOUT"
fi # jobs

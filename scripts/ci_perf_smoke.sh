#!/usr/bin/env bash
# Parallel- and cycle-engine smoke for CI.
#
# Two byte-identity gates, one fixed-cost gate, one measurement file:
#   1. every parallel driver must produce byte-identical output to its
#      serial (-j1) run;
#   2. every driver must produce byte-identical output under
#      RUU_ENGINE=interp and RUU_ENGINE=compiled — the compiled fast
#      path (src/engine) is only a speedup, never a semantic change;
#   3. a one-shot `ruusim run` of a one-instruction program and of
#      lll01 must each stay under MAX_FIXED_RSS_MIB peak RSS, so a
#      command that builds or copies workloads it does not name fails.
# Wall-clocks of all runs are recorded to a BENCH_perf.json so both
# speedups are tracked over time. Byte-identity is the gate; speed is
# a measurement — shared CI runners cannot promise real cores, so the
# speedup checks only arm when RUU_PERF_REQUIRE_SPEEDUP /
# RUU_PERF_REQUIRE_ENGINE_SPEEDUP are set (e.g. to 2.0). When
# RUU_MICRO_ENGINE points at the bench/micro_engine binary, its --ab
# sweep (all 6 cores x 14 kernels) regenerates bench/BENCH_engine.json
# as part of the smoke, with its own built-in mismatch gate.
#
#   usage: scripts/ci_perf_smoke.sh <ruusim-binary> [workdir] [outfile]
#
# Exit nonzero on the first output deviation.
set -euo pipefail

RUUSIM=${1:?usage: $0 <ruusim-binary> [workdir] [outfile]}
WORKDIR=${2:-$(mktemp -d)}
OUT=${3:-$WORKDIR/BENCH_perf.json}
JOBS=${RUU_PERF_JOBS:-4}
mkdir -p "$WORKDIR"

# Wall-clock a command, appending its stdout+stderr to $2.
timed() {
    local outfile=$1
    shift
    local t0 t1
    t0=$(date +%s.%N)
    "$@" > "$outfile" 2>&1
    t1=$(date +%s.%N)
    awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", b - a }'
}

declare -a JSON_ROWS=()

# check <name> <serial-file> <par-file> <serial-s> <par-s>
check() {
    local name=$1 sfile=$2 pfile=$3 ss=$4 ps=$5
    if ! cmp -s "$sfile" "$pfile"; then
        echo "$name: -j$JOBS output differs from -j1" >&2
        diff "$sfile" "$pfile" | head >&2
        exit 1
    fi
    local speedup
    speedup=$(awk -v s="$ss" -v p="$ps" \
        'BEGIN { printf "%.2f", (p > 0 ? s / p : 0) }')
    echo "  $name: serial ${ss}s, -j$JOBS ${ps}s (${speedup}x), output identical"
    JSON_ROWS+=("{\"driver\": \"$name\", \"serial_seconds\": $ss, \
\"parallel_seconds\": $ps, \"jobs\": $JOBS, \"speedup\": $speedup}")
    if [ -n "${RUU_PERF_REQUIRE_SPEEDUP:-}" ]; then
        awk -v sp="$speedup" -v want="$RUU_PERF_REQUIRE_SPEEDUP" \
            'BEGIN { exit (sp + 0 >= want + 0 ? 0 : 1) }' || {
            echo "$name: speedup ${speedup}x < required ${RUU_PERF_REQUIRE_SPEEDUP}x" >&2
            exit 1
        }
    fi
}

declare -a ENGINE_ROWS=()

# echeck <name> <command...>: run under RUU_ENGINE=interp and
# RUU_ENGINE=compiled; outputs must be byte-identical (hard gate), the
# wall-clock ratio is recorded.
echeck() {
    local name=$1
    shift
    local is cs
    is=$(timed "$WORKDIR/${name}_interp.txt" \
        env RUU_ENGINE=interp "$@")
    cs=$(timed "$WORKDIR/${name}_compiled.txt" \
        env RUU_ENGINE=compiled "$@")
    if ! cmp -s "$WORKDIR/${name}_interp.txt" \
                "$WORKDIR/${name}_compiled.txt"; then
        echo "$name: compiled output differs from interp" >&2
        diff "$WORKDIR/${name}_interp.txt" \
             "$WORKDIR/${name}_compiled.txt" | head >&2
        exit 1
    fi
    local speedup
    speedup=$(awk -v i="$is" -v c="$cs" \
        'BEGIN { printf "%.2f", (c > 0 ? i / c : 0) }')
    echo "  $name: interp ${is}s, compiled ${cs}s (${speedup}x), output identical"
    ENGINE_ROWS+=("{\"driver\": \"$name\", \"interp_seconds\": $is, \
\"compiled_seconds\": $cs, \"speedup\": $speedup}")
    if [ -n "${RUU_PERF_REQUIRE_ENGINE_SPEEDUP:-}" ]; then
        awk -v sp="$speedup" -v want="$RUU_PERF_REQUIRE_ENGINE_SPEEDUP" \
            'BEGIN { exit (sp + 0 >= want + 0 ? 0 : 1) }' || {
            echo "$name: engine speedup ${speedup}x < required ${RUU_PERF_REQUIRE_ENGINE_SPEEDUP}x" >&2
            exit 1
        }
    fi
}

# About twice the peak RSS of a run that builds only the workload it
# names (~21 MiB: the functional and the timing run's 8 MiB memory
# images), and a third of one that builds all 14 kernels (~143 MiB).
MAX_FIXED_RSS_MIB=48

declare -a FIXED_ROWS=()

# fcheck <name> <command...>: run the command five times; record its
# median wall-clock and largest peak RSS (wait4, as perfbench does)
# and fail when that RSS exceeds MAX_FIXED_RSS_MIB.
fcheck() {
    local name=$1 measured secs rss
    shift
    measured=$(python3 - "$@" <<'EOF'
import os, statistics, subprocess, sys, time
walls, rss = [], []
for _ in range(5):
    start = time.perf_counter()
    proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    walls.append(time.perf_counter() - start)
    rss.append(usage.ru_maxrss / 1024.0)
    if os.waitstatus_to_exitcode(status):
        sys.exit("exit status %d" % os.waitstatus_to_exitcode(status))
print("%.4f %.1f" % (statistics.median(walls), max(rss)))
EOF
    ) || { echo "$name: failed" >&2; exit 1; }
    read -r secs rss <<< "$measured"
    echo "  $name: ${secs}s, peak RSS ${rss} MiB"
    FIXED_ROWS+=("{\"command\": \"$name\", \"wall_seconds\": $secs, \
\"peak_rss_mib\": $rss}")
    awk -v r="$rss" -v max="$MAX_FIXED_RSS_MIB" \
        'BEGIN { exit (r + 0 <= max + 0 ? 0 : 1) }' || {
        echo "$name: peak RSS ${rss} MiB > ${MAX_FIXED_RSS_MIB} MiB" >&2
        exit 1
    }
}

echo "== fixed cost: one-shot runs under ${MAX_FIXED_RSS_MIB} MiB peak RSS"
printf '.program halt\n    halt\n' > "$WORKDIR/halt.s"
fcheck "run halt.s --json" "$RUUSIM" run "$WORKDIR/halt.s" --json
fcheck "run lll01 --json" "$RUUSIM" run lll01 --json

echo "== pool-size sweep: -j1 vs -j$JOBS must be byte-identical"
ss=$(timed "$WORKDIR/sweep_serial.txt" "$RUUSIM" sweep suite -j1)
ps=$(timed "$WORKDIR/sweep_par.txt" "$RUUSIM" sweep suite -j"$JOBS")
check sweep "$WORKDIR/sweep_serial.txt" "$WORKDIR/sweep_par.txt" "$ss" "$ps"

echo "== interrupt-sweep verify: -j1 vs -j$JOBS"
ss=$(timed "$WORKDIR/verify_serial.txt" \
    "$RUUSIM" verify lll03 --sweep --points 8 -j1)
ps=$(timed "$WORKDIR/verify_par.txt" \
    "$RUUSIM" verify lll03 --sweep --points 8 -j"$JOBS")
check verify "$WORKDIR/verify_serial.txt" "$WORKDIR/verify_par.txt" \
    "$ss" "$ps"

echo "== interrupt storm: -j1 vs -j$JOBS"
ss=$(timed "$WORKDIR/storm_serial.txt" \
    "$RUUSIM" storm lll03 --points 3 -j1)
ps=$(timed "$WORKDIR/storm_par.txt" \
    "$RUUSIM" storm lll03 --points 3 -j"$JOBS")
check storm "$WORKDIR/storm_serial.txt" "$WORKDIR/storm_par.txt" \
    "$ss" "$ps"

echo "== fault-injection campaign: journals must be byte-identical"
rm -f "$WORKDIR/inject_serial.jsonl" "$WORKDIR/inject_par.jsonl"
ss=$(timed "$WORKDIR/inject_serial.txt" \
    "$RUUSIM" inject lll03 --cores ruu,history --trials 48 --seed 2026 \
    --journal "$WORKDIR/inject_serial.jsonl" --json -j1)
ps=$(timed "$WORKDIR/inject_par.txt" \
    "$RUUSIM" inject lll03 --cores ruu,history --trials 48 --seed 2026 \
    --journal "$WORKDIR/inject_par.jsonl" --json -j"$JOBS")
check inject "$WORKDIR/inject_serial.jsonl" "$WORKDIR/inject_par.jsonl" \
    "$ss" "$ps"
serial_tps=$(grep -o '"trials_per_sec": [0-9.]*' \
    "$WORKDIR/inject_serial.txt" | head -1 | awk '{print $2}')
par_tps=$(grep -o '"trials_per_sec": [0-9.]*' \
    "$WORKDIR/inject_par.txt" | head -1 | awk '{print $2}')
echo "  inject throughput: ${serial_tps} trials/sec serial, ${par_tps} trials/sec -j$JOBS"

echo "== cycle engines: interp vs compiled must be byte-identical"
echeck engine_run "$RUUSIM" run lll03 --core ruu --json
echeck engine_run_spec "$RUUSIM" run lll08 --core spec_ruu --json
echeck engine_sweep "$RUUSIM" sweep lll03 -j1
echeck engine_verify "$RUUSIM" verify lll03 --sweep --points 8 -j"$JOBS"
echeck engine_storm "$RUUSIM" storm lll03 --points 3 -j"$JOBS"

echo "== cycle engines: fault-injection journals (taps pin interp inside"
echo "   each trial; the journal must not depend on the session engine)"
rm -f "$WORKDIR/engine_inject_interp.jsonl" \
      "$WORKDIR/engine_inject_compiled.jsonl"
is=$(timed "$WORKDIR/engine_inject_interp.txt" \
    env RUU_ENGINE=interp \
    "$RUUSIM" inject lll03 --cores ruu,history --trials 48 --seed 2026 \
    --journal "$WORKDIR/engine_inject_interp.jsonl" --json -j"$JOBS")
cs=$(timed "$WORKDIR/engine_inject_compiled.txt" \
    env RUU_ENGINE=compiled \
    "$RUUSIM" inject lll03 --cores ruu,history --trials 48 --seed 2026 \
    --journal "$WORKDIR/engine_inject_compiled.jsonl" --json -j"$JOBS")
if ! cmp -s "$WORKDIR/engine_inject_interp.jsonl" \
            "$WORKDIR/engine_inject_compiled.jsonl"; then
    echo "engine_inject: compiled journal differs from interp" >&2
    diff "$WORKDIR/engine_inject_interp.jsonl" \
         "$WORKDIR/engine_inject_compiled.jsonl" | head >&2
    exit 1
fi
echo "  engine_inject: interp ${is}s, compiled ${cs}s, journals identical"
ENGINE_ROWS+=("{\"driver\": \"engine_inject\", \"interp_seconds\": $is, \
\"compiled_seconds\": $cs, \"speedup\": 1.00}")

if [ -n "${RUU_MICRO_ENGINE:-}" ]; then
    echo "== micro_engine --ab: regenerating bench/BENCH_engine.json"
    "$RUU_MICRO_ENGINE" --ab "$WORKDIR/BENCH_engine.json" \
        --min-ms "${RUU_ENGINE_AB_MIN_MS:-40}"
fi

{
    echo "{"
    echo "  \"bench\": \"par_engine_smoke\","
    echo "  \"jobs\": $JOBS,"
    echo "  \"inject_trials_per_sec_serial\": ${serial_tps:-0},"
    echo "  \"inject_trials_per_sec_parallel\": ${par_tps:-0},"
    echo "  \"fixed_cost\": {"
    echo "    \"max_peak_rss_mib\": $MAX_FIXED_RSS_MIB,"
    echo "    \"runs\": ["
    for i in "${!FIXED_ROWS[@]}"; do
        sep=","
        [ "$i" -eq $((${#FIXED_ROWS[@]} - 1)) ] && sep=""
        echo "      ${FIXED_ROWS[$i]}$sep"
    done
    echo "    ]"
    echo "  },"
    echo "  \"drivers\": ["
    for i in "${!JSON_ROWS[@]}"; do
        sep=","
        [ "$i" -eq $((${#JSON_ROWS[@]} - 1)) ] && sep=""
        echo "    ${JSON_ROWS[$i]}$sep"
    done
    echo "  ],"
    echo "  \"engines\": ["
    for i in "${!ENGINE_ROWS[@]}"; do
        sep=","
        [ "$i" -eq $((${#ENGINE_ROWS[@]} - 1)) ] && sep=""
        echo "    ${ENGINE_ROWS[$i]}$sep"
    done
    echo "  ]"
    echo "}"
} > "$OUT"
echo "== perf smoke passed; timings written to $OUT"

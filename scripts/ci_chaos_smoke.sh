#!/usr/bin/env bash
# Chaos smoke for the durable campaign queue: kill ruusimd at hundreds
# of randomized points — scheduled I/O crashes injected under its own
# persistence (RUU_IO_FAULTS crash_at), SIGKILL mid-campaign, and
# sustained random I/O error rates — and after every single death
# verify that a clean restart recovers the campaign to the byte-exact
# result stream of a cold `ruusim run`. Three invariants:
#
#   1. every daemon death is scheduled (exit 86 = injected crash,
#      exit 0 = drain/stop, SIGKILL where we sent it) — anything else
#      (abort, segfault, unexplained nonzero) fails the smoke;
#   2. recovery is byte-identical, every time, with no resubmission
#      when the campaign was admitted before the cut;
#   3. sustained random I/O errors degrade service (refusals carry
#      diagnostics) but never kill the daemon.
#
# At the end no job worker may remain: a stopped daemon reaps its own,
# and one whose daemon died exits at EOF on its input.
#
#   usage: scripts/ci_chaos_smoke.sh <ruusim-binary> [workdir] [bench-out]
#
# Writes the point counts and recovery tally to bench-out (default
# BENCH_chaos.json in the workdir). Exit nonzero on the first deviation.
set -euo pipefail

RUUSIM=${1:?usage: $0 <ruusim-binary> [workdir] [bench-out]}
WORKDIR=${2:-$(mktemp -d)}
BENCH_OUT=${3:-$WORKDIR/BENCH_chaos.json}
mkdir -p "$WORKDIR"

# One durable state directory for the whole run: every crash lands in
# the same queue journal and cache, so recovery is cumulative — late
# points replay an ever-longer history before serving.
STATE="$WORKDIR/state"
mkdir -p "$STATE"
# The socket lives outside the fault-plan prefix: the shim tortures
# persistence, not the transport.
SOCK="$WORKDIR/ruusimd.sock"
DAEMON_PID=

CRASH_POINTS=${CRASH_POINTS:-104}
KILL_POINTS=${KILL_POINTS:-52}
RATE_POINTS=${RATE_POINTS:-52}

UNSCHEDULED=0
RECOVERIES=0

submit() {
    "$RUUSIM" submit "$@" --socket "$SOCK"
}

start_daemon() {
    # start_daemon [RUU_IO_FAULTS-plan]: the plan, if any, tortures
    # only paths under the state directory.
    if [ -n "${1:-}" ]; then
        RUU_IO_FAULTS="$1:prefix=$STATE" \
            "$RUUSIM" serve --socket "$SOCK" --cache "$STATE/cache" \
            --queue "$STATE/queue.jsonl" -j 2 \
            2>>"$WORKDIR/serve.log" &
    else
        "$RUUSIM" serve --socket "$SOCK" --cache "$STATE/cache" \
            --queue "$STATE/queue.jsonl" -j 2 \
            2>>"$WORKDIR/serve.log" &
    fi
    DAEMON_PID=$!
}

# reap <allowed-codes...>: wait out the daemon and check its exit
# against the scheduled set; anything else is an unscheduled death.
reap() {
    local code=0
    wait "$DAEMON_PID" 2>/dev/null || code=$?
    DAEMON_PID=
    for allowed in "$@"; do
        [ "$code" -eq "$allowed" ] && return 0
    done
    echo "unscheduled daemon death: exit $code (allowed: $*)" >&2
    UNSCHEDULED=$((UNSCHEDULED + 1))
    return 0
}

stop_daemon() {
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        submit --stop >/dev/null 2>&1 || kill "$DAEMON_PID" || true
        wait "$DAEMON_PID" 2>/dev/null || true
    fi
    DAEMON_PID=
}
trap 'stop_daemon' EXIT

# verify_campaign <id> <cold-file> [workload]: on a live clean daemon,
# watch the campaign (resubmitting only if the crash preceded
# admission) and demand the byte-exact cold stream.
verify_campaign() {
    local id=$1 cold=$2 workload=${3:-lll01}
    if ! submit --watch "$id" > "$WORKDIR/got.json" 2>/dev/null; then
        submit --campaign run "$workload" --core ruu --id "$id" \
            > "$WORKDIR/got.json"
    fi
    if ! cmp -s "$cold" "$WORKDIR/got.json"; then
        echo "campaign $id: recovery is not byte-identical" >&2
        diff "$cold" "$WORKDIR/got.json" | head >&2
        exit 1
    fi
    RECOVERIES=$((RECOVERIES + 1))
}

t_start=$(date +%s.%N)

echo "== cold references (no daemon involved)"
"$RUUSIM" run lll01 --core ruu --json > "$WORKDIR/cold_lll01.json"
: > "$WORKDIR/cold_suite.json"
SUITE=$("$RUUSIM" list | awk '/^lll/ {print $1}')
for kernel in $SUITE; do
    "$RUUSIM" run "$kernel" --core ruu --json \
        >> "$WORKDIR/cold_suite.json"
done

echo "== baseline campaign over the whole suite (warms the cache)"
start_daemon
submit --campaign run suite --core ruu --id base > "$WORKDIR/base.json"
cmp -s "$WORKDIR/cold_suite.json" "$WORKDIR/base.json" || {
    echo "baseline suite campaign differs from cold runs" >&2
    exit 1
}
stop_daemon

echo "== phase 1: $CRASH_POINTS scheduled I/O crash points"
for i in $(seq 1 "$CRASH_POINTS"); do
    # Deterministic pseudo-random crash schedule: op 1..26 from the
    # point index, a fresh fault seed per point.
    crash_at=$(( (i * 7919) % 26 + 1 ))
    start_daemon "seed=$i:crash_at=$crash_at"
    # The daemon may die before it ever binds; only talk to it if it
    # is still breathing (the client's bounded connect retry would
    # otherwise burn seconds per dead socket).
    if kill -0 "$DAEMON_PID" 2>/dev/null; then
        submit --campaign run lll01 --core ruu --id "c$i" \
            >/dev/null 2>&1 || true
    fi
    if kill -0 "$DAEMON_PID" 2>/dev/null; then
        submit --stop >/dev/null 2>&1 || true
    fi
    reap 86 0

    start_daemon
    verify_campaign "c$i" "$WORKDIR/cold_lll01.json"
    stop_daemon
done

echo "== phase 2: $KILL_POINTS SIGKILL points"
for i in $(seq 1 "$KILL_POINTS"); do
    start_daemon
    submit --campaign run lll01 --core ruu --id "k$i" \
        >/dev/null 2>&1 &
    CLIENT_PID=$!
    # Vary the cut point across the submit/expand/dispatch window.
    sleep "0.0$(( (i * 37) % 10 ))"
    kill -9 "$DAEMON_PID" 2>/dev/null || true
    reap 137
    wait "$CLIENT_PID" 2>/dev/null || true

    start_daemon
    verify_campaign "k$i" "$WORKDIR/cold_lll01.json"
    stop_daemon
done

echo "== phase 3: $RATE_POINTS sustained random-error points"
STARTUP_REFUSALS=0
for i in $(seq 1 "$RATE_POINTS"); do
    start_daemon "seed=$((i + 5000)):rate=64"
    status=0
    submit --campaign run lll01 --core ruu --id "e$i" \
        >/dev/null 2>"$WORKDIR/rate.log" || status=$?
    if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
        # An injected error during queue recovery makes the daemon
        # refuse to start with a diagnostic (exit 2) — the documented
        # unusable-environment path, not a death.
        STARTUP_REFUSALS=$((STARTUP_REFUSALS + 1))
        reap 2
        continue
    fi
    # Live daemon: degraded service may refuse admission (status 1)
    # or serve through the failures (status 0); a connection-level
    # failure against a live daemon breaks the phase invariant.
    if [ "$status" -ne 0 ] && [ "$status" -ne 1 ]; then
        echo "rate point $i: client status $status, daemon alive" >&2
        UNSCHEDULED=$((UNSCHEDULED + 1))
    fi
    submit --ping >/dev/null
    stop_daemon
done

echo "== final recovery: the cumulative journal replays cleanly"
start_daemon
verify_campaign base "$WORKDIR/cold_suite.json" suite
recovered=$(submit --status |
    sed -n 's/.*"units_recovered": \([0-9]*\).*/\1/p')
stop_daemon

if [ "$UNSCHEDULED" -ne 0 ]; then
    echo "chaos smoke failed: $UNSCHEDULED unscheduled daemon deaths" >&2
    exit 1
fi

# Workers keep the daemons' session; a zombie no longer shows its
# command line, so it does not match.
for _ in $(seq 100); do
    LEFT=$(pgrep -s 0 -f __serve-worker || true)
    [ -z "$LEFT" ] && break
    sleep 0.1
done
if [ -n "$LEFT" ]; then
    echo "chaos smoke failed: job workers remain:" $LEFT >&2
    exit 1
fi

t_end=$(date +%s.%N)
POINTS=$((CRASH_POINTS + KILL_POINTS + RATE_POINTS))
wall=$(awk -v a="$t_start" -v b="$t_end" 'BEGIN {printf "%.1f", b - a}')
printf '{"points": %d, "crash_points": %d, "kill_points": %d, "rate_points": %d, "recoveries": %d, "startup_refusals": %d, "unscheduled_deaths": %d, "units_recovered": %d, "wall_seconds": %s}\n' \
    "$POINTS" "$CRASH_POINTS" "$KILL_POINTS" "$RATE_POINTS" \
    "$RECOVERIES" "$STARTUP_REFUSALS" "$UNSCHEDULED" \
    "${recovered:-0}" "$wall" > "$BENCH_OUT"

echo "== chaos smoke passed ($POINTS fault points, $RECOVERIES" \
     "byte-identical recoveries, 0 unscheduled deaths)"

#!/usr/bin/env bash
# Operator-CLI round trip against a real `thriftyd`, exactly as a
# deployer would drive it: start a sim-clock daemon, wait for it to
# serve, register a tenant, advance quiesced log time until it is
# routable, do the same for the largest tenant id and check the daemon's
# peak RSS stays under 64 MB, hot-reload with one accepted knob and one
# rejected knob, read telemetry, stop, and require a clean exit with the
# socket gone.
#
# Usage: scripts/daemon_smoke.sh [path-to-thriftyd]
# (CI runs it after `cargo build --release -p thrifty-daemon`.)
set -euxo pipefail

BIN=${1:-target/release/thriftyd}
DIR=$(mktemp -d)
export THRIFTYD_SOCKET="$DIR/thriftyd.sock"
trap 'rm -rf "$DIR"' EXIT

"$BIN" init-config > "$DIR/thriftyd.json"
"$BIN" start --config "$DIR/thriftyd.json" --sim-clock &
DAEMON=$!

for _ in $(seq 1 100); do
  if "$BIN" ping 2>/dev/null; then break; fi
  sleep 0.1
done
"$BIN" ping
"$BIN" status | grep 'clock sim'
"$BIN" status | grep 'all routable'

# Register: the tenant parks and bulk-loads; an hour of quiesced log
# time is far beyond the calibrated load latency, after which it must
# be routable.
"$BIN" tenant register --id 50 --nodes 2 --data-gb 60.0
"$BIN" quiesce --ms 3600000
"$BIN" status | grep -E 'tenant +50 .*routable'
"$BIN" status | grep 'all routable'
"$BIN" submit --tenant 50 --template 2 --data-gb 30.0 --nodes 2
"$BIN" quiesce --ms 600000

# Tenant ids are arbitrary u32s: the largest one registers and serves
# like any other, and the daemon stays small, which a table indexed by
# the raw id (4 billion entries) could not.
"$BIN" tenant register --id 4294967295 --nodes 2 --data-gb 60.0
"$BIN" quiesce --ms 3600000
"$BIN" status | grep -E 'tenant +4294967295 .*routable'
"$BIN" submit --tenant 4294967295 --template 2 --data-gb 30.0 --nodes 2
"$BIN" quiesce --ms 600000
hwm_kb=$(awk '/^VmHWM:/ { print $2 }' "/proc/$DAEMON/status")
echo "thriftyd peak RSS: ${hwm_kb} kB"
test "$hwm_kb" -lt $((64 * 1024))

# Hot-reload: sla_p is a live knob (applied); monitor_window_ms is
# deploy-time (rejected with a structured reason).
sed -i \
  -e 's/"sla_p": 0.999/"sla_p": 0.99/' \
  -e 's/"monitor_window_ms": 14400000/"monitor_window_ms": 28800000/' \
  "$DIR/thriftyd.json"
grep '"sla_p": 0.99,' "$DIR/thriftyd.json"   # the edit took
"$BIN" reload | tee "$DIR/reload.out"
grep '^applied  sla_p' "$DIR/reload.out"
grep '^rejected monitor_window_ms' "$DIR/reload.out"

# Telemetry reconciles with everything this script did.
"$BIN" telemetry | tee "$DIR/telemetry.json"
grep -E '"config.reloads": *1' "$DIR/telemetry.json"
grep -E '"config.knobs_applied": *1' "$DIR/telemetry.json"
grep -E '"config.knobs_rejected": *1' "$DIR/telemetry.json"
grep -E '"tenants.registered": *2' "$DIR/telemetry.json"
grep -E '"queries.completed": *2' "$DIR/telemetry.json"

"$BIN" stop
wait "$DAEMON"
test ! -e "$THRIFTYD_SOCKET"
echo "daemon smoke: full round trip passed"

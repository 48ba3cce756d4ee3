#!/usr/bin/env bash
# serve-smoke.sh — the kill -9 contract, end to end, on the real binary.
#
# The in-process tests (internal/serve) prove restart-resume with a
# forged crash state; this script proves it with an actual SIGKILL:
#
#   1. run a reference sweep on daemon A, uninterrupted;
#   2. submit the same sweep to daemon B, SIGKILL it mid-run (some
#      cells journaled, some mid-flight, possibly a torn temp file);
#   3. restart daemon B over the same data directory, wait for done;
#   4. assert B's artifacts are byte-for-byte identical to A's and
#      that at least one cell was resumed from the journal;
#   5. smoke the macsim -submit client (SSE stream) against the
#      survivor and scrape /metrics (Prometheus text; exported to
#      $SERVE_SMOKE_METRICS_OUT when set, for the CI artifact).
#
# Run by `make serve` and the CI serve step. Needs only curl + coreutils.
set -euo pipefail

cd "$(dirname "$0")/.."

port=${SERVE_SMOKE_PORT:-8457}
tmp=$(mktemp -d)
pid=""
cleanup() {
	[ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

say() { echo "serve-smoke: $*"; }
die() { say "FAIL: $*" >&2; exit 1; }

go build -o "$tmp/dcfserved" ./cmd/dcfserved
go build -o "$tmp/macsim" ./cmd/macsim

base="http://127.0.0.1:$port"

# start <datadir> — launch the daemon and wait for /healthz.
start() {
	"$tmp/dcfserved" -addr "127.0.0.1:$port" -data "$1" -workers 1 \
		>>"$tmp/daemon.log" 2>&1 &
	pid=$!
	for _ in $(seq 1 100); do
		curl -fsS "$base/healthz" >/dev/null 2>&1 && return 0
		kill -0 "$pid" 2>/dev/null || die "daemon exited at startup (see $tmp/daemon.log)"
		sleep 0.05
	done
	die "daemon never became healthy"
}

# stop — graceful SIGTERM drain, so daemon A journals everything.
stop() {
	kill -TERM "$pid" 2>/dev/null || true
	wait "$pid" 2>/dev/null || true
	pid=""
}

# field <name> — extract a numeric/string JSON field from stdin. The
# status document is indented one-field-per-line, so a line-anchored sed
# stays honest without needing jq on the CI image.
field() { sed -n 's/.*"'"$1"'": *"\{0,1\}\([a-z0-9-]*\)"\{0,1\},\{0,1\}$/\1/p' | head -1; }

status() { curl -fsS "$base/jobs/smoke"; }

# 24 serial cells of the Figure-9 random topology: long enough that a
# SIGKILL a few cells in is always mid-run, short enough for CI.
spec='{"name":"smoke","scenario":{"name":"random-40-v2","topo":{"kind":"random","nodes":40,"mis":5},"pm":80,"duration":"2s","channel":"v2"},"seeds":24}'

submit() {
	code=$(curl -s -o "$tmp/submit.json" -w '%{http_code}' \
		-X POST -H 'Content-Type: application/json' -d "$spec" "$base/jobs")
	[ "$code" = 202 ] || die "submit returned HTTP $code: $(cat "$tmp/submit.json")"
}

wait_done() {
	for _ in $(seq 1 600); do
		state=$(status | field state)
		case "$state" in
		done) return 0 ;;
		failed | degraded) die "job ended $state" ;;
		esac
		sleep 0.1
	done
	die "job never finished"
}

say "reference run (uninterrupted)"
start "$tmp/ref"
submit
wait_done
stop

say "crash run: SIGKILL mid-sweep"
start "$tmp/crash"
submit
killed_at=-1
for _ in $(seq 1 600); do
	done_cells=$(status | field done)
	if [ "${done_cells:-0}" -ge 2 ]; then
		killed_at=$done_cells
		break
	fi
	sleep 0.02
done
[ "$killed_at" -ge 0 ] || die "job never reached 2 done cells"
[ "$killed_at" -lt 24 ] || die "job already complete at kill time (workload too short)"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
say "killed daemon at $killed_at/24 cells"

say "restart over the same data dir"
start "$tmp/crash"
wait_done
resumed=$(status | field resumed)
[ "${resumed:-0}" -ge 1 ] || die "restart re-ran everything (resumed=$resumed); journal resume is broken"
say "recovered: $resumed cells resumed from the journal"

say "byte-compare artifacts"
for f in aggregate.json results.csv results.json; do
	cmp "$tmp/ref/jobs/smoke/artifacts/$f" "$tmp/crash/jobs/smoke/artifacts/$f" ||
		die "artifact $f differs after kill -9 + restart"
done

say "macsim -submit client smoke (SSE stream)"
"$tmp/macsim" -submit "$base" -job client-smoke -random 40 -mis 5 -pm 80 \
	-duration 2s -csv "$tmp/client.csv" >/dev/null 2>"$tmp/follow.log"
[ -s "$tmp/client.csv" ] || die "client downloaded an empty results.csv"
grep -q '^state: done' "$tmp/follow.log" || die "-submit never streamed the terminal state event"
grep -q '^cell ' "$tmp/follow.log" || die "-submit streamed no cell events"

say "scrape /metrics (Prometheus exposition)"
curl -fsS "$base/metrics" >"$tmp/metrics.prom" || die "/metrics scrape failed"
grep -q '^# TYPE dcf_serve_jobs_submitted_total counter' "$tmp/metrics.prom" ||
	die "/metrics is not Prometheus text (no dcf_serve_ TYPE line)"
grep -q '^dcf_serve_cells_run_total ' "$tmp/metrics.prom" ||
	die "/metrics lost the cells_run counter"
if [ -n "${SERVE_SMOKE_METRICS_OUT:-}" ]; then
	cp "$tmp/metrics.prom" "$SERVE_SMOKE_METRICS_OUT"
	say "metrics snapshot saved to $SERVE_SMOKE_METRICS_OUT"
fi

stop
say "OK: kill -9 mid-sweep, restart, byte-identical artifacts ($resumed resumed)"

#!/bin/sh
# serve_smoke.sh — end-to-end smoke of the live query API.
#
# Usage: serve_smoke.sh <donorsense-binary> <queryload-binary>
#
# Starts a replayed stream with light injected faults and a
# `collect -serve -checkpoint` consumer with fast reconnects, polls the
# query API until it answers 200, asserts a 304 If-None-Match
# revalidation, then drives queryload for 5 seconds in strict mode. Once
# the collector has stopped, the replay must log its `replay finished`
# record, and `donorsense serve` over the checkpoint gets the same checks
# and 2 seconds of strict queryload.
set -eu

DS=$1
QL=$2
TMP=$(mktemp -d)
REPLAY_PID=""
COLLECT_PID=""
SERVE_PID=""
cleanup() {
	[ -n "$COLLECT_PID" ] && kill "$COLLECT_PID" 2>/dev/null || true
	[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
	[ -n "$REPLAY_PID" ] && kill "$REPLAY_PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT

REPLAY_PORT=$((20000 + $$ % 10000))
API_PORT=$((31000 + $$ % 10000))
SERVE_PORT=$((41000 + $$ % 10000))

# wait_200 <base> <stderr-log>: poll the query API to 200 (404 until the
# first snapshot publishes, connection refused until the listener is up).
wait_200() {
	code=000
	i=0
	while [ "$i" -lt 150 ]; do
		code=$(curl -s -o /dev/null -w '%{http_code}' "$1/api/epoch" || echo 000)
		[ "$code" = 200 ] && break
		i=$((i + 1))
		sleep 0.2
	done
	if [ "$code" != 200 ]; then
		echo "serve-smoke: $1/api/epoch never answered 200 (last status $code)" >&2
		cat "$2" >&2
		exit 1
	fi
	echo "serve-smoke: $1/api/epoch answered 200"
}

# check_304 <base>: an If-None-Match revalidation answers 304. A refresh
# may republish between the two GETs (the ETag moves), so retry the pair
# a few times; one stable window suffices.
check_304() {
	ok304=""
	i=0
	while [ "$i" -lt 10 ]; do
		etag=$(curl -s -D - -o /dev/null "$1/api/epoch" | tr -d '\r' |
			awk -F': ' 'tolower($1)=="etag"{print $2}')
		code=$(curl -s -o /dev/null -w '%{http_code}' \
			-H "If-None-Match: $etag" "$1/api/epoch")
		if [ "$code" = 304 ]; then
			ok304=yes
			break
		fi
		i=$((i + 1))
		sleep 0.3
	done
	if [ -z "$ok304" ]; then
		echo "serve-smoke: $1 never answered a 304 revalidation" >&2
		exit 1
	fi
	echo "serve-smoke: If-None-Match re-GET on $1 answered 304"
}

"$DS" generate -scale 0.01 -seed 7 -out "$TMP/corpus.ndjson" 2>/dev/null

# Throttled replay so the stream outlives the whole smoke; the collector
# keeps refreshing (and republishing snapshots) while queryload runs. The
# stream injects stalls, disconnects, bad lines and 420/503 answers, so
# the collector reconnects throughout.
"$DS" replay -in "$TMP/corpus.ndjson" -addr "127.0.0.1:$REPLAY_PORT" -rate 150 \
	-fault-rate 0.005 -stall 300ms -ratelimit 0.02 -servererr 0.02 -retry-after 100ms \
	>"$TMP/replay.log" 2>&1 &
REPLAY_PID=$!

"$DS" collect -url "http://127.0.0.1:$REPLAY_PORT" \
	-stall-timeout 200ms -backoff 50ms -ratelimit-backoff 100ms \
	-telemetry-addr "127.0.0.1:$API_PORT" -report-every 1s -serve \
	-checkpoint "$TMP/collect.ckpt" \
	-k 6 -sweep '' -silhouette-sample 0 -progress-every 0 \
	>"$TMP/collect.out" 2>"$TMP/collect.err" &
COLLECT_PID=$!

wait_200 "http://127.0.0.1:$API_PORT" "$TMP/collect.err"
check_304 "http://127.0.0.1:$API_PORT"
"$QL" -base "http://127.0.0.1:$API_PORT" -duration 5s -c 4 -etag -strict

# Graceful shutdown: SIGTERM must end the collector cleanly (it saves
# its checkpoint and prints its final analysis on the way out).
kill -TERM "$COLLECT_PID"
wait "$COLLECT_PID"
COLLECT_PID=""
kill -TERM "$REPLAY_PID" 2>/dev/null || true
wait "$REPLAY_PID" 2>/dev/null || true
REPLAY_PID=""
if ! grep 'msg="replay finished"' "$TMP/replay.log"; then
	echo "serve-smoke: replay logged no replay finished record" >&2
	cat "$TMP/replay.log" >&2
	exit 1
fi

# The standalone server over the collector's checkpoint goes through the
# same live step.
"$DS" serve -checkpoint "$TMP/collect.ckpt" -addr "127.0.0.1:$SERVE_PORT" \
	-reload-every 0 -k 6 -silhouette-sample 0 \
	>"$TMP/serve.out" 2>"$TMP/serve.err" &
SERVE_PID=$!
wait_200 "http://127.0.0.1:$SERVE_PORT" "$TMP/serve.err"
check_304 "http://127.0.0.1:$SERVE_PORT"
"$QL" -base "http://127.0.0.1:$SERVE_PORT" -duration 2s -c 4 -etag -strict
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
echo "serve-smoke: OK"

#!/usr/bin/env sh
# load_smoke.sh [OUT.json]
#
# End-to-end load smoke for the serving layer: build smpserve and smpbench,
# start the server with the document cache on, drive it with the smpbench
# -serve closed-loop harness (duplicate-document traffic: many concurrent
# requests for one hot document), and append one serve-mode latency point
# to OUT.json (default BENCH_loadsmoke.json).
#
# The harness compares every response byte-for-byte against a reference
# the library projects in-process, so this script is the CI gate for
# response equivalence: any response that diverges from
# smp.Prefilter.Project exits non-zero.
#
# The script also smokes the observability surface: /metrics is scraped
# before and after the load and checked for well-formedness and counter
# monotonicity (scripts/metricscheck), and a 1-second CPU profile is pulled
# from the -pprof admin listener.
set -eu
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_loadsmoke.json}"
ADDR="127.0.0.1:18190"
PPROF_ADDR="127.0.0.1:18191"

go build -o /tmp/load_smoke_smpserve ./cmd/smpserve
go build -o /tmp/load_smoke_smpbench ./cmd/smpbench
go build -o /tmp/load_smoke_metricscheck ./scripts/metricscheck

/tmp/load_smoke_smpserve -addr "$ADDR" -pprof "$PPROF_ADDR" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT INT TERM

# Wait for the listener (up to ~5s).
i=0
until curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "load_smoke: smpserve did not come up on $ADDR" >&2
        exit 1
    fi
    sleep 0.1
done

# Pre-load scrape: the exposition must be well-formed even on a cold server.
curl -sf "http://$ADDR/metrics" > /tmp/load_smoke_metrics_pre.txt

# A 1-second CPU profile from the admin listener, concurrent with the load:
# pprof must answer a non-trivial protobuf while the server is busy.
curl -sf -o /tmp/load_smoke_profile.pb \
    "http://$PPROF_ADDR/debug/pprof/profile?seconds=1" &
PPROF_PID=$!

/tmp/load_smoke_smpbench -serve "http://$ADDR" \
    -conns 8 -duration 2s -dup 1.0 \
    -json "$OUT" -note "load smoke"

wait "$PPROF_PID"
if [ ! -s /tmp/load_smoke_profile.pb ]; then
    echo "load_smoke: pprof profile came back empty" >&2
    exit 1
fi

# Post-load scrape: still well-formed, and no counter went backwards.
curl -sf "http://$ADDR/metrics" > /tmp/load_smoke_metrics_post.txt
/tmp/load_smoke_metricscheck /tmp/load_smoke_metrics_pre.txt /tmp/load_smoke_metrics_post.txt

# Graceful shutdown, so the drain path gets exercised too.
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
trap - EXIT INT TERM

echo "load_smoke: ok (trajectory point appended to $OUT)"

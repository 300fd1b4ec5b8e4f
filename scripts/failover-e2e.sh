#!/usr/bin/env bash
# failover-e2e.sh — fault-injection end-to-end test for the cluster roster.
#
# Brings up a 3-member roster, floods it through the failover-aware load
# generator, kill -9s the sitting leader mid-run, and asserts:
#   - a successor takes leadership within 5s (prio_cluster_leader on /metrics)
#   - the load run completes with a closed loss ledger and >=1 failover
#   - the restarted member rejoins as a follower
#
# Runs locally (./scripts/failover-e2e.sh) and in the CI failover job.
# Plaintext transport: the subject here is failover, not TLS.
set -euo pipefail

WORK="$(mktemp -d)"
BIN="${WORK}/bin"
mkdir -p "${BIN}"
ROSTER="127.0.0.1:7300,127.0.0.1:7301,127.0.0.1:7302"
ADMIN=(127.0.0.1:7390 127.0.0.1:7391 127.0.0.1:7392)

pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    kill "${pid}" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "${WORK}"
}
trap cleanup EXIT

echo "== build"
go build -o "${BIN}/prio-server" ./cmd/prio-server
go build -o "${BIN}/prio-load" ./cmd/prio-load

start_member() { # start_member <index>
  local i="$1"
  "${BIN}/prio-server" -roster "${ROSTER}" -index "${i}" \
    -listen "127.0.0.1:730${i}" -admin-addr "${ADMIN[$i]}" \
    -key-file "${WORK}/key${i}" -tls=false \
    -ping-interval 200ms -fail-after 3 -batch-retries 3 \
    >"${WORK}/server${i}.log" 2>&1 &
  pids+=($!)
  eval "PID${i}=$!"
}

scrape_leader() { # scrape_leader <admin-addr> -> prints the gauge value or ""
  curl -sf "http://$1/metrics" 2>/dev/null |
    awk '$1 == "prio_cluster_leader" { print $2 }' || true
}

echo "== start 3-member roster"
for i in 0 1 2; do start_member "${i}"; done

echo "== wait for member 0 to take initial leadership"
deadline=$((SECONDS + 15))
until [ "$(scrape_leader "${ADMIN[1]}")" = "0" ]; do
  [ "${SECONDS}" -lt "${deadline}" ] || { echo "FAIL: no initial leader"; exit 1; }
  sleep 0.2
done

echo "== start failover load run"
"${BIN}/prio-load" -roster "${ROSTER}" -tls=false \
  -scheme sum8 -streams 2 -duration 10s -max-attempts 8 \
  >"${WORK}/load.out" 2>"${WORK}/load.err" &
LOAD_PID=$!
pids+=("${LOAD_PID}")

sleep 3
echo "== kill -9 the leader (member 0) mid-run"
kill -9 "${PID0}"

echo "== successor must hold leadership within 5s"
deadline=$((SECONDS + 5))
until [ "$(scrape_leader "${ADMIN[1]}")" = "1" ] &&
      [ "$(scrape_leader "${ADMIN[2]}")" = "1" ]; do
  [ "${SECONDS}" -lt "${deadline}" ] || {
    echo "FAIL: no successor within 5s"
    echo "--- member 1:"; curl -sf "http://${ADMIN[1]}/metrics" | grep ^prio_cluster || true
    echo "--- member 2:"; curl -sf "http://${ADMIN[2]}/metrics" | grep ^prio_cluster || true
    exit 1
  }
  sleep 0.2
done

echo "== restart member 0 (same key file); it must rejoin as follower"
start_member 0
sleep 2
lead0="$(scrape_leader "${ADMIN[0]}")"
if [ "${lead0}" != "1" ]; then
  echo "FAIL: restarted member sees leader=${lead0}, want 1"
  exit 1
fi

echo "== wait for the load run"
wait "${LOAD_PID}" || { echo "FAIL: prio-load exited nonzero"; cat "${WORK}/load.err"; exit 1; }
cat "${WORK}/load.out"

echo "== assert the loss ledger closed across the failover"
grep -q '^ledger=closed$' "${WORK}/load.out" || { echo "FAIL: ledger open"; exit 1; }
grep -Eq 'failovers=[1-9][0-9]*' "${WORK}/load.out" || { echo "FAIL: no failover recorded"; exit 1; }
grep -Eq 'accepted=[1-9][0-9]*' "${WORK}/load.out" || { echo "FAIL: nothing accepted"; exit 1; }

echo "== assert the successor's ingest counters saw the re-targeted streams"
curl -sf "http://${ADMIN[1]}/metrics" >"${WORK}/metrics1.out"
curl -sf "http://${ADMIN[2]}/metrics" >"${WORK}/metrics2.out"
grep -Eq '^prio_ingest_accepted_total [1-9][0-9]*' "${WORK}/metrics1.out" || {
  echo "FAIL: successor accepted nothing"; exit 1; }
# Whichever survivor first observed the leader death counted the failover;
# the other adopted the bumped epoch via gossip. Either is a valid witness.
grep -Eqh '^prio_cluster_failovers_total [1-9][0-9]*' \
  "${WORK}/metrics1.out" "${WORK}/metrics2.out" || {
  echo "FAIL: no survivor counted a failover"; exit 1; }

echo "PASS: failover e2e"

#!/usr/bin/env bash
# window-restart-e2e.sh — crash-recovery end-to-end test for windowed
# aggregation with durable checkpoints.
#
# Brings up a 3-member roster with -window collection windows, DP-noised
# releases, and per-member checkpoint directories; floods it through the
# failover-aware load generator; kill -9s the sitting leader mid-window;
# restarts it; and asserts:
#   - windows keep publishing after the leader death (the close duty moved
#     with the leadership)
#   - the restarted member recovers its accumulator state from the newest
#     checkpoint (boot log provenance)
#   - every published window carries DP noise with its epsilon, and no
#     member prints any other aggregate (the all-time one is refused)
#   - a fully post-restart window publishes with consistent per-server
#     counts — at most the in-flight window was damaged by the crash
#
# Runs locally (./scripts/window-restart-e2e.sh) and in the CI
# window-restart job. Plaintext transport: the subject is durability.
set -euo pipefail

WORK="$(mktemp -d)"
BIN="${WORK}/bin"
mkdir -p "${BIN}"
ROSTER="127.0.0.1:7500,127.0.0.1:7501,127.0.0.1:7502"
ADMIN=(127.0.0.1:7590 127.0.0.1:7591 127.0.0.1:7592)
WINDOW=4s

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
    -listen "127.0.0.1:750${i}" -admin-addr "${ADMIN[$i]}" \
    -key-file "${WORK}/key${i}" -tls=false \
    -ping-interval 200ms -fail-after 3 -batch-retries 3 \
    -window "${WINDOW}" -checkpoint-dir "${WORK}/ckpt${i}" -checkpoint-every 1s \
    -dp-epsilon 1.0 -dp-budget 100 >>"${WORK}/server${i}.log" 2>&1 &
  pids+=($!)
  eval "PID${i}=$!"
}

scrape() { # scrape <admin-addr> <metric> -> prints the value or ""
  curl -sf "http://$1/metrics" 2>/dev/null |
    awk -v m="$2" '$1 == m { print $2 }' || true
}

echo "== start 3-member roster (window=${WINDOW}, checkpoints every 1s)"
for i in 0 1 2; do start_member "${i}"; done

echo "== wait for member 0 to take initial leadership"
deadline=$((SECONDS + 15))
until [ "$(scrape "${ADMIN[1]}" prio_cluster_leader)" = "0" ]; do
  [ "${SECONDS}" -lt "${deadline}" ] || { echo "FAIL: no initial leader"; exit 1; }
  sleep 0.2
done

echo "== start failover load run with its own per-window ledger"
"${BIN}/prio-load" -roster "${ROSTER}" -tls=false \
  -scheme sum8 -streams 2 -duration 20s -max-attempts 10 \
  -window "${WINDOW}" \
  >"${WORK}/load.out" 2>"${WORK}/load.err" &
LOAD_PID=$!
pids+=("${LOAD_PID}")

echo "== let at least one window publish and checkpoints accumulate"
deadline=$((SECONDS + 12))
until grep -q '^window ' "${WORK}/server0.log" 2>/dev/null; do
  [ "${SECONDS}" -lt "${deadline}" ] || {
    echo "FAIL: leader never published a window"; cat "${WORK}/server0.log"; exit 1; }
  sleep 0.3
done

echo "== kill -9 the leader (member 0) mid-window"
kill -9 "${PID0}"

echo "== a successor must take leadership"
deadline=$((SECONDS + 10))
until [ "$(scrape "${ADMIN[1]}" prio_cluster_leader)" = "1" ] &&
      [ "$(scrape "${ADMIN[2]}" prio_cluster_leader)" = "1" ]; do
  [ "${SECONDS}" -lt "${deadline}" ] || { echo "FAIL: no successor within 10s"; exit 1; }
  sleep 0.2
done

echo "== restart member 0; it must recover from its checkpoint"
start_member 0
deadline=$((SECONDS + 10))
until grep -q 'window state recovered from checkpoint' "${WORK}/server0.log"; do
  [ "${SECONDS}" -lt "${deadline}" ] || {
    echo "FAIL: restarted member did not recover from checkpoint"
    tail -n 10 "${WORK}/server0.log"; exit 1; }
  sleep 0.2
done

echo "== the successor must publish windows (catching up those blocked by the outage)"
deadline=$((SECONDS + 20))
until grep -q '^window ' "${WORK}/server1.log" 2>/dev/null; do
  [ "${SECONDS}" -lt "${deadline}" ] || {
    echo "FAIL: the successor published no window after taking over"
    tail -n 5 "${WORK}/server1.log"; tail -n 5 "${WORK}/server2.log"; exit 1; }
  sleep 0.3
done

echo "== wait for the load run"
wait "${LOAD_PID}" || { echo "FAIL: prio-load exited nonzero"; cat "${WORK}/load.err"; exit 1; }
cat "${WORK}/load.out"

echo "== wait for a fully post-restart window to close"
sleep 6

echo "== assert: released windows carry DP noise with epsilon"
cat "${WORK}"/server*.log | grep '^window ' || true
grep -Eq '^window [0-9]+ .*noised=true eps=1' "${WORK}/server0.log" ||
  grep -Eqh '^window [0-9]+ .*noised=true eps=1' "${WORK}/server1.log" "${WORK}/server2.log" || {
  echo "FAIL: no noised window release found"; exit 1; }

echo "== assert: every aggregate a member printed is a noised window ledger line"
if grep -Eh 'sum=|raw=|aggregate' "${WORK}"/server*.log |
    grep -Ev '^window [0-9]+ .*noised=true eps=1'; then
  echo "FAIL: an aggregate line above is not a noised window release"; exit 1
fi

echo "== assert: the client-side ledger closed and saw per-window lines"
grep -q '^ledger=closed$' "${WORK}/load.out" || { echo "FAIL: ledger open"; exit 1; }
grep -Eq '^window [0-9]+ (closed|partial): acked=' "${WORK}/load.out" || {
  echo "FAIL: prio-load printed no per-window ledger"; exit 1; }
grep -Eq 'accepted=[1-9][0-9]*' "${WORK}/load.out" || { echo "FAIL: nothing accepted"; exit 1; }

echo "== assert: a consistent (undamaged) window published after the restart"
deadline=$((SECONDS + 20))
ok=""
while [ "${SECONDS}" -lt "${deadline}" ]; do
  # The newest ledger lines on whichever member leads; a window published
  # after all three members are healthy again must not be flagged
  # INCONSISTENT. Look for any post-restart window line without the flag.
  if tail -n 3 "${WORK}/server1.log" "${WORK}/server2.log" 2>/dev/null |
      grep -E '^window [0-9]+ ' | grep -qv 'INCONSISTENT'; then
    ok=1; break
  fi
  sleep 0.5
done
[ -n "${ok}" ] || { echo "FAIL: every post-restart window inconsistent"; exit 1; }

echo "== assert: checkpoint and window metrics are live on the restarted member"
curl -sf "http://${ADMIN[0]}/metrics" >"${WORK}/metrics0.out"
grep -Eq '^prio_window_checkpoints_total [1-9][0-9]*' "${WORK}/metrics0.out" || {
  echo "FAIL: restarted member wrote no checkpoints"; exit 1; }
grep -Eq '^prio_window_current [1-9][0-9]*' "${WORK}/metrics0.out" || {
  echo "FAIL: no current window gauge"; exit 1; }
grep -Eq '^prio_window_dp_epsilon_spent [0-9]' "${WORK}/metrics0.out" || {
  echo "FAIL: no DP ledger gauge"; exit 1; }

echo "== assert: /aggregates serves the release history on the leader"
lead="$(scrape "${ADMIN[1]}" prio_cluster_leader)"
curl -sf "http://${ADMIN[$lead]}/aggregates" >"${WORK}/aggregates.out" || {
  echo "FAIL: /aggregates unreachable on leader (member ${lead})"; exit 1; }
grep -q '"noised": true' "${WORK}/aggregates.out" || {
  echo "FAIL: /aggregates shows no noised window"; cat "${WORK}/aggregates.out"; exit 1; }
grep -q '"epsilon": 1' "${WORK}/aggregates.out" || {
  echo "FAIL: /aggregates shows no epsilon"; cat "${WORK}/aggregates.out"; exit 1; }

echo "PASS: window restart e2e"

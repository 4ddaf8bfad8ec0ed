#!/bin/sh
# Daemon kill-and-resume smoke test: boot explorefaultd, POST a small
# gift64 discovery job, SIGTERM the daemon mid-run, restart it on the
# same data directory, and require the resumed job's result document to
# be byte-identical to the same job run on an uninterrupted daemon —
# and the normalized event streams (episode events, timestamps and
# sequence numbers stripped, overlap deduplicated) to match exactly.
# A second scenario SIGKILLs the daemon mid-job instead and appends the
# first bytes of a delta record to its job table, as a crash mid-append
# leaves it: the restarted daemon must report the dropped bytes and
# still finish the job with the reference result.
#
# Robust by construction: if the job finishes before the signal lands,
# the restart path degenerates to "load a done job", which still has to
# produce the reference result.
set -eu

GO=${GO:-go}
DIR=$(mktemp -d)
trap 'kill $DPID 2>/dev/null || true; rm -rf "$DIR"' EXIT
DPID=""

BIN="$DIR/explorefaultd"
$GO build -o "$BIN" ./cmd/explorefaultd

JOB='{"type":"discover","name":"smoke","config":{"cipher":"gift64","round":25,"episodes":96,"samples":128,"seed":7,"checkpoint_every":8}}'

# start_daemon <datadir> <logfile> [<events>]: boots the daemon on an
# ephemeral port, waits for the startup line, and sets DPID and BASE.
# With a third argument the daemon writes its lifecycle events there.
start_daemon() {
    "$BIN" -addr localhost:0 -data "$1" ${3:+-events "$3"} > "$2" 2>&1 &
    DPID=$!
    i=0
    while ! grep -q 'listening on http://' "$2" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && { echo "FAIL: daemon never started"; cat "$2"; exit 1; }
        kill -0 "$DPID" 2>/dev/null || { echo "FAIL: daemon died"; cat "$2"; exit 1; }
        sleep 0.1
    done
    BASE=$(sed -n 's|.*listening on \(http://[^ ]*\).*|\1|p' "$2" | head -n 1)
}

# wait_done <base> <id>: polls until the job is terminal, failing unless
# it settles "done".
wait_done() {
    i=0
    while :; do
        state=$(curl -s "$1/jobs/$2" | jq -r .state)
        case "$state" in
            done) return 0 ;;
            failed|cancelled) echo "FAIL: job settled $state"; curl -s "$1/jobs/$2"; exit 1 ;;
        esac
        i=$((i + 1))
        [ "$i" -gt 600 ] && { echo "FAIL: job stuck in '$state'"; exit 1; }
        sleep 0.2
    done
}

# wait_episodes <events.jsonl> <n>: waits until a job's log holds n
# episode events (or gives up after 30 s: a fast job still has to
# produce the reference result).
wait_episodes() {
    i=0
    while [ "$(grep -c '"event":"episode"' "$1" 2>/dev/null || echo 0)" -lt "$2" ]; do
        i=$((i + 1))
        [ "$i" -gt 300 ] && break
        sleep 0.1
    done
}

# normalize_events <events.jsonl> <out>: the deterministic view of a run
# event stream — episode events only, ts/seq envelope stripped, the
# checkpoint-overlap replay after a resume deduplicated in order.
normalize_events() {
    jq -c 'select(.event == "episode") | .fields' "$1" | awk '!seen[$0]++' > "$2"
}

echo "== reference daemon (uninterrupted job)"
start_daemon "$DIR/a" "$DIR/a.log"
ID=$(curl -s "$BASE/jobs" -d "$JOB" | jq -r .id)
[ -n "$ID" ] && [ "$ID" != null ] || { echo "FAIL: submit"; exit 1; }
wait_done "$BASE" "$ID"
curl -s "$BASE/jobs/$ID" | jq -S .result > "$DIR/ref.result"
curl -s "$BASE/metrics" | jq -e '.counters["server.jobs_done_total"] == 1' > /dev/null \
    || { echo "FAIL: /metrics missing jobs_done_total"; exit 1; }
curl -sN --max-time 5 "$BASE/jobs/$ID/events" | grep -q '^event: done' \
    || { echo "FAIL: SSE stream missing done frame"; exit 1; }

# Observability surface. Readiness answers ready while accepting (the
# 503-while-draining flip is pinned by the Go tests: during a daemon
# drain the HTTP listener itself is already shut, so it is not
# observable from here).
curl -s "$BASE/readyz" | jq -e '.status == "ready"' > /dev/null \
    || { echo "FAIL: /readyz not ready on an accepting daemon"; exit 1; }
# /stats aggregates the job's usage record.
curl -s "$BASE/stats" | jq -e '.totals.jobs == 1 and .totals.usage.attempts == 1 and .totals.usage.wall_seconds > 0' > /dev/null \
    || { echo "FAIL: /stats totals do not reflect the finished job"; curl -s "$BASE/stats"; exit 1; }
# The per-job report renders obsreport markdown with the cost line.
curl -s "$BASE/jobs/$ID/report" | grep -q '^# Run report:' \
    || { echo "FAIL: /jobs/{id}/report is not an obsreport document"; exit 1; }
curl -s "$BASE/jobs/$ID/report" | grep -q '^job cost:' \
    || { echo "FAIL: per-job report missing the job cost line"; exit 1; }
# Labeled Prometheus scrape: the labeled series of a family must sum to
# its unlabeled total (here: one anonymous-tenant discover job), both
# for the scheduler's own counters and for a folded engine counter.
curl -s "$BASE/metrics?format=prom" > "$DIR/scrape.prom"
for fam in server_jobs_done_total explore_episodes_total; do
    awk -v fam="$fam" '
        $1 == fam { total = $2 }
        index($1, fam "{") == 1 { labeled += $2 }
        END {
            if (total == "" || labeled != total) {
                printf "FAIL: %s labeled sum %d != unlabeled total %s\n", fam, labeled, total
                exit 1
            }
        }' "$DIR/scrape.prom" || exit 1
done
grep -q 'cipher="gift64"' "$DIR/scrape.prom" \
    || { echo "FAIL: scrape has no cipher-labeled series"; exit 1; }
grep -q '^runtime_goroutines ' "$DIR/scrape.prom" \
    || { echo "FAIL: scrape missing runtime telemetry"; exit 1; }
normalize_events "$DIR/a/$ID.events.jsonl" "$DIR/ref.events"
kill -TERM "$DPID"; wait "$DPID" || true
echo "   reference result captured ($(wc -l < "$DIR/ref.events") episodes)"

echo "== interrupted daemon (SIGTERM mid-job)"
start_daemon "$DIR/b" "$DIR/b1.log"
ID2=$(curl -s "$BASE/jobs" -d "$JOB" | jq -r .id)
wait_episodes "$DIR/b/$ID2.events.jsonl" 16
kill -TERM "$DPID"; wait "$DPID" || true
echo "   daemon killed after $(grep -c '"event":"episode"' "$DIR/b/$ID2.events.jsonl" 2>/dev/null || echo 0) episodes"

echo "== restarted daemon (job resumes from checkpoint)"
start_daemon "$DIR/b" "$DIR/b2.log"
wait_done "$BASE" "$ID2"
resumes=$(curl -s "$BASE/jobs/$ID2" | jq -r .resumes)
curl -s "$BASE/jobs/$ID2" | jq -S .result > "$DIR/int.result"
normalize_events "$DIR/b/$ID2.events.jsonl" "$DIR/int.events"
kill -TERM "$DPID"; wait "$DPID" || true

if ! diff "$DIR/ref.result" "$DIR/int.result"; then
    echo "FAIL: resumed job result differs from uninterrupted run"
    exit 1
fi
if ! diff "$DIR/ref.events" "$DIR/int.events"; then
    echo "FAIL: normalized event stream differs from uninterrupted run"
    exit 1
fi
echo "PASS: resumed job (resumes=$resumes) matches the uninterrupted run byte for byte"

echo "== crashed daemon (SIGKILL mid-job, torn job-table record)"
start_daemon "$DIR/c" "$DIR/c1.log"
ID3=$(curl -s "$BASE/jobs" -d "$JOB" | jq -r .id)
wait_episodes "$DIR/c/$ID3.events.jsonl" 16
kill -KILL "$DPID"; wait "$DPID" 2>/dev/null || true
# A crash mid-append leaves a delta's first bytes: magic, version and
# half of the kind length, 9 bytes.
printf 'EFCKPT\000\001\000' >> "$DIR/c/jobs.ckpt"
echo "   daemon killed after $(grep -c '"event":"episode"' "$DIR/c/$ID3.events.jsonl" 2>/dev/null || echo 0) episodes; 9 torn bytes appended"

echo "== restarted daemon (drops the torn record, job resumes)"
start_daemon "$DIR/c" "$DIR/c2.log" "$DIR/c2.daemon.jsonl"
dropped=$(jq -r 'select(.event == "job_store_opened") | .fields.dropped_bytes' "$DIR/c2.daemon.jsonl")
if [ "$dropped" != 9 ]; then
    echo "FAIL: restarted daemon reported dropped_bytes '$dropped', want 9"
    cat "$DIR/c2.daemon.jsonl"
    exit 1
fi
wait_done "$BASE" "$ID3"
resumes=$(curl -s "$BASE/jobs/$ID3" | jq -r .resumes)
curl -s "$BASE/jobs/$ID3" | jq -S .result > "$DIR/crash.result"
normalize_events "$DIR/c/$ID3.events.jsonl" "$DIR/crash.events"
kill -TERM "$DPID"; wait "$DPID" || true

if ! diff "$DIR/ref.result" "$DIR/crash.result"; then
    echo "FAIL: job resumed after SIGKILL differs from the uninterrupted run"
    exit 1
fi
if ! diff "$DIR/ref.events" "$DIR/crash.events"; then
    echo "FAIL: normalized event stream after SIGKILL differs from the uninterrupted run"
    exit 1
fi
echo "PASS: after SIGKILL and a torn record (9 bytes dropped), the job (resumes=$resumes) matches the uninterrupted run byte for byte"

#!/usr/bin/env bash
# End-to-end smoke test of the fleet-defense daemon. Boots mayad on a
# free port, admits a small fleet over HTTP, waits for every tenant to
# finish, and then checks the properties the daemon promises:
#
#   1. /traces.csv is byte-identical to `mayactl -fleet` with the same
#      seed and parameters (the (seed, index) determinism contract);
#   2. admissions past -max-tenants shed with 503 + Retry-After and are
#      counted in mayad_admission_shed_total on /metrics;
#   3. GET /spill still holds every finished tenant's period readings,
#      each under its tenant id;
#   4. SIGTERM drains gracefully: the process exits 0 and the finished
#      traces are spooled as .mayt files that `mayactl convert` parses.
#
# Usage: scripts/mayad_smoke.sh [outdir]   (default: ./mayad-smoke)
#
# Artifacts (daemon log, metrics scrape, spill drain, both CSVs, spooled
# traces) land in outdir so CI can upload them on success or failure.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-mayad-smoke}"
mkdir -p "$out"
spool="$out/spool"
mkdir -p "$spool"

tenants=3
seed=7
seconds=4

fail() { echo "mayad_smoke: FAIL: $*" >&2; exit 1; }

go build -o "$out/mayad" ./cmd/mayad
go build -o "$out/mayactl" ./cmd/mayactl

# -pace keeps the fleet resident for a few seconds (flat out, a run this
# small finishes in well under a second) so the overload checks below
# race against running tenants, not finished ones.
"$out/mayad" -addr 127.0.0.1:0 -addr-file "$out/addr" \
    -max-tenants "$tenants" -spool "$spool" -pace 10ms \
    > "$out/mayad.log" 2>&1 &
daemon=$!
trap 'kill "$daemon" 2>/dev/null || true' EXIT

for _ in $(seq 1 100); do
    [[ -s "$out/addr" ]] && break
    kill -0 "$daemon" 2>/dev/null || { cat "$out/mayad.log" >&2; fail "daemon died at boot"; }
    sleep 0.1
done
[[ -s "$out/addr" ]] || fail "daemon never wrote $out/addr"
addr="$(cat "$out/addr")"
base="http://$addr"
echo "mayad_smoke: daemon up at $base"

# Admit tenants (seed, index 0..N-1); machine/defense/workload/scale are
# left to the spec defaults, which match mayactl's flag defaults.
for i in $(seq 0 $((tenants - 1))); do
    code=$(curl -s -o "$out/admit-$i.json" -w '%{http_code}' -X POST "$base/tenants" \
        -d "{\"seed\":$seed,\"index\":$i,\"seconds\":$seconds}")
    [[ "$code" == 201 ]] || { cat "$out/admit-$i.json" >&2; fail "admit $i: HTTP $code"; }
done

# One more admission must shed: the daemon is at -max-tenants.
code=$(curl -s -o "$out/shed.json" -w '%{http_code}' -X POST "$base/tenants" \
    -d "{\"seed\":$seed,\"index\":$tenants,\"seconds\":$seconds}")
[[ "$code" == 503 ]] || fail "overload admission: expected 503, got $code"
retry=$(curl -s -o /dev/null -w '%{http_code} %header{retry-after}' -X POST "$base/tenants" \
    -d "{\"seed\":$seed,\"index\":$tenants,\"seconds\":$seconds}")
[[ "$retry" == "503 1" ]] || fail "shed response missing Retry-After: got '$retry'"

# Wait for every tenant to finish.
for _ in $(seq 1 600); do
    done_n=$(curl -s "$base/tenants" | grep -c '"state": "done"' || true)
    [[ "$done_n" -eq "$tenants" ]] && break
    kill -0 "$daemon" 2>/dev/null || { cat "$out/mayad.log" >&2; fail "daemon died mid-run"; }
    sleep 0.5
done
[[ "${done_n:-0}" -eq "$tenants" ]] || fail "tenants never finished: $done_n/$tenants done"
echo "mayad_smoke: $tenants tenants finished"

# Nothing has drained the tap, and 3 x 200 samples fit the default
# -spill bound of 4096, so it holds every recorded period of every tenant.
curl -s "$base/spill" > "$out/spill.json"
periods=$((seconds * 1000 / 20))
for i in $(seq 0 $((tenants - 1))); do
    n=$(grep -c "\"tenant\": $i," "$out/spill.json" || true)
    [[ "$n" -eq "$periods" ]] || fail "/spill holds $n samples of tenant $i, want $periods"
done
n=$(grep -c '"tenant":' "$out/spill.json" || true)
[[ "$n" -eq $((tenants * periods)) ]] || fail "/spill holds $n samples, want $((tenants * periods))"
echo "mayad_smoke: /spill holds $periods samples of each tenant"

curl -s "$base/traces.csv" > "$out/daemon.csv"
curl -s "$base/tenants/1/trace?format=csv" > "$out/tenant1.csv"
# One row per trace in the dataset CSV encoding; non-empty is the check.
[[ -s "$out/tenant1.csv" ]] || fail "per-tenant trace export is empty"
curl -s "$base/metrics" > "$out/metrics.txt"

grep -q '^mayad_admission_shed_total 2$' "$out/metrics.txt" \
    || fail "mayad_admission_shed_total != 2 on /metrics"
grep -q "^mayad_admitted_total $tenants\$" "$out/metrics.txt" \
    || fail "mayad_admitted_total != $tenants on /metrics"

# The determinism contract: daemon bytes == solo fleet-engine bytes.
"$out/mayactl" -fleet "$tenants" -seed "$seed" -seconds "$seconds" \
    -csv "$out/golden.csv" > "$out/mayactl.log"
cmp "$out/daemon.csv" "$out/golden.csv" \
    || fail "/traces.csv differs from mayactl -fleet output"
echo "mayad_smoke: /traces.csv byte-identical to mayactl -fleet"

# Graceful drain: exit 0 and spooled, readable traces.
kill -TERM "$daemon"
for _ in $(seq 1 100); do
    kill -0 "$daemon" 2>/dev/null || break
    sleep 0.1
done
if wait "$daemon"; then :; else fail "daemon exited nonzero after SIGTERM"; fi
trap - EXIT
for i in $(seq 0 $((tenants - 1))); do
    [[ -s "$spool/tenant-$i.mayt" ]] || fail "missing spooled trace tenant-$i.mayt"
done
"$out/mayactl" convert "$spool/tenant-0.mayt" "$out/tenant-0.csv" \
    || fail "spooled MAYT trace does not parse"

echo "mayad_smoke: OK"

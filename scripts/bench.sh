#!/usr/bin/env bash
# Run every benchmark once (smoke mode) and record the results as
# BENCH_<date>.txt (raw `go test` output) and BENCH_<date>.json (one object
# per benchmark: name, ns/op, B/op, allocs/op, and any custom metrics).
#
# Usage: scripts/bench.sh [-z] [-o name] [-t benchtime] [bench-regexp]
#        (default: all benchmarks, output BENCH_<yyyy-mm-dd>.{txt,json})
#
# -o overrides the output basename (writes <name>.txt and <name>.json);
# -t overrides -benchtime (default 1x) — the CI bench-compare job uses a
# higher count so the regression gate sees less single-shot noise.
#
# With -z the script becomes a zero-allocation gate: after recording, it
# fails if any matched benchmark reports allocs/op > 0. CI uses this to
# enforce that the telemetry hot path (counter/gauge/histogram record and
# flight-recorder append) and the simulated machine's tick never allocate:
#
#   scripts/bench.sh -z 'TelemetryHotPath|MachineTick'
set -euo pipefail
cd "$(dirname "$0")/.."

zero_alloc=0
name=""
benchtime="1x"
while [[ $# -gt 0 ]]; do
    case "$1" in
    -z) zero_alloc=1; shift ;;
    -o) name="$2"; shift 2 ;;
    -t) benchtime="$2"; shift 2 ;;
    *) break ;;
    esac
done

pattern="${1:-.}"
if [[ -z "$name" ]]; then
    name="BENCH_$(date -u +%Y-%m-%d)"
fi
txt="${name}.txt"
json="${name}.json"

go test -run '^$' -bench "$pattern" -benchtime="$benchtime" -benchmem ./... | tee "$txt"

awk '
BEGIN { print "[" }
/^Benchmark/ {
    if (n++) printf ",\n"
    printf "  {\"name\": \"%s\", \"iterations\": %s", $1, $2
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        gsub(/"/, "", unit)
        printf ", \"%s\": %s", unit, $i
    }
    printf "}"
}
END { print "\n]" }
' "$txt" > "$json"

echo "wrote $txt and $json" >&2

if [[ "$zero_alloc" == 1 ]]; then
    if ! grep -q '^Benchmark' "$txt"; then
        echo "zero-alloc gate: no benchmark matched pattern '$pattern'" >&2
        exit 1
    fi
    awk '
    /^Benchmark/ {
        for (i = 3; i < NF; i += 2) {
            if ($(i + 1) == "allocs/op" && $i + 0 > 0) {
                printf "zero-alloc gate: %s allocates (%s allocs/op)\n", $1, $i
                bad = 1
            }
        }
    }
    END { exit bad }
    ' "$txt" >&2 || { echo "zero-alloc gate FAILED" >&2; exit 1; }
    echo "zero-alloc gate passed for pattern '$pattern'" >&2
fi

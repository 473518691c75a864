#!/usr/bin/env bash
# Run mayalint, the project's static-analysis pass, over the whole module.
# Findings print in file:line:col form and are also written to
# mayalint-findings.json (an empty array when clean) and mayalint.sarif
# (SARIF 2.1.0) so CI can upload machine-readable reports as artifacts.
#
# Every //nolint:maya directive must carry a written reason and name a
# real analyzer; one that does not is a finding like any other, so the
# module is loaded and type-checked once. `mayalint -nolint-report` lists the suppressions.
#
# Usage: scripts/lint.sh [packages...]   (default: ./...)
#
# Exits nonzero on any finding; suppress a deliberate exception with
# //nolint:maya/<analyzer> and a reason (see internal/lint/doc.go).
set -euo pipefail
cd "$(dirname "$0")/.."

go run ./cmd/mayalint \
    -json-file mayalint-findings.json \
    -sarif-file mayalint.sarif \
    "${@:-./...}"

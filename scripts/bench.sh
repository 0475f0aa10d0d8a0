#!/usr/bin/env bash
# bench.sh [-short] — run every gated sweep and overwrite the
# BENCH_<suite>.json snapshots (committing them alongside perf-relevant
# changes makes git history the repo's perf trajectory). Fails if the
# codec-vs-gob equivalence tests fail — a wire format regression can
# never produce a "fast but wrong" green run — or if any suite misses
# one of its gates (see `go run ./cmd/dcsweep -h` and each suite's
# Gate() in internal/experiments).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== codec/gob equivalence gate =="
go test ./internal/bat -count=1 \
  -run 'TestWireRoundtrip|TestWireGobEquivalence|TestMarshalSizeExact|TestWireVersionRejected|TestWireCorruptInputs|TestSerial'
go test ./internal/server -count=1 -run 'TestHelloRoundtrip|TestResultRoundtrip'

go run ./cmd/dcsweep "$@" all

#!/usr/bin/env bash
# dcsim-golden.sh — print `dcsim -exp all -scale 0.1 -seed 1` without
# what reads the wall clock (each section's ", N.Ns wall" and the whole
# table4 section). Everything else is deterministic, so it is held byte
# for byte against cmd/dcsim/testdata/all.golden:
#
#   bash scripts/dcsim-golden.sh | diff -u cmd/dcsim/testdata/all.golden -   # check
#   bash scripts/dcsim-golden.sh > cmd/dcsim/testdata/all.golden             # regenerate
set -euo pipefail
cd "$(dirname "$0")/.."
go run ./cmd/dcsim -exp all -scale 0.1 -seed 1 |
  awk '/^=== /{skip = ($2 == "table4")} !skip' |
  sed -E 's/, [0-9.]+s wall//'

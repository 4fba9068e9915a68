#!/usr/bin/env bash
# Lint gate: build and run reprolint — the determinism / durability /
# locking invariant suite (DESIGN.md §13) — over every package, then run
# govulncheck when the toolchain has it. Exits non-zero on any finding,
# so CI (and a pre-push hook) can use it as a single yes/no.
#
# Usage: scripts/lint.sh
set -euo pipefail

cd "$(dirname "$0")/.."
BIN="$(mktemp -d /tmp/reprolint.XXXXXX)/reprolint"
trap 'rm -rf "$(dirname "$BIN")"' EXIT

echo "== lint: building reprolint"
go build -o "$BIN" ./cmd/reprolint

echo "== lint: reprolint over ./..."
"$BIN" ./...

# govulncheck is optional tooling: run it where available (CI installs
# it; offline dev containers may not have it), never fail for lack of it.
if command -v govulncheck >/dev/null 2>&1; then
  echo "== lint: govulncheck"
  govulncheck ./...
else
  echo "== lint: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"
fi

echo "== lint: clean"

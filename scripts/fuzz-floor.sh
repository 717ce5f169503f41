#!/usr/bin/env bash
# Runs one fuzz target for a fixed time and fails if it stopped fuzzing: the
# last "execs:" count go test prints must reach the floor given. A fuzzer
# whose budget goes to minimizing, or that stalls, otherwise passes quietly.
#
#   bash scripts/fuzz-floor.sh <package> <FuzzTarget> <fuzztime> <min execs>
set -euo pipefail
pkg=$1 target=$2 fuzztime=$3 floor=$4
log=$(mktemp)
trap 'rm -f "$log"' EXIT
go test -run '^$' -fuzz "^$target\$" -fuzztime "$fuzztime" -fuzzminimizetime 50x "$pkg" 2>&1 | tee "$log"
execs=$(grep -o 'execs: [0-9]*' "$log" | tail -n 1 | tr -dc 0-9)
if [ "${execs:-0}" -lt "$floor" ]; then
	echo "$target: ${execs:-0} execs in $fuzztime, under its floor of $floor: it stopped fuzzing" >&2
	exit 1
fi
echo "$target: $execs execs in $fuzztime (floor $floor)"

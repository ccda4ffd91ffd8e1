#!/usr/bin/env bash
# Runs the benchmark on the full seed-1, seed-2 and seed-3 decks and checks
# every answer. run.py exits 0 whatever it finds; the last line of each
# workload's report says whether every answer was right. Seed 2 is the
# held-out seed that speed claims are confirmed on, so its answers are
# checked too, and seed 3 is a third deck that no claim is measured on. The
# digests pin every (score, cost, approximate) answer: a change that moves an
# answer on purpose updates them and says why.
#
# usage: bash .github/check-decks.sh   (writes its reports to $RUNNER_TEMP,
# or to a new temporary directory when that is unset)
set -e
out=${RUNNER_TEMP:-$(mktemp -d)}
# seed, report name, then the digests of tables, search and decide; read
# from fd 3, so that nothing the benchmark runs can read the list
while read -r -u 3 seed report tables search decide; do
    python3 bench/run.py --workload all --seed "$seed" --seconds 1 --trace 0 | tee "$out/$report.txt"
    test "$(grep -c '^{"correct": true' "$out/$report.txt")" -eq 3
    grep -q "^digest tables $tables " "$out/$report.txt"
    grep -q "^digest search $search " "$out/$report.txt"
    grep -q "^digest decide $decide " "$out/$report.txt"
done 3<<'DECKS'
1 bench-all fab3a04d3df7035c bf522d323888bf17 b1b527a66e72f1af
2 bench-seed2 21126f2d4fdccce7 7f51e3443359ce05 b1a1aefe7ba7847c
3 bench-seed3 81a4db47b0dd0083 09bc3b15449ec591 c1962d89c5d7cebd
DECKS

#!/usr/bin/env bash
# Runs the benchmark on the full seed-1, seed-2 and seed-3 decks and checks
# every answer. run.py exits 0 whatever it finds; the last line of each
# workload's report says whether every answer was right. Seed 2 is the
# held-out seed that speed claims are confirmed on, so its answers are
# checked too, and seed 3 is a third deck that no claim is measured on. The
# digests pin every (score, cost, approximate) answer: a change that moves an
# answer on purpose updates them and says why.
#
# usage: bash .github/check-decks.sh   (writes its reports to $RUNNER_TEMP)
set -e
python3 bench/run.py --workload all --seed 1 --seconds 1 --trace 0 | tee "$RUNNER_TEMP/bench-all.txt"
test "$(grep -c '^{"correct": true' "$RUNNER_TEMP/bench-all.txt")" -eq 3
grep -q '^digest tables fab3a04d3df7035c ' "$RUNNER_TEMP/bench-all.txt"
grep -q '^digest search bf522d323888bf17 ' "$RUNNER_TEMP/bench-all.txt"
grep -q '^digest decide b1b527a66e72f1af ' "$RUNNER_TEMP/bench-all.txt"
python3 bench/run.py --workload all --seed 2 --seconds 1 --trace 0 | tee "$RUNNER_TEMP/bench-seed2.txt"
test "$(grep -c '^{"correct": true' "$RUNNER_TEMP/bench-seed2.txt")" -eq 3
grep -q '^digest tables 21126f2d4fdccce7 ' "$RUNNER_TEMP/bench-seed2.txt"
grep -q '^digest search 7f51e3443359ce05 ' "$RUNNER_TEMP/bench-seed2.txt"
grep -q '^digest decide b1a1aefe7ba7847c ' "$RUNNER_TEMP/bench-seed2.txt"
python3 bench/run.py --workload all --seed 3 --seconds 1 --trace 0 | tee "$RUNNER_TEMP/bench-seed3.txt"
test "$(grep -c '^{"correct": true' "$RUNNER_TEMP/bench-seed3.txt")" -eq 3
grep -q '^digest tables 81a4db47b0dd0083 ' "$RUNNER_TEMP/bench-seed3.txt"
grep -q '^digest search 09bc3b15449ec591 ' "$RUNNER_TEMP/bench-seed3.txt"
grep -q '^digest decide c1962d89c5d7cebd ' "$RUNNER_TEMP/bench-seed3.txt"

#!/usr/bin/env bash
# Checks the installed `sagrs` console script end to end, writing under DIR.
#
#   bash scripts/check_installed_cli.sh DIR
#
# `sagrs stats` must reproduce summary.json byte for byte, a rate flag given
# twice must add to the axis, and `sagrs sweep-suggestions` must write one run
# per preset value of its axis. An --out under a regular file, a negative
# rate, a repeated rate, a pool too small for the surrogates, a config file's
# boolean rate, a compare without --objective and a config file's GA elitism
# above its mating pool must exit 2 before any run starts. `python`, run in
# DIR without PYTHONPATH, must import the package's eight top-level names.
# Any `sagrs` and `python` on PATH will do; outside an install, shims that
# run the interpreter with PYTHONPATH set to the checkout's absolute `src`
# path (`-m sagrs.cli "$@"` for `sagrs`, `"$@"` for `python`) work.
set -eo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 DIR" >&2
  exit 2
fi
DIR=$1

(cd "$DIR" && env -u PYTHONPATH python -c "from sagrs import GaConfig, OBJECTIVE_NAMES, Objective, SagrsConfig, \
make_objective, run_ga_baseline, run_random_recommender, run_sagrs")
sagrs compare --objective ackley --reps 1 --cycles 2 --pool-size 8 --ga-pop 10 --out "$DIR/cli"
diff <(sagrs stats "$DIR/cli/runs.csv") "$DIR/cli/summary.json"
touch "$DIR/not-a-dir"
status=0
sagrs run --objective ackley --system sagrs-lsm --reps 1 --cycles 2 --pool-size 8 --ga-pop 10 \
  --out "$DIR/not-a-dir/x" || status=$?
test "$status" -eq 2
status=0
sagrs run --objective ackley --system sagrs-lsm --rate -1 --reps 1 --cycles 2 --pool-size 8 --ga-pop 10 \
  --out "$DIR/rate" || status=$?
test "$status" -eq 2
test ! -e "$DIR/rate"
status=0
sagrs run --objective ackley --system sagrs-lsm --rate 1 1 --reps 1 --cycles 2 --pool-size 8 --ga-pop 10 \
  --out "$DIR/repeat" || status=$?
test "$status" -eq 2
test ! -e "$DIR/repeat"
sagrs run --objective ackley --system sagrs-lsm --rate 1 --rate 2 --reps 1 --cycles 2 --pool-size 8 --ga-pop 10 \
  --out "$DIR/extend"
test "$(wc -l < "$DIR/extend/runs.csv")" -eq 3
sagrs sweep-suggestions --objective ackley --reps 1 --pool-size 8 --ga-pop 10 --out "$DIR/sweep"
test "$(cut -d, -f6 "$DIR/sweep/runs.csv" | paste -sd' ')" = "suggestions 1 2 3 4 5 6 7 8"
status=0
sagrs compare --objective ackley --reps 1 --cycles 2 --pool-size 2 --ga-pop 10 \
  --out "$DIR/pool" || status=$?
test "$status" -eq 2
test ! -e "$DIR/pool"
cat > "$DIR/bool-rate.json" <<EOF
{"objective": "ackley", "system": "sagrs-lsm", "rates": [1, true], "cycles": [2], "pool_size": 8,
 "repetitions": 1, "ga_population_size": 10, "out_dir": "$DIR/bool-rate"}
EOF
status=0
sagrs run --config "$DIR/bool-rate.json" 2> "$DIR/bool-rate.err" || status=$?
test "$status" -eq 2
grep -F "evaluation_rate must be an integer, got True" "$DIR/bool-rate.err"
test ! -e "$DIR/bool-rate"
status=0
sagrs compare --reps 1 --cycles 2 --pool-size 8 --out "$DIR/noobj" 2> "$DIR/noobj.err" || status=$?
test "$status" -eq 2
grep -F "compare needs --objective" "$DIR/noobj.err"
test ! -e "$DIR/noobj"
cat > "$DIR/elitism.json" <<EOF
{"objective": "ackley", "system": "sagrs-lsm", "ga_population_size": 10, "ga_selection_factor": 0.1,
 "ga_elitism": 5, "cycles": [2], "pool_size": 8, "repetitions": 1, "out_dir": "$DIR/elitism"}
EOF
status=0
sagrs run --config "$DIR/elitism.json" 2> "$DIR/elitism.err" || status=$?
test "$status" -eq 2
grep -F "elitism must be <= the mating pool, ceil(selection_factor * population_size) = 1, got 5" "$DIR/elitism.err"
test ! -e "$DIR/elitism"

"""Command-line entry point for running benchmark experiments.

Subcommands:

    run                one experiment from flags or a JSON config file
    sweep-rates        preset grid over evaluation rates x pool handling
    sweep-suggestions  preset grid over suggestions per cycle
    sweep-cycles       preset grid over recommendation-cycle counts
    compare            all five systems on one objective, budget-matched
    stats              re-aggregate an existing runs.csv to JSON on stdout

Exit status: 0 on success, 1 if any run failed, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .evolution import GaConfig
from .harness import (
    SYSTEMS,
    ExperimentSpec,
    aggregate_rows,
    default_out_dir,
    read_runs_csv,
    run_compare,
    run_experiment,
    summarize,
)
from .objectives import OBJECTIVE_NAMES

SWEEP_RATES = (1, 2, 4, 8, 16, 32, 64)
SWEEP_SUGGESTIONS = (1, 2, 3, 4, 5, 6, 7, 8)
SWEEP_CYCLES = (10, 25, 50, 75, 100, 150)

# the grid axes each sweep subcommand fixes
_SWEEP_AXES = {
    "sweep-rates": {"rates": SWEEP_RATES, "pool_handling": ("reset", "no_reset")},
    "sweep-suggestions": {"suggestions": SWEEP_SUGGESTIONS},
    "sweep-cycles": {"cycles": SWEEP_CYCLES},
}

# flat config-file keys for the GA engine
_GA_KEYS = {
    "ga_population_size": "population_size",
    "ga_selection_factor": "selection_factor",
    "ga_mutation_prob": "mutation_prob",
    "ga_recombination_prob": "recombination_prob",
    "ga_mutation_scale": "mutation_scale",
    "ga_elitism": "elitism",
}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    # each dest is the keyword ExperimentSpec and run_compare take
    parser.add_argument("--objective", choices=OBJECTIVE_NAMES)
    parser.add_argument("--dimension", type=int)
    parser.add_argument("--pool-size", type=int)
    parser.add_argument("--reps", dest="repetitions", type=int)
    parser.add_argument("--seed", dest="base_seed", type=int)
    parser.add_argument("--out", dest="out_dir", type=Path)
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--ga-pop", type=int, help="GA population size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sagrs", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, helptext: str) -> argparse.ArgumentParser:
        # An unset flag stays out of the namespace, so the library default applies.
        return sub.add_parser(name, help=helptext, argument_default=argparse.SUPPRESS)

    run_p = add_command("run", "run one experiment from flags or a config file")
    _add_common_flags(run_p)
    run_p.add_argument("--config", type=Path, help="JSON file with flat experiment settings")
    run_p.add_argument("--system", choices=SYSTEMS)
    run_p.add_argument("--rate", dest="rates", type=int, nargs="+")
    run_p.add_argument("--suggestions", type=int, nargs="+")
    run_p.add_argument("--cycles", type=int, nargs="+")
    run_p.add_argument("--pool-handling", choices=("reset", "no_reset"), nargs="+")
    run_p.add_argument("--window", dest="training_window", type=int, help="surrogate training window")

    for name, helptext in (
        ("sweep-rates", "evaluation rates x pool handling"),
        ("sweep-suggestions", "suggestions per cycle"),
        ("sweep-cycles", "recommendation cycle counts"),
    ):
        sweep_p = add_command(name, f"preset sweep over {helptext}")
        _add_common_flags(sweep_p)
        sweep_p.add_argument("--system", choices=SYSTEMS, default="sagrs-lsm")

    compare_p = add_command("compare", "all five systems on one objective")
    _add_common_flags(compare_p)
    compare_p.add_argument("--cycles", type=int)

    stats_p = sub.add_parser("stats", help="aggregate an existing runs.csv")
    stats_p.add_argument("csv", type=Path)

    return parser


def _library_kwargs(flags: dict, command: str, parser) -> dict:
    """Keyword arguments for ExperimentSpec or run_compare.

    Only the flags the user set are passed, over the config file's settings
    for run. Raises OSError, TypeError or ValueError on bad input.
    """
    ga_pop = flags.pop("ga_pop", None)
    config = flags.pop("config", None)
    settings = flags
    if config is not None:
        with open(config) as fh:
            settings = {**json.load(fh), **flags}
    ga_kwargs = {field: settings.pop(key) for key, field in _GA_KEYS.items() if key in settings}
    if ga_pop is not None:
        ga_kwargs["population_size"] = ga_pop
    if ga_kwargs:
        settings["ga"] = GaConfig(**ga_kwargs)
    if command == "run" and not {"objective", "system"} <= settings.keys():
        parser.error("run needs --objective and --system (or a config file providing them)")
    if "objective" not in settings:
        parser.error(f"{command} needs --objective")
    if command in _SWEEP_AXES:
        settings.setdefault(
            "out_dir", default_out_dir() / f"{command}_{settings['system']}_{settings['objective']}")
        settings.update(_SWEEP_AXES[command])
    return settings


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    flags = vars(parser.parse_args(argv))  # only the flags the user set
    command = flags.pop("command")

    if command == "stats":
        path = flags["csv"]
        if not path.exists():
            print(f"no such file: {path}", file=sys.stderr)
            return 1
        try:
            rows = read_runs_csv(path)
        except ValueError as exc:
            parser.error(str(exc))
        rows = [r for r in rows if r["best_fitness"] is not None]
        json.dump(aggregate_rows(rows), sys.stdout, indent=2, sort_keys=True)
        print()
        return 0

    try:
        kwargs = _library_kwargs(flags, command, parser)
        spec = None if command == "compare" else ExperimentSpec(**kwargs)
    except (OSError, TypeError, ValueError) as exc:
        parser.error(str(exc))

    if spec is not None:
        result = run_experiment(spec)
    else:
        try:
            # run_compare checks every argument before its first run starts
            comparison = run_compare(**kwargs)
        except ValueError as exc:
            parser.error(str(exc))
        for system in SYSTEMS:
            fits = [f for f in comparison.best_fitness(system) if f is not None]
            if fits:
                print(f"{system:12s} median best fitness {summarize(fits).median:.6g} "
                      f"over {len(fits)} runs")
        result = comparison.result

    for run_id, message in result.failures:
        print(f"FAILED {run_id}: {message}", file=sys.stderr)
    print(f"wrote {result.out_dir}/runs.csv ({len(result.run_rows)} runs, "
          f"{len(result.failures)} failed)")
    return 0 if result.ok else 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

"""Command-line entry point for running benchmark experiments.

Exit status: 0 on success, 1 if any run failed, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
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
)
from .objectives import OBJECTIVE_NAMES
from .recommender import POOL_HANDLING_MODES

# each sweep subcommand's help text and the grid axes it fixes
_SWEEPS = {
    "sweep-rates": ("evaluation rates x pool handling",
                    {"rates": (1, 2, 4, 8, 16, 32, 64), "pool_handling": ("reset", "no_reset")}),
    "sweep-suggestions": ("suggestions per cycle", {"suggestions": (1, 2, 3, 4, 5, 6, 7, 8)}),
    "sweep-cycles": ("recommendation-cycle counts", {"cycles": (10, 25, 50, 75, 100, 150)}),
}

# flat config-file keys for the GA engine
_GA_KEYS = {f"ga_{f.name}": f.name for f in fields(GaConfig)}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    # each dest is the keyword ExperimentSpec and run_compare take, or a ga_* config key
    parser.add_argument("--objective", choices=OBJECTIVE_NAMES)
    parser.add_argument("--dimension", type=int)
    parser.add_argument("--pool-size", type=int)
    parser.add_argument("--reps", dest="repetitions", type=int)
    parser.add_argument("--seed", dest="base_seed", type=int)
    parser.add_argument("--out", dest="out_dir", type=Path)
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--ga-pop", dest="ga_population_size", metavar="GA_POP", type=int,
                        help="GA population size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sagrs", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, helptext: str) -> argparse.ArgumentParser:
        # An unset flag stays out of the namespace, so the library default applies.
        return sub.add_parser(name, help=helptext, argument_default=argparse.SUPPRESS)

    run_p = add_command("run", "one experiment from flags or a JSON config file")
    _add_common_flags(run_p)
    run_p.add_argument("--config", type=Path, help="JSON file with flat experiment settings")
    run_p.add_argument("--system", choices=SYSTEMS)
    # an axis flag given twice adds to its axis
    run_p.add_argument("--rate", dest="rates", type=int, nargs="+", action="extend")
    run_p.add_argument("--suggestions", type=int, nargs="+", action="extend")
    run_p.add_argument("--cycles", type=int, nargs="+", action="extend")
    run_p.add_argument("--pool-handling", choices=POOL_HANDLING_MODES, nargs="+", action="extend")
    run_p.add_argument("--window", dest="training_window", type=int, help="surrogate training window")

    for name, (helptext, _) in _SWEEPS.items():
        sweep_p = add_command(name, f"preset grid over {helptext}")
        _add_common_flags(sweep_p)
        sweep_p.add_argument("--system", choices=SYSTEMS, default="sagrs-lsm")

    compare_p = add_command("compare", f"all {len(SYSTEMS)} systems on one objective, the GA capped at their budget")
    _add_common_flags(compare_p)
    compare_p.add_argument("--cycles", type=int)

    stats_p = sub.add_parser("stats", help="re-aggregate an existing runs.csv to JSON on stdout")
    stats_p.add_argument("csv", type=Path)

    # cli_main reports a library error through the parser of the command
    # that ran, so the usage printed is that command's
    for command_parser in sub.choices.values():
        command_parser.set_defaults(command_parser=command_parser)

    return parser


def _library_kwargs(flags: dict, command: str) -> dict:
    """Keyword arguments for ExperimentSpec or run_compare.

    Only the flags the user set are passed, over the config file's settings
    for run. Raises OSError, TypeError or ValueError on bad input.
    """
    config = flags.pop("config", None)
    settings = flags
    if config is not None:
        with open(config) as fh:
            try:
                loaded = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ValueError(f"config file {config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {config} must hold a JSON object")
        settings = {**loaded, **flags}
    ga_kwargs = {field: settings.pop(key) for key, field in _GA_KEYS.items() if key in settings}
    if ga_kwargs:  # a config file's own "ga" key stays, for ExperimentSpec to reject
        settings.setdefault("ga", GaConfig(**ga_kwargs))
    if command == "run" and not {"objective", "system"} <= settings.keys():
        raise ValueError("run needs --objective and --system (or a config file providing them)")
    if "objective" not in settings:
        raise ValueError(f"{command} needs --objective")
    if command in _SWEEPS:
        settings.setdefault(
            "out_dir", default_out_dir() / f"{command}_{settings['system']}_{settings['objective']}")
        settings.update(_SWEEPS[command][1])
    return settings


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    flags = vars(parser.parse_args(argv))  # only the flags the user set
    command = flags.pop("command")
    parser = flags.pop("command_parser")  # errors below print this command's usage

    if command == "stats":
        path = flags["csv"]
        try:
            rows = read_runs_csv(path)
        except OSError as exc:  # a missing file, a directory, or a file that cannot be read
            print(f"cannot read {path}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            parser.error(str(exc))
        json.dump(aggregate_rows(rows), sys.stdout, indent=2, sort_keys=True)
        print()
        return 0

    try:
        kwargs = _library_kwargs(flags, command)
        spec = None if command == "compare" else ExperimentSpec(**kwargs)
    except (OSError, TypeError, ValueError) as exc:
        parser.error(str(exc))

    try:
        # both check every argument, and the output directory, before the first run starts
        if spec is not None:
            result = run_experiment(spec)
        else:
            comparison = run_compare(**kwargs)
            result = comparison.result
    except ValueError as exc:
        parser.error(str(exc))

    if spec is None:
        for system in SYSTEMS:
            finished = sum(f is not None for f in comparison.best_fitness(system))
            if finished:
                print(f"{system:12s} median best fitness {comparison.median_best_fitness(system):.6g} "
                      f"over {finished} runs")

    for run_id, message in result.failures:
        print(f"FAILED {run_id}: {message}", file=sys.stderr)
    print(f"wrote {result.out_dir}/runs.csv ({len(result.run_rows)} runs, "
          f"{len(result.failures)} failed)")
    return 0 if result.ok else 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

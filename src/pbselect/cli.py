"""Command-line interface.

Subcommands cover the whole pipeline: parse, features, run-portfolio,
build-dataset, split, train, evaluate, importance, solve, summary.
Failures print a machine-readable JSON record on stderr and exit nonzero.
The METASELECT_PORTFOLIO environment variable supplies the default
portfolio config path.

Every report is a set of ``(header, rows)`` tables keyed by file stem,
written as CSV by :func:`write_tables`: ``features`` and ``importance``
print theirs, ``evaluate`` prints ``summary`` and then ``breakdown`` and
with ``--out-dir`` writes ``summary.csv``, ``confusion.csv``,
``m_hat_timesteps.csv`` and ``breakdown.csv``, and ``summary --out-dir``
``wins_by_timestep.csv`` and ``wins_by_benchmark.csv``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from . import dataset as ds_mod
from . import eval as eval_mod
from . import metaselect
from .features import SCHEMAS, TIMESTEP_ENCODINGS, extract, feature_names
from .grid import DEFAULT_COUNT, DEFAULT_HORIZON, DEFAULT_T_MIN, make_grid
from .learners import FAMILIES, INVERSE_FREQUENCY, MODES, TrainedModel, train_model
from .opb import OpbParseError, parse_opb_file, serialize
from .runner import PortfolioConfig, RunArchive, run_portfolio

logger = logging.getLogger("pbselect")


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _diag(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "detail": message}), file=sys.stderr)


def _grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-count", type=int, default=DEFAULT_COUNT)
    p.add_argument("--horizon", type=float, default=DEFAULT_HORIZON)
    p.add_argument("--t-min", type=float, default=DEFAULT_T_MIN)


def _portfolio_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--portfolio",
        default=os.environ.get("METASELECT_PORTFOLIO"),
        help="portfolio config path (default: $METASELECT_PORTFOLIO)",
    )


def _require_portfolio(args) -> PortfolioConfig:
    if not args.portfolio:
        raise CliError("no portfolio config (use --portfolio or METASELECT_PORTFOLIO)", 2)
    return PortfolioConfig.load(args.portfolio)


def _collect_instances(paths: list[str]) -> list[Path]:
    out: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.opb")))
        else:
            out.append(path)
    if not out:
        raise CliError("no instance files found", 2)
    return out


def write_tables(tables: dict[str, tuple[list[str], list]], out_dir: str | None = None) -> None:
    """Write each ``(header, rows)`` table as CSV lines ending in ``\\n``, to ``<out_dir>/<stem>.csv``
    or to stdout; a cell holding a comma, a quote, ``\\r`` or ``\\n`` is quoted, and None is empty."""
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    for stem, (header, rows) in tables.items():
        with open(Path(out_dir, f"{stem}.csv"), "w", newline="") if out_dir else nullcontext(sys.stdout) as fh:
            for row in [header, *rows]:
                line = io.StringIO()
                csv.writer(line, lineterminator="\r\n").writerow(row)  # "\r\n": both characters quote a cell
                fh.write(line.getvalue()[:-2] + "\n")


def cmd_parse(args) -> int:
    inst = parse_opb_file(args.instance)
    if not args.check:
        sys.stdout.write(serialize(inst))
    return 0


def cmd_features(args) -> int:
    rows = [
        [str(path), *extract(parse_opb_file(path), args.schema).values]
        for path in _collect_instances(args.instances)
    ]
    write_tables({"features": (["instance", *feature_names(args.schema, with_timestep=False)], rows)})
    return 0


def cmd_run_portfolio(args) -> int:
    portfolio = _require_portfolio(args)
    grid = make_grid(args.grid_count, args.horizon, args.t_min)
    instances = _collect_instances(args.instances)
    archive = run_portfolio(
        portfolio, instances, grid, args.archive, parallelism=args.parallelism
    )
    failures = archive.failures()
    for iid, sid, message in failures:
        logger.error("failed pair (%s, %s): %s", iid, sid, message)
    print(f"archive {args.archive}: {len(archive.instances())} instances recorded")
    return 1 if failures else 0


def cmd_build_dataset(args) -> int:
    portfolio = _require_portfolio(args)
    archive = RunArchive(args.archive)
    ds = ds_mod.build_dataset(
        archive, args.schema, portfolio.solver_ids, encoding=args.timestep_encoding
    )
    ds_mod.write_csv(ds, args.out)
    print(f"{ds.labels.size} rows, {len(ds.skipped)} instances skipped -> {args.out}")
    return 0


def cmd_split(args) -> int:
    ds = ds_mod.read_csv(args.dataset)
    ds = ds_mod.split_by_benchmark(ds, args.seed, args.train_fraction)
    ds_mod.write_csv(ds, args.out or args.dataset)
    n_train = sum(1 for v in ds.split.values() if v == ds_mod.TRAIN)
    print(f"split: {n_train} train / {len(ds.split) - n_train} test instances")
    return 0


def cmd_train(args) -> int:
    ds = ds_mod.read_csv(args.dataset)
    model = train_model(
        ds,
        args.family,
        seed=args.seed,
        class_weight_mode=args.class_weights,
        include_no_solution=not args.drop_no_solution,
    )
    model.save(args.out)
    print(f"{args.family}_{ds.schema} model -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    model = TrainedModel.load(args.model)
    ds = ds_mod.read_csv(args.dataset)
    archive = RunArchive(args.archive)
    report = eval_mod.evaluate_selector(model, ds, archive, sbs=args.sbs)
    tables = report.tables()
    write_tables({stem: tables[stem] for stem in ("summary", "breakdown")})
    if args.out_dir:
        write_tables(tables, args.out_dir)
    return 0


def cmd_importance(args) -> int:
    model = TrainedModel.load(args.model)
    if model.mdi is None:
        raise CliError(f"{model.family} models have no MDI importances", 2)
    write_tables({"importance": (["feature", "mdi_importance"], zip(feature_names(model.schema), model.mdi))})
    return 0


def cmd_solve(args) -> int:
    portfolio = _require_portfolio(args)
    outcome = metaselect.solve(
        args.instance,
        args.budget,
        args.model,
        portfolio,
        on_no_solution=args.on_no_solution,
        assignment_path=args.assignment,
    )
    print(outcome.to_json())
    if outcome.exit_condition == metaselect.NO_SOLUTION_PREDICTED:
        return 3
    if outcome.exit_condition == metaselect.BUDGET_EXHAUSTED:
        return 4
    if outcome.exit_condition == metaselect.SOLVER_FAILED or outcome.objective is None:
        return 5
    return 0


def cmd_summary(args) -> int:
    ds = ds_mod.read_csv(args.dataset)
    write_tables(ds_mod.win_tables(ds), args.out_dir)
    print(f"win summaries -> {Path(args.out_dir)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbselect",
        description="anytime solver selection for pseudo-Boolean optimization",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate and canonicalize an OPB file")
    p.add_argument("instance")
    p.add_argument("--check", action="store_true", help="validate only, no output")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("features", help="emit feature vectors as CSV")
    p.add_argument("instances", nargs="+")
    p.add_argument("--schema", choices=sorted(SCHEMAS), default="nonlinear")
    p.set_defaults(fn=cmd_features)

    p = sub.add_parser("run-portfolio", help="record solver trajectories")
    p.add_argument("instances", nargs="+", help="OPB files or directories")
    p.add_argument("--archive", required=True)
    p.add_argument("--parallelism", type=int, default=None)
    _grid_args(p)
    _portfolio_arg(p)
    p.set_defaults(fn=cmd_run_portfolio)

    p = sub.add_parser("build-dataset", help="label an archive into a dataset CSV")
    p.add_argument("--archive", required=True)
    p.add_argument("--schema", choices=sorted(SCHEMAS), default="nonlinear")
    p.add_argument("--timestep-encoding", choices=TIMESTEP_ENCODINGS, default="index")
    p.add_argument("--out", required=True)
    _portfolio_arg(p)
    p.set_defaults(fn=cmd_build_dataset)

    p = sub.add_parser("split", help="assign per-benchmark train/test tags")
    p.add_argument("--dataset", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-fraction", type=float, default=0.7)
    p.add_argument("--out", help="default: rewrite the dataset in place")
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("train", help="fit a selection model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--class-weights", choices=MODES, default=INVERSE_FREQUENCY)
    p.add_argument("--drop-no-solution", action="store_true",
                   help="exclude NO_SOLUTION rows from training")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="score a model against an archive")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--archive", required=True)
    p.add_argument("--sbs", default="auto", help="solver id, or 'auto'")
    p.add_argument("--out-dir", help="also write CSV tables here")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("importance", help="print a model's MDI table")
    p.add_argument("--model", required=True)
    p.set_defaults(fn=cmd_importance)

    p = sub.add_parser("solve", help="select a solver and run it")
    p.add_argument("--instance", required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--on-no-solution", choices=(metaselect.NO_SOLUTION_REPORT,
                                                metaselect.NO_SOLUTION_FALLBACK),
                   default=metaselect.NO_SOLUTION_REPORT)
    p.add_argument("--assignment", help="write captured 'v' lines here")
    _portfolio_arg(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("summary", help="win-count CSV reports from a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_summary)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except CliError as exc:
        _diag("usage", str(exc))
        return exc.code
    except OpbParseError as exc:
        _diag("opb-parse", str(exc))
        return 1
    except (ValueError, KeyError, OSError) as exc:
        _diag(type(exc).__name__, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())

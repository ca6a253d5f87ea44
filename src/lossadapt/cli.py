"""Command-line front end.

    lossadapt run          --config c.json
    lossadapt sweep        --config s.json
    lossadapt walkers      --config w.json
    lossadapt inspect-trace TRACE.csv [--last N]

Each command that runs something runs its config file as written: `run`'s
seeds, LAP switch and output directory are its `seeds`, `lap.enabled` and
`output_dir`, and `run --help` lists every key. `sweep` reads one more key,
`grid`, and runs the config at every point of it. `walkers` reads a walker
ensemble config, whose keys and defaults `walkers --help` lists.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .config import CONFIG_KEY_DOC, config_from_dict, load_config, read_config_file
from .errors import LossAdaptError
from .experiment import TRACE_CSV_COLUMNS, point_text, run_experiment, sweep
from .walkers import WalkerConfig, simulate_walkers, write_walker_csv
from .walkers import expected_increment_probability

# `run` flags each source whose final gradient scale is below this
FLAG_BELOW = 0.5


def _add_run_parser(sub):
    p = sub.add_parser(
        "run",
        help="train per the config file and write metrics/trace files",
        description=(
            "Run the configured experiment for every seed in `seeds`, writing "
            "its files into `output_dir` when that is set. Each seed's line "
            "gives the final accuracies, the corrupt sources' final and lowest "
            "gradient scales, and the sources flagged: final scale below "
            f"{FLAG_BELOW}."
        ),
        epilog="config file keys:\n" + CONFIG_KEY_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--config", required=True, metavar="PATH",
                   help="JSON experiment config")
    return p


def _add_sweep_parser(sub):
    p = sub.add_parser(
        "sweep",
        help="run the config over a grid of config values",
        description=(
            "Run the config at every point of its `grid`, the one key only "
            "sweep reads, which maps dotted config keys to lists of values: "
            '{"lap.leniency": [0.4, 0.8], "lap.enabled": [true, false]} is '
            "four points. Each line gives a point and its mean±std final "
            "accuracy over `seeds`; `sweep.csv` lands in `output_dir` if set."
        ),
    )
    p.add_argument("--config", required=True, metavar="PATH",
                   help="JSON experiment config plus its grid")
    return p


def _add_walkers_parser(sub):
    p = sub.add_parser(
        "walkers",
        help="random-walker ensembles over a leniency grid",
        description=(
            "Simulate one ensemble of distrust walks per mean shift, print a "
            "line per (shift, leniency) point and write walkers.csv into "
            "output_dir if set. The config file's keys, each optional, with "
            f"their defaults: {json.dumps(asdict(WalkerConfig()))}"
        ),
    )
    p.add_argument("--config", required=True, metavar="PATH",
                   help="JSON walker ensemble config")
    return p


def _at_least_one(text: str) -> int:
    """``--last``'s value: a whole number of steps, at least 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


def _add_inspect_parser(sub):
    p = sub.add_parser(
        "inspect-trace",
        help="summarize a trace CSV (final distrust/scale per source)",
        description="Print per-source distrust and gradient scale at the last step.",
    )
    p.add_argument("trace", metavar="TRACE.csv")
    p.add_argument("--last", type=_at_least_one, default=1, metavar="N",
                   help="average over the last N steps (default 1)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossadapt",
        description="Source-aware robust training experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)
    _add_sweep_parser(sub)
    _add_walkers_parser(sub)
    _add_inspect_parser(sub)
    return parser


def _join(scales) -> str:
    return " ".join(f"{v:.3f}" for v in scales)


def _cmd_run(args) -> int:
    config = load_config(args.config)
    for run in run_experiment(config):
        parts = [f"seed {run.seed}:"]
        for split in ("train", "val", "test"):
            try:
                parts.append(f"{split} {run.final_accuracy(split):.4f}")
            except KeyError:
                pass
        trace = run.trace
        final, lowest = trace.final_and_lowest_scales()
        corrupt = trace.corrupt
        if corrupt.any():
            ids = [s for s, bad in zip(trace.source_ids, corrupt) if bad]
            parts.append(f"corrupt={ids} scales=[{_join(final[corrupt])}] "
                         f"lowest=[{_join(lowest[corrupt])}]")
        flagged = [s for s, v in zip(trace.source_ids, final) if v < FLAG_BELOW]
        parts.append(f"flagged={flagged}")
        print(" ".join(parts))
    if config.output_dir:
        print(f"wrote {Path(config.output_dir) / 'metrics.csv'}")
    return 0


def _cmd_sweep(args) -> int:
    raw = read_config_file(args.config)
    grid = raw.pop("grid", None) if isinstance(raw, dict) else None
    config = config_from_dict(raw)
    for row in sweep(config, grid):
        accuracy = f"{row['mean_accuracy']:.4f}±{row['std_accuracy']:.4f}"
        print(f"{point_text(row, grid)} acc={accuracy}")
    if config.output_dir:
        print(f"wrote {Path(config.output_dir) / 'sweep.csv'}")
    return 0


def _cmd_walkers(args) -> int:
    config = load_config(args.config, WalkerConfig)
    if config.output_dir:
        # made before the first ensemble, as `run` and `sweep` make theirs
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
    rows = simulate_walkers(config)
    for row in rows:
        p_up = expected_increment_probability(row.leniency, row.mean_shift)
        print(
            f"shift={row.mean_shift:g} leniency={row.leniency:g} "
            f"p_up={p_up:.4f} mean_distrust={row.mean_distrust:.2f} "
            f"mean_depression={row.mean_depression:.4f}"
        )
    if config.output_dir:
        write_walker_csv(rows, out / "walkers.csv")
        print(f"wrote {out / 'walkers.csv'}")
    return 0


def _trace_rows(path):
    """The rows of a trace CSV as dicts; ValueError on other columns or on a
    row with more or fewer cells than the header."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if set(reader.fieldnames or ()) != set(TRACE_CSV_COLUMNS):
            raise ValueError("not the trace columns")
        for row in reader:
            # DictReader keys extra cells by None and fills missing ones with None
            if None in row or None in row.values():
                raise ValueError("a row is not the header's length")
            yield row


def _cmd_inspect_trace(args) -> int:
    path = Path(args.trace)
    if not path.exists():
        print(f"error: no such trace file: {path}", file=sys.stderr)
        return 2
    # source -> [rows, distrust sum, scale sum, last is_corrupt]
    per_source: dict[int, list] = {}
    # two streamed passes: the first finds the last step, the second sums
    # each source's rows from the cutoff on, in file order. A directory, other
    # columns, no rows, a row of the wrong length or a cell that does not
    # parse is no trace CSV.
    try:
        last_step = max(int(r["step"]) for r in _trace_rows(path))
        cutoff = last_step - args.last + 1
        for r in _trace_rows(path):
            if int(r["step"]) >= cutoff:
                sums = per_source.setdefault(int(r["source_id"]), [0, 0, 0, ""])
                sums[0] += 1
                sums[1] += float(r["distrust"])
                sums[2] += float(r["gradient_scale"])
                sums[3] = r["is_corrupt"]
    except (IsADirectoryError, ValueError):
        print(f"error: {path} is not a trace CSV", file=sys.stderr)
        return 2
    print(f"steps 0..{last_step}, {len(per_source)} sources, "
          f"averaging last {args.last} step(s)")
    for source in sorted(per_source):
        n, distrust, scale, corrupt = per_source[source]
        tag = " corrupt" if corrupt == "1" else ""
        print(f"source {source}: distrust {distrust / n:.1f} "
              f"scale {scale / n:.4f}{tag}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "walkers": _cmd_walkers,
        "inspect-trace": _cmd_inspect_trace,
    }
    try:
        return handlers[args.command](args)
    except (LossAdaptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

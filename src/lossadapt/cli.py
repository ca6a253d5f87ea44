"""Command-line front end.

    lossadapt run          --config c.json [--seed N] [--out DIR] [--lap on|off]
    lossadapt sweep        --config c.json [--out DIR] [--leniency ...] ...
    lossadapt walkers      [--shift ...] [--leniency ...] [--out DIR] ...
    lossadapt inspect-trace TRACE.csv [--last N]

`run --help` lists every config file key.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .config import CONFIG_KEY_DOC, load_config
from .errors import LossAdaptError
from .experiment import SWEEP_AXES, TRACE_CSV_COLUMNS, run_experiment, sweep
from .experiment import write_sweep_csv
from .walkers import WalkerConfig, simulate_walkers, write_walker_csv
from .walkers import expected_increment_probability


def _add_run_parser(sub):
    p = sub.add_parser(
        "run",
        help="train per the config file and write metrics/trace files",
        description="Run the configured experiment for every seed.",
        epilog="config file keys:\n" + CONFIG_KEY_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--config", required=True, metavar="PATH",
                   help="JSON experiment config")
    p.add_argument("--seed", type=int, metavar="N",
                   help="run only this seed (overrides the config's list)")
    p.add_argument("--out", metavar="DIR",
                   help="output directory (overrides config output_dir)")
    p.add_argument("--lap", choices=("on", "off"),
                   help="force gradient depression on or off")
    return p


def _add_sweep_parser(sub):
    p = sub.add_parser(
        "sweep",
        help="grid over leniency/depression_strength/history_length/corruption_rate",
        description="Cartesian sweep; aggregates accuracy over the config's seeds.",
    )
    p.add_argument("--config", required=True, metavar="PATH")
    p.add_argument("--out", metavar="DIR", help="where sweep.csv lands")
    p.add_argument("--leniency", type=float, nargs="+", metavar="V")
    p.add_argument("--depression-strength", type=float, nargs="+", metavar="V")
    p.add_argument("--history-length", type=int, nargs="+", metavar="V")
    p.add_argument("--corruption-rate", type=float, nargs="+", metavar="V")
    return p


def _add_walkers_parser(sub):
    p = sub.add_parser(
        "walkers",
        help="random-walker ensembles over a leniency grid",
        description="Simulate distrust walks and write the summary CSV.",
    )
    p.add_argument("--shift", type=float, nargs="+", default=[0.0, 1.0, 2.0, 3.0],
                   metavar="V", help="loss-mean shifts (one ensemble each)")
    p.add_argument("--leniency", type=float, nargs="+",
                   default=[0.5, 1.0, 1.5, 2.0, 3.0], metavar="V")
    p.add_argument("--walkers", type=int, default=100, metavar="N")
    p.add_argument("--steps", type=int, default=10_000, metavar="N")
    p.add_argument("--depression-strength", type=float, default=1.0, metavar="V")
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.add_argument("--out", metavar="DIR", help="where walkers.csv lands")
    return p


def _add_inspect_parser(sub):
    p = sub.add_parser(
        "inspect-trace",
        help="summarize a trace CSV (final distrust/scale per source)",
        description="Print per-source distrust and gradient scale at the last step.",
    )
    p.add_argument("trace", metavar="TRACE.csv")
    p.add_argument("--last", type=int, default=1, metavar="N",
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


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = config.replace(seeds=(args.seed,))
    if args.lap is not None:
        from dataclasses import replace as dc_replace

        config = config.replace(lap=dc_replace(config.lap, enabled=args.lap == "on"))
    for run in run_experiment(config, out_dir=args.out):
        parts = [f"seed {run.seed}:"]
        for split in ("train", "val", "test"):
            try:
                parts.append(f"{split} {run.final_accuracy(split):.4f}")
            except KeyError:
                pass
        corrupt = sorted(run.corrupt_source_ids)
        if corrupt:
            scales = " ".join(
                f"{run.final_scales[s]:.3f}" for s in corrupt
            )
            parts.append(f"corrupt={corrupt} scales=[{scales}]")
        print(" ".join(parts))
    out = args.out or config.output_dir
    if out:
        print(f"wrote {Path(out) / 'metrics.csv'}")
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    grid = {axis: getattr(args, axis) for axis in SWEEP_AXES if getattr(args, axis)}
    rows = sweep(config, grid)
    for row in rows:
        print(
            f"leniency={row.leniency:g} strength={row.depression_strength:g} "
            f"h={row.history_length} rate={row.corruption_rate:g} "
            f"acc={row.mean_accuracy:.4f}±{row.std_accuracy:.4f}"
        )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_sweep_csv(rows, out / "sweep.csv")
        print(f"wrote {out / 'sweep.csv'}")
    return 0


def _cmd_walkers(args) -> int:
    rows = []
    for shift in args.shift:
        config = WalkerConfig(
            mean_shift=shift,
            n_walkers=args.walkers,
            n_steps=args.steps,
            leniencies=tuple(args.leniency),
            depression_strength=args.depression_strength,
            seed=args.seed,
        )
        rows.extend(simulate_walkers(config))
    for row in rows:
        p_up = expected_increment_probability(row.leniency, row.mean_shift)
        print(
            f"shift={row.mean_shift:g} leniency={row.leniency:g} "
            f"p_up={p_up:.4f} mean_distrust={row.mean_distrust:.2f} "
            f"mean_depression={row.mean_depression:.4f}"
        )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_walker_csv(rows, out / "walkers.csv")
        print(f"wrote {out / 'walkers.csv'}")
    return 0


def _cmd_inspect_trace(args) -> int:
    path = Path(args.trace)
    if not path.exists():
        print(f"error: no such trace file: {path}", file=sys.stderr)
        return 2
    # two streamed passes: the first finds the last step, the second sums
    # each source's rows from the cutoff on, in file order
    last_step = None
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if set(reader.fieldnames or ()) == set(TRACE_CSV_COLUMNS):
            last_step = max((int(r["step"]) for r in reader), default=None)
    if last_step is None:
        print(f"error: {path} is not a trace CSV", file=sys.stderr)
        return 2
    cutoff = last_step - max(args.last, 1) + 1
    # source -> [rows, distrust sum, scale sum, last is_corrupt]
    per_source: dict[int, list] = {}
    with open(path, newline="") as fh:
        for r in csv.DictReader(fh):
            if int(r["step"]) >= cutoff:
                sums = per_source.setdefault(int(r["source_id"]), [0, 0, 0, ""])
                sums[0] += 1
                sums[1] += float(r["distrust"])
                sums[2] += float(r["gradient_scale"])
                sums[3] = r["is_corrupt"]
    print(f"steps 0..{last_step}, {len(per_source)} sources, "
          f"averaging last {last_step - cutoff + 1} step(s)")
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
    except LossAdaptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

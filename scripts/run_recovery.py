#!/usr/bin/env python3
"""Reliability-flip experiment: corrupt sources turn clean halfway through.

The trace CSVs show the distrust walk up during the corrupt phase and back
down after the flip. Overlapping blobs (spread 2.5), a short history, and a
slightly loose leniency keep per-source losses spread out enough that a
recovered source re-enters the tolerated band within the second half.
"""

import argparse

import numpy as np

from lossadapt.config import config_from_dict
from lossadapt.experiment import run_experiment, total_steps


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out/recovery")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--flip-fraction", type=float, default=0.5)
    args = ap.parse_args()

    config = config_from_dict(
        {
            "dataset": {
                "kind": "blobs",
                "n_per_class": 400,
                "n_test_per_class": 100,
                "spread": 2.5,
            },
            "model": {"layer_widths": [2, 32, 32, 3]},
            "optimizer": {"kind": "adam", "learning_rate": 0.01},
            "lap": {"leniency": 1.3, "history_length": 10},
            "sources": {
                "n_sources": 10,
                "n_corrupt": 4,
                "mode": "random_label",
            },
            "training": {"epochs": args.epochs, "batch_size": 6},
            "seeds": args.seeds,
            "output_dir": args.out,
        }
    )
    steps = total_steps(config)
    flip = int(steps * args.flip_fraction)
    from dataclasses import replace

    config = config.replace(
        sources=replace(config.sources, reliability_flip_step=flip)
    )
    runs = run_experiment(config)

    print(f"flip at step {flip} of {steps}")
    finals = []
    for run in runs:
        flipped = sorted(run.corrupt_source_ids)
        scales = [run.final_scales[s] for s in flipped]
        columns = [run.trace.source_ids.index(s) for s in flipped]
        trough = run.trace.gradient_scales()[:, columns].min()
        finals.append(np.mean(scales))
        print(
            f"seed {run.seed}: flipped {flipped} trough scale {trough:.3f} "
            f"final scales " + " ".join(f"{v:.4f}" for v in scales)
        )
    print(
        f"mean final scale of flipped sources {np.mean(finals):.4f} "
        f"(recovered when > 0.99)"
    )
    print(f"outputs in {args.out}")


if __name__ == "__main__":
    main()

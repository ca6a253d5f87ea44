#!/usr/bin/env python3
"""Train on partially corrupted blob sources and report which sources the
trust machinery singled out.

Writes the usual experiment outputs (config.json, metrics.csv, one trace CSV
per seed) and prints the final gradient scale of every source so the
separation between corrupted and clean providers is visible at a glance.
"""

import argparse

import numpy as np

from lossadapt.config import config_from_dict
from lossadapt.experiment import run_experiment


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out/identification")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    ap.add_argument("--n-sources", type=int, default=10)
    ap.add_argument("--n-corrupt", type=int, default=4)
    ap.add_argument("--mode", default="random_label")
    ap.add_argument("--epochs", type=int, default=30)
    args = ap.parse_args()

    config = config_from_dict(
        {
            "dataset": {
                "kind": "blobs",
                "n_per_class": 400,
                "n_test_per_class": 100,
            },
            "model": {"layer_widths": [2, 32, 32, 3]},
            "optimizer": {"kind": "adam", "learning_rate": 0.01},
            "sources": {
                "n_sources": args.n_sources,
                "n_corrupt": args.n_corrupt,
                "mode": args.mode,
            },
            "training": {"epochs": args.epochs, "batch_size": 6},
            "seeds": args.seeds,
            "output_dir": args.out,
        }
    )
    runs = run_experiment(config)

    for run in runs:
        scales = [run.final_scales[s] for s in sorted(run.final_scales)]
        flagged = [s for s in sorted(run.final_scales) if run.final_scales[s] < 0.5]
        print(
            f"seed {run.seed}: test accuracy {run.final_accuracy('test'):.4f}  "
            f"corrupt {sorted(run.corrupt_source_ids)} flagged {flagged}"
        )
        print("  scales " + " ".join(f"{v:.3f}" for v in scales))
    accs = [run.final_accuracy("test") for run in runs]
    print(f"mean test accuracy {np.mean(accs):.4f} +- {np.std(accs):.4f}")
    print(f"outputs in {args.out}")


if __name__ == "__main__":
    main()

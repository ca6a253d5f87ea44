"""One benchmark job in a fresh process: build a workload's config, call
``lossadapt.experiment.run_experiment`` with an output directory, and print
one JSON line of measurements.

Modes:
  setup   stop at the first optimizer step; measures set-up time only
  full    the whole run, untraced
  traced  the whole run with spans around every layer's public functions

Set-up time runs from the top of this file (before numpy and the package
are imported) to the first call of ``loss_and_backward``. A one-shot wrapper
catches that call and puts the original function back, so the untraced run
pays for nothing after its first step.

Run from the repository root with ``PYTHONPATH=src``; ``run.py`` does that.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class _SetupDone(Exception):
    """Raised at the first step of a set-up-only job."""


def _hook_first_step(experiment, stop: bool) -> dict:
    """Record when run_single first calls loss_and_backward."""
    original = experiment.loss_and_backward
    seen = {}

    def first_step(*args, **kwargs):
        seen["t"] = time.perf_counter()
        experiment.loss_and_backward = original
        if stop:
            raise _SetupDone
        return original(*args, **kwargs)

    experiment.loss_and_backward = first_step
    return seen


def _install_tracer(tracer: Tracer) -> None:
    from lossadapt import experiment, optim

    # experiment imported these by name, so they are wrapped where it looks
    for attr, name in (
        ("run_single", "experiment.run_single"),
        ("prepare_run", "experiment.prepare_run"),
        ("write_trace_csv", "experiment.write_trace_csv"),
        ("make_blobs", "datasets.make_blobs"),
        ("apply_corruption", "corruption.apply_corruption"),
        ("loss_and_backward", "models.loss_and_backward"),
        ("evaluate", "models.evaluate"),
    ):
        tracer.wrap(experiment, attr, name)
    tracer.wrap(optim, "scale_gradients", "optim.scale_gradients")
    tracer.wrap(optim.LapOptimizer, "step", "optim.LapOptimizer.step")
    tracer.wrap(optim.Adam, "step", "optim.inner_step")
    tracer.wrap(optim.SGD, "step", "optim.inner_step")
    registry = experiment.SourceRegistry
    for attr in (
        "record_loss",
        "update_distrust",
        "weighted_other_stats",
        "depression",
        "snapshot",
    ):
        tracer.wrap(registry, attr, f"trust.{attr}")


def _blas_name(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def run_job(args) -> dict:
    import numpy as np

    from lossadapt import experiment
    from lossadapt.config import config_from_dict

    t_imported = time.perf_counter()
    config = config_from_dict(WORKLOADS[args.workload].config(args.seed, args.epochs))
    out = {
        "package": experiment.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(np),
        "import_s": t_imported - T_START,
        "config_s": time.perf_counter() - t_imported,
    }
    tracer = None
    seen = {}
    if args.mode == "traced":
        tracer = Tracer()
        _install_tracer(tracer)
    else:
        seen = _hook_first_step(experiment, stop=args.mode == "setup")

    t0, cpu0 = time.perf_counter(), time.process_time()
    try:
        experiment.run_experiment(config, out_dir=args.out)
    except _SetupDone:
        pass
    t1, cpu1 = time.perf_counter(), time.process_time()
    if tracer is not None:
        tracer.restore()

    if "t" in seen:
        out["setup_s"] = seen["t"] - T_START
    if args.mode == "setup":
        return out
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["wall_s"] = t1 - t0
    out["cpu_s"] = cpu1 - cpu0
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
    if tracer is not None:
        spans = tracer.spans()
        out["trace"] = summarize(spans, percentiles_of=("optim.LapOptimizer.step",))
        out["trace"]["spans"] = len(spans)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--epochs", type=int, default=None)
    ap.add_argument("--mode", required=True, choices=("setup", "full", "traced"))
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    try:
        result = run_job(args)
    except Exception:  # reported to the parent, which counts the failure
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer metrics of the traced run, and the end-to-end metric each one
should move.

Layers are the package's modules: ``experiment`` (run loop, trace capture,
CSV output), ``datasets``, ``corruption``, ``models``, ``optim`` and
``trust``. ``walkers``, ``cli`` and ``config`` are left out on purpose: no
speed aim touches them.

Times come from spans (see ``tracer.py``). Metrics marked computed are exact
counts worked out from the config or read from the written files; they
repeat exactly, so a later change can quote them.
"""

from __future__ import annotations

from dataclasses import dataclass

BYTES_PER_VALUE = 8  # float64
# arrays an update must read or write per parameter, at least: Adam reads
# p, g, m, v and writes p, m, v; momentum SGD reads p, g, v and writes p, v
ARRAYS_PER_UPDATE = {"adam": 7, "sgd_momentum": 5, "sgd": 3}


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    moves: str  # end-to-end metric and workload it should move
    computed: bool = False


_IDENT = "steps_per_s on identification"
_MANY = "steps_per_s on many_sources"
_MNIST = "steps_per_s on mnist_shaped"
_TRACE = "steps_per_s on many_sources and identification; peak_rss_mb on many_sources"

PER_LAYER = (
    LayerMetric("trust.record_loss.self_us", "us", _IDENT),
    LayerMetric("trust.depression.us_per_call", "us", _IDENT),
    LayerMetric("trust.depression.calls", "count", _IDENT),
    LayerMetric("trust.depression.via_step.calls", "count", _IDENT),
    LayerMetric("trust.depression.via_snapshot.calls", "count", _IDENT),
    LayerMetric("trust.weighted_other_stats.us_per_call", "us", _MANY),
    LayerMetric("trust.update_distrust.calls", "count", _MANY),
    LayerMetric("trust.cells_per_update", "cells", _MANY, computed=True),
    LayerMetric("trust.snapshot.ms", "ms", _TRACE),
    LayerMetric("trust.snapshot.calls", "count", _TRACE),
    LayerMetric("experiment.run_single.self_ms", "ms", _TRACE),
    LayerMetric("experiment.trace_rows", "rows", _TRACE, computed=True),
    LayerMetric("experiment.write_trace_csv.ms", "ms", _MANY),
    LayerMetric("experiment.write_trace_csv.bytes", "B", _MANY, computed=True),
    LayerMetric("optim.inner_step.us_per_call", "us", f"{_MNIST}, then identification"),
    LayerMetric(
        "optim.inner_step.bytes_per_call", "B",
        f"{_MNIST}, then identification", computed=True,
    ),
    LayerMetric("optim.scale_gradients.ms", "ms", f"{_MNIST}, then identification"),
    LayerMetric("optim.scale_gradients.calls", "count", f"{_MNIST}, then identification"),
    LayerMetric("optim.LapOptimizer.step.self_us", "us", _IDENT),
    LayerMetric("optim.LapOptimizer.step.p50_us", "us", _IDENT),
    LayerMetric("optim.LapOptimizer.step.p99_us", "us", _IDENT),
    LayerMetric("models.loss_and_backward.us_per_call", "us", _MNIST),
    LayerMetric("models.loss_and_backward.calls", "count", _MNIST),
    LayerMetric("models.loss_and_backward.flops_per_call", "flop", _MNIST, computed=True),
    LayerMetric("models.evaluate.ms", "ms", _MNIST),
    LayerMetric("corruption.apply_corruption.ms", "ms", _IDENT),
    LayerMetric("corruption.apply_corruption.calls", "count", _IDENT),
    LayerMetric("experiment.prepare_run.ms", "ms", "setup_s on mnist_shaped"),
    LayerMetric("datasets.make_blobs.ms", "ms", "setup_s on mnist_shaped"),
    LayerMetric("trace.overhead_ms", "ms", "none: traced minus untraced wall time"),
)


def _per_call(layer: dict, key: str) -> float:
    return layer[key] / layer["calls"] * 1e6 if layer["calls"] else 0.0


def span_metrics(trace: dict) -> dict[str, float]:
    """Span-derived metrics of one traced run."""
    layers = trace["layers"]

    def get(name: str) -> dict:
        return layers.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": {}})

    depression = get("trust.depression")
    step = get("optim.LapOptimizer.step")
    out = {
        "trust.record_loss.self_us": _per_call(get("trust.record_loss"), "self_s"),
        "trust.depression.us_per_call": _per_call(depression, "total_s"),
        "trust.depression.calls": depression["calls"],
        "trust.depression.via_step.calls": depression["parents"].get(
            "optim.LapOptimizer.step", 0
        ),
        "trust.depression.via_snapshot.calls": depression["parents"].get(
            "trust.snapshot", 0
        ),
        "trust.weighted_other_stats.us_per_call": _per_call(
            get("trust.weighted_other_stats"), "total_s"
        ),
        "trust.update_distrust.calls": get("trust.update_distrust")["calls"],
        "optim.inner_step.us_per_call": _per_call(get("optim.inner_step"), "total_s"),
        "optim.LapOptimizer.step.self_us": _per_call(step, "self_s"),
        "optim.LapOptimizer.step.p50_us": step.get("p50_s", 0.0) * 1e6,
        "optim.LapOptimizer.step.p99_us": step.get("p99_s", 0.0) * 1e6,
        "models.loss_and_backward.us_per_call": _per_call(
            get("models.loss_and_backward"), "total_s"
        ),
        "experiment.run_single.self_ms": get("experiment.run_single")["self_s"] * 1e3,
    }
    for name in (
        "trust.snapshot",
        "experiment.write_trace_csv",
        "optim.scale_gradients",
        "models.evaluate",
        "corruption.apply_corruption",
        "experiment.prepare_run",
        "datasets.make_blobs",
    ):
        out[f"{name}.ms"] = get(name)["total_s"] * 1e3
    for name in (
        "trust.snapshot",
        "optim.scale_gradients",
        "models.loss_and_backward",
        "corruption.apply_corruption",
    ):
        out[f"{name}.calls"] = get(name)["calls"]
    return out


def computed_metrics(config: dict, outputs: dict) -> dict[str, int]:
    """Exact counts from the config and from the files a run wrote."""
    widths = config["model"]["layer_widths"]
    batch = config["training"]["batch_size"]
    n_sources = config["sources"]["n_sources"]
    history = config["lap"]["history_length"]
    opt = config["optimizer"]
    kind = opt["kind"]
    if kind == "sgd" and opt.get("momentum", 0.0) > 0.0:
        kind = "sgd_momentum"
    n_params = sum(i * o + o for i, o in zip(widths[:-1], widths[1:]))
    # per full batch: forward h @ w and backward h.T @ delta in every layer,
    # plus delta @ w.T in all but the first; 2 flops per multiply-add,
    # elementwise work left out
    flops = sum(
        2 * batch * i * o * (2 if k == 0 else 3)
        for k, (i, o) in enumerate(zip(widths[:-1], widths[1:]))
    )
    return {
        "trust.cells_per_update": (n_sources - 1) * history,
        "optim.inner_step.bytes_per_call": n_params * BYTES_PER_VALUE * ARRAYS_PER_UPDATE[kind],
        "models.loss_and_backward.flops_per_call": flops,
        "experiment.trace_rows": outputs["trace_rows"],
        "experiment.write_trace_csv.bytes": outputs["trace_bytes"],
    }

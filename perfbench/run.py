"""Benchmark harness for opwls.

Run from the repository root::

    python3 perfbench/run.py --workload poly-fit --seed 1 --seconds 35 --trace 0

One run imports ``opwls`` from ``src/``, sets up once, then repeats the
workload's unit of work until ``--seconds`` are spent (always at least one
unit).  With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` every call into a library
module is recorded as a span, the spans are written to
``perfbench/_work/traces/`` and the last line carries the per-layer metrics.
Lines before the last one start with ``#`` and give the same numbers in a
readable form, together with the software environment.  Workloads and
metrics are defined in ``BENCHMARK.json``; ``perfbench/README.md`` explains
them.
"""

from __future__ import annotations

import time

# set-up time counts from here, so it includes importing numpy and scipy
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_BUILDS = 3
END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "1",
}
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS",
)
# span names whose summed self time and call count are per-layer metrics
LAYER_SPANS = (
    "cli.import", "measures.build", "index_sets.generate", "operator_basis.build",
    "sampling.tables", "sampling.plan", "sampling.optimal", "sampling.monte_carlo",
    "pde.truth", "wls.warmup", "wls.assemble", "wls.gram", "wls.solve",
    "wls.predict", "evaluation.error", "experiments.demo_target",
)
MODULES = (
    "measures", "index_sets", "operator_basis", "sampling", "wls", "pde",
    "evaluation", "experiments", "cli", "gate",
)

sys.path.insert(0, str(HERE))

from spans import Tracer, percentile, tail_percentile  # noqa: E402
import workloads  # noqa: E402


def load_library() -> SimpleNamespace:
    """The opwls names the workloads call, imported from this checkout's ``src/``."""
    sys.path.insert(0, str(ROOT / "src"))
    import opwls
    from opwls import cli, experiments

    if ROOT / "src" not in Path(opwls.__file__).resolve().parents:
        raise ImportError(f"opwls was imported from {opwls.__file__}")
    names = {name: getattr(opwls, name) for name in opwls.__all__}
    return SimpleNamespace(
        **names, demo_target=experiments.demo_target, cli_main=cli.main,
        version=opwls.__version__,
    )


def environment(lib: SimpleNamespace) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "opwls": lib.version,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "src_lines": src_lines,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def host_steal_s() -> float:
    """Time the hypervisor took from this machine's CPUs, summed over CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0.0
    steal = int(fields[8]) if len(fields) > 8 else 0
    return steal / os.sysconf("SC_CLK_TCK")


def span_cost(samples: int = 2000) -> float:
    """Seconds one nested span costs, measured on a scratch tracer."""
    probe = Tracer(True, "calibration")
    t0 = time.perf_counter()
    for _ in range(samples // 2):
        with probe.span("a"):
            with probe.span("b"):
                pass
    return (time.perf_counter() - t0) / samples


def check_reference(workload: str, ops: list) -> list[str]:
    """Compare the first unit's results with the values recorded for seed 0."""
    expected = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload)
    if expected is None:
        return [f"no reference recorded for {workload}"]
    got = reference_values(ops)
    if len(got) != len(expected):
        return [f"{len(got)} reference values, expected {len(expected)}"]
    misses = []
    for i, (g, e) in enumerate(zip(got, expected)):
        for key, want in e.items():
            have = g.get(key)
            # roundoff-level errors (poly-fit) are compared absolutely
            tol = max(1e-6 * abs(want), 1e-9 if key == "rel_error" else 0.0)
            if have is None or not abs(have - want) <= tol:
                misses.append(f"op {i} {key}: {have!r} != {want!r}")
    return misses


def reference_values(ops: list) -> list[dict]:
    out = []
    for op in ops:
        values = {}
        if op.rel_error is not None:
            values["rel_error"] = op.rel_error
        if "cond_g" in op.detail:
            values["cond_g"] = op.detail["cond_g"]
        out.append(values)
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description="opwls benchmark harness")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="record the first unit's results as the seed-0 reference",
    )
    return parser.parse_args(argv)


@dataclass
class Run:
    """Timings and outcomes of one harness run."""

    import_s: float
    builds: list[float]
    warm_s: float
    lib: SimpleNamespace
    units: list[float] = field(default_factory=list)
    unit_cpu: list[float] = field(default_factory=list)
    unit_steal: list[float] = field(default_factory=list)
    unit_ops: list[list] = field(default_factory=list)

    @property
    def ops(self) -> list:
        return [op for ops in self.unit_ops for op in ops]

    @property
    def setup_s(self) -> float:
        return self.import_s + statistics.median(self.builds) + self.warm_s


def execute(args, rec: workloads.Recorder) -> Run | None:
    """Import, set up, then repeat units until ``args.seconds`` are spent."""
    tracer = rec.tracer
    try:
        with rec.call("cli.import"):
            lib = load_library()
    except ImportError as exc:
        print(f"cannot import opwls from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return None
    import_s = time.perf_counter() - STARTED

    workload = workloads.make(args.workload, WORK)
    with tracer.span("harness.setup"):
        builds = []
        for _ in range(SETUP_BUILDS):
            t0 = time.perf_counter()
            space = workloads.build_space(lib, rec, workload.radius)
            builds.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        workloads.warm_up(lib, rec, space)
        workload.setup(lib, rec, args.seed, space)
        warm_s = time.perf_counter() - t0
    run = Run(import_s, builds, warm_s, lib)

    t_loop = time.perf_counter()
    while True:
        t0, c0, s0 = time.perf_counter(), cpu_seconds(), host_steal_s()
        with tracer.span("harness.unit"):
            ops = workload.unit(rec, len(run.units))
        run.units.append(time.perf_counter() - t0)
        run.unit_cpu.append(cpu_seconds() - c0)
        run.unit_steal.append(host_steal_s() - s0)
        run.unit_ops.append(ops)
        elapsed = time.perf_counter() - t_loop
        # start another unit only if it is expected to end in time
        if elapsed + statistics.median(run.units) > args.seconds:
            return run


def rel_error_max(run: Run) -> float:
    """Largest relative test error of a unit's operations, median over units."""
    per_unit = [
        max(op.rel_error for op in ops if op.rel_error is not None)
        for ops in run.unit_ops
        if any(op.rel_error is not None for op in ops)
    ]
    return statistics.median(per_unit) if per_unit else math.nan


def end_to_end(run: Run) -> dict:
    ops = run.ops
    # Hypervisor steal comes in bursts on a shared machine: over ten
    # burgers-truth runs on 2 vCPUs the raw unit time ranged over 20.5-33.5 s
    # and grew about 1 s per second of steal.  Less steal, the spread fell
    # from about 20% to 8%.
    unstolen = [wall - steal for wall, steal in zip(run.units, run.unit_steal)]
    return {
        "wall_s": statistics.median(unstolen),
        "cpu_s": statistics.median(run.unit_cpu),
        "setup_s": run.setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": sum(op.ok for op in ops) / len(ops),
    }


def workload_figures(workload: str, run: Run, rec: workloads.Recorder) -> dict:
    """Figures that only some workloads produce, as ``name: (value, unit)``."""
    ops = run.ops
    fits = [op.seconds for op in ops if op.ok and "sampler" in op.detail]
    n_units = len(run.units)
    cold = [op.seconds for op in ops if op.detail.get("phase") == "cold"]
    warm = [op.seconds for op in ops if op.detail.get("phase") == "warm"]
    tail = tail_percentile(fits) if fits else None
    truth_s = rec.counts["pde.truth_seconds"]
    return {
        "failed_frac": (sum(not op.ok for op in ops) / len(ops), "1"),
        "rel_test_error.max": (rel_error_max(run), "1"),
        "fit_s.count": (len(fits), "count"),
        "fit_s.p50": (percentile(fits, 50.0) if fits else 0.0, "s"),
        "fit_s.tail_pct": (tail or 0.0, "pct"),
        "fit_s.tail": (percentile(fits, tail) if tail else 0.0, "s"),
        "truth_traj_per_s": (
            rec.counts["pde.trajectories"] / truth_s if truth_s else 0.0, "1/s"
        ),
        "cold_run_s": (sum(cold) / n_units, "s"),
        "warm_run_s": (sum(warm) / n_units, "s"),
        "artifact_bytes": (rec.counts["experiments.artifact_bytes"] / n_units, "B"),
        "wall_raw_s": (statistics.median(run.units), "s"),
        "host_steal_s": (sum(run.unit_steal), "s"),
        "setup.import_s": (run.import_s, "s"),
        "setup.build_s": (statistics.median(run.builds), "s"),
        "setup.warmup_s": (run.warm_s, "s"),
        "units": (n_units, "count"),
    }


def layer_metrics(tracer: Tracer, rec: workloads.Recorder, figures: dict,
                  per_span_s: float) -> dict:
    """Per-layer metrics of a traced run, as ``name: (value, unit)``."""
    selfs = tracer.self_times()
    metrics = {}
    for name in LAYER_SPANS:
        total, calls = selfs.get(name, (0.0, 0))
        metrics[f"{name}_s"] = (total, "s")
        metrics[f"{name}.calls"] = (calls, "count")
    for preset in workloads.CLI_PRESETS:
        for phase in ("cold", "warm"):
            total, _ = selfs.get(f"experiments.run.{preset}.{phase}", (0.0, 0))
            metrics[f"experiments.run_s.{preset}.{phase}"] = (total, "s")
    counts = rec.counts
    steps = counts["pde.traj_steps"]
    truth_s = selfs.get("pde.truth", (0.0, 0))[0]
    fits = counts["wls.fits"]
    metrics.update({
        "index_sets.n_eff": (counts["index_sets.n_eff"], "count"),
        "sampling.rows": (counts["sampling.rows"], "count"),
        "pde.trajectories": (counts["pde.trajectories"], "count"),
        "pde.traj_steps": (steps, "count"),
        "pde.us_per_traj_step": (1e6 * truth_s / steps if steps else 0.0, "us"),
        "wls.fits": (fits, "count"),
        "wls.stable_ratio": (counts["wls.stable"] / fits if fits else 0.0, "1"),
        "wls.cond_g.max": (counts["wls.cond_g.max"], "1"),
        "experiments.files_written": (
            counts["experiments.files_written"] / figures["units"][0], "count"
        ),
        "experiments.dataset_bytes": (
            counts["experiments.dataset_bytes"] / figures["units"][0], "B"
        ),
    })
    for module in MODULES:
        metrics[f"{module}.failed"] = (rec.failed[module], "count")
    metrics.update(figures)
    units_s = sum(s.end - s.start for s in tracer.spans if s.name == "harness.unit")
    unit_self = selfs.get("harness.unit", (0.0, 0))[0]
    metrics.update({
        "trace.spans": (len(tracer.spans), "count"),
        "trace.overhead_s": (len(tracer.spans) * per_span_s, "s"),
        "trace.units_s": (units_s, "s"),
        "trace.unit_layers_s": (units_s - unit_self, "s"),
        "harness.unit_self_s": (unit_self, "s"),
        "harness.setup_self_s": (selfs.get("harness.setup", (0.0, 0))[0], "s"),
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(args.trace == 1, run_id)
    rec = workloads.Recorder(tracer)
    run = execute(args, rec)
    if run is None:
        return 2

    ops = run.ops
    failed = sum(not op.ok for op in ops)
    problems = [f"{failed} of {len(ops)} operations failed"] if failed else []
    if args.write_reference:
        if args.seed != REFERENCE_SEED:
            print("--write-reference needs the reference seed", file=sys.stderr)
            return 2
        recorded = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        recorded[args.workload] = reference_values(run.unit_ops[0])
        REFERENCE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    elif args.seed == REFERENCE_SEED:
        problems += check_reference(args.workload, run.unit_ops[0])

    e2e = end_to_end(run)
    figures = workload_figures(args.workload, run, rec)
    env = environment(run.lib)
    print(f"# {args.workload} seed={args.seed} units={len(run.units)} "
          f"operations={len(ops)} failed={failed}")
    for name, value in e2e.items():
        print(f"#   {name:<32} {value:.6g} {END_TO_END_UNITS[name]}")
    for name, (value, unit) in figures.items():
        print(f"#   {name:<32} {value:.6g} {unit}")
    for label, values in (("wall", run.units), ("cpu", run.unit_cpu),
                          ("host steal", run.unit_steal)):
        print(f"# unit {label} s: " + " ".join(f"{v:.3f}" for v in values))
    for line in problems:
        print(f"# FAILED: {line}")
    print("# env " + json.dumps(env, sort_keys=True))

    if args.trace:
        per_layer = layer_metrics(tracer, rec, figures, span_cost())
        tracer.write(
            WORK / "traces" / f"{args.workload}-seed{args.seed}.json",
            {"run_id": run_id, "env": env, "args": vars(args),
             "end_to_end": e2e,
             "per_layer": {k: v for k, (v, _) in per_layer.items()}},
        )
        metrics = per_layer
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
    values = [v for v, _ in metrics.values()]
    result = {
        "correct": not problems and all(math.isfinite(v) for v in values),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the ``cascade`` command line, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/bench.py --workload basin_csv --seed 7 --seconds 25 --trace 0

Each workload is one ``cascade`` command, run in-process through
``cascade_maps.cli.main(argv)`` in a closed loop (the next command starts
when the previous one has returned and been checked):

* ``basin_csv``: full-figure basin export to CSV; the writer dominates.
* ``accumulation_corner``: corner counts over three grid sizes with two
  render threads; the kernel and ``render_basins`` dominate.
* ``census_n8``: seeded attractor census of an 8-site lattice; the
  census's own Python code (the Hausdorff merge) dominates.

With ``--trace 0`` the run reports the end-to-end metrics, after one
warm-up command:

* ``ref_wall_s``: the median over commands of the wall time at reference
  machine speed, that is, the command's wall time times
  ``speed.REFERENCE_S`` over the mean of the :mod:`speed` probes timed
  right before and after it.  Raw wall times drift by tens of percent on a
  shared machine; this ratio drifts far less.  The raw median is printed
  as ``wall_s`` and reported by ``--trace 1``.
* ``ref_site_steps_per_s``: the nominal orbits x sites x steps of one
  command over ``ref_wall_s``.
* ``peak_mb``: the ``tracemalloc`` peak of the warm-up command.
* ``setup_s``: the median import time of the package in a fresh
  interpreter, scaled to reference machine speed the same way; the raw
  times are printed.
* ``pass_frac``: the share of commands that passed the output check.

With ``--trace 1`` it alternates untraced and traced commands and reports
per-layer times and counts from the spans of :mod:`spans`, the raw
``wall_s`` of the untraced commands and the tracing overhead.

``--seed`` only reaches the census: the k-th timed census command uses
:func:`census_seed`.  The warm-up command of every run is the reference
input (census seed ``DEFAULT_SEED``), whose stdout and output file must
match the sha256 digests in ``reference.json``.  Every command's output is
also checked against invariants that hold for any seed.  Checks run
outside the timed region.  The last line of standard output is one JSON
object; the exit code is 1 when any check failed and 2 when the package
cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

from spans import Tracer
from speed import ReferenceClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).with_name("reference.json")
OUT_DIR = Path(".perfbench_out")
BASIN_CSV = OUT_DIR / "basin.csv"

C1 = "0.95"
TINY_RESOLUTION = 31
TINY_SAMPLES = 200

#: Fresh interpreters per run for ``setup_s``.
SETUP_REPEATS = 5

#: Per-layer metric predicted to dominate each workload's command time.
PREDICTED = {
    "basin_csv": ("io.write_s",),
    "accumulation_corner": ("basins.render_self_s", "lattice.kernel_s"),
    "census_n8": ("analysis.census_self_s",),
}
WORKLOADS = tuple(PREDICTED)

#: Self times that partition a command's wall time, apart from the kernel,
#: whose busy time is summed over threads.
SELF_TIMES = (
    "lattice.kernel_s",
    "lattice.step_s",
    "basins.render_self_s",
    "basins.label_s",
    "analysis.census_self_s",
    "io.write_s",
    "cli.parse_s",
    "cli.self_s",
)

END_TO_END_UNITS = {
    "ref_wall_s": "s",
    "ref_site_steps_per_s": "1/s",
    "peak_mb": "MB",
    "setup_s": "s",
    "pass_frac": "frac",
}

PER_LAYER_UNITS = {
    "wall_s": "s",
    "lattice.kernel_calls": "count",
    "lattice.kernel_s": "s",
    "lattice.kernel_site_steps": "count",
    "lattice.kernel_ns_per_site_step": "ns",
    "lattice.kernel_bytes_computed": "B",
    "lattice.step_calls": "count",
    "lattice.step_s": "s",
    "basins.render_s": "s",
    "basins.render_self_s": "s",
    "basins.label_s": "s",
    "analysis.census_s": "s",
    "analysis.census_self_s": "s",
    "io.write_s": "s",
    "io.bytes_written": "B",
    "io.write_mb_per_s": "MB/s",
    "cli.parse_s": "s",
    "cli.self_s": "s",
    "basins.cells": "count",
    "basins.classes": "count",
    "basins.components": "count",
    "analysis.attractors": "count",
    "analysis.unresolved": "count",
    "trace.overhead_frac": "frac",
}


def load_package() -> SimpleNamespace:
    """Import the package from this checkout's ``src/`` directory, never
    from an installed copy."""
    if not (SRC / "cascade_maps" / "__init__.py").is_file():
        raise ImportError(f"no cascade_maps package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = ("cli", "basins", "analysis", "io")
    return SimpleNamespace(
        **{n: importlib.import_module(f"cascade_maps.{n}") for n in names}
    )


def census_seed(seed: int, k: int) -> int:
    """Census seed of the k-th timed command of a run.

    Command 0 uses the run seed itself; later commands use seeds hashed
    from it, so one run's median covers several census inputs.
    """
    if k == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def command_argv(workload: str, seed: int, tiny: bool) -> list[str]:
    if workload == "basin_csv":
        r = TINY_RESOLUTION if tiny else 499
        return ["basin", "--c1", C1, "--resolution", str(r), "--format", "csv",
                "--workers", "1", "--out", str(BASIN_CSV)]
    if workload == "accumulation_corner":
        argv = ["accumulation", "--c1", C1, "--corner", "--workers", "2"]
        return argv + ["--resolutions", str(TINY_RESOLUTION)] if tiny else argv
    samples = TINY_SAMPLES if tiny else 10_000
    return ["census", "--c1", C1, "--sites", "8", "--samples", str(samples),
            "--seed", str(seed)]


def nominal_site_steps(cfg) -> int:
    """Orbits x sites x steps that a resolved command implies."""
    if cfg.subcommand == "census":
        return cfg.samples * cfg.sites * (cfg.transient + cfg.max_period)
    steps = cfg.transient + cfg.window
    if cfg.subcommand == "basin":
        return cfg.resolution**2 * 2 * steps
    return sum(r * r for r in cfg.resolutions) * 2 * steps


# ------------------------------------------------------------ output check


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _header_fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def _check_basin(cfg, stdout: str, data: bytes) -> list[str]:
    problems = []
    lines = data.split(b"\r\n")
    if lines[0] != b"i,j,x,y,fingerprint,class" or lines[-1] != b"":
        return ["basin CSV header or line endings changed"]
    classes = [line.rsplit(b",", 1)[1] for line in lines[1:-1]]
    if len(classes) != cfg.resolution**2:
        problems.append(f"basin CSV has {len(classes)} rows, expected {cfg.resolution**2}")
    # Rows run i-major, so the reflection (i, j) -> (r-1-i, r-1-j) reverses them.
    if classes != classes[::-1]:
        problems.append("basin class map is not mirror symmetric")
    reported = _header_fields(stdout.splitlines()[0]).get("classes")
    if reported != str(len(set(classes))):
        problems.append(f"stdout reports classes={reported}, CSV has {len(set(classes))}")
    return problems


def _check_accumulation(cfg, stdout: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(stdout)))
    if rows[0] != ["resolution", "eps", "corner", "components"]:
        return ["accumulation header changed"]
    body = rows[1:]
    problems = []
    expected = len(cfg.resolutions) * len(cfg.eps) * 4
    if len(body) != expected:
        problems.append(f"accumulation has {len(body)} rows, expected {expected}")
    if any(int(row[3]) < 1 for row in body):
        problems.append("a corner box meets no component")
    return problems


def _check_census(cfg, stdout: str) -> list[str]:
    first, _, table = stdout.partition("\n")
    head = _header_fields(first)
    rows = list(csv.reader(io.StringIO(table)))
    if rows[0] != ["rank", "period", "kind", "fingerprint", "hits"]:
        return ["census header changed"]
    body = rows[1:]
    problems = []
    if head.get("attractors") != str(len(body)):
        problems.append(f"census reports {head.get('attractors')} attractors, lists {len(body)}")
    if head.get("samples") != str(cfg.samples) or head.get("seed") != f"{cfg.seed:#x}":
        problems.append("census echoes the wrong samples or seed")
    hits = [int(row[4]) for row in body]
    periods = [int(row[1]) for row in body]
    if [int(row[0]) for row in body] != list(range(len(body))):
        problems.append("census ranks are not 0..k-1")
    if any(h < 1 for h in hits) or hits != sorted(hits, reverse=True):
        problems.append("census hits are not positive and non-increasing")
    if any(not 1 <= p <= cfg.max_period for p in periods):
        problems.append("census period outside 1..max_period")
    # The samples with no detected period make up the rest: sum(hits) + unresolved == samples.
    if sum(hits) > cfg.samples:
        problems.append(f"census hits sum to {sum(hits)} > samples {cfg.samples}")
    return problems


def check_output(workload: str, cfg, rc: int, stdout: str, digests: dict | None) -> list[str]:
    """Problems found in one command's exit code and output; empty if none.

    ``digests`` holds the reference sha256 values when they apply to this
    command, and is None otherwise.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    actual = {"stdout": _sha256(stdout.encode())}
    try:
        if workload == "basin_csv":
            data = BASIN_CSV.read_bytes()
            actual["file"] = _sha256(data)
            problems = _check_basin(cfg, stdout, data)
        elif workload == "accumulation_corner":
            problems = _check_accumulation(cfg, stdout)
        else:
            problems = _check_census(cfg, stdout)
    except (OSError, IndexError, ValueError) as exc:
        problems = [f"malformed output: {exc!r}"]
    if digests is not None:
        for key, value in actual.items():
            if digests.get(key) != value:
                problems.append(f"{key} sha256 {value} differs from reference {digests.get(key)}")
    return problems


# ------------------------------------------------------------- commands


def run_command(pkg, argv: list[str]) -> tuple[int, str, float]:
    """Run one command in-process; return exit code, stdout and wall time."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = pkg.cli.main(argv)
    return rc, buf.getvalue(), time.perf_counter() - start


def run_traced(pkg, argv: list[str]) -> tuple[int, str, float, Tracer]:
    """Run one command with every layer boundary wrapped by a fresh tracer."""
    with Tracer() as tracer:
        _wrap_layers(tracer, pkg)
        buf = io.StringIO()
        root = tracer.open("command")
        try:
            with contextlib.redirect_stdout(buf):
                rc = pkg.cli.main(argv)
        finally:
            tracer.close(root)
    return rc, buf.getvalue(), tracer.spans[root].duration, tracer


def _kernel_counts(args, kwargs, result) -> dict:
    m, n = args[0].shape
    # Arrays the kernel reads and returns: (M, N) in, (M, N) out, M excesses.
    return {"site_steps": m * n, "bytes": 8 * (2 * m * n + m)}


def _render_counts(args, kwargs, grid) -> dict:
    return {"cells": grid.classes.size, "classes": grid.n_classes}


def _label_counts(args, kwargs, stats) -> dict:
    return {"components": stats.total_components}


def _census_counts(args, kwargs, entries) -> dict:
    samples = args[2] if len(args) > 2 else kwargs["samples"]
    return {"attractors": len(entries), "unresolved": samples - sum(h for _, h in entries)}


def _written_bytes(path_index: int):
    def counter(args, kwargs, result) -> dict:
        return {"bytes": os.path.getsize(args[path_index])}
    return counter


#: Layer boundaries: (module, attribute, span name, counter).  Each
#: attribute is looked up by its callers at call time, so swapping it
#: traces every call; ``lattice.cascade_batch`` itself stays unwrapped so
#: that ``step_batch`` is not counted twice.
LAYERS = (
    ("basins", "cascade_batch", "lattice.kernel", _kernel_counts),
    ("analysis", "step_batch", "lattice.kernel", _kernel_counts),
    ("analysis", "step", "lattice.step", None),
    ("basins", "render_basins", "basins.render", _render_counts),
    ("basins", "label_components", "basins.label", _label_counts),
    ("analysis", "census", "analysis.census", _census_counts),
    ("io", "write_csv", "io.write", _written_bytes(2)),
    ("io", "write_image", "io.write", _written_bytes(1)),
    ("cli", "parse_config", "cli.parse", None),
)


def _wrap_layers(tracer: Tracer, pkg) -> None:
    for module, attr, name, counter in LAYERS:
        tracer.wrap(getattr(pkg, module), attr, name, counter)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counts of one traced command."""
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(tracer.spans):
        by_name.setdefault(span.name, []).append(index)

    def total(name: str) -> float:
        return sum(tracer.spans[i].duration for i in by_name.get(name, ()))

    def self_total(name: str) -> float:
        return sum(tracer.self_time(i) for i in by_name.get(name, ()))

    def count(name: str, key: str) -> int:
        return sum(tracer.spans[i].counts.get(key, 0) for i in by_name.get(name, ()))

    kernel_s = total("lattice.kernel")
    site_steps = count("lattice.kernel", "site_steps")
    write_s = total("io.write")
    written = count("io.write", "bytes")
    root = by_name["command"][0]
    return {
        "lattice.kernel_calls": len(by_name.get("lattice.kernel", ())),
        "lattice.kernel_s": kernel_s,
        "lattice.kernel_site_steps": site_steps,
        "lattice.kernel_ns_per_site_step": 1e9 * kernel_s / site_steps if site_steps else 0.0,
        "lattice.kernel_bytes_computed": count("lattice.kernel", "bytes"),
        "lattice.step_calls": len(by_name.get("lattice.step", ())),
        "lattice.step_s": total("lattice.step"),
        "basins.render_s": total("basins.render"),
        "basins.render_self_s": self_total("basins.render"),
        "basins.label_s": total("basins.label"),
        "analysis.census_s": total("analysis.census"),
        "analysis.census_self_s": self_total("analysis.census"),
        "io.write_s": write_s,
        "io.bytes_written": written,
        "io.write_mb_per_s": written / write_s / 1e6 if write_s else 0.0,
        "cli.parse_s": total("cli.parse"),
        "cli.self_s": tracer.self_time(root),
        "basins.cells": count("basins.render", "cells"),
        "basins.classes": count("basins.render", "classes"),
        "basins.components": count("basins.label", "components"),
        "analysis.attractors": count("analysis.census", "attractors"),
        "analysis.unresolved": count("analysis.census", "unresolved"),
    }


# ------------------------------------------------------------- measuring

_SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import cascade_maps.cli; "
    "print(time.perf_counter() - t)"
)


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Import times of ``cascade_maps.cli`` in fresh interpreters, raw and
    at reference machine speed."""
    clock = ReferenceClock()
    raw, scaled = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        raw.append(float(proc.stdout))
        scaled.append(clock.scale(raw[-1]))
    return raw, scaled


def measure_peak(pkg, argv: list[str]) -> tuple[int, str, float]:
    """Run one command under ``tracemalloc``; return rc, stdout and peak MB."""
    tracemalloc.start()
    try:
        rc, stdout, _ = run_command(pkg, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rc, stdout, peak / 1e6


class Run:
    """One benchmark run: a workload, its seed and the checks made so far."""

    def __init__(self, pkg, workload: str, seed: int, tiny: bool):
        self.pkg = pkg
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.timed = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        reference = json.loads(REFERENCE.read_text())
        self.reference = reference["digests"][workload]
        self.default_seed = pkg.cli.DEFAULT_SEED

    def next_argv(self, reference: bool = False) -> list[str]:
        """Argv of the next command.  The warm-up command is the reference
        input, the census seed the reference digests were recorded for."""
        if reference:
            return command_argv(self.workload, self.default_seed, self.tiny)
        seed = census_seed(self.seed, self.timed)
        self.timed += 1
        return command_argv(self.workload, seed, self.tiny)

    def digests_for(self, cfg) -> dict | None:
        if self.tiny:
            return None
        if cfg.subcommand == "census" and cfg.seed != self.default_seed:
            return None
        return self.reference

    def check(self, argv: list[str], rc: int, stdout: str) -> None:
        """Check one command's output, then clear what it left behind."""
        cfg = self.pkg.cli.parse_config(argv)
        try:
            problems = check_output(self.workload, cfg, rc, stdout, self.digests_for(cfg))
        finally:
            BASIN_CSV.unlink(missing_ok=True)
            gc.collect()
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{' '.join(argv)}: {p}" for p in problems)

    def site_steps(self) -> int:
        return nominal_site_steps(self.pkg.cli.parse_config(self.next_argv(reference=True)))


def _summary(values: list[float]) -> str:
    """Sample count, quartiles and, once it lies above the median, the
    highest percentile that has at least ten samples above it."""
    n = len(values)
    if n < 2:
        return f"n={n}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    text = f"n={n}, quartiles {q1:.4g} / {q2:.4g} / {q3:.4g}"
    if n >= 20:
        text += f", p{100 * (n - 10) // n} {sorted(values)[n - 11]:.4g}"
    return text


def untraced_run(run: Run, seconds: float) -> dict:
    """End-to-end metrics: setup, one tracemalloc warm-up command, timed loop."""
    setup_raw, setup = measure_setup(SETUP_REPEATS)
    print(f"raw setup_s: {_summary(setup_raw)}")

    argv = run.next_argv(reference=True)
    rc, stdout, peak_mb = measure_peak(run.pkg, argv)
    run.check(argv, rc, stdout)

    clock = ReferenceClock()
    walls, ref_walls = [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        argv = run.next_argv()
        rc, stdout, wall = run_command(run.pkg, argv)
        ref_walls.append(clock.scale(wall))
        run.check(argv, rc, stdout)
        walls.append(wall)
    wall_s, ref_wall_s = statistics.median(walls), statistics.median(ref_walls)
    steps = run.site_steps()
    print(f"speed probe s: {_summary(clock.probes)}")
    print(f"wall_s = {wall_s:.6g} s ({_summary(walls)})")
    print(f"site_steps_per_s = {steps / wall_s:.6g} 1/s")
    print(f"ref_wall_s: {_summary(ref_walls)}")

    return {
        "ref_wall_s": ref_wall_s,
        "ref_site_steps_per_s": steps / ref_wall_s,
        "peak_mb": peak_mb,
        "setup_s": statistics.median(setup),
        "pass_frac": 1.0 - run.failed / run.attempted,
    }


def traced_run(run: Run, seconds: float) -> dict:
    """Per-layer metrics: a warm-up command, then untraced/traced pairs."""
    argv = run.next_argv(reference=True)
    run.check(argv, *run_command(run.pkg, argv)[:2])

    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        argv = run.next_argv()
        rc, stdout, wall = run_command(run.pkg, argv)
        run.check(argv, rc, stdout)
        plain.append(wall)
        argv = run.next_argv()
        rc, stdout, wall, tracer = run_traced(run.pkg, argv)
        run.check(argv, rc, stdout)
        traced.append(wall)
        layers.append(layer_metrics(tracer))
    print(f"untraced wall_s: {_summary(plain)}; traced wall_s: {_summary(traced)}")

    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["wall_s"] = statistics.median(plain)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    _report_dominant(run.workload, metrics, statistics.median(traced))
    return metrics


def _report_dominant(workload: str, metrics: dict, wall: float) -> None:
    """Print each layer's share of command time and test the prediction."""
    shares = sorted(((metrics[k] / wall, k) for k in SELF_TIMES), reverse=True)
    print("layer self time / command wall time: "
          + ", ".join(f"{k} {share:.1%}" for share, k in shares))
    top = shares[0][1]
    verdict = "confirmed" if top in PREDICTED[workload] else "NOT confirmed"
    print(f"predicted dominant layer {' + '.join(PREDICTED[workload])}: "
          f"largest is {top}, prediction {verdict}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                        help="census seed of the first timed command (default: the CLI's DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="r=31 grids and 200 census samples, for the smoke test")
    args = parser.parse_args(argv)

    try:
        pkg = load_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    # The CLI reads CASCADE_* variables; the benchmark's inputs come from its arguments only.
    for key in [k for k in os.environ if k.startswith("CASCADE_")]:
        del os.environ[key]
    OUT_DIR.mkdir(exist_ok=True)

    seed = pkg.cli.DEFAULT_SEED if args.seed is None else args.seed
    run = Run(pkg, args.workload, seed, args.tiny)
    if args.trace:
        values, units = traced_run(run, args.seconds), PER_LAYER_UNITS
    else:
        values, units = untraced_run(run, args.seconds), END_TO_END_UNITS
    for problem in run.problems:
        print(f"check failed: {problem}")
    fail_frac = run.failed / run.attempted
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"fail_frac = {fail_frac:.6g} frac ({run.failed} of {run.attempted} commands)")

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

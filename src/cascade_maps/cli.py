"""Command-line front end.

Subcommands mirror the library surface; ``_SUBCOMMANDS`` lists each one
with its runner and the option keys it requires and accepts.
Option values are resolved with precedence flags > environment > config
file > defaults; environment variables use the ``CASCADE_`` prefix
(``--max-iter`` becomes ``CASCADE_MAX_ITER``), and a config file passed
via ``--config`` is line-oriented ``key=value`` with unknown keys
rejected.  Exit codes: 0 success, 2 usage error, 3 runtime failure.
A summary line is ``key=value`` fields joined by single spaces, each real
in the shortest form that parses back to it (``io.format_real``); one
formatter, ``_fields``, builds every one.
Each option is declared once, as a :class:`RunConfig` field that holds its
default and the parser of its raw text.  The library function an option
reaches checks its value, so a bad value is a usage error before any
orbit is stepped or any line is printed.  ``basin`` and ``accumulation``
accept and validate ``--workers`` (>= 1) but ignore it, since the render
runs on one thread; the flag stays only because the benchmark's commands
still pass it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

from . import analysis, basins, io
from .errors import DomainError, ParameterError
from .scalar import (
    MAX_ITER_DEFAULT,
    Boundary,
    OrbitClass,
    SuperStable,
    Threshold,
    avoidance_measure_tent,
    classify_orbit,
    estimate_avoidance,
)

__all__ = ["RunConfig", "parse_config", "main", "DEFAULT_SEED", "UsageError"]

#: Fixed master seed ("seed cascade") so default runs are reproducible.
DEFAULT_SEED = 0x5EED_CA5CADE

ENV_PREFIX = "CASCADE_"


class UsageError(Exception):
    """Bad command line, environment value or config entry."""


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_list(kind):
    """A parser of comma-separated ``kind`` values; empty items are skipped."""
    return lambda text: tuple(kind(p) for p in text.split(",") if p.strip())


def _option(default, parse):
    """A :class:`RunConfig` option: its default and raw-text parser."""
    return field(default=default, metadata={"parse": parse})


@dataclass
class RunConfig:
    """Fully resolved options for one subcommand run; every other field is an
    option, declared once with its default and parser."""

    subcommand: str
    c1: Optional[float] = _option(None, float)
    sites: int = _option(2, int)
    resolution: int = _option(basins.GridSpec.resolution, int)
    transient: int = _option(basins.GridSpec.transient, int)
    window: int = _option(basins.GridSpec.window, int)
    samples: int = _option(10_000, int)
    seed: int = _option(DEFAULT_SEED, lambda s: int(s, 0))
    max_period: int = _option(64, int)
    max_iter: int = _option(MAX_ITER_DEFAULT, int)
    max_s: int = _option(8, int)
    lo: Optional[float] = _option(None, float)
    hi: Optional[float] = _option(None, float)
    steps: int = _option(200, int)
    n: int = _option(12, int)
    j: int = _option(10, int)
    corner: bool = _option(False, _parse_bool)
    point: Optional[tuple[float, ...]] = _option(None, _parse_list(float))
    eps: tuple[float, ...] = _option((0.1, 0.05, 0.02), _parse_list(float))
    resolutions: tuple[int, ...] = _option((125, 249, 499), _parse_list(int))
    radii: tuple[float, ...] = _option((0.05, 0.1, 0.2), _parse_list(float))
    workers: int = _option(1, int)
    output_path: Optional[str] = _option(None, str)
    format: str = _option("csv", str)


#: key -> parser of every recognised option
_OPTIONS = {f.name: f.metadata["parse"] for f in fields(RunConfig) if f.metadata}

#: flag aliases on top of the canonical --key spellings
_ALIASES = {"out": "output_path", "res": "resolution"}


def _flag_to_key(flag: str, allowed: set[str]) -> str:
    name = flag[2:].replace("-", "_")
    name = _ALIASES.get(name, name)
    if name not in allowed:
        raise UsageError(f"unknown flag {flag!r}")
    return name


def _coerce(key: str, raw: str, origin: str):
    try:
        return _OPTIONS[key](raw)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad value for {key} ({origin}): {exc}") from exc


def _read_config_file(path: str, allowed: set[str]) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if "=" not in text:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, _, raw = text.partition("=")
                key = _ALIASES.get(key.strip(), key.strip())
                if key not in allowed:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = _coerce(key, raw.strip(), f"config {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    return values


def parse_config(argv: Sequence[str], env: Optional[dict] = None) -> RunConfig:
    """Resolve a command line into a :class:`RunConfig`.

    Precedence: flags > environment > the ``--config`` file > defaults.
    Checks the flags, keys, required options, format and accumulation mode;
    the library checks each value when the subcommand runs.
    """
    env = env or {}
    if not argv:
        raise UsageError(f"missing subcommand; expected one of {', '.join(_SUBCOMMANDS)}")
    sub = argv[0]
    if sub not in _SUBCOMMANDS:
        raise UsageError(f"unknown subcommand {sub!r}")
    _, required, optional = _SUBCOMMANDS[sub]
    allowed = required | optional

    flag_values: dict = {}
    config_path = None
    args = iter(argv[1:])
    for arg in args:
        if not arg.startswith("--"):
            raise UsageError(f"unexpected argument {arg!r}")
        if arg == "--config":
            config_path = next(args, None)
            if config_path is None:
                raise UsageError("--config needs a path")
            continue
        key = _flag_to_key(arg, allowed)
        raw = "true" if key == "corner" else next(args, None)
        if raw is None:
            raise UsageError(f"flag {arg!r} needs a value")
        flag_values[key] = _coerce(key, raw, "flag")

    file_values = _read_config_file(config_path, allowed) if config_path else {}

    env_values = {}
    for key in allowed:
        raw = env.get(ENV_PREFIX + key.upper())
        if raw is not None:
            env_values[key] = _coerce(key, raw, "environment")

    merged = {**file_values, **env_values, **flag_values}
    missing = required - merged.keys()
    if missing:
        raise UsageError(f"{sub}: missing required option(s): {', '.join(sorted(missing))}")

    cfg = RunConfig(subcommand=sub, **merged)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    # ``workers`` reaches no library call, so it is the one value checked here.
    if cfg.workers < 1:
        raise UsageError(f"workers must be >= 1, got {cfg.workers}")
    if cfg.format not in ("csv", "pgm", "ppm"):
        raise UsageError(f"format must be csv, pgm or ppm, got {cfg.format!r}")
    if cfg.subcommand == "accumulation" and cfg.corner == (cfg.point is not None):
        raise UsageError("accumulation needs exactly one of --corner or --point px,py")


def _emit_table(header, rows, out: Optional[str]) -> None:
    if out:
        io.write_csv(header, rows, out)
        print(f"wrote {out}")
    else:
        io.write_rows(sys.stdout, header, rows)


def _fields(values: dict) -> str:
    """A summary line: ``key=value`` fields joined by spaces, reals via ``io.format_real``."""
    return " ".join(
        f"{k}={io.format_real(v) if isinstance(v, float) else v}" for k, v in values.items()
    )


def _describe(oc: OrbitClass) -> tuple[str, object, int, str]:
    """An orbit class's name, period ("" unless super-stable), detail and detail key."""
    if isinstance(oc, SuperStable):
        return "super-stable", oc.period, oc.steps_to_c, "steps_to_c"
    if isinstance(oc, Boundary):
        return "boundary", "", oc.step, "step"
    return "repeller", "", oc.iterations_checked, "iterations"


def _run_orbit(cfg: RunConfig) -> None:
    t = Threshold(cfg.c1)
    name, period, detail, key = _describe(classify_orbit(t, max_iter=cfg.max_iter))
    summary = {"c1": t.c1, "c0": t.c0, "c2": t.c2, "d1": t.d1, "class": name}
    if period:
        summary["period"] = period
    print(_fields({**summary, key: detail}))


def _run_stars(cfg: RunConfig) -> None:
    stars = analysis.star_values(cfg.max_s)
    header = ["s", "value", "spacing", "spacing_ratio"]
    values = [star.value for star in stars]
    gaps = [b - a for a, b in zip(values, values[1:])]
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    rows = zip([star.s for star in stars], values, ["", *gaps], ["", "", *ratios])
    _emit_table(header, rows, cfg.output_path)


def _run_scan(cfg: RunConfig) -> None:
    samples = analysis.bifurcation_scan(cfg.lo, cfg.hi, cfg.steps, cfg.max_iter)
    header = ["c1", "class", "period", "detail"]
    rows = [(s.c1, *_describe(s.orbit_class)[:3]) for s in samples]
    _emit_table(header, rows, cfg.output_path)


def _basin_spec(cfg: RunConfig) -> basins.GridSpec:
    return basins.GridSpec(
        resolution=cfg.resolution, transient=cfg.transient, window=cfg.window
    )


def _run_basin(cfg: RunConfig) -> None:
    t = Threshold(cfg.c1)
    grid = basins.render_basins(t, _basin_spec(cfg))
    components = basins.label_components(grid).total_components
    summary = {"c1": t.c1, "resolution": cfg.resolution, "classes": grid.n_classes}
    print(_fields({**summary, "components": components}))
    out = cfg.output_path or f"basin_c1_{cfg.c1}_r{cfg.resolution}.{cfg.format}"
    if cfg.format == "csv":
        io.write_basin_csv(grid, out)
    else:
        io.write_image(grid, out, cfg.format)
    print(f"wrote {out}")


def _run_census(cfg: RunConfig) -> None:
    t = Threshold(cfg.c1)
    entries = analysis.census(
        t,
        cfg.sites,
        cfg.samples,
        cfg.seed,
        transient=cfg.transient,
        max_period=cfg.max_period,
    )
    header = ["rank", "period", "kind", "fingerprint", "hits"]
    rows = [
        (k, rec.period, rec.kind, rec.window_fingerprint, hits)
        for k, (rec, hits) in enumerate(entries)
    ]
    seed = f"{cfg.seed:#x}"
    print(_fields({"attractors": len(entries), "samples": cfg.samples, "seed": seed}))
    _emit_table(header, rows, cfg.output_path)


def _run_markov(cfg: RunConfig) -> None:
    t = Threshold(cfg.c1)
    model = analysis.build_markov(t, cfg.n)
    summary = {"c1": t.c1, "n": cfg.n, "n0": model.n0, "spectral_radius": model.spectral_radius}
    print(_fields({**summary, "entropy_bound": model.entropy_bound}))
    if cfg.output_path:
        header = [f"j{k}" for k in range(model.matrix.shape[1])]
        _emit_table(header, model.matrix.tolist(), cfg.output_path)


def _run_measure(cfg: RunConfig) -> None:
    t = Threshold(cfg.c1)
    fraction, stderr = estimate_avoidance(t, cfg.j, cfg.samples, cfg.seed)
    tent = avoidance_measure_tent(t, cfg.j)
    ratio = fraction / tent if tent > 0 else float("nan")
    summary = {"c1": t.c1, "j": cfg.j, "samples": cfg.samples, "fraction": fraction}
    print(_fields({**summary, "stderr": stderr, "tent": tent, "ratio": ratio}))


def _run_accumulation(cfg: RunConfig) -> None:
    t = Threshold(cfg.c1)
    spec = _basin_spec(cfg)
    if cfg.corner:
        header, rows = basins.corner_accumulation(t, spec, cfg.eps, cfg.resolutions)
    else:
        header, rows = basins.interior_accumulation(t, spec, cfg.point, cfg.radii)
    _emit_table(header, rows, cfg.output_path)


#: options of a basin render; ``workers`` is accepted and ignored
_RENDER_KEYS = {"resolution", "transient", "window", "workers"}

#: subcommand -> (runner, required keys, other accepted keys); any other
#: key is a usage error.
_SUBCOMMANDS = {
    "orbit": (_run_orbit, {"c1"}, {"max_iter"}),
    "stars": (_run_stars, set(), {"max_s", "output_path"}),
    "scan": (_run_scan, {"lo", "hi"}, {"steps", "max_iter", "output_path"}),
    "basin": (_run_basin, {"c1"}, _RENDER_KEYS | {"format", "output_path"}),
    "census": (
        _run_census,
        {"c1"},
        {"sites", "samples", "seed", "transient", "max_period", "output_path"},
    ),
    "markov": (_run_markov, {"c1"}, {"n", "output_path"}),
    "measure": (_run_measure, {"c1"}, {"j", "samples", "seed"}),
    "accumulation": (
        _run_accumulation,
        {"c1"},
        _RENDER_KEYS | {"corner", "point", "eps", "resolutions", "radii", "output_path"},
    ),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    import os

    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_config(argv, dict(os.environ))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    run, _, _ = _SUBCOMMANDS[cfg.subcommand]
    try:
        run(cfg)
    except (ParameterError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures: I/O, convergence, ...
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end.

Subcommands mirror the library surface: ``orbit``, ``stars``, ``scan``,
``basin``, ``census``, ``markov``, ``measure`` and ``accumulation``.
Option values are resolved with precedence flags > environment > config
file > defaults; environment variables use the ``CASCADE_`` prefix
(``--max-iter`` becomes ``CASCADE_MAX_ITER``), and a config file passed
via ``--config`` is line-oriented ``key=value`` with unknown keys
rejected.  Exit codes: 0 success, 2 usage error, 3 runtime failure.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import analysis, basins, io
from .errors import DomainError, ParameterError
from .scalar import (
    avoidance_measure_tent,
    classify_orbit,
    estimate_avoidance,
    make_threshold,
)

__all__ = ["RunConfig", "parse_config", "main", "DEFAULT_SEED", "UsageError"]

#: Fixed master seed ("seed cascade") so default runs are reproducible.
DEFAULT_SEED = 0x5EED_CA5CADE

ENV_PREFIX = "CASCADE_"

SUBCOMMANDS = (
    "orbit",
    "stars",
    "scan",
    "basin",
    "census",
    "markov",
    "measure",
    "accumulation",
)


class UsageError(Exception):
    """Bad command line, environment value or config entry."""


@dataclass
class RunConfig:
    """Fully resolved options for one subcommand run."""

    subcommand: str
    c1: Optional[float] = None
    sites: int = 2
    resolution: int = 499
    transient: int = 100
    window: int = 12
    samples: int = 10_000
    seed: int = DEFAULT_SEED
    max_period: int = 64
    max_iter: int = 10_000
    max_s: int = 8
    lo: Optional[float] = None
    hi: Optional[float] = None
    steps: int = 200
    n: int = 12
    j: int = 10
    corner: bool = False
    point: Optional[tuple[float, float]] = None
    eps: tuple[float, ...] = (0.1, 0.05, 0.02)
    resolutions: tuple[int, ...] = (125, 249, 499)
    radii: tuple[float, ...] = (0.05, 0.1, 0.2)
    workers: int = 1
    output_path: Optional[str] = None
    format: str = "csv"


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected px,py — got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


#: key -> parser for every recognised option.
_PARSERS = {
    "c1": float,
    "sites": int,
    "resolution": int,
    "transient": int,
    "window": int,
    "samples": int,
    "seed": lambda s: int(s, 0),
    "max_period": int,
    "max_iter": int,
    "max_s": int,
    "lo": float,
    "hi": float,
    "steps": int,
    "n": int,
    "j": int,
    "corner": _parse_bool,
    "point": _parse_point,
    "eps": _parse_floats,
    "resolutions": _parse_ints,
    "radii": _parse_floats,
    "workers": int,
    "output_path": str,
    "format": str,
}

#: flag aliases on top of the canonical --key spellings
_ALIASES = {"out": "output_path", "res": "resolution"}

#: keys each subcommand accepts (beyond these, a key is a usage error)
_ALLOWED = {
    "orbit": {"c1", "max_iter"},
    "stars": {"max_s", "output_path"},
    "scan": {"lo", "hi", "steps", "max_iter", "output_path"},
    "basin": {
        "c1",
        "resolution",
        "transient",
        "window",
        "workers",
        "format",
        "output_path",
    },
    "census": {
        "c1",
        "sites",
        "samples",
        "seed",
        "transient",
        "max_period",
        "output_path",
    },
    "markov": {"c1", "n", "output_path"},
    "measure": {"c1", "j", "samples", "seed"},
    "accumulation": {
        "c1",
        "corner",
        "point",
        "eps",
        "resolutions",
        "radii",
        "resolution",
        "transient",
        "window",
        "workers",
        "output_path",
    },
}

_REQUIRED = {
    "orbit": {"c1"},
    "stars": set(),
    "scan": {"lo", "hi"},
    "basin": {"c1"},
    "census": {"c1"},
    "markov": {"c1"},
    "measure": {"c1"},
    "accumulation": {"c1"},
}


def _flag_to_key(flag: str, allowed: set[str]) -> str:
    name = flag[2:].replace("-", "_")
    name = _ALIASES.get(name, name)
    if name not in allowed:
        raise UsageError(f"unknown flag {flag!r}")
    return name


def _coerce(key: str, raw: str, origin: str):
    try:
        return _PARSERS[key](raw)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad value for {key} ({origin}): {exc}") from exc


def _read_config_file(path: str, allowed: set[str]) -> dict:
    values = {}
    try:
        with open(path) as fh:
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
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    return values


def parse_config(
    argv: Sequence[str],
    env: Optional[dict] = None,
    file: Optional[str] = None,
) -> RunConfig:
    """Resolve a command line into a validated :class:`RunConfig`.

    Precedence: flags > environment > config file > defaults.
    """
    env = env or {}
    if not argv:
        raise UsageError(f"missing subcommand; expected one of {', '.join(SUBCOMMANDS)}")
    sub = argv[0]
    if sub not in SUBCOMMANDS:
        raise UsageError(f"unknown subcommand {sub!r}")
    allowed = _ALLOWED[sub]

    flag_values: dict = {}
    config_path = file
    args = list(argv[1:])
    i = 0
    while i < len(args):
        arg = args[i]
        if not arg.startswith("--"):
            raise UsageError(f"unexpected argument {arg!r}")
        if arg == "--config":
            if i + 1 >= len(args):
                raise UsageError("--config needs a path")
            config_path = args[i + 1]
            i += 2
            continue
        key = _flag_to_key(arg, allowed)
        if key == "corner":
            flag_values[key] = True
            i += 1
            continue
        if i + 1 >= len(args):
            raise UsageError(f"flag {arg!r} needs a value")
        flag_values[key] = _coerce(key, args[i + 1], "flag")
        i += 2

    file_values = _read_config_file(config_path, allowed) if config_path else {}

    env_values = {}
    for key in allowed:
        raw = env.get(ENV_PREFIX + key.upper())
        if raw is not None:
            env_values[key] = _coerce(key, raw, "environment")

    merged = {**file_values, **env_values, **flag_values}
    missing = _REQUIRED[sub] - merged.keys()
    if missing:
        raise UsageError(f"{sub}: missing required option(s): {', '.join(sorted(missing))}")

    cfg = RunConfig(subcommand=sub)
    for key, value in merged.items():
        setattr(cfg, key, value)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.c1 is not None and not 0.75 < cfg.c1 < 1.0:
        raise UsageError(f"c1 must lie in (3/4, 1), got {cfg.c1}")
    if cfg.subcommand == "scan" and not 0.75 < cfg.lo < cfg.hi < 1.0:
        raise UsageError("scan needs 3/4 < lo < hi < 1")
    for key in ("sites", "resolution", "window", "samples", "steps", "n", "workers"):
        if getattr(cfg, key) < 1:
            raise UsageError(f"{key} must be >= 1")
    if cfg.transient < 0 or cfg.j < 0 or cfg.max_iter < 1 or cfg.max_period < 1:
        raise UsageError("negative iteration counts are not allowed")
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


def _run_orbit(cfg: RunConfig) -> None:
    t = make_threshold(cfg.c1)
    oc = classify_orbit(t, max_iter=cfg.max_iter)
    base = (
        f"c1={io.format_real(t.c1)} c0={io.format_real(t.c0)} "
        f"c2={io.format_real(t.c2)} d1={io.format_real(t.d1)}"
    )
    if isinstance(oc, analysis.SuperStable):
        print(f"{base} class=super-stable period={oc.period} steps_to_c={oc.steps_to_c}")
    elif isinstance(oc, analysis.Boundary):
        print(f"{base} class=boundary step={oc.step}")
    else:
        print(f"{base} class=repeller iterations={oc.iterations_checked}")


def _run_stars(cfg: RunConfig) -> None:
    stars = analysis.star_values(cfg.max_s)
    header = ["s", "value", "spacing", "spacing_ratio"]
    rows = []
    for k, star in enumerate(stars):
        spacing = stars[k].value - stars[k - 1].value if k >= 1 else ""
        ratio = (
            (stars[k].value - stars[k - 1].value)
            / (stars[k - 1].value - stars[k - 2].value)
            if k >= 2
            else ""
        )
        rows.append((star.s, star.value, spacing, ratio))
    _emit_table(header, rows, cfg.output_path)


def _run_scan(cfg: RunConfig) -> None:
    samples = analysis.bifurcation_scan(cfg.lo, cfg.hi, cfg.steps, cfg.max_iter)
    header = ["c1", "class", "period", "detail"]
    rows = []
    for s in samples:
        oc = s.orbit_class
        if isinstance(oc, analysis.SuperStable):
            rows.append((s.c1, "super-stable", oc.period, oc.steps_to_c))
        elif isinstance(oc, analysis.Boundary):
            rows.append((s.c1, "boundary", "", oc.step))
        else:
            rows.append((s.c1, "repeller", "", oc.iterations_checked))
    _emit_table(header, rows, cfg.output_path)


def _basin_spec(cfg: RunConfig) -> basins.GridSpec:
    return basins.GridSpec(
        resolution=cfg.resolution, transient=cfg.transient, window=cfg.window
    )


def _run_basin(cfg: RunConfig) -> None:
    t = make_threshold(cfg.c1)
    grid = basins.render_basins(t, _basin_spec(cfg), workers=cfg.workers)
    stats = basins.label_components(grid)
    print(
        f"c1={io.format_real(t.c1)} resolution={cfg.resolution} "
        f"classes={grid.n_classes} components={stats.total_components}"
    )
    out = cfg.output_path or f"basin_c1_{cfg.c1}_r{cfg.resolution}.{cfg.format}"
    if cfg.format == "csv":
        header = ["i", "j", "x", "y", "fingerprint", "class"]
        r = cfg.resolution
        cx = basins._axis_centers(grid.spec.x_range, r)
        cy = basins._axis_centers(grid.spec.y_range, r)
        ii, jj = np.divmod(np.arange(r * r, dtype=np.int32), r)
        rows = io.Columns(
            ii, jj, cx[ii], cy[jj], grid.fingerprints.ravel(), grid.classes.ravel()
        )
        io.write_csv(header, rows, out)
    else:
        io.write_image(grid, out, cfg.format)
    print(f"wrote {out}")


def _run_census(cfg: RunConfig) -> None:
    t = make_threshold(cfg.c1)
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
    print(f"attractors={len(entries)} samples={cfg.samples} seed={cfg.seed:#x}")
    _emit_table(header, rows, cfg.output_path)


def _run_markov(cfg: RunConfig) -> None:
    t = make_threshold(cfg.c1)
    model = analysis.build_markov(t, cfg.n)
    print(
        f"c1={io.format_real(t.c1)} n={cfg.n} n0={model.n0} "
        f"spectral_radius={io.format_real(model.spectral_radius)} "
        f"entropy_bound={io.format_real(model.entropy_bound)}"
    )
    if cfg.output_path:
        header = [f"j{k}" for k in range(model.matrix.shape[1])]
        rows = [tuple(int(v) for v in row) for row in model.matrix]
        io.write_csv(header, rows, cfg.output_path)
        print(f"wrote {cfg.output_path}")


def _run_measure(cfg: RunConfig) -> None:
    t = make_threshold(cfg.c1)
    fraction, stderr = estimate_avoidance(t, cfg.j, cfg.samples, cfg.seed)
    tent = avoidance_measure_tent(t, cfg.j)
    ratio = fraction / tent if tent > 0 else float("nan")
    print(
        f"c1={io.format_real(t.c1)} j={cfg.j} samples={cfg.samples} "
        f"fraction={io.format_real(fraction)} stderr={io.format_real(stderr)} "
        f"tent={io.format_real(tent)} ratio={io.format_real(ratio)}"
    )


def _run_accumulation(cfg: RunConfig) -> None:
    t = make_threshold(cfg.c1)
    spec = _basin_spec(cfg)
    if cfg.corner:
        header, rows = basins.corner_accumulation(
            t, spec, cfg.eps, cfg.resolutions, workers=cfg.workers
        )
    else:
        header, rows = basins.interior_accumulation(
            t, spec, cfg.point, cfg.radii, workers=cfg.workers
        )
    _emit_table(header, rows, cfg.output_path)


_RUNNERS = {
    "orbit": _run_orbit,
    "stars": _run_stars,
    "scan": _run_scan,
    "basin": _run_basin,
    "census": _run_census,
    "markov": _run_markov,
    "measure": _run_measure,
    "accumulation": _run_accumulation,
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
    try:
        _RUNNERS[cfg.subcommand](cfg)
    except (ParameterError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures: I/O, convergence, ...
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Guards on the package's public names, the CLI's subcommand and option
declarations, the module attributes the CLI names and what importing the
CLI loads."""

import ast
import dataclasses
import inspect
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import cascade_maps as cm
from cascade_maps import analysis, basins, cli, errors, lattice, scalar
from cascade_maps import io as cio

PUBLIC_NAMES = [
    "AttractorRecord", "BasinGrid", "BifurcationSample", "Boundary",
    "BracketError", "ComponentStats", "DomainError", "GridSpec",
    "LatticeState", "MarkovModel", "OrbitClass", "PERIOD2_WINDOW_END",
    "ParameterError", "Repeller", "StarValue", "SuperStable", "Threshold",
    "XI2", "antiphase_root", "avoidance_measure_tent", "bifurcation_scan",
    "build_markov", "census", "classify_orbit", "corner_accumulation",
    "detect_periodic_orbit", "estimate_avoidance", "interior_accumulation",
    "label_components", "logistic", "render_basins", "star_values", "step",
    "step_batch", "threshold_map",
]  # fmt: skip

IO_NAMES = ["format_real", "write_rows", "write_csv", "write_basin_csv", "write_image"]

#: exported names that no ``src/`` code calls yet, each with the later
#: work that needs it (see ROADMAP item 14)
KEPT_FOR_CLAIMS = {
    "antiphase_root": "paper-claims section 1: the two-site anti-phase "
    "orbit lives between it and PERIOD2_WINDOW_END",
    "PERIOD2_WINDOW_END": "paper-claims section 1: the right end of the "
    "interval that holds the two-site anti-phase orbit",
    "detect_periodic_orbit": "the acceptance oracle of the exact attractor "
    "enumeration (ROADMAP item 1)",
}

#: exported names that only their own module calls, each with the reason it
#: stays public
OWN_MODULE_ONLY = {
    "XI2": "build_markov's lower limit; paper-claims section 4 sets item 21's "
    "c* = 0.92624463 beside it",
    "threshold_map": "the paper's clipped map, from which the tests build "
    "the orbit of c1",
    "logistic": "defines threshold_map's state + excess",
}

#: a valid value for every key some subcommand requires
REQUIRED_VALUES = {"c1": "0.84", "lo": "0.76", "hi": "0.8"}

RUN_FIELDS = {f.name for f in dataclasses.fields(cli.RunConfig)} - {"subcommand"}


def test_package_exports_exactly_the_public_names():
    assert sorted(cm.__all__) == PUBLIC_NAMES
    assert len(set(cm.__all__)) == len(cm.__all__)
    assert cio.__all__ == IO_NAMES


def _bound_names(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement binds: what it defines or assigns,
    and every nested ``def``, local and parameter inside it."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


def _src_loads_by_module() -> dict[str, set[str]]:
    """Every name that each ``src/`` module loads from outside the statement
    binding it: a bare name that the loading statement does not bind itself
    (so a local named like an export is no caller), or an attribute of one
    of the package's modules."""
    paths = sorted(Path(cm.__file__).parent.glob("*.py"))
    modules = {path.stem for path in paths}
    by_module = {}
    for path in paths:
        loads = by_module[path.stem] = set()
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            bound = _bound_names(stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id not in bound:
                        loads.add(node.id)
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                ):
                    loads.add(node.attr)
    return by_module


def _src_loads() -> set[str]:
    return set().union(*_src_loads_by_module().values())


#: each library module's short name -> the module
EXPORTING = {
    module.__name__.rsplit(".", 1)[1]: module
    for module in (analysis, basins, errors, lattice, scalar, cio)
}


def _loaded_outside_own_module() -> set[str]:
    """The exports that some ``src/`` module other than their own loads."""
    by_module = _src_loads_by_module()
    return {
        name
        for own, module in EXPORTING.items()
        for name in module.__all__
        if any(name in loads for stem, loads in by_module.items() if stem != own)
    }


def _hinted_types(hint) -> set[str]:
    """The names of the classes in a type hint, through its arguments."""
    names = {hint.__name__} if isinstance(hint, type) else set()
    for arg in typing.get_args(hint):
        names |= _hinted_types(arg)
    return names


def _returned_types() -> set[str]:
    """The exported types that the return hint of some exported function names."""
    hints = (
        typing.get_type_hints(obj).get("return")
        for module in EXPORTING.values()
        for obj in (getattr(module, name) for name in module.__all__)
        if inspect.isfunction(obj)
    )
    return set().union(*map(_hinted_types, hints)) & set(cm.__all__)


def test_every_export_is_called_in_src_or_kept_for_a_claim():
    # An export that only its own module or the tests call is dead API: it
    # leaves the public surface unless an export returns it or a reason is
    # named for it here.
    outside = _loaded_outside_own_module()
    exempt = _returned_types() | set(KEPT_FOR_CLAIMS) | set(OWN_MODULE_ONLY)
    uncalled = {name for name in [*cm.__all__, *cio.__all__] if name not in outside}
    assert sorted(uncalled - exempt) == []


def test_each_own_module_name_is_still_called_by_its_module_alone():
    # Once a name in OWN_MODULE_ONLY gains a caller in another module, or
    # loses its last one, or an export returns it, its entry is stale.
    by_module = _src_loads_by_module()
    owners = {name: own for own, module in EXPORTING.items() for name in module.__all__}
    assert set(OWN_MODULE_ONLY) <= set(owners)
    assert sorted(set(OWN_MODULE_ONLY) & _loaded_outside_own_module()) == []
    assert sorted(n for n in OWN_MODULE_ONLY if n not in by_module[owners[n]]) == []
    assert sorted(set(OWN_MODULE_ONLY) & _returned_types()) == []


def test_each_kept_name_is_still_an_uncalled_export():
    # Once a kept name gets a caller in src/, its entry here is stale.
    assert set(KEPT_FOR_CLAIMS) <= set(cm.__all__)
    assert sorted(set(KEPT_FOR_CLAIMS) & _src_loads()) == []


@pytest.mark.parametrize("module", [analysis, basins, errors, lattice, scalar])
def test_each_export_is_its_submodule_object(module):
    for name in module.__all__:
        assert name in cm.__all__
        assert getattr(cm, name) is getattr(module, name)


@pytest.mark.parametrize("sub", list(cli._SUBCOMMANDS))
def test_every_accepted_key_parses_into_a_config_field(sub):
    _, required, optional = cli._SUBCOMMANDS[sub]
    assert not required & optional
    for key in required | optional:
        assert key in cli._OPTIONS
        assert key in RUN_FIELDS


def test_run_config_defaults_are_unchanged():
    assert dataclasses.asdict(cli.RunConfig("basin")) == {
        "subcommand": "basin", "c1": None, "sites": 2, "resolution": 499,
        "transient": 100, "window": 12, "samples": 10_000,
        "seed": 0x5EED_CA5CADE, "max_period": 64, "max_iter": 10_000,
        "max_s": 8, "lo": None, "hi": None, "steps": 200, "n": 12, "j": 10,
        "corner": False, "point": None, "eps": (0.1, 0.05, 0.02),
        "resolutions": (125, 249, 499), "radii": (0.05, 0.1, 0.2),
        "workers": 1, "output_path": None, "format": "csv",
    }  # fmt: skip


#: a raw text for every option, each parsing to a value other than its default
RAW_VALUES = {
    "c1": "0.95", "sites": "3", "resolution": "9", "transient": "7",
    "window": "5", "samples": "50", "seed": "0x10", "max_period": "32",
    "max_iter": "300", "max_s": "4", "lo": "0.77", "hi": "0.79",
    "steps": "3", "n": "6", "j": "2", "corner": "true", "point": "0.5,0.25",
    "eps": "0.2,0.1", "resolutions": "9,17", "radii": "0.3", "workers": "2",
    "output_path": "out.csv", "format": "pgm",
}  # fmt: skip


def _argv_without(key):
    """A subcommand that accepts ``key``, with every other option it needs."""
    sub = next(s for s, (_, req, opt) in cli._SUBCOMMANDS.items() if key in req | opt)
    _, required, _ = cli._SUBCOMMANDS[sub]
    argv = [sub]
    for other in sorted(required - {key}):
        argv += [f"--{other}", REQUIRED_VALUES[other]]
    if sub == "accumulation" and key not in ("corner", "point"):
        argv.append("--corner")
    return argv


@pytest.mark.parametrize("key", sorted(cli._OPTIONS))
def test_every_option_parses_the_same_from_every_source(key, tmp_path):
    argv = _argv_without(key)
    flag = ["--" + key.replace("_", "-")]
    from_flag = cli.parse_config(argv + flag + ([] if key == "corner" else [RAW_VALUES[key]]))
    env = {cli.ENV_PREFIX + key.upper(): RAW_VALUES[key]}
    from_env = cli.parse_config(argv, env)
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key}={RAW_VALUES[key]}\n")
    from_file = cli.parse_config(argv + ["--config", str(conf)])
    assert from_flag == from_env == from_file
    assert getattr(from_flag, key) != getattr(cli.RunConfig(argv[0]), key)


#: a bad raw value of each option that the library bounds -> the library's
#: text for it, through the subcommand that ``_argv_without`` picks
BAD_VALUES = {
    "c1": ("0.5", "threshold c1 must lie in (3/4, 1), got 0.5"),
    "j": ("-1", "j must be >= 0, got -1"),
    "lo": ("0.81", "scan range must satisfy 3/4 < lo < hi < 1"),
    "max_iter": ("0", "max_iter must be >= 1, got 0"),
    "max_period": ("0", "max_period must be >= 1, got 0"),
    "n": ("0", "n must be >= 1, got 0"),
    "resolution": ("1", "resolution must be >= 2, got 1"),
    "samples": ("0", "samples must be >= 1, got 0"),
    "seed": ("-1", "seed must lie in [0, 2**64), got -1"),
    "sites": ("0", "n_sites must be >= 1, got 0"),
    "steps": ("1", "steps must be >= 2, got 1"),
    "transient": ("-1", "transient must be >= 0, got -1"),
    "window": ("0", "window must be >= 1, got 0"),
}


@pytest.mark.parametrize("key", sorted(BAD_VALUES))
def test_cli_bounds_equal_the_library_bounds(key, capsys):
    # The CLI holds no bound of its own: a bad value passes parse_config and
    # the library rejects it, before any line is printed.
    raw, text = BAD_VALUES[key]
    assert cli.main(_argv_without(key) + ["--" + key.replace("_", "-"), raw]) == 2
    assert capsys.readouterr() == ("", f"usage error: {text}\n")


def test_parse_config_leaves_values_to_the_library():
    cfg = cli.parse_config(["basin", "--c1", "0.95", "--res", "1"])
    assert cfg.resolution == 1


def test_every_config_field_is_accepted_by_some_subcommand():
    accepted = set().union(*(req | opt for _, req, opt in cli._SUBCOMMANDS.values()))
    assert RUN_FIELDS <= accepted


@pytest.mark.parametrize("sub", list(cli._SUBCOMMANDS))
def test_each_required_key_is_enforced(sub):
    _, required, _ = cli._SUBCOMMANDS[sub]
    for key in required:
        argv = [sub]
        for other in required - {key}:
            argv += [f"--{other}", REQUIRED_VALUES[other]]
        with pytest.raises(cli.UsageError, match=f"missing required.*{key}"):
            cli.parse_config(argv)


def test_cli_names_only_attributes_its_modules_have():
    # A misspelt or missing ``analysis.X`` would surface only when its
    # branch runs, as a runtime error of the subcommand.
    modules = {"analysis": analysis, "basins": basins, "io": cio}
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    named = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert {mod for mod, _ in named} == set(modules)
    missing = [f"{mod}.{attr}" for mod, attr in named if not hasattr(modules[mod], attr)]
    assert sorted(missing) == []


def test_cli_import_does_not_load_scipy():
    # Neither scipy nor a thread pool is on the CLI's import path; numpy
    # alone loads neither.
    src = str(Path(cm.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import cascade_maps.cli; "
        "print([m for m in ('scipy', 'concurrent.futures') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


#: one tiny run of every subcommand, with ``{tmp}`` for an output directory
TINY_RUNS = [
    ["orbit", "--c1", "0.84"],
    ["stars", "--max-s", "4"],
    ["scan", "--lo", "0.76", "--hi", "0.8", "--steps", "3"],
    ["basin", "--c1", "0.95", "--res", "9", "--out", "{tmp}/basin.csv"],
    ["census", "--c1", "0.95", "--sites", "3", "--samples", "50"],
    ["markov", "--c1", "0.95", "--n", "6"],
    ["measure", "--c1", "0.9", "--j", "2", "--samples", "100"],
    ["accumulation", "--c1", "0.95", "--corner", "--resolutions", "9,17", "--eps", "0.2"],
    ["accumulation", "--c1", "0.95", "--res", "9", "--point", "0.5,0.5", "--radii", "0.2"],
]


def test_runs_do_not_load_numpy_ma(tmp_path):
    # The package uses no masked arrays; numpy's 1-D np.unique would import
    # numpy.ma on its first call, so no run path calls it.
    assert {argv[0] for argv in TINY_RUNS} == set(cli._SUBCOMMANDS)
    src = str(Path(cm.__file__).resolve().parents[1])
    runs = [[a.format(tmp=tmp_path) for a in argv] for argv in TINY_RUNS]
    code = (
        f"import contextlib, io, sys; sys.path.insert(0, {src!r}); "
        "import cascade_maps.cli as cli; "
        "seen = [('import', 0, 'numpy.ma' in sys.modules)]\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = cli.main(argv)\n"
        "    seen.append((argv[0], rc, 'numpy.ma' in sys.modules))\n"
        "print(seen)"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    seen = ast.literal_eval(proc.stdout)
    assert [name for name, _, _ in seen] == ["import"] + [a[0] for a in TINY_RUNS]
    assert [(name, rc, loaded) for name, rc, loaded in seen] == [
        (name, 0, False) for name, _, _ in seen
    ]

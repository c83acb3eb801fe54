"""Guards on the package's public names, the CLI's subcommand table and
what importing the CLI loads."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import cascade_maps as cm
from cascade_maps import analysis, basins, cli, errors, lattice, scalar

PUBLIC_NAMES = [
    "AttractorRecord", "BasinGrid", "BifurcationSample", "Boundary",
    "BracketError", "ComponentStats", "DomainError", "GridSpec",
    "LatticeState", "MarkovModel", "OrbitClass", "PERIOD2_WINDOW_END",
    "ParameterError", "Repeller", "StarValue", "SuperStable", "Threshold",
    "XI2", "antiphase_condition", "antiphase_root", "avoidance_measure_tent",
    "bifurcation_scan", "build_markov", "cell_fingerprint",
    "census", "central_component_reaches_boundary", "classify_orbit",
    "corner_accumulation", "detect_periodic_orbit", "estimate_avoidance",
    "excess_window_sum", "find_star", "forward_orbit",
    "interior_accumulation", "label_components", "logistic",
    "make_threshold", "render_basins", "star_values", "step", "step_batch",
    "tent_conjugacy", "tent_conjugacy_inverse", "tent_map", "threshold_map",
]  # fmt: skip

#: a valid value for every key some subcommand requires
REQUIRED_VALUES = {"c1": "0.84", "lo": "0.76", "hi": "0.8"}

RUN_FIELDS = {f.name for f in dataclasses.fields(cli.RunConfig)} - {"subcommand"}


def test_package_exports_exactly_the_public_names():
    assert sorted(cm.__all__) == PUBLIC_NAMES
    assert len(set(cm.__all__)) == len(cm.__all__)


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
        assert key in cli._PARSERS
        assert key in RUN_FIELDS


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

"""Smoke test of the benchmark harness: every workload once at tiny size.

Tiny size is r=31 grids and 200 census samples, where the reference
digests do not apply and only the invariant checks run.
"""

import json

import pytest

import bench
from spans import Span, Tracer


@pytest.fixture(autouse=True)
def _scratch_cwd(tmp_path, monkeypatch):
    # The harness writes its output files under the working directory.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)


def _run(capsys, workload, trace):
    rc = bench.main(["--workload", workload, "--seconds", "0", "--trace", str(trace), "--tiny"])
    lines = capsys.readouterr().out.splitlines()
    return rc, lines, json.loads(lines[-1])


def _benchmark_units(key):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    rc, lines, result = _run(capsys, workload, trace)
    assert rc == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    units = _benchmark_units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("fail_frac = 0 frac") for line in lines)
    if not trace:
        # Raw wall time and throughput are printed next to their ref_* forms.
        assert any(line.startswith("wall_s = ") for line in lines)
        assert any(line.startswith("site_steps_per_s = ") for line in lines)


def test_tracer_restores_every_wrapped_function():
    pkg = bench.load_package()

    def current():
        return [getattr(getattr(pkg, module), attr) for module, attr, _, _ in bench.LAYERS]

    before = current()
    rc, _, _, tracer = bench.run_traced(pkg, bench.command_argv("census_n8", 1, True))
    assert rc == 0
    assert current() == before
    assert {s.name for s in tracer.spans} >= {"command", "cli.parse", "analysis.census",
                                              "lattice.kernel", "lattice.step"}

    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            bench._wrap_layers(tracer, pkg)
            assert current() != before
            raise RuntimeError("traced command failed")
    assert current() == before


def test_self_time_subtracts_union_of_overlapping_children():
    tracer = Tracer()
    tracer.spans = [
        Span("render", 0.0, 10.0, None, 1),
        Span("kernel", 1.0, 5.0, 0, 2),
        Span("kernel", 2.0, 4.0, 0, 3),
        Span("kernel", 3.0, 7.0, 0, 3),
        Span("kernel", 9.0, 12.0, 0, 2),
    ]
    # Children cover [1, 7] and [9, 10] of the parent's [0, 10].
    assert tracer.self_time(0) == pytest.approx(3.0)


def test_corrupted_output_makes_fail_frac_positive(capsys, monkeypatch):
    pkg = bench.load_package()
    write_csv = pkg.io.write_csv

    def corrupting_write_csv(header, rows, path):
        rows = list(rows)
        rows[0] = rows[0][:-1] + (rows[0][-1] + 1,)
        write_csv(header, rows, path)

    monkeypatch.setattr(pkg.io, "write_csv", corrupting_write_csv)
    rc, lines, result = _run(capsys, "basin_csv", 0)
    assert rc == 1
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert result["metrics"]["pass_frac"]["value"] == 0.0
    fail_frac = next(line for line in lines if line.startswith("fail_frac = "))
    assert float(fail_frac.split()[2]) > 0
    assert any("not mirror symmetric" in line for line in lines)

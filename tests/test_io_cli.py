import csv
import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import cascade_maps as cm
from cascade_maps import io as cio
from cascade_maps.cli import DEFAULT_SEED, UsageError, main, parse_config

# Golden image fixtures: c1 = 0.84, R = 63 render (generated once, frozen).
GOLDEN_PGM_SHA256 = "daa9bc272b40c1d1cbb8819b6f29056fead9c4d6e6d0f196301f3a1a4294d688"
GOLDEN_PPM_SHA256 = "f1e2958f34bfaad346ab450612b42856b32357ff9242d4b949b0bcd0a2a32d18"


# ----------------------------------------------------------------------- CSV


def test_format_real_round_trips():
    rng = np.random.default_rng(17)
    for x in rng.random(1000).tolist() + [1e-300, 1e300, 0.1, 2.0 / 3.0]:
        assert float(cio.format_real(x)) == x


def test_csv_round_trip_bit_exact(tmp_path):
    path = str(tmp_path / "t.csv")
    rng = np.random.default_rng(18)
    rows = [(i, float(v), f"name{i}") for i, v in enumerate(rng.random(50))]
    cio.write_csv(["k", "value", "label"], rows, path)
    header, back = cio.read_csv(path)
    assert header == ["k", "value", "label"]
    for (k, v, s), row in zip(rows, back):
        assert int(row[0]) == k
        assert float(row[1]) == v
        assert row[2] == s


def test_csv_empty_table_gives_header_only(tmp_path):
    path = str(tmp_path / "e.csv")
    cio.write_csv(["a", "b"], [], path)
    # newline="" keeps the "\r\n" row ending that write_csv emits
    with open(path, newline="") as fh:
        assert fh.read() == "a,b\r\n"


def _oracle_write_rows(fh, header, rows):
    # The original one-row-at-a-time writer, kept as the reference.
    def field(value):
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    writer = csv.writer(fh)
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([field(v) for v in row])


def _csv_text(write, header, rows):
    buf = io.StringIO(newline="")
    write(buf, header, rows)
    return buf.getvalue()


_EDGE_FLOATS = st.sampled_from(
    [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 0.1]
)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | _EDGE_FLOATS
_INT64 = st.integers(-(2**63), 2**63 - 1)
_TEXT = st.text(st.sampled_from(',"\r\n a\u00e9')) | st.sampled_from(
    ['""', "a,b", "\r\n", ""]
)
_COLUMNS = {
    "float": _FLOATS,
    "float64": _FLOATS.map(np.float64),
    "float_and_float64": _FLOATS | _FLOATS.map(np.float64),
    "float32": st.floats(width=32).map(np.float32),
    "int": st.integers(),
    "int64": _INT64.map(np.int64),
    "int_and_int32": st.integers() | st.integers(-(2**31), 2**31 - 1).map(np.int32),
    "bool": st.booleans(),
    "int_and_float": st.integers() | _FLOATS,
    "text": _TEXT,
}


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMNS)), min_size=1, max_size=5))
    n_rows = draw(st.integers(0, 30))
    cols = [draw(st.lists(_COLUMNS[k], min_size=n_rows, max_size=n_rows)) for k in kinds]
    return [f"c{k}" for k in range(len(kinds))], list(zip(*cols))


@given(_tables())
def test_write_rows_matches_per_row_writer(table):
    header, rows = table
    expect = _csv_text(_oracle_write_rows, header, rows)
    assert _csv_text(cio.write_rows, header, rows) == expect
    assert _csv_text(cio.write_rows, header, iter(rows)) == expect


def test_write_rows_streams_tables_longer_than_one_chunk():
    n = 2 * cio._CHUNK_ROWS + 7
    rng = np.random.default_rng(19)
    # Few distinct values per column, with -0.0 and 0.0 in every chunk.
    reals = rng.choice([-0.0, 0.0, 0.25, 1 / 3, math.nan], size=n)
    cols = (
        np.arange(n),
        reals,
        reals.tolist(),
        rng.integers(-5, 5, size=n).astype(np.int32),
        [str(k % 3) + ',"x"' for k in range(n)],
        [1 if k % 2 else 2.5 for k in range(n)],
    )
    header = [f"c{k}" for k in range(len(cols))]
    expect = _csv_text(_oracle_write_rows, header, list(zip(*cols)))
    assert _csv_text(cio.write_rows, header, zip(*cols)) == expect


def test_write_rows_keeps_zero_width_rows():
    rows = [(), ()]
    expect = _csv_text(_oracle_write_rows, [], rows)
    assert expect == "\r\n\r\n\r\n"
    assert _csv_text(cio.write_rows, [], rows) == expect


def test_write_rows_rejects_ragged_rows():
    with pytest.raises(ValueError):
        cio.write_rows(io.StringIO(), ["a", "b"], [(1, 2), (3,)])


def test_write_rows_rejects_a_ragged_row_after_a_full_chunk():
    with pytest.raises(ValueError):
        cio.write_rows(io.StringIO(), ["a", "b"], [(1, 2)] * cio._CHUNK_ROWS + [(3,)])


def test_write_rows_rejects_rows_narrower_than_the_header():
    with pytest.raises(ValueError):
        cio.write_rows(io.StringIO(), ["a", "b", "c"], [(1, 2), (3, 4)])


@pytest.mark.parametrize("n_arrays", [2, 4])
def test_write_rows_rejects_columns_that_miss_the_header_before_writing(n_arrays):
    buf = io.StringIO()
    with pytest.raises(ValueError):
        cio.write_rows(buf, ["a", "b", "c"], cio.Columns(*[np.arange(3)] * n_arrays))
    assert buf.getvalue() == ""


def test_write_rows_columns_write_integer_extremes_as_rows_do():
    # Each column spans its whole dtype in two rows: coding it as
    # ``values - min`` would need 2**64 texts.
    arrays = (
        np.array([-(2**63), 2**63 - 1], dtype=np.int64),
        np.array([0, 2**64 - 1], dtype=np.uint64),
    )
    expect = _csv_text(_oracle_write_rows, ["a", "b"], list(zip(*arrays)))
    assert _csv_text(cio.write_rows, ["a", "b"], cio.Columns(*arrays)) == expect


_NAN_PAYLOADS = np.array(
    [0x7FF8000000000001, 0xFFF8000000000ABC, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF],
    dtype=np.uint64,
).view(np.float64)
_ARRAY_VALUES = {
    np.float64: _FLOATS | st.sampled_from(_NAN_PAYLOADS.tolist()),
    np.int32: st.integers(-(2**31), 2**31 - 1),
    np.int64: _INT64,
    np.uint8: st.integers(0, 255),
    np.uint64: st.integers(2**63, 2**64 - 1) | st.integers(0, 2**64 - 1),
}
_LENGTHS = (
    0,
    1,
    cio._CHUNK_ROWS - 1,
    cio._CHUNK_ROWS + 1,
    2 * cio._CHUNK_ROWS + 7,
)


@st.composite
def _numeric_columns(draw):
    # A few drawn values per column, spread over a long table by a seeded
    # pick, so that every chunk repeats values and mixes their bit patterns.
    n = draw(st.sampled_from(_LENGTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = []
    for dtype in draw(st.lists(st.sampled_from(list(_ARRAY_VALUES)), min_size=1, max_size=4)):
        pool = draw(st.lists(_ARRAY_VALUES[dtype], min_size=1, max_size=6))
        pool = np.array(pool, dtype=dtype)
        values = pool[rng.integers(0, len(pool), size=2 * n)]
        # A strided view checks that no column needs to be contiguous.
        arrays.append(values[::2] if draw(st.booleans()) else values[:n])
    return arrays


# Examples run up to 2*_CHUNK_ROWS + 7 rows, so shrinking a failure would
# take minutes; the unshrunk example is reported instead.
@settings(
    max_examples=30,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(_numeric_columns())
def test_write_rows_columns_match_per_row_writer(arrays):
    header = [f"c{k}" for k in range(len(arrays))]
    expect = _csv_text(_oracle_write_rows, header, list(zip(*arrays)))
    got = _csv_text(cio.write_rows, header, cio.Columns(*arrays))
    # Compared as lists of rows: a failing diff of the whole text is very slow.
    assert got.split("\r\n") == expect.split("\r\n")


def test_columns_iterate_as_zip():
    arrays = (
        np.arange(5),
        np.linspace(-1.0, 1.0, 5),
        np.array([0, 1, 2**63, 2**64 - 1, 7], dtype=np.uint64),
        np.arange(5, dtype=np.int32),
    )
    rows = list(cio.Columns(*arrays))
    assert rows == list(zip(*arrays))
    assert [tuple(map(type, row)) for row in rows] == [
        tuple(map(type, row)) for row in zip(*arrays)
    ]
    assert len(cio.Columns(*arrays)) == 5
    assert list(cio.Columns()) == [] and len(cio.Columns()) == 0


def test_columns_hold_arrays_without_copy():
    a = np.arange(4.0)
    assert cio.Columns(a, np.arange(4)).arrays[0] is a


@pytest.mark.parametrize(
    "arrays",
    [
        (np.arange(3), np.arange(4.0)),
        (np.zeros((2, 2)),),
        (np.zeros(3, dtype=bool),),
        (np.zeros(3, dtype=np.float32),),
        (np.array([1, 2.5, "x"], dtype=object),),
        (np.array(["1", "2"]),),
    ],
    ids=["unequal", "2-D", "bool", "float32", "object", "str"],
)
def test_columns_reject_non_numeric_or_unequal_arrays(arrays):
    with pytest.raises(ValueError):
        cio.Columns(*arrays)


def test_csv_write_failure_reports_path():
    with pytest.raises(OSError, match="no/such/dir"):
        cio.write_csv(["a"], [], "/no/such/dir/x.csv")


# --------------------------------------------------------------------- images


def test_pgm_two_by_two_example():
    img = np.array([[0, 1], [1, 0]], dtype=np.int32)
    payload = cio.pgm_bytes(img, 2)
    assert payload == b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0])


def test_pgm_single_class_is_black():
    img = np.zeros((2, 3), dtype=np.int32)
    payload = cio.pgm_bytes(img, 1)
    assert payload == b"P5\n3 2\n255\n" + bytes(6)


def test_ppm_uses_fixed_palette():
    img = np.array([[0, 1]], dtype=np.int32)
    payload = cio.ppm_bytes(img, 2)
    assert payload == b"P6\n2 1\n255\n" + bytes([0, 0, 255, 255, 0, 0])


def test_palette_blue_to_red():
    pal = cio.class_palette(2)
    assert pal.tolist() == [[0, 0, 255], [255, 0, 0]]
    pal5 = cio.class_palette(5)
    assert pal5.tolist() == [
        [0, 0, 255],
        [0, 255, 255],
        [0, 255, 0],
        [255, 255, 0],
        [255, 0, 0],
    ]
    # hues sit on the 12-colour wheel for any class count
    pal25 = cio.class_palette(25)
    assert pal25[0].tolist() == [0, 0, 255] and pal25[-1].tolist() == [255, 0, 0]


def test_grid_to_image_orientation():
    # values[i, j] with i = x, j = y; top image row is the largest y
    values = np.array([[1, 2], [3, 4]])
    img = cio.grid_to_image(values)
    assert img.tolist() == [[2, 4], [1, 3]]


def test_golden_image_fixture_is_stable(tmp_path):
    grid = cm.render_basins(cm.make_threshold(0.84), cm.GridSpec(resolution=63))
    img = cio.grid_to_image(grid.classes)
    pgm = cio.pgm_bytes(img, grid.n_classes)
    ppm = cio.ppm_bytes(img, grid.n_classes)
    assert hashlib.sha256(pgm).hexdigest() == GOLDEN_PGM_SHA256
    assert hashlib.sha256(ppm).hexdigest() == GOLDEN_PPM_SHA256
    # write_image emits the same bytes
    out = str(tmp_path / "g.ppm")
    cio.write_image(grid, out, "ppm")
    with open(out, "rb") as fh:
        assert fh.read() == ppm


def test_write_image_rejects_unknown_format(tmp_path):
    grid = cm.render_basins(cm.make_threshold(0.8), cm.GridSpec(resolution=8))
    with pytest.raises(ValueError):
        cio.write_image(grid, str(tmp_path / "x.bmp"), "bmp")


# --------------------------------------------------------------- parse_config


def test_basin_defaults_follow_protocol():
    cfg = parse_config(["basin", "--c1", "0.84"])
    assert cfg.c1 == 0.84
    assert cfg.resolution == 499
    assert cfg.transient == 100
    assert cfg.window == 12


def test_out_of_range_threshold_is_usage_error():
    with pytest.raises(UsageError):
        parse_config(["orbit", "--c1", "0.5"])


def test_census_flags_resolve():
    cfg = parse_config(["census", "--c1", "0.84", "--sites", "3", "--seed", "7"])
    assert (cfg.c1, cfg.sites, cfg.seed) == (0.84, 3, 7)
    assert cfg.samples == 10_000
    cfg2 = parse_config(["census", "--c1", "0.84", "--sites", "3", "--seed", "7"])
    assert cfg == cfg2


def test_default_seed_documented_constant():
    cfg = parse_config(["census", "--c1", "0.84"])
    assert cfg.seed == DEFAULT_SEED == 0x5EED_CA5CADE


def test_precedence_flags_env_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("# comment\nresolution=100\ntransient=50\nwindow=6\n")
    env = {"CASCADE_TRANSIENT": "75", "CASCADE_C1": "0.86"}
    cfg = parse_config(
        ["basin", "--window", "24", "--config", str(conf)], env=env
    )
    assert cfg.resolution == 100  # file
    assert cfg.transient == 75    # env beats file
    assert cfg.window == 24       # flag beats both
    assert cfg.c1 == 0.86         # env supplies the required option


def test_unknown_flag_and_key_are_errors(tmp_path):
    with pytest.raises(UsageError):
        parse_config(["orbit", "--c1", "0.84", "--bogus", "1"])
    conf = tmp_path / "bad.conf"
    conf.write_text("bogus=1\n")
    with pytest.raises(UsageError):
        parse_config(["orbit", "--c1", "0.84", "--config", str(conf)])
    with pytest.raises(UsageError):
        parse_config(["frobnicate"])
    with pytest.raises(UsageError):
        parse_config([])


def test_missing_required_option():
    with pytest.raises(UsageError):
        parse_config(["orbit"])
    with pytest.raises(UsageError):
        parse_config(["scan", "--lo", "0.76"])


def test_accumulation_needs_exactly_one_mode():
    with pytest.raises(UsageError):
        parse_config(["accumulation", "--c1", "0.84"])
    with pytest.raises(UsageError):
        parse_config(
            ["accumulation", "--c1", "0.84", "--corner", "--point", "0.5,0.5"]
        )
    cfg = parse_config(["accumulation", "--c1", "0.84", "--point", "0.75,0.75"])
    assert cfg.point == (0.75, 0.75)
    cfg = parse_config(["accumulation", "--c1", "0.84", "--corner"])
    assert cfg.corner is True


def test_list_flags_parse():
    cfg = parse_config(
        [
            "accumulation",
            "--c1",
            "0.84",
            "--corner",
            "--eps",
            "0.2,0.1",
            "--resolutions",
            "32,64",
        ]
    )
    assert cfg.eps == (0.2, 0.1)
    assert cfg.resolutions == (32, 64)


# ----------------------------------------------------------------- main/CLI


def test_main_orbit_success(capsys):
    assert main(["orbit", "--c1", "0.84"]) == 0
    out = capsys.readouterr().out
    assert "super-stable" in out and "period=2" in out


def test_main_usage_error_exit_code(capsys):
    assert main(["orbit", "--c1", "0.5"]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["census", "measure"])
def test_main_negative_seed_is_usage_error(capsys, sub):
    assert main([sub, "--c1", "0.9", "--samples", "10", "--seed", "-1"]) == 2
    assert capsys.readouterr() == ("", "usage error: seed must be >= 0, got -1\n")


@pytest.mark.parametrize("argv", [["basin"], ["accumulation", "--corner"]])
def test_main_zero_workers_is_usage_error(capsys, argv):
    assert main(argv + ["--c1", "0.9", "--workers", "0"]) == 2
    assert capsys.readouterr().err == "usage error: workers must be >= 1\n"


def test_main_runtime_error_exit_code(capsys):
    rc = main(
        ["basin", "--c1", "0.84", "--res", "8", "--out", "/no/such/dir/b.pgm",
         "--format", "pgm"]
    )
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_main_markov_line(capsys):
    assert main(["markov", "--c1", "0.95", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert "n0=3" in out and "spectral_radius=" in out


def test_main_measure_line(capsys):
    assert main(["measure", "--c1", "0.9", "--j", "3", "--samples", "20000"]) == 0
    out = capsys.readouterr().out
    assert "fraction=" in out and "tent=" in out


def test_main_stars_csv(capsys):
    assert main(["stars", "--max-s", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "s,value,spacing,spacing_ratio"
    assert len(lines) == 4


def test_main_scan_csv(capsys):
    assert main(["scan", "--lo", "0.76", "--hi", "0.8", "--steps", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "c1,class,period,detail"
    assert all("super-stable,2" in ln for ln in lines[1:])


def test_main_census_table(capsys, tmp_path):
    out = str(tmp_path / "census.csv")
    rc = main(
        ["census", "--c1", "0.84", "--samples", "500", "--seed", "7", "--out", out]
    )
    assert rc == 0
    header, rows = cio.read_csv(out)
    assert header == ["rank", "period", "kind", "fingerprint", "hits"]
    assert sum(int(r[4]) for r in rows) == 500


def test_main_basin_writes_reproducible_image(capsys, tmp_path):
    a = str(tmp_path / "a.pgm")
    b = str(tmp_path / "b.pgm")
    for path in (a, b):
        rc = main(
            ["basin", "--c1", "0.84", "--res", "40", "--format", "pgm", "--out", path]
        )
        assert rc == 0
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()
    out = capsys.readouterr().out
    assert "classes=2" in out


def test_main_basin_csv_round_trip(tmp_path):
    out = str(tmp_path / "grid.csv")
    rc = main(["basin", "--c1", "0.8", "--res", "8", "--format", "csv", "--out", out])
    assert rc == 0
    header, rows = cio.read_csv(out)
    assert header == ["i", "j", "x", "y", "fingerprint", "class"]
    assert len(rows) == 64
    grid = cm.render_basins(cm.make_threshold(0.8), cm.GridSpec(resolution=8))
    for row in rows[:10]:
        i, j = int(row[0]), int(row[1])
        assert float(row[4]) == grid.fingerprints[i, j]


def _capture_render(monkeypatch):
    grids = []
    render = cm.basins.render_basins

    def recording_render(*args, **kwargs):
        grids.append(render(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(cm.basins, "render_basins", recording_render)
    return grids


def _basin_columns(grid):
    r = grid.spec.resolution
    cx = cm.basins._axis_centers(grid.spec.x_range, r)
    cy = cm.basins._axis_centers(grid.spec.y_range, r)
    ii, jj = np.divmod(np.arange(r * r), r)
    return ii, jj, cx[ii], cy[jj], grid.fingerprints.ravel(), grid.classes.ravel()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("c1", ["0.84", "0.95"])
# r=129 is 16,641 rows: two writer chunks of a real render.
@pytest.mark.parametrize("r", [2, 31, 129])
def test_main_basin_csv_matches_row_writer(capsys, monkeypatch, tmp_path, r, c1, workers):
    grids = _capture_render(monkeypatch)
    out = tmp_path / "grid.csv"
    argv = ["basin", "--c1", c1, "--res", str(r), "--workers", str(workers),
            "--format", "csv", "--out", str(out)]
    assert main(argv) == 0
    [grid] = grids
    expect = tmp_path / "rows.csv"
    header = ["i", "j", "x", "y", "fingerprint", "class"]
    cio.write_csv(header, zip(*_basin_columns(grid)), str(expect))
    assert out.read_bytes() == expect.read_bytes()


def test_basin_csv_writer_peak_stays_below_one_chunk_bound(tmp_path):
    # The r=499 table is 17.1 MB of text; the writer holds one chunk of it
    # (16,384 rows: codes, their gather and its joined text), 2.99 MB traced;
    # the bound is that plus 10%.
    grid = cm.render_basins(cm.make_threshold(0.95), cm.GridSpec(resolution=499))
    rows = cio.Columns(*_basin_columns(grid))
    header = ["i", "j", "x", "y", "fingerprint", "class"]
    path = str(tmp_path / "grid.csv")
    tracemalloc.start()
    try:
        cio.write_csv(header, rows, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.3e6


def test_main_basin_csv_rows_end_in_the_class(capsys, monkeypatch, tmp_path):
    grids = _capture_render(monkeypatch)
    seen = []
    write_csv = cio.write_csv

    def listing_write_csv(header, rows, path):
        seen.extend(list(rows))
        write_csv(header, seen, path)

    monkeypatch.setattr(cio, "write_csv", listing_write_csv)
    out = str(tmp_path / "grid.csv")
    assert main(["basin", "--c1", "0.95", "--res", "31", "--format", "csv", "--out", out]) == 0
    [grid] = grids
    assert {len(row) for row in seen} == {6}
    assert [row[-1] for row in seen] == grid.classes.ravel().tolist()
    assert [(row[0], row[1]) for row in seen] == [(i, j) for i in range(31) for j in range(31)]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_main_accumulation_point(capsys, workers):
    # --workers is accepted and has no effect on the output.
    argv = ["accumulation", "--c1", "0.8", "--point", "0.75,0.75", "--res", "32",
            "--radii", "0.1,0.2"]
    assert main(argv + ["--workers", workers]) == 0
    out = capsys.readouterr().out
    assert out == "radius,components\r\n0.1,1\r\n0.2,1\r\n"
    assert main(argv) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--point", "1.5,0.5"], "accumulation point must lie in the open square"),
        (["--point", "0.5,0.5", "--radii", "0.1,-0.1"], "disk radius must be positive"),
        (["--corner", "--eps", "0.1,-0.1"], "corner box size must be positive"),
        (["--corner", "--eps", ""], "eps_list and resolutions must not be empty"),
        (["--corner", "--resolutions", ""], "eps_list and resolutions must not be empty"),
        (["--point", "0.5,0.5", "--radii", ","], "radii must not be empty"),
    ],
)
def test_main_accumulation_rejects_bad_regions_without_rendering(
    capsys, monkeypatch, flags, message
):
    def no_render(*args, **kwargs):
        raise AssertionError("rendered a grid for invalid regions")

    monkeypatch.setattr(cm.basins, "render_basins", no_render)
    assert main(["accumulation", "--c1", "0.95", *flags]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_main_unknown_subcommand(capsys):
    assert main(["nonsense"]) == 2
    assert "unknown subcommand" in capsys.readouterr().err

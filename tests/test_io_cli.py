import colorsys
import csv
import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

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


def _read_csv(path):
    """The header and the rows of a written CSV, every field a string."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def test_csv_round_trip_bit_exact(tmp_path):
    path = str(tmp_path / "t.csv")
    rng = np.random.default_rng(18)
    rows = [(i, float(v), f"name{i}") for i, v in enumerate(rng.random(50))]
    cio.write_csv(["k", "value", "label"], rows, path)
    header, back = _read_csv(path)
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


def test_csv_write_failure_reports_path():
    with pytest.raises(OSError, match="no/such/dir"):
        cio.write_csv(["a"], [], "/no/such/dir/x.csv")


# --------------------------------------------------------------------- images


def _written_image(tmp_path, classes, n_classes, image_format):
    """The file that ``write_image`` writes for a hand-built grid of ``classes``."""
    classes = np.asarray(classes, dtype=np.int32)
    grid = cm.BasinGrid(
        spec=cm.GridSpec(resolution=max(2, *classes.shape)),
        fingerprints=classes.astype(float),
        classes=classes,
        class_table={k: float(k) for k in range(n_classes)},
    )
    path = tmp_path / f"grid.{image_format}"
    cio.write_image(grid, str(path), image_format)
    return path.read_bytes()


def _grid_of(img):
    """The ``[i=x, j=y]`` class grid whose image rows are ``img``."""
    return np.asarray(img)[::-1].T


def _palette(tmp_path, n_classes):
    """The RGB colours of classes 0 .. n-1, read from a one-row PPM."""
    payload = _written_image(tmp_path, _grid_of([range(n_classes)]), n_classes, "ppm")
    header = f"P6\n{n_classes} 1\n255\n".encode("ascii")
    assert payload.startswith(header)
    return np.frombuffer(payload[len(header):], dtype=np.uint8).reshape(-1, 3)


def test_pgm_two_by_two_example(tmp_path):
    payload = _written_image(tmp_path, _grid_of([[0, 1], [1, 0]]), 2, "pgm")
    assert payload == b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0])


def test_pgm_single_class_is_black(tmp_path):
    payload = _written_image(tmp_path, _grid_of(np.zeros((2, 3))), 1, "pgm")
    assert payload == b"P5\n3 2\n255\n" + bytes(6)


def test_ppm_uses_fixed_palette(tmp_path):
    payload = _written_image(tmp_path, _grid_of([[0, 1]]), 2, "ppm")
    assert payload == b"P6\n2 1\n255\n" + bytes([0, 0, 255, 255, 0, 0])


def test_palette_blue_to_red(tmp_path):
    pal = _palette(tmp_path, 2)
    assert pal.tolist() == [[0, 0, 255], [255, 0, 0]]
    pal5 = _palette(tmp_path, 5)
    assert pal5.tolist() == [
        [0, 0, 255],
        [0, 255, 255],
        [0, 255, 0],
        [255, 255, 0],
        [255, 0, 0],
    ]
    # hues sit on the 12-colour wheel for any class count
    pal25 = _palette(tmp_path, 25)
    assert pal25[0].tolist() == [0, 0, 255] and pal25[-1].tolist() == [255, 0, 0]


def test_grid_to_image_orientation(tmp_path):
    # values[i, j] with i = x, j = y; top image row is the largest y.  With
    # 256 classes a PGM pixel is its class id.
    values = np.array([[1, 2], [3, 4]])
    payload = _written_image(tmp_path, values, 256, "pgm")
    assert payload == b"P5\n2 2\n255\n" + bytes([2, 4, 1, 3])


def test_golden_image_fixture_is_stable(tmp_path):
    grid = cm.render_basins(cm.Threshold(0.84), cm.GridSpec(resolution=63))
    for image_format, golden in (("pgm", GOLDEN_PGM_SHA256), ("ppm", GOLDEN_PPM_SHA256)):
        out = tmp_path / f"g.{image_format}"
        cio.write_image(grid, str(out), image_format)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == golden


@pytest.mark.parametrize("image_format", ["pgm", "ppm"])
def test_write_image_rejects_a_class_id_outside_the_table(tmp_path, image_format):
    # A PGM used to wrap id 300 modulo 256, and a PPM to index past the palette.
    with pytest.raises(ValueError, match=r"^class ids must lie in \[0, 2\)$"):
        _written_image(tmp_path, [[0, 1], [1, 300]], 2, image_format)
    assert list(tmp_path.iterdir()) == []


def _oracle_palette(n_classes):
    # The class palette, entry by entry: hues from 240 deg down to 0 deg,
    # each rounded to a 30 deg step.
    colors = []
    for k in range(max(n_classes, 1)):
        frac = k / (n_classes - 1) if n_classes > 1 else 0.0
        hue = round(240.0 * (1.0 - frac) / 30.0) * 30 % 360
        rgb = colorsys.hsv_to_rgb(hue / 360.0, 1.0, 1.0)
        colors.append([round(c * 255) for c in rgb])
    return np.array(colors, dtype=np.uint8)


def _oracle_image(classes, n_classes, image_format):
    # The image file as encoded cell by cell: a PGM scales each class id in
    # float64 and rounds it, a PPM indexes the palette.
    img = classes.T[::-1, :]
    if image_format == "pgm":
        magic = "P5"
        pixels = np.rint(img * (255.0 / max(n_classes - 1, 1))).astype(np.uint8)
    else:
        magic = "P6"
        pixels = _oracle_palette(n_classes)[img]
    h, w = img.shape
    return f"{magic}\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()


@pytest.mark.parametrize("image_format", ["pgm", "ppm"])
@pytest.mark.parametrize("n_classes", [1, 2, 7, 300])
def test_write_image_matches_the_per_cell_encoder(tmp_path, n_classes, image_format):
    # 340 cells, so that every one of 300 classes appears.
    rng = np.random.default_rng(n_classes)
    classes = rng.permutation(np.arange(20 * 17) % n_classes).reshape(20, 17).astype(np.int32)
    payload = _written_image(tmp_path, classes, n_classes, image_format)
    assert payload == _oracle_image(classes, n_classes, image_format)


@pytest.mark.parametrize("image_format, bytes_per_cell", [("pgm", 3), ("ppm", 7)])
def test_write_image_peak_is_the_pixels_and_their_bytes(tmp_path, image_format, bytes_per_cell):
    # A PGM holds 1 B per cell of pixels and 1 B of their bytes, a PPM 3 B
    # of each; a per-cell float64 temporary would take 8 B more.
    grid = cm.render_basins(cm.Threshold(0.95), cm.GridSpec(resolution=499))
    path = str(tmp_path / f"grid.{image_format}")
    tracemalloc.start()
    try:
        cio.write_image(grid, path, image_format)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bytes_per_cell * grid.classes.size


def test_write_image_rejects_unknown_format(tmp_path):
    grid = cm.render_basins(cm.Threshold(0.8), cm.GridSpec(resolution=8))
    with pytest.raises(ValueError):
        cio.write_image(grid, str(tmp_path / "x.bmp"), "bmp")


# --------------------------------------------------------------- parse_config


def test_basin_defaults_follow_protocol():
    cfg = parse_config(["basin", "--c1", "0.84"])
    assert cfg.c1 == 0.84
    assert cfg.resolution == 499
    assert cfg.transient == 100
    assert cfg.window == 12


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


def test_main_orbit_reports_a_boundary_orbit(capsys):
    # At the right end of the period-2 window the image of c1 is c0 itself.
    assert main(["orbit", "--c1", repr(cm.PERIOD2_WINDOW_END)]) == 0
    assert capsys.readouterr().out.rstrip().endswith(" class=boundary step=1")


def test_main_orbit_reports_a_repeller(capsys):
    assert main(["orbit", "--c1", "0.99", "--max-iter", "1"]) == 0
    assert capsys.readouterr().out.rstrip().endswith(" class=repeller iterations=1")


def test_main_scan_writes_repeller_rows_without_a_period(capsys):
    argv = ["scan", "--lo", "0.99", "--hi", "0.9999", "--steps", "5", "--max-iter", "3"]
    assert main(argv) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["c1", "class", "period", "detail"]
    repellers = [r for r in rows[1:] if r[1] == "repeller"]
    assert len(repellers) == 4
    assert all(r[2:] == ["", "3"] for r in repellers)


#: (c1, max_iter) of a super-stable, a boundary and a repeller orbit, with the
#: ``orbit`` line and the ``scan --lo c1 --hi 0.999 --steps 2`` table printed
ORBIT_CLASS_OUTPUTS = [
    (
        "0.95", "10000",
        "c1=0.95 c0=0.3881966011250105 c2=0.19000000000000017 d1=0.8564337068712937"
        " class=super-stable period=10 steps_to_c=9\n",
        "c1,class,period,detail\r\n0.95,super-stable,10,9\r\n"
        "0.999,super-stable,135,134\r\n",
    ),
    (
        repr(cm.PERIOD2_WINDOW_END), "10000",
        "c1=0.9045084971874737 c0=0.3454915028125263 c2=0.3454915028125262 d1=0.8"
        " class=boundary step=1\n",
        "c1,class,period,detail\r\n0.9045084971874737,boundary,,1\r\n"
        "0.999,super-stable,135,134\r\n",
    ),
    (
        "0.99", "1",
        "c1=0.99 c0=0.44999999999999996 c2=0.03960000000000004 d1=0.9362314391414802"
        " class=repeller iterations=1\n",
        "c1,class,period,detail\r\n0.99,repeller,,1\r\n0.999,repeller,,1\r\n",
    ),
]  # fmt: skip


@pytest.mark.parametrize("c1, max_iter, line, table", ORBIT_CLASS_OUTPUTS)
def test_orbit_line_and_scan_row_describe_a_class_alike(capsys, c1, max_iter, line, table):
    assert main(["orbit", "--c1", c1, "--max-iter", max_iter]) == 0
    assert capsys.readouterr().out == line
    argv = ["scan", "--lo", c1, "--hi", "0.999", "--steps", "2", "--max-iter", max_iter]
    assert main(argv) == 0
    assert capsys.readouterr().out == table
    shown = dict(item.split("=") for item in line.split()[4:])
    detail = line.split()[-1].split("=")[1]
    _, name, period, row_detail = table.split("\r\n")[1].split(",")
    assert (shown["class"], shown.get("period", ""), detail) == (name, period, row_detail)


def test_main_usage_error_exit_code(capsys):
    assert main(["orbit", "--c1", "0.5"]) == 2
    assert "usage error" in capsys.readouterr().err


#: each seeded subcommand -> the library's text for a negative seed
SEED_ERRORS = {
    "census": "seed must lie in [0, 2**64), got -1",
    "measure": "seed must be >= 0, got -1",
}


@pytest.mark.parametrize("sub", list(SEED_ERRORS))
def test_main_negative_seed_is_usage_error(capsys, sub):
    assert main([sub, "--c1", "0.9", "--samples", "10", "--seed", "-1"]) == 2
    assert capsys.readouterr() == ("", f"usage error: {SEED_ERRORS[sub]}\n")


@pytest.mark.parametrize("argv", [["basin"], ["accumulation", "--corner"]])
def test_main_zero_workers_is_usage_error(capsys, argv):
    assert main(argv + ["--c1", "0.9", "--workers", "0"]) == 2
    assert capsys.readouterr().err == "usage error: workers must be >= 1, got 0\n"


def test_main_runtime_error_exit_code(capsys):
    rc = main(
        ["basin", "--c1", "0.84", "--res", "8", "--out", "/no/such/dir/b.pgm",
         "--format", "pgm"]
    )
    assert rc == 3
    assert "error" in capsys.readouterr().err


#: subcommand -> (argv, whole stdout) of its summary line, byte for byte;
#: ``{out}`` stands for the output path
SUMMARY_LINES = {
    "markov": (
        ["markov", "--c1", "0.95", "--n", "8"],
        "c1=0.95 n=8 n0=3 spectral_radius=1.3426361971791383"
        " entropy_bound=0.29463499266790355\n",
    ),
    "measure": (
        ["measure", "--c1", "0.9", "--j", "3", "--samples", "20000"],
        "c1=0.9 j=3 samples=20000 fraction=0.1374 stderr=0.0024343504267052432"
        " tent=0.39979182281085834 ratio=0.34367886525033803\n",
    ),
    "basin": (
        ["basin", "--c1", "0.84", "--res", "40", "--format", "pgm", "--out", "{out}"],
        "c1=0.84 resolution=40 classes=2 components=39\nwrote {out}\n",
    ),
    "census": (
        ["census", "--c1", "0.95", "--sites", "3", "--samples", "50", "--out", "{out}"],
        "attractors=8 samples=50 seed=0x5eedca5cade\nwrote {out}\n",
    ),
}


@pytest.mark.parametrize("argv, stdout", SUMMARY_LINES.values(), ids=SUMMARY_LINES)
def test_main_summary_line_is_exact(capsys, tmp_path, argv, stdout):
    out = str(tmp_path / "out")
    assert main([arg.format(out=out) for arg in argv]) == 0
    assert capsys.readouterr() == (stdout.format(out=out), "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["orbit", "--c1"], "flag '--c1' needs a value"),
        (["orbit", "--c1", "0.9", "--config"], "--config needs a path"),
        # The unknown flag is reported before its missing value.
        (["orbit", "--bogus"], "unknown flag '--bogus'"),
        # --corner takes no value, so --res is the flag left without one.
        (["accumulation", "--c1", "0.95", "--corner", "--res"], "flag '--res' needs a value"),
    ],
)
def test_main_argv_errors(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


def test_main_markov_out_writes_the_matrix(capsys, tmp_path):
    path = tmp_path / "m.csv"
    assert main(["markov", "--c1", "0.95", "--n", "6", "--out", str(path)]) == 0
    assert capsys.readouterr().out.endswith(f"\nwrote {path}\n")
    matrix = cm.build_markov(cm.Threshold(0.95), 6).matrix
    assert set(matrix.ravel().tolist()) == {0, 1}
    lines = [",".join(f"j{k}" for k in range(7))]
    lines += [",".join(map(str, row)) for row in matrix.tolist()]
    assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()


def test_main_stars_csv(capsys):
    assert main(["stars", "--max-s", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "s,value,spacing,spacing_ratio"
    assert len(lines) == 4


@pytest.mark.parametrize("max_s", range(2, 16))
def test_main_stars_rows_match_the_per_index_formula(capsys, max_s):
    # The oracle indexes the star list directly, as each row's spacing and
    # ratio are defined; the text pins every value bit for bit.
    stars = cm.star_values(max_s)
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
    want = io.StringIO()
    cio.write_rows(want, ["s", "value", "spacing", "spacing_ratio"], rows)
    assert main(["stars", "--max-s", str(max_s)]) == 0
    assert capsys.readouterr() == (want.getvalue(), "")


def test_main_stars_past_the_last_resolved_star_is_usage_error(capsys):
    assert main(["stars", "--max-s", "15"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 15
    assert main(["stars", "--max-s", "16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: max_s must lie in 2..15")


def test_main_census_seed_past_64_bits_is_usage_error(capsys):
    argv = ["census", "--c1", "0.95", "--sites", "2", "--samples", "300"]
    assert main(argv + ["--seed", "0x10000000000000005"]) == 2
    assert capsys.readouterr() == (
        "", "usage error: seed must lie in [0, 2**64), got 18446744073709551621\n"
    )


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
    header, rows = _read_csv(out)
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
    header, rows = _read_csv(out)
    assert header == ["i", "j", "x", "y", "fingerprint", "class"]
    assert len(rows) == 64
    grid = cm.render_basins(cm.Threshold(0.8), cm.GridSpec(resolution=8))
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
    # The r=499 table is 17.1 MB of text.  write_basin_csv holds at most
    # the sort of the fingerprints' bit patterns (2.0 MB) or one chunk of
    # 32 grid rows (their fingerprint and class codes, the gathered texts
    # and one grid row's text): 2.63 MB traced; the bound is 3.3 MB.
    grid = cm.render_basins(cm.Threshold(0.95), cm.GridSpec(resolution=499))
    path = str(tmp_path / "grid.csv")
    tracemalloc.start()
    try:
        cio.write_basin_csv(grid, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.3e6


def _basin_texts(grid):
    # The lines of the basin table as written, and as the per-row writer
    # writes its rows; a failing diff of the whole text is very slow.
    got = _csv_text(cio.write_rows, cio._BASIN_HEADER, cio._BasinTable(grid))
    rows = list(zip(*_basin_columns(grid)))
    expect = _csv_text(_oracle_write_rows, cio._BASIN_HEADER, rows)
    return got.split("\r\n"), expect.split("\r\n")


_NAN_PAYLOADS = np.array(
    [0x7FF8000000000001, 0xFFF8000000000ABC], dtype=np.uint64
).view(np.float64)


def test_basin_table_writes_signed_zero_and_nan_payloads_apart():
    # A coder that sorted the fingerprints by value would merge -0.0 and 0.0.
    nan_a, nan_b = _NAN_PAYLOADS
    fingerprints = np.array([[-0.0, 0.0, nan_b], [0.5, nan_a, -0.0], [0.0, nan_b, 0.5]])
    classes = np.array([[0, 0, 2], [1, 2, 0], [0, 2, 1]], dtype=np.int32)
    table = {0: -0.0, 1: 0.5, 2: nan_a}
    grid = cm.BasinGrid(cm.GridSpec(resolution=3), fingerprints, classes, table)
    got, expect = _basin_texts(grid)
    assert [row.split(",")[4] for row in expect[1:-1]] == [
        "-0.0", "0.0", "nan", "0.5", "nan", "-0.0", "0.0", "nan", "0.5"
    ]
    assert got == expect


# c1=0.95 at r=31 has several classes; 98 cells make chunks of 3 grid rows
# with one left over, and 30 make chunks of one grid row.
@pytest.mark.parametrize("chunk_rows", [30, 98], ids=["row-per-chunk", "partial-last-chunk"])
def test_basin_table_chunks_match_row_writer(monkeypatch, chunk_rows):
    grid = cm.render_basins(cm.Threshold(0.95), cm.GridSpec(resolution=31))
    monkeypatch.setattr(cio, "_CHUNK_ROWS", chunk_rows)
    got, expect = _basin_texts(grid)
    assert got == expect


def test_basin_table_of_a_sub_range_grid_matches_row_writer():
    spec = cm.GridSpec(resolution=37, x_range=(0.2, 0.7), y_range=(0.1, 0.9))
    got, expect = _basin_texts(cm.render_basins(cm.Threshold(0.95), spec))
    assert got == expect


@pytest.mark.parametrize("t", [cm.Threshold(0.84), cm.Threshold(0.95)])
def test_basin_table_of_the_smallest_grid_matches_row_writer(t):
    # r=2: a row template of two cells, and both grid rows in one chunk.
    got, expect = _basin_texts(cm.render_basins(t, cm.GridSpec(resolution=2)))
    assert len(got) == 2 + 4
    assert got == expect


def test_basin_table_of_a_one_class_grid_matches_row_writer():
    # Every cell takes the same fingerprint and class text: a vocabulary of
    # one fingerprint and one class.
    r = 5
    fingerprints = np.full((r, r), 0.25)
    classes = np.zeros((r, r), dtype=np.int32)
    grid = cm.BasinGrid(cm.GridSpec(resolution=r), fingerprints, classes, {0: 0.25})
    got, expect = _basin_texts(grid)
    assert {row.split(",", 4)[4] for row in expect[1:-1]} == {"0.25,0"}
    assert got == expect


def test_basin_table_iterates_as_zip_of_its_columns():
    grid = cm.render_basins(cm.Threshold(0.84), cm.GridSpec(resolution=7))
    rows = list(cio._BasinTable(grid))
    expect = list(zip(*_basin_columns(grid)))
    assert rows == expect
    assert [tuple(map(type, row)) for row in rows] == [tuple(map(type, row)) for row in expect]


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
        (["--point", "0.5"], "point must be a pair of reals, got (0.5,)"),
        (["--point", ""], "point must be a pair of reals, got ()"),
        (["--point", "0.5,0.2,0.1"], "point must be a pair of reals, got (0.5, 0.2, 0.1)"),
    ],
)
def test_main_accumulation_rejects_bad_regions_without_rendering(
    capsys, monkeypatch, flags, message
):
    def no_render(*args, **kwargs):
        raise AssertionError("rendered a grid for invalid regions")

    monkeypatch.setattr(cm.basins, "render_basins", no_render)
    monkeypatch.setattr(cm.basins, "_render_rows", no_render)
    assert main(["accumulation", "--c1", "0.95", *flags]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_main_config_file_that_is_not_utf8_is_usage_error(capsys, tmp_path):
    conf = tmp_path / "bad.cfg"
    conf.write_bytes(b"c1=0.9\xff\n")
    assert main(["orbit", "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot read config file {str(conf)!r}: ")
    assert "can't decode byte 0xff" in err


def test_main_unknown_subcommand(capsys):
    assert main(["nonsense"]) == 2
    assert "unknown subcommand" in capsys.readouterr().err

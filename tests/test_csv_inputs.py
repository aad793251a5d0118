"""One CSV boundary: the five CSV inputs (turbine registry, reference,
generation, grid and series files) are read through ``windfleet.csvinput``
and follow the same rules, and a mutated input file never breaks the
exit-code contract of the commands that read it."""

import codecs
import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import windfleet
from windfleet import powerflux
from windfleet.cli import main
from windfleet.errors import DataError
from windfleet.powerflux import parse_generation_csv
from windfleet.validate import parse_reference_csv
from windfleet.windgrid import grid_from_csv, load_windgrid

GRID_CSV = "time_index,lat,lon,u10,v10,u100,v100\n" + "".join(
    f"{t},{lat},{lon},3,4,6,8\n" for t in range(2) for lat in (36.0, 37.0)
    for lon in (-99.0, -98.0))
SERIES_CSV = "year,value,unit\n2010,1.0,W\n2011,2.0,W\n"


def run(argv):
    """The exit code and the standard error of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A small synth bundle whose run.conf names its inputs by absolute path,
    plus a grid CSV and a series file."""
    path = tmp_path_factory.mktemp("bundle")
    assert run(["synth", "--out", str(path), "--n-turbines", "6", "--years", "2010:2011",
                "--wind", "sinusoidal:8,2,720", "--grid", "2x2", "--seed", "5"])[0] == 0
    conf = path / "run.conf"
    conf.write_text(re.sub(r"= (\w+\.\w+)$", lambda m: f"= {path / m.group(1)}",
                           conf.read_text(), flags=re.M), encoding="utf-8")
    (path / "grid.csv").write_text(GRID_CSV, encoding="utf-8")
    (path / "series.csv").write_text(SERIES_CSV, encoding="utf-8")
    return path


def command(name, bundle, path, out):
    """``windfleet`` arguments of command ``name`` with input file ``path``
    (named as in the bundle) replacing the bundle's."""
    def given(file):
        return str(path if path.name == file else bundle / file)

    series = str(bundle / "series.csv")
    return {
        "report": ["report", "--config", given("run.conf"), "--turbines", given("turbines.csv"),
                   "--reference", given("reference.csv"), "--generation",
                   given("generation.csv"), "--windgrid", given("wind.wgrd"), "--out", str(out)],
        "validate": ["validate", "--turbines", given("turbines.csv"), "--reference",
                     given("reference.csv"), "--years", "2010:2011", "--out", str(out)],
        "pin": ["pin", "--turbines", given("turbines.csv"), "--windgrid", given("wind.wgrd"),
                "--years", "2010:2011", "--out", str(out)],
        "convert-grid": ["convert-grid", "--csv", given("grid.csv"), "--out", str(out)],
        "decompose": ["decompose", "--n", series, "--area", series, "--pin",
                      given("series.csv"), "--pout", series, "--out", str(out)],
    }[name]


# ---------------------------------------------------------------------------
# the same rules for all five inputs
# ---------------------------------------------------------------------------

#: input: (file, command reading it, error prefix, index of a numeric field)
INPUTS = {
    "turbines": ("turbines.csv", "report", "fleet", 1),
    "reference": ("reference.csv", "report", "reference", 0),
    "generation": ("generation.csv", "report", "generation", 0),
    "grid": ("grid.csv", "convert-grid", "data", 0),
    "series": ("series.csv", "decompose", "data", 0),
}


def set_field(row, k, value):
    fields = row.split(",")
    fields[k] = value
    return ",".join(fields)


#: case: (edit of data row 1 given its numeric field index, message pattern
#: given the header's column count)
CASES = {
    "lone_cr": (lambda row, k: row[:1] + "\r" + row[1:],
                lambda n: "lone carriage return in an unquoted field, row 1$"),
    "columns": (lambda row, k: row + ",1",
                lambda n: f"expected {n} columns, got {n + 1}, row 1$"),
    "non_number": (lambda row, k: set_field(row, k, "abc"),
                   lambda n: r"non-numeric \w+( 'abc')?, row 1$"),
    "huge_field": (lambda row, k: set_field(row, 0, "9" * 140_000),
                   lambda n: r"field larger than field limit \(\d+\), row 1$"),
}


class TestSharedRules:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("name", INPUTS)
    def test_error_shape(self, name, case, bundle, tmp_path):
        file, cmd, prefix, k = INPUTS[name]
        edit, pattern = CASES[case]
        header, first, *rest = (bundle / file).read_text(encoding="utf-8").split("\n")
        bad = tmp_path / file
        bad.write_bytes("\n".join([header, edit(first, k), *rest]).encode("utf-8"))
        out = tmp_path / "out"
        code, err = run(command(cmd, bundle, bad, out))
        assert code == 3
        assert err.startswith(f"{prefix}: ") and err.count("\n") == 1
        assert re.search(pattern(len(header.split(","))), err.rstrip("\n")), err
        if name == "series":
            assert err.startswith(f"data: {bad}: ")
        assert not out.exists()

    @pytest.mark.parametrize("name", [*INPUTS, "exclusions", "config"])
    def test_leading_byte_order_mark_is_skipped(self, name, bundle, tmp_path):
        """A UTF-8 BOM at the start of an input changes no output: each of the
        five CSV inputs, the exclusions file and the config file, in turn,
        is read with and without one from the same path."""
        file, cmd = {**{k: v[:2] for k, v in INPUTS.items()},
                     "exclusions": ("exclusions.txt", "report"),
                     "config": ("run.conf", "report")}[name]
        path, out = tmp_path / file, tmp_path / "out"
        text = b"S00000\nS00001\n" if name == "exclusions" else (bundle / file).read_bytes()
        argv = command(cmd, bundle, path, out)
        if name == "exclusions":
            argv += ["--exclusions", str(path)]
        outputs = []
        for prefix in (b"", codecs.BOM_UTF8):
            path.write_bytes(prefix + text)
            assert run(argv)[0] == 0
            outputs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                            if p.is_file()} if out.is_dir() else out.read_bytes())
            out.rename(tmp_path / f"out-{len(outputs)}")
        assert outputs[0] == outputs[1]
        if name == "exclusions":
            report = json.loads(outputs[1][Path("report.json")])
            assert report["fleet"]["provenance"]["excluded"] == 2

    @pytest.mark.parametrize("text, message", [
        ("year,value,unit\n2010,1.0,W\nabc,2.0,W\n", "non-numeric year, row 2"),
        ("year,value,unit\n2010,1.0,W\n\n2011,2.0\n", "expected 3 columns, got 2, row 3"),
        ("year,value,unit\n2010,1.0,W\n\n,2.0,W\n", "non-numeric year, row 3"),
        ("year,value,unit\n2010,1.0,W\n2012,2.0,W\n", "non-contiguous years in series"),
        ("year,value,unit\n2010,1.0,W\n2010,2.0,W\n", "duplicate year 2010, row 2"),
        ("year,value,unit\n2010,1.0,W\n2011,2.0,MW\n2012,3.0,count\n",
         "unit MW differs from W, row 2"),
        ("year,value,unit\n\n", "no series data"),
        ("year,va\rlue,unit\n2010,1.0,W\n", "lone carriage return in an unquoted field, row 0")],
        ids=["non_number", "columns", "blank_field", "gap", "duplicate_year", "mixed_units",
             "no_rows", "header_cr"])
    def test_series_errors_name_file_and_row(self, bundle, tmp_path, text, message):
        """Blank rows count; a blank field is not a number; the header is row 0."""
        bad = tmp_path / "series.csv"
        bad.write_text(text, encoding="utf-8")
        out = tmp_path / "d.json"
        code, err = run(command("decompose", bundle, bad, out))
        assert (code, err) == (3, f"data: {bad}: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("parse, header", [
        (parse_reference_csv, "year,installed_capacity_mw,generation_gwh"),
        (parse_generation_csv, "year,month,net_generation_mwh"),
        (lambda data: grid_from_csv(data, t0=0), GRID_CSV.split("\n")[0])])
    def test_decode_error_first(self, parse, header):
        """A row error before an undecodable byte yields to the decode error,
        which names the byte's offset in the file, a leading BOM included."""
        row = ",".join(["abc"] * len(header.split(",")))
        for mark in (b"", codecs.BOM_UTF8):
            data = mark + f"{header}\n{row}\n".encode() + b"\xff\n"
            with pytest.raises(UnicodeDecodeError) as error:
                parse(data)
            assert error.value.start == data.index(b"\xff")
            with pytest.raises(DataError, match="non-numeric"):
                parse(mark + f"{header}\n{row}\n".encode())

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_line_endings_and_padded_header(self, ending):
        text = " year , month ,net_generation_mwh\n2010,1,5\n\n2010,2,6\n"
        assert parse_generation_csv(text.replace("\n", ending).encode()).values == [5.0, 6.0]

    def test_one_reader_site(self):
        """Every CSV input goes through one ``csv.reader`` call."""
        src = Path(windfleet.__file__).parent
        sites = [f"{path.name}:{no}" for path in sorted(src.glob("*.py"))
                 for no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                 if "csv.reader(" in line]
        assert len(sites) == 1 and sites[0].startswith("csvinput.py:"), sites


class TestGridValueRange:
    def test_overflow_is_a_row_error(self, bundle, tmp_path):
        bad = tmp_path / "grid.csv"
        bad.write_text(GRID_CSV.replace("\n1,36.0,-99.0,3,", "\n1,36.0,-99.0,1e39,"),
                       encoding="utf-8")
        out = tmp_path / "x.wgrd"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = run(command("convert-grid", bundle, bad, out))
        assert (code, err) == (3, "data: u10 outside the float32 range, row 5\n")
        assert not out.exists()

    def test_float32_extremes_round_trip(self, bundle, tmp_path):
        top = 3.4028234663852886e38  # the largest float32
        good = tmp_path / "grid.csv"
        good.write_text(GRID_CSV.replace(",6,8\n", f",{-top},8\n", 1), encoding="utf-8")
        out = tmp_path / "x.wgrd"
        assert run(command("convert-grid", bundle, good, out))[0] == 0
        assert float(load_windgrid(out).u100[0, 0, 0]) == -top


# ---------------------------------------------------------------------------
# a mutated input never breaks the exit-code contract
# ---------------------------------------------------------------------------

#: command: the bundle files it reads
READS = {
    "report": ("turbines.csv", "reference.csv", "generation.csv", "wind.wgrd", "run.conf"),
    "validate": ("turbines.csv", "reference.csv"),
    "pin": ("turbines.csv", "wind.wgrd"),
    "convert-grid": ("grid.csv",),
    "decompose": ("series.csv",),
}


#: series values near the float limits: huge, subnormal, zero and ordinary
POSITIVE_EXTREMES = (1e300, 1e200, 1e-310, 5e-324, 1.0)
EXTREMES = POSITIVE_EXTREMES + (-1e300, -1e200, -1e-310, 0.0)


def mutate(draw, data: bytes, text: bool) -> bytes:
    """``data`` truncated, with a byte flipped, a field blanked, a column
    added or a huge field; in a binary file a blanked field is four zero
    bytes and a column or a huge field is appended bytes."""
    kind = draw(st.sampled_from(["truncate", "flip", "blank", "column", "huge"]))
    at = draw(st.integers(0, len(data) - 1))
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    if not text:
        return {"blank": data[:at] + bytes(4) + data[at + 4:],
                "column": data + bytes(4), "huge": data + bytes(140_000)}[kind]
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "column":
        if draw(st.booleans()):  # every row, the header too
            return b"\n".join(line + (b",extra" if n == 0 else b",9") if line else line
                              for n, line in enumerate(lines))
        lines[i] += b",9"
    else:
        fields = lines[i].split(b",")
        fields[draw(st.integers(0, len(fields) - 1))] = b"" if kind == "blank" else b"9" * 140_000
        lines[i] = b",".join(fields)
    return b"\n".join(lines)


class TestMutatedInputs:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exit_contract(self, bundle, data):
        """Exit 0, 2 or 3 with no traceback; a failed run leaves no output, and
        fails before the kernel pass unless the wind grid is the bad input."""
        name = data.draw(st.sampled_from(sorted(READS)))
        file = data.draw(st.sampled_from(READS[name]))
        original = (bundle / file).read_bytes()
        with tempfile.TemporaryDirectory(dir=bundle.parent) as tmp:
            bad = Path(tmp) / file
            bad.write_bytes(mutate(data.draw, original, file != "wind.wgrd"))
            out = Path(tmp) / "out"
            with mock.patch.object(powerflux, "_chunk_cube_sums",
                                   wraps=powerflux._chunk_cube_sums) as passes, \
                    warnings.catch_warnings():
                # a mutated generation, registry or grid may put a month over
                # the Betz limit, which warns and does not fail the run
                warnings.simplefilter("ignore", powerflux.BetzLimitWarning)
                code, err = run(command(name, bundle, bad, out))
            event(f"{name} {file} exit {code}")
            assert code in (0, 2, 3), err
            assert "Traceback" not in err
            if code:
                assert not out.exists()
                assert file == "wind.wgrd" or not passes.called, err

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_series_near_the_float_limits(self, bundle, data):
        """``trends`` (both modes) and ``decompose`` keep the exit contract on
        three-year series near the float limits: overflowing sums, underflowing
        or subnormal factors, zeros and zero variance exit 0 or 3, never 1 or 4."""
        def series(values):
            return "year,value,unit\n" + "".join(
                f"{2010 + i},{v!r},W\n" for i, v in enumerate(values))

        def draw(choices):
            return data.draw(st.one_of(st.lists(st.sampled_from(choices), min_size=3,
                                                max_size=3),
                                       st.sampled_from(choices).map(lambda v: [v] * 3)))

        name = data.draw(st.sampled_from(["trends-series", "trends-counterfactual",
                                          "decompose"]))
        flags = {"trends-series": ["--series"],
                 "trends-counterfactual": ["--efficiency", "--density"],
                 # n, area and P_in must be positive, so they draw only
                 # positive values; P_out may take any sign
                 "decompose": ["--n", "--area", "--pin", "--pout"]}[name]
        with tempfile.TemporaryDirectory(dir=bundle.parent) as tmp:
            args = [name.split("-")[0]]
            for flag in flags:
                path = Path(tmp) / f"{flag.strip('-')}.csv"
                positive = name == "decompose" and flag != "--pout"
                path.write_text(series(draw(POSITIVE_EXTREMES if positive else EXTREMES)),
                                encoding="utf-8")
                args += [flag, str(path)]
            out = Path(tmp) / "out.json"
            code, err = run(args + ["--out", str(out)])
            event(f"{name} exit {code}")
            assert code in (0, 3), err
            assert "Traceback" not in err
            assert out.exists() == (code == 0), err

    @pytest.mark.parametrize("column", ["p_year", "d_year"])
    def test_year_past_the_calendar(self, bundle, tmp_path, column):
        """A flipped byte can make a year of 2E10; the missingness report
        would then span 2·10^10 years.  A year after 9999 is a row error."""
        header, first, *rest = (bundle / "turbines.csv").read_text().split("\n")
        bad = tmp_path / "turbines.csv"
        bad.write_text("\n".join([header, set_field(first, header.split(",").index(column),
                                                    "2E10"), *rest]), encoding="utf-8")
        code, err = run(command("validate", bundle, bad, tmp_path / "out"))
        assert (code, err) == (3, f"fleet: {column} out of range, row 1\n")

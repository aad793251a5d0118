"""The block parser of the turbine registry against a row-by-row reference.

``reference_parse`` is the registry's earlier parser, one ``TurbineRecord``
per row: on any CSV the table parser must return equal records or raise the
identical ``DataError`` text.
"""

import csv
import io
import math
import tempfile
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from windfleet import csvinput, pipeline
from windfleet.errors import DataError
from windfleet.fleet import (REQUIRED_COLUMNS, TurbineRecord, parse_turbine_csv,
                             preprocess)
from windfleet.synth import SynthSpec, WindModel, generate_fleet

_TRUE = {"true", "t", "1", "yes"}
_FALSE = {"false", "f", "0", "no"}


def _parse_float(raw, column, row_no):
    raw = raw.strip()
    if raw == "":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"non-numeric {column} {raw!r}, row {row_no}") from None
    if not math.isfinite(value):
        raise DataError(f"non-finite {column}, row {row_no}")
    return value


def _parse_year(raw, column, row_no):
    value = _parse_float(raw, column, row_no)
    if value is None:
        return None
    if value != int(value):
        raise DataError(f"non-integer {column} {raw!r}, row {row_no}")
    return int(value)


def _parse_bool(raw, column, row_no):
    raw = raw.strip().lower()
    if raw == "" or raw in _FALSE:
        return False
    if raw in _TRUE:
        return True
    raise DataError(f"bad boolean {column} {raw!r}, row {row_no}")


def numbered(reader):
    """``(row number, row)`` from 1; a csv error is a ``DataError`` naming
    the row it stopped at."""
    row_no = 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            text = str(exc)
            if text.startswith("new-line character seen in unquoted field"):
                text = "lone carriage return in an unquoted field"
            raise DataError(f"{text}, row {row_no}") from None
        yield row_no, row
        row_no += 1


def reference_parse(data):
    """One record per data row, each row checked field by field."""
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    header = next(reader, None)
    if header is None:
        raise DataError("empty turbine CSV")
    header = [h.strip() for h in header]
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise DataError(f"turbine CSV missing columns: {', '.join(missing)}")
    col = {name: header.index(name) for name in REQUIRED_COLUMNS}

    records = []
    for row_no, row in numbered(reader):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"expected {len(header)} columns, got {len(row)}, row {row_no}")
        turbine_id = row[col["case_id"]].strip()
        if not turbine_id:
            raise DataError(f"empty case_id, row {row_no}")
        lon = _parse_float(row[col["xlong"]], "xlong", row_no)
        lat = _parse_float(row[col["ylat"]], "ylat", row_no)
        if lon is None or lat is None:
            raise DataError(f"missing coordinates, row {row_no}")
        if not -180.0 <= lon <= 180.0:
            raise DataError(f"lon out of range, row {row_no}")
        if not -90.0 <= lat <= 90.0:
            raise DataError(f"lat out of range, row {row_no}")

        hub = _parse_float(row[col["t_hh"]], "t_hh", row_no)
        rotor = _parse_float(row[col["t_rd"]], "t_rd", row_no)
        cap = _parse_float(row[col["t_cap"]], "t_cap", row_no)
        p_year = _parse_year(row[col["p_year"]], "p_year", row_no)
        d_year = _parse_year(row[col["d_year"]], "d_year", row_no)
        for name, value in (("t_hh", hub), ("t_rd", rotor), ("t_cap", cap),
                            ("p_year", p_year), ("d_year", d_year)):
            if value is not None and value <= 0:
                raise DataError(f"non-positive {name}, row {row_no}")

        records.append(TurbineRecord(
            id=turbine_id, lon=lon, lat=lat, commissioning_year=p_year,
            hub_height=hub, rotor_diameter=rotor, capacity=cap,
            decommissioned_flag=_parse_bool(row[col["is_decommissioned"]],
                                            "is_decommissioned", row_no),
            decommissioning_year=d_year))
    return records


def outcome(parse, data):
    """The records ``parse`` returns, or the type and text of its error."""
    try:
        return list(parse(data))
    except DataError as exc:
        return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# generated registries
# ---------------------------------------------------------------------------

def padded(values):
    """Values, sometimes with white space around them (``str.strip`` white
    space that ``float`` alone does not strip, too)."""
    return st.tuples(st.sampled_from(["", " ", "\t", "\x1c", "\u2003"]), values,
                     st.sampled_from(["", " ", "  ", "\x1f"])).map("".join)


#: values every numeric column rejects, or accepts in one spelling only
ODD_NUMBERS = ["nan", "NaN", "inf", "-inf", "1_000", "abc", "1.2.3", " ", "0", "-1",
               "1e3", "+7"]


def number(lo, hi, bad):
    good = st.one_of(st.floats(lo, hi).map(repr), st.integers(int(lo), int(hi)).map(str))
    return padded(st.one_of(good, st.just(""), st.sampled_from(ODD_NUMBERS))) if bad \
        else padded(st.one_of(good, st.just("")))


def year(bad):
    good = st.integers(1980, 2030).map(str)
    odd = st.sampled_from(["2012.0", "2012.5", "2.0e3", "-2010", "0", "1_999", "nan"])
    return padded(st.one_of(good, st.just(""), odd)) if bad else padded(st.one_of(good,
                                                                                 st.just("")))


def flag(bad):
    good = st.sampled_from(["", "true", "false", "T", "F", "1", "0", "yes", "No", "TRUE"])
    return padded(st.one_of(good, st.just("maybe"))) if bad else padded(good)


def case_id(bad):
    good = st.one_of(st.from_regex(r"T[0-9]{1,4}", fullmatch=True),
                     st.sampled_from(['A,1', 'B, 2', 'say "hi"']))
    return padded(st.one_of(good, st.just(""))) if bad else padded(good)


@st.composite
def registries(draw):
    """A registry CSV: shuffled and extra columns, blank lines, quoting, LF or
    CRLF endings, and, unless the draw is clean, bad values anywhere."""
    bad = draw(st.booleans())
    extra = draw(st.lists(st.sampled_from(["note", "source", "xlong2"]), unique=True,
                          max_size=2))
    header = draw(st.permutations(list(REQUIRED_COLUMNS) + extra))
    if bad:
        coordinates = number(-200.0, 200.0, True), number(-100.0, 100.0, True)
    else:  # coordinates are required
        coordinates = (padded(st.floats(-180.0, 180.0).map(repr)),
                       padded(st.floats(-90.0, 90.0).map(repr)))
    columns = {"case_id": case_id(bad), "xlong": coordinates[0], "ylat": coordinates[1],
               "p_year": year(bad), "t_hh": number(1.0, 200.0, bad),
               "t_rd": number(1.0, 200.0, bad), "t_cap": number(1.0, 8000.0, bad),
               "is_decommissioned": flag(bad), "d_year": year(bad)}
    row = st.fixed_dictionaries({name: columns.get(name, st.text(max_size=4))
                                 for name in header})
    rows = draw(st.lists(st.one_of(row.map(lambda r: [r[h] for h in header]),
                                   st.just([]),
                                   st.lists(st.just("x"), min_size=1, max_size=3)
                                   if bad else st.just([])),
                         max_size=12))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


class TestParseEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(registries(), st.integers(1, 5))
    @example(data=b"case_id,xlong,ylat,p_year,t_hh,t_rd,t_cap,is_decommissioned,d_year,note\n"
                  b"T0,0.0,0.0,1980,1.0,1.0,1.0,,1980,\r\n", block_rows=1)
    @example(data=b"case_id,xlong,ylat,p_year,t_hh,t_rd,t_cap,is_decommissioned,d_year\n"
                  b"T0,0.0,0.0,1980,1.0,1.0,1.0,,\n\nT1,0.0,\r0.0,1980,1.0,1.0,1.0,,\n",
             block_rows=2)
    def test_equal_records_or_identical_error(self, data, block_rows):
        """At block sizes 1-5 a dozen rows span block boundaries on both
        sides of every bad value.  A lone "\r" in an unquoted field is an
        error naming its row for both, not a line end."""
        want = outcome(reference_parse, data)
        with mock.patch.object(csvinput, "BLOCK_ROWS", block_rows):
            assert outcome(parse_turbine_csv, data) == want

    def test_len_counts_data_rows(self):
        data = b"case_id,xlong,ylat,p_year,t_hh,t_rd,t_cap,is_decommissioned,d_year\n" \
               b"A,1,2,2010,,,,,\n\nB,1,2,2011,,,,,\n"
        assert len(parse_turbine_csv(data)) == 2


#: one bad field per rule, with the reference's message
BAD_FIELDS = [
    ("case_id", " ", "empty case_id"),
    ("xlong", "east", "non-numeric xlong 'east'"),
    ("xlong", "inf", "non-finite xlong"),
    ("ylat", "north", "non-numeric ylat 'north'"),
    ("ylat", "nan", "non-finite ylat"),
    ("xlong", "", "missing coordinates"),
    ("xlong", "-181", "lon out of range"),
    ("ylat", "90.5", "lat out of range"),
    ("t_hh", "tall", "non-numeric t_hh 'tall'"),
    ("t_rd", "-inf", "non-finite t_rd"),
    ("t_cap", "1,5", "expected 9 columns, got 10"),
    ("p_year", " 2012.5", "non-integer p_year ' 2012.5'"),
    ("d_year", "soon", "non-numeric d_year 'soon'"),
    ("t_hh", "0", "non-positive t_hh"),
    ("t_rd", "-3", "non-positive t_rd"),
    ("t_cap", "-0.5", "non-positive t_cap"),
    ("p_year", "-2010", "non-positive p_year"),
    ("d_year", "0", "non-positive d_year"),
    ("is_decommissioned", " Maybe ", "bad boolean is_decommissioned 'maybe'"),
]


class TestBlockBoundary:
    @pytest.mark.parametrize("column,value,message", BAD_FIELDS)
    @pytest.mark.parametrize("offset", [0, 1])
    def test_bad_field_each_side_of_a_block(self, column, value, message, offset):
        """Row ``BLOCK_ROWS`` ends the first block, the next row starts the
        second; the error names the row either way."""
        row_no = csvinput.BLOCK_ROWS + offset
        good = {"case_id": "T", "xlong": "-97.5", "ylat": "37.25", "p_year": "2010",
                "t_hh": "80", "t_rd": "100", "t_cap": "2000", "is_decommissioned": "false",
                "d_year": ""}
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(REQUIRED_COLUMNS)
        for i in range(1, row_no + 3):
            row = dict(good, case_id=f"T{i}")
            if i == row_no:
                row[column] = value
            fields = [row[c] for c in REQUIRED_COLUMNS]
            out.write(",".join(fields) + "\n")
        data = out.getvalue().encode("utf-8")
        with pytest.raises(DataError) as exc:
            parse_turbine_csv(data)
        assert str(exc.value) == f"{message}, row {row_no}"
        assert outcome(reference_parse, data) == f"DataError: {message}, row {row_no}"


class TestErrorPrecedence:
    """Errors the text raises before any row is checked keep their place:
    a row error is raised only for rows read before them."""

    ROW = "T{},-97.5,37.25,2010,80,100,2000,false,"

    def registry(self, *rows):
        return "\n".join([",".join(REQUIRED_COLUMNS), *rows, ""]).encode("utf-8")

    def test_undecodable_byte_after_a_bad_row(self):
        """The whole text is decoded first, so the decode error wins and names
        its offset in the file, past the first decoded chunk."""
        rows = [self.ROW.format(i) for i in range(400)]
        rows[0] = rows[0].replace(",80,", ",-80,")
        data = self.registry(*rows) + b"\xff\n"
        with pytest.raises(UnicodeDecodeError) as want:
            reference_parse(data)
        with pytest.raises(UnicodeDecodeError) as got:
            parse_turbine_csv(data)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("first, expected", [
        ("-80", "non-positive t_hh, row 1"),
        ("80", r"field larger than field limit \(\d+\), row 2$")])
    def test_csv_error_after_rows_of_its_block(self, first, expected):
        """A field over the csv module's limit stops the reader: rows before
        it in the same block are checked first."""
        rows = [self.ROW.format(1).replace(",80,", f",{first},"),
                self.ROW.format(2).replace("T2", "T" + "2" * (csv.field_size_limit() + 1))]
        data = self.registry(*rows)
        for parse in (reference_parse, parse_turbine_csv):
            with pytest.raises(DataError, match=expected):
                parse(data)


class TestFileForm:
    """A binary file parses as its bytes do, from the file's position on:
    the same table, or the same first error."""

    @staticmethod
    def outcome(source):
        try:
            return list(parse_turbine_csv(source))
        except (DataError, UnicodeDecodeError) as exc:
            return f"{type(exc).__name__}: {exc}"

    def both(self, data, prefix=b""):
        """The outcomes of ``data`` as bytes and as a file holding ``prefix``
        and then ``data``, positioned after ``prefix``.  The file stays open."""
        with tempfile.TemporaryFile() as file:
            file.write(prefix + data)
            file.seek(len(prefix))
            from_file = self.outcome(file)
            assert not file.closed
        return self.outcome(data), from_file

    @settings(max_examples=200, deadline=None)
    @given(registries(), st.binary(max_size=6), st.integers(1, 5),
           st.none() | st.integers(0, 2000))
    def test_file_parses_as_its_bytes(self, data, prefix, block_rows, bad_byte_at):
        """Row-rule errors at any block size, and an undecodable byte
        anywhere, which is raised first, with its offset from the position."""
        if bad_byte_at is not None:
            at = min(bad_byte_at, len(data))
            data = data[:at] + b"\xff" + data[at:]
        with mock.patch.object(csvinput, "BLOCK_ROWS", block_rows):
            from_bytes, from_file = self.both(data, prefix)
        assert from_file == from_bytes

    ROW = "T{},-97.5,37.25,2010,80,100,2000,false,"

    def registry(self, *rows):
        return "\n".join([",".join(REQUIRED_COLUMNS), *rows, ""]).encode("utf-8")

    def test_decode_error_first_past_the_first_chunk(self):
        rows = [self.ROW.format(i) for i in range(400)]
        rows[0] = rows[0].replace(",80,", ",-80,")
        from_bytes, from_file = self.both(self.registry(*rows) + b"\xff\n", b"skipped\n")
        assert from_bytes.startswith("UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff")
        assert from_file == from_bytes

    @pytest.mark.parametrize("first", ["-80", "80"])
    def test_field_limit_error_after_rows_of_its_block(self, first):
        rows = [self.ROW.format(1).replace(",80,", f",{first},"),
                self.ROW.format(2).replace("T2", "T" + "2" * (csv.field_size_limit() + 1))]
        from_bytes, from_file = self.both(self.registry(*rows))
        assert from_bytes.startswith("DataError: ")
        assert from_file == from_bytes

    def test_len_counts_data_rows_under_blank_lines_and_quoted_newlines(self):
        """Columns are sized from the newline count, which only bounds the rows."""
        data = (",".join(REQUIRED_COLUMNS) + "\n\n\n"
                + '"A\nB",1,2,2010,,,,,\r\n\nC,1,2,2011,,,,,').encode("utf-8")
        from_bytes, from_file = self.both(data)
        assert [r.id for r in from_file] == ["A\nB", "C"]
        assert from_file == from_bytes


class TestBoundedMemory:
    def test_parse_and_preprocess_within_three_times_the_file(self):
        """The table costs a few times its CSV text; one record per row costs
        about ten times."""
        spec = SynthSpec(n_turbines=20_000, years=(1990, 2019), n_lat=2, n_lon=2,
                         wind=WindModel("constant", (8.0, 8.0)),
                         bbox=(-125.0, -67.0, 25.0, 49.0), hub_trend=(50.0, 2.5),
                         rotor_trend=(40.0, 3.0))
        lines = generate_fleet(spec, 7).decode("utf-8").split("\n")
        # every seventh turbine without hub height, every eleventh without capacity
        for i in range(1, len(lines) - 1):
            fields = lines[i].split(",")
            if i % 7 == 0:
                fields[4] = ""
            if i % 11 == 0:
                fields[6] = ""
            lines[i] = ",".join(fields)
        data = "\n".join(lines).encode("utf-8")
        bound = 3 * len(data)

        tracemalloc.start()
        try:
            fleet_ = preprocess(parse_turbine_csv(data), set())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(fleet_.turbines) == 20_000
        assert peak <= bound, f"peak {peak} B over {bound} B for a {len(data)} B file"

    def test_load_fleet_from_files_within_two_and_a_half_times_the_file(self, tmp_path):
        """Everything the registry stage allocates, the reading of both files
        included, while it parses, merges an extension and imputes: one table
        at a time, about 1.5 times the file, and the rows being checked.
        Reading each file whole, concatenating per-block tables, a dict of
        every id and a second merged table peaked at 3.3 times."""
        spec = SynthSpec(n_turbines=20_000, years=(1990, 2019), n_lat=2, n_lon=2,
                         wind=WindModel("constant", (8.0, 8.0)),
                         bbox=(-125.0, -67.0, 25.0, 49.0), hub_trend=(50.0, 2.5),
                         rotor_trend=(40.0, 3.0))
        header, *rows = generate_fleet(spec, 7).decode("utf-8").splitlines()
        extension = []
        # blanks to impute, and every fiftieth turbine decommissioned through
        # the extension only
        for i, row in enumerate(rows, 1):
            fields = row.split(",")
            if i % 7 == 0:
                fields[4] = ""
            if i % 11 == 0:
                fields[6] = ""
            rows[i - 1] = ",".join(fields)
            if i % 50 == 0:
                extension.append(",".join(fields[:7] + ["true", str(int(fields[3]) + 12)]))
        # and new decommissioned turbines
        for row in generate_fleet(replace(spec, n_turbines=800), 8).decode("utf-8").splitlines()[1:]:
            fields = row.split(",")
            extension.append(",".join(["D" + fields[0], *fields[1:7], "true", "2020"]))
        turbines, ext = tmp_path / "turbines.csv", tmp_path / "extension.csv"
        turbines.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        ext.write_text("\n".join([header, *extension]) + "\n", encoding="utf-8")
        size = turbines.stat().st_size
        bound = 2.5 * size

        tracemalloc.start()
        try:
            fleet_ = pipeline.load_fleet(turbines, ext)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(fleet_.turbines) == 20_800
        assert fleet_.turbines.decommissioned_flag.sum() == 1_200
        assert peak <= bound, f"peak {peak} B over {bound} B for a {size} B file"

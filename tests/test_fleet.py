import contextlib
import copy
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fleet_of, report_json, turbine
from windfleet import fleet as fleet_mod
from windfleet.cli import main
from windfleet.errors import DataError
from windfleet.fleet import (IMPUTABLE_FIELDS, ScenarioSpec, TurbineColumns,
                             annual_capacity, annual_counts, annual_swept_area, impute_missing,
                             merge_extension, operating_weight,
                             operating_weights, parse_exclusion_ids,
                             parse_turbine_csv, preprocess, rotor_swept_area)
from windfleet.pipeline import PipelineError, RunConfig, fleet_stage
from windfleet.validate import missingness_report

HEADER = "case_id,xlong,ylat,p_year,t_hh,t_rd,t_cap,is_decommissioned,d_year"


def csv_bytes(*rows):
    return ("\n".join([HEADER, *rows]) + "\n").encode()


class TestParseTurbineCsv:
    def test_full_row(self):
        recs = parse_turbine_csv(csv_bytes("T1,-100.0,40.0,2012,80,100,2000,false,"))
        assert len(recs) == 1
        r = recs[0]
        assert (r.id, r.lon, r.lat) == ("T1", -100.0, 40.0)
        assert r.commissioning_year == 2012
        assert (r.hub_height, r.rotor_diameter, r.capacity) == (80.0, 100.0, 2000.0)
        assert r.decommissioned_flag is False
        assert r.decommissioning_year is None

    def test_empty_fields_are_missing(self):
        r = parse_turbine_csv(csv_bytes("T2,-100.0,40.0,2012,,,,false,"))[0]
        assert r.hub_height is None
        assert r.rotor_diameter is None
        assert r.capacity is None

    def test_lon_out_of_range_names_row(self):
        rows = ["T1,-100.0,40.0,2012,80,100,2000,false,",
                "T2,-100.0,40.0,2012,80,100,2000,false,",
                "T3,-200.0,40.0,2012,80,100,2000,false,"]
        with pytest.raises(DataError, match="lon out of range, row 3"):
            parse_turbine_csv(csv_bytes(*rows))

    def test_lat_out_of_range(self):
        with pytest.raises(DataError, match="lat out of range, row 1"):
            parse_turbine_csv(csv_bytes("T1,-100.0,91.0,2012,80,100,2000,false,"))

    def test_wrong_column_count(self):
        with pytest.raises(DataError, match="row 1"):
            parse_turbine_csv(csv_bytes("T1,-100.0,40.0,2012,80,100,2000,false"))

    def test_non_numeric(self):
        with pytest.raises(DataError, match="t_hh.*row 1"):
            parse_turbine_csv(csv_bytes("T1,-100.0,40.0,2012,tall,100,2000,false,"))

    def test_non_positive_values_rejected(self):
        with pytest.raises(DataError, match="non-positive t_rd"):
            parse_turbine_csv(csv_bytes("T1,-100.0,40.0,2012,80,-5,2000,false,"))

    def test_extra_columns_ignored(self):
        data = (HEADER + ",note\nT1,-100.0,40.0,2012,80,100,2000,false,,hello\n").encode()
        assert parse_turbine_csv(data)[0].id == "T1"

    def test_missing_column(self):
        with pytest.raises(DataError, match="missing columns"):
            parse_turbine_csv(b"case_id,xlong\nT1,-100.0\n")

    def test_empty_file(self):
        with pytest.raises(DataError, match="empty"):
            parse_turbine_csv(b"")

    def test_decommissioned_true(self):
        r = parse_turbine_csv(csv_bytes("T1,-100.0,40.0,2012,80,100,2000,true,2015"))[0]
        assert r.decommissioned_flag is True
        assert r.decommissioning_year == 2015


class TestMergeExtension:
    def test_disjoint_union(self):
        merged = merge_extension([turbine("T1")], [turbine("T2")])
        assert [r.id for r in merged] == ["T1", "T2"]

    def test_fill_decommissioning_from_extension(self):
        base = [turbine("T1")]
        ext = [turbine("T1", flagged=True, d_year=2015)]
        merged = merge_extension(base, ext)
        assert len(merged) == 1
        assert merged[0].decommissioning_year == 2015
        assert merged[0].decommissioned_flag is True

    def test_base_record_wins_other_fields(self):
        base = [turbine("T1", rotor=100.0)]
        ext = [turbine("T1", rotor=120.0, d_year=2015)]
        merged = merge_extension(base, ext)
        assert merged[0].rotor_diameter == 100.0
        assert merged[0].decommissioning_year == 2015

    def test_base_decommissioning_kept(self):
        base = [turbine("T1", d_year=2014)]
        ext = [turbine("T1", d_year=2016)]
        assert merge_extension(base, ext)[0].decommissioning_year == 2014

    def test_empty(self):
        assert list(merge_extension([], [])) == []

    @pytest.mark.parametrize("tid", ["T1", "T2"])
    def test_duplicate_extension_ids_rejected(self, tid):
        """A repeated extension id fails whether or not the base has it."""
        ext = [turbine(tid, flagged=True, d_year=2015), turbine(tid, d_year=2016)]
        with pytest.raises(DataError, match=f"^duplicate turbine id {tid} in extension$"):
            merge_extension([turbine("T1")], ext)

    def test_merged_table_keeps_base_order_then_new(self):
        base = [turbine("A"), turbine("B", d_year=2014), turbine("C")]
        ext = [turbine("N", flagged=True), turbine("C", flagged=True, d_year=2019),
               turbine("B", d_year=2020)]
        merged = merge_extension(base, ext)
        assert [(r.id, r.decommissioned_flag, r.decommissioning_year) for r in merged] == [
            ("A", False, None), ("B", False, 2014), ("C", True, 2019), ("N", True, None)]


def naive_merge(base, ext):
    """The merge as a dict of base ids: the last of a repeated base id is
    filled, and the extension's other records follow in extension order."""
    seen = set()
    for r in ext:
        if r.id in seen:
            raise DataError(f"duplicate turbine id {r.id} in extension")
        seen.add(r.id)
    merged = [copy.deepcopy(r) for r in base]
    by_id = {r.id: i for i, r in enumerate(base)}
    for r in ext:
        if r.id not in by_id:
            merged.append(copy.deepcopy(r))
            continue
        m = merged[by_id[r.id]]
        m.decommissioned_flag |= r.decommissioned_flag
        if m.decommissioning_year is None:
            m.decommissioning_year = r.decommissioning_year
    return merged


@st.composite
def merge_records(draw, max_size):
    """Records with ids from a few names, so that base and extension overlap,
    and any decommissioning flag, year and blanks."""
    return [turbine(draw(st.sampled_from("ABCDEFGH")), year=draw(st.integers(2000, 2005)),
                    hub=draw(st.none() | st.floats(50.0, 150.0)),
                    flagged=draw(st.booleans()),
                    d_year=draw(st.none() | st.integers(2006, 2020)),
                    imputed=draw(st.sets(st.sampled_from(IMPUTABLE_FIELDS))))
            for _ in range(draw(st.integers(0, max_size)))]


class TestMergeAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(merge_records(8), merge_records(6),
           st.sampled_from(["records", "writable table", "read-only table"]),
           st.booleans())
    def test_equals_dict_merge(self, base, ext, form, collide):
        """Fills, new rows in extension order, and a repeated extension id,
        for every form of ``base``; ``collide`` gives every id of one length
        one hash, so that ids are told apart by comparison alone.  A
        read-only base is left as it was."""
        try:
            want = naive_merge(base, ext)
        except DataError as exc:
            want = str(exc)
        given_base = {"records": base, "writable table": TurbineColumns.of(base),
                      "read-only table": TurbineColumns.of(base)[:]}[form]
        before = list(given_base)
        with mock.patch.object(fleet_mod, "hash", len, create=True) if collide \
                else contextlib.nullcontext():
            try:
                merged = merge_extension(given_base, ext)
                got = list(merged)
            except DataError as exc:
                merged, got = None, str(exc)
        assert got == want
        if form == "writable table" and merged is not None:
            assert merged is given_base  # merged in place
        if form == "read-only table":
            assert list(given_base) == before


class TestPreprocess:
    def test_drops_missing_commissioning_year(self):
        recs = [turbine("T1"), turbine("T2"), turbine("T3", year=None)]
        fleet = preprocess(recs, set())
        assert len(fleet.turbines) == 2
        assert fleet.provenance == {"missing_commissioning_year": 1, "excluded": 0}

    def test_exclusion_list(self):
        fleet = preprocess([turbine("T1"), turbine("T9")], {"T9"})
        assert [r.id for r in fleet.turbines] == ["T1"]
        assert fleet.provenance["excluded"] == 1

    def test_all_unusable(self):
        with pytest.raises(DataError, match="no usable turbines"):
            preprocess([turbine("T1", year=None)], set())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError, match="duplicate turbine id"):
            preprocess([turbine("T1"), turbine("T1")], set())

    def test_parse_exclusion_ids(self):
        assert parse_exclusion_ids("T1\n\n  T2 \n") == {"T1", "T2"}

    RECORDS = [turbine("T1", hub=None), turbine("T2", hub=90.0), turbine("T3", year=None)]

    def test_writable_table_becomes_the_fleets(self):
        """The ingest's table is dropped from and imputed in place, then frozen."""
        table = TurbineColumns.of(self.RECORDS)
        fleet = preprocess(table, set())
        assert fleet.turbines is table
        assert [(r.id, r.hub_height) for r in table] == [("T1", 90.0), ("T2", 90.0)]
        assert not any(column.flags.writeable for column in table._columns())

    def test_read_only_table_is_left_as_it_was(self):
        table = fleet_of(self.RECORDS).turbines
        fleet = preprocess(table, set())
        assert fleet.turbines is not table
        assert list(table) == self.RECORDS
        assert [r.hub_height for r in fleet.turbines] == [90.0, 90.0]

    def test_unobserved_field_raises_before_any_fill(self):
        table = TurbineColumns.of([turbine("T1", hub=None, cap=None),
                                   turbine("T2", hub=90.0, cap=None)])
        with pytest.raises(DataError, match="field never observed: capacity"):
            impute_missing(table)
        assert table[0].hub_height is None


class TestImputeMissing:
    def test_year_mean(self):
        recs = [turbine("A", year=2015, rotor=100.0),
                turbine("B", year=2015, rotor=110.0),
                turbine("C", year=2015, rotor=None)]
        out, report = impute_missing(recs)
        filled = next(r for r in out if r.id == "C")
        assert filled.rotor_diameter == pytest.approx(105.0)
        assert filled.imputed_fields == {"rotor_diameter"}
        assert report.imputed_counts["rotor_diameter"] == 1

    def test_global_fallback(self):
        recs = [turbine("A", year=2013, cap=1000.0),
                turbine("B", year=2013, cap=2000.0),
                turbine("C", year=2014, cap=None),
                turbine("D", year=2014, cap=None)]
        out, report = impute_missing(recs)
        for r in out:
            if r.commissioning_year == 2014:
                assert r.capacity == pytest.approx(1500.0)
        assert report.fallback_years["capacity"] == [2014]

    def test_identity_when_complete(self):
        recs = [turbine("A"), turbine("B", rotor=90.0)]
        out, report = impute_missing(recs)
        assert list(out) == recs
        assert report.imputed_counts == dict.fromkeys(IMPUTABLE_FIELDS, 0)

    def test_field_never_observed(self):
        recs = [turbine("A", hub=None), turbine("B", hub=None)]
        with pytest.raises(DataError, match="field never observed: hub_height"):
            impute_missing(recs)

    @pytest.mark.parametrize("blank_year", [2010, 2011])
    def test_overflowing_mean_is_not_imputed(self, blank_year, tmp_path):
        """Two finite hub heights whose sum overflows: the blank would be filled
        with inf, from its year's mean or, in a fallback year, the global
        mean.  The fleet stage fails instead, naming the field and year."""
        registry = tmp_path / "turbines.csv"
        registry.write_bytes(csv_bytes("A,-97.0,37.0,2010,1e308,100,2000,false,",
                                       "B,-97.0,37.0,2010,1e308,100,2000,false,",
                                       f"C,-97.0,37.0,{blank_year},,100,2000,false,"))
        config = RunConfig(turbines=str(registry), windgrid="", generation="",
                           start_year=2010, end_year=2011, out="")
        with pytest.raises(PipelineError) as failure:
            fleet_stage(config)
        assert (failure.value.stage, failure.value.message, failure.value.exit_code) == (
            "fleet", "non-finite mean hub_height to impute for commissioning year "
                     f"{blank_year}", 3)

    def test_overflowing_sums_without_blanks(self):
        """Sums past the float range are not needed when nothing is blank:
        nothing is imputed and no overflow warning is given (the suite's
        filter makes a ``RuntimeWarning`` an error)."""
        recs = [turbine("A", hub=1e308), turbine("B", hub=1e308)]
        out, report = impute_missing(recs)
        assert list(out) == recs
        assert report.imputed_counts == dict.fromkeys(IMPUTABLE_FIELDS, 0)


def extreme_fill_areas(recs, year):
    """Swept area added in ``year`` with every missing rotor diameter filled
    with the smallest and with the largest diameter observed that year, or
    in any year when that year has none."""
    in_year = [r for r in recs if r.commissioning_year == year]
    observed = ([r.rotor_diameter for r in in_year if r.rotor_diameter is not None]
                or [r.rotor_diameter for r in recs if r.rotor_diameter is not None])
    return tuple(sum(rotor_swept_area(r.rotor_diameter if r.rotor_diameter is not None
                                      else fill) for r in in_year)
                 for fill in (min(observed), max(observed)))


class TestImputationBounds:
    """Mean imputation lands between filling with the extreme diameters."""

    def test_extreme_fill_values(self):
        recs = [turbine("A", year=2015, rotor=100.0),
                turbine("B", year=2015, rotor=110.0),
                turbine("C", year=2015, rotor=None)]
        low, high = extreme_fill_areas(recs, 2015)
        assert low == pytest.approx(2 * math.pi * 2500 + math.pi * 3025, rel=1e-12)
        assert high == pytest.approx(math.pi * 2500 + 2 * math.pi * 3025, rel=1e-12)
        imputed, _ = impute_missing(recs)
        mean_total = sum(rotor_swept_area(r.rotor_diameter) for r in imputed)
        assert low <= mean_total <= high

    def test_no_missing_degenerate(self):
        recs = [turbine("A", rotor=100.0), turbine("B", rotor=110.0)]
        imputed, _ = impute_missing(recs)
        assert [r.rotor_diameter for r in imputed] == [100.0, 110.0]
        low, high = extreme_fill_areas(recs, 2010)
        assert low == high == sum(rotor_swept_area(r.rotor_diameter) for r in imputed)

    def test_all_equal_diameters(self):
        recs = [turbine("A", rotor=80.0), turbine("B", rotor=80.0),
                turbine("C", rotor=None)]
        imputed, _ = impute_missing(recs)
        assert [r.rotor_diameter for r in imputed] == [80.0, 80.0, 80.0]

    def test_sandwich_on_random_fleets(self):
        rng = random.Random(7)
        for _ in range(30):
            recs = []
            for i in range(rng.randint(3, 20)):
                rotor = rng.uniform(40, 140) if rng.random() > 0.3 else None
                recs.append(turbine(f"T{i}", year=2010 + rng.randint(0, 2), rotor=rotor))
            if all(r.rotor_diameter is None for r in recs):
                continue
            imputed, _ = impute_missing(recs)
            for year in {r.commissioning_year for r in recs}:
                low, high = extreme_fill_areas(recs, year)
                mean_total = sum(rotor_swept_area(r.rotor_diameter)
                                 for r in imputed if r.commissioning_year == year)
                assert low <= mean_total + 1e-9 and mean_total <= high + 1e-9


class TestRotorSweptArea:
    def test_d100(self):
        assert rotor_swept_area(100.0) == pytest.approx(7853.981633974483, rel=1e-12)

    def test_d2_is_pi(self):
        assert rotor_swept_area(2.0) == pytest.approx(math.pi, rel=1e-15)

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            rotor_swept_area(0.0)


class TestAnnualSeries:
    def test_counts_weighting(self):
        fleet = fleet_of([turbine("A", year=2010), turbine("B", year=2011)])
        s = annual_counts(fleet, range(2010, 2012))
        assert s.values == [0.5, 1.5]

    def test_counts_empty_fleet(self):
        s = annual_counts(fleet_of([]), range(2010, 2013))
        assert s.values == [0.0, 0.0, 0.0]

    def test_counts_four_same_year(self):
        fleet = fleet_of([turbine(f"T{i}", year=2010) for i in range(4)])
        assert annual_counts(fleet, range(2010, 2013)).values == [2.0, 4.0, 4.0]

    def test_swept_area_single_turbine(self):
        fleet = fleet_of([turbine("A", year=2010, rotor=100.0)])
        s = annual_swept_area(fleet, range(2010, 2012))
        area = math.pi * 2500
        assert s.values[0] == pytest.approx(0.5 * area, rel=1e-12)
        assert s.values[1] == pytest.approx(area, rel=1e-12)
        assert s.unit == "m²"

    def test_swept_area_linearity(self):
        one = fleet_of([turbine("A", year=2010)])
        two = fleet_of([turbine("A", year=2010), turbine("B", year=2010)])
        s1 = annual_swept_area(one, range(2010, 2013))
        s2 = annual_swept_area(two, range(2010, 2013))
        assert s2.values == [2 * v for v in s1.values]

    def test_additive_over_disjoint_fleets(self):
        rng = random.Random(11)
        recs = [turbine(f"T{i}", year=2010 + rng.randint(0, 4),
                        rotor=rng.uniform(40, 140)) for i in range(16)]
        years = range(2010, 2016)
        whole = annual_swept_area(fleet_of(recs), years)
        part_a = annual_swept_area(fleet_of(recs[:7]), years)
        part_b = annual_swept_area(fleet_of(recs[7:]), years)
        for w, a, b in zip(whole.values, part_a.values, part_b.values):
            assert w == pytest.approx(a + b, rel=1e-12)

    def test_contribution_rule(self):
        fleet = fleet_of([turbine("A", year=2012, rotor=100.0)])
        s = annual_swept_area(fleet, range(2010, 2015))
        area = rotor_swept_area(100.0)
        assert s.values == [0.0, 0.0, pytest.approx(0.5 * area), pytest.approx(area),
                            pytest.approx(area)]

    def test_empty_years_rejected(self):
        with pytest.raises(ValueError):
            annual_counts(fleet_of([turbine("A")]), range(2010, 2010))

    @pytest.mark.parametrize("year", [2010, 2011])
    def test_overflowing_swept_area(self, year, tmp_path):
        """A finite rotor diameter whose swept area leaves the float range:
        the area is inf, and nan in a year that weighs it 0, and the fleet
        stage fails on the series with exit 3.  No overflow warning is given
        (the suite's filter makes a ``RuntimeWarning`` an error)."""
        fleet = fleet_of([turbine("A", year=2010), turbine("B", year=year, rotor=1e200)])
        areas = fleet_mod.swept_areas(fleet.turbines)
        assert areas[1] == math.inf
        registry = tmp_path / "turbines.csv"
        registry.write_bytes(csv_bytes("A,-97.0,37.0,2010,80,100,2000,false,",
                                       f"B,-97.0,37.0,{year},80,1e200,2000,false,"))
        config = RunConfig(turbines=str(registry), windgrid="", generation="",
                           start_year=2010, end_year=2011, out="")
        with pytest.raises(PipelineError) as failure:
            fleet_stage(config)
        assert (failure.value.stage, failure.value.message, failure.value.exit_code) == (
            "fleet", "series values must be finite", 3)


class TestAnnualCapacity:
    def test_lifetime_retirement_boundary(self):
        fleet = fleet_of([turbine("A", year=2000, cap=2000.0)])
        s = annual_capacity(fleet, range(2019, 2022), ScenarioSpec(lifetime_years=20))
        assert s.values == [2.0, 0.0, 0.0]
        assert s.unit == "MW"

    def test_default_scenario_monotone(self):
        fleet = fleet_of([turbine("A", year=2010, flagged=True),
                          turbine("B", year=2012)])
        s = annual_capacity(fleet, range(2010, 2016))
        assert all(b >= a for a, b in zip(s.values, s.values[1:]))

    def test_drop_flagged_zeroes_whole_span(self):
        fleet = fleet_of([turbine("A", year=2010, flagged=True, cap=1500.0)])
        s = annual_capacity(fleet, range(2009, 2014),
                            ScenarioSpec(drop_decommissioned_flagged=True))
        assert s.values == [0.0] * 5

    def test_discard_missing_capacity(self):
        fleet = fleet_of([turbine("A", year=2009, cap=1000.0),
                          turbine("B", year=2009, cap=1000.0, imputed=("capacity",))])
        imputing = annual_capacity(fleet, range(2010, 2011))
        discarding = annual_capacity(fleet, range(2010, 2011),
                                     ScenarioSpec(impute_capacity=False))
        assert discarding.values[0] == pytest.approx(imputing.values[0] / 2)

    def test_bad_lifetime(self):
        with pytest.raises(ValueError):
            ScenarioSpec(lifetime_years=0)

    def test_lifetime_monotonicity_random(self):
        rng = random.Random(3)
        for _ in range(20):
            recs = [turbine(f"T{i}", year=1995 + rng.randint(0, 20),
                            cap=rng.uniform(500, 3000)) for i in range(12)]
            fleet = fleet_of(recs)
            years = range(2010, 2021)
            l_short, l_long = sorted(rng.sample(range(5, 35), 2))
            short = annual_capacity(fleet, years, ScenarioSpec(lifetime_years=l_short))
            long = annual_capacity(fleet, years, ScenarioSpec(lifetime_years=l_long))
            for s, l in zip(short.values, long.values):
                assert s <= l + 1e-12


class TestSpecificPower:
    """The report's specific power: capacity (W) per swept area of its fleet."""

    def test_worked_example(self, tmp_path):
        # one 2 MW turbine with a 100 m rotor, 7,853.98 m²
        bundle = tmp_path / "bundle"
        assert main(["synth", "--out", str(bundle), "--n-turbines", "1",
                     "--years", "2010:2011", "--rotor", "100,0", "--seed", "3"]) == 0
        registry = bundle / "turbines.csv"
        header, row = registry.read_text(encoding="utf-8").splitlines()
        fields = row.split(",")
        fields[header.split(",").index("t_cap")] = "2000"
        registry.write_text(f"{header}\n{','.join(fields)}\n", encoding="utf-8")
        series = report_json(bundle, tmp_path / "out")["series"]
        specific = series["specific_power_w_m2"]["values"]
        assert specific == [capacity * 1e6 / area for capacity, area in
                            zip(series["capacity_mw"]["values"], series["area_m2"]["values"])]
        assert specific == [pytest.approx(254.648, abs=5e-4)] * 2

    def test_zero_area(self, tmp_path):
        """A study year with no operating turbine, so no swept area, fails the
        fleet stage, naming the first such year."""
        registry = tmp_path / "turbines.csv"
        registry.write_bytes(csv_bytes("A,-97.0,37.0,2011,80,100,2000,false,",
                                       "B,-97.0,37.0,2012,80,100,2000,false,"))
        config = RunConfig(turbines=str(registry), windgrid="", generation="",
                           start_year=2009, end_year=2012, out="")
        with pytest.raises(PipelineError) as failure:
            fleet_stage(config)
        assert (failure.value.stage, failure.value.message, failure.value.exit_code) == (
            "fleet", "no operating turbines in 2009", 3)


# ---------------------------------------------------------------------------
# vectorised aggregates against naive loops over the scalar rule
# ---------------------------------------------------------------------------

def bits(values):
    """Exact bit patterns, so 0.1 + 0.2 and 0.3 do not compare equal."""
    return [float(v).hex() for v in values]


def left_to_right(values):
    """``sum`` without Python 3.12's compensated float summation."""
    total = 0.0
    for v in values:
        total += v
    return total


def naive_counts(turbines, years):
    return [left_to_right(operating_weight(r, y) for r in turbines) for y in years]


def naive_area(turbines, years):
    return [left_to_right(operating_weight(r, y) * rotor_swept_area(r.rotor_diameter)
                          for r in turbines) for y in years]


def naive_capacity(turbines, years, scenario):
    scenario = scenario or ScenarioSpec()
    out = []
    for y in years:
        total_kw = 0.0
        for r in turbines:
            if r.capacity is None or (not scenario.impute_capacity
                                      and "capacity" in r.imputed_fields):
                continue
            total_kw += operating_weight(r, y, scenario) * r.capacity
        out.append(total_kw / 1000.0)
    return out


def naive_impute(records):
    """Per field and year, the mean of that year's observed values (the
    global mean where a year has none), by rescanning the records."""
    years = sorted({r.commissioning_year for r in records})
    means, fallback = {}, {}
    for fname in IMPUTABLE_FIELDS:
        observed_all = [getattr(r, fname) for r in records if getattr(r, fname) is not None]
        if not observed_all:
            raise DataError(f"field never observed: {fname}")
        means[fname], fallback[fname] = {}, []
        for year in years:
            in_year = [r for r in records if r.commissioning_year == year]
            observed = [getattr(r, fname) for r in in_year if getattr(r, fname) is not None]
            if observed:
                means[fname][year] = left_to_right(observed) / len(observed)
            else:
                means[fname][year] = left_to_right(observed_all) / len(observed_all)
                fallback[fname].append(year)
    filled = [{f: means[f][r.commissioning_year] if getattr(r, f) is None else getattr(r, f)
               for f in IMPUTABLE_FIELDS} for r in records]
    return filled, fallback


def naive_missingness(records):
    years = range(min(r.commissioning_year for r in records),
                  max(r.commissioning_year for r in records) + 1)
    out = {}
    for fname in IMPUTABLE_FIELDS:
        shares = []
        for y in years:
            cohort = [r for r in records if r.commissioning_year <= y]
            missing = sum(1 for r in cohort
                          if getattr(r, fname) is None or fname in r.imputed_fields)
            shares.append(missing / len(cohort))
        out[fname] = (years.start, shares)
    return out


def maybe(values):
    return st.one_of(st.none(), values)


def fleets(min_size=0, no_year=True):
    """Turbines commissioned 2003-2009 (or never, when ``no_year``) with
    random diameters, capacities, flags and imputation marks."""
    years = st.integers(2003, 2009)
    record = st.builds(
        turbine, year=maybe(years) if no_year else years,
        hub=maybe(st.floats(30.0, 160.0)), rotor=st.floats(20.0, 170.0),
        cap=maybe(st.floats(100.0, 6000.0)), flagged=st.booleans(),
        imputed=st.sets(st.sampled_from(IMPUTABLE_FIELDS)))
    return st.lists(record, min_size=min_size, max_size=24)


scenarios = st.one_of(st.none(), st.builds(
    ScenarioSpec, drop_decommissioned_flagged=st.booleans(),
    lifetime_years=maybe(st.integers(1, 8)), impute_capacity=st.booleans()))


class TestVectorisedAggregates:
    # 2000-2002 lie before any commissioning year
    YEARS = range(2000, 2013)

    @given(fleets(), scenarios)
    def test_weights_follow_scalar_rule(self, recs, scenario):
        for y in self.YEARS:
            assert bits(operating_weights(recs, y, scenario)) == bits(
                [operating_weight(r, y, scenario) for r in recs])

    @given(fleets(), scenarios)
    def test_series_equal_naive_loops_bitwise(self, recs, scenario):
        fleet = fleet_of(recs)
        assert bits(annual_counts(fleet, self.YEARS).values) == bits(
            naive_counts(recs, self.YEARS))
        assert bits(annual_swept_area(fleet, self.YEARS).values) == bits(
            naive_area(recs, self.YEARS))
        assert bits(annual_capacity(fleet, self.YEARS, scenario).values) == bits(
            naive_capacity(recs, self.YEARS, scenario))

    def test_empty_fleet(self):
        fleet = fleet_of([])
        for series in (annual_counts(fleet, self.YEARS), annual_swept_area(fleet, self.YEARS),
                       annual_capacity(fleet, self.YEARS)):
            assert bits(series.values) == bits([0.0] * len(self.YEARS))
        assert len(operating_weights([], 2010)) == 0

    @given(fleets(min_size=1, no_year=False))
    def test_impute_equals_naive_rescan(self, recs):
        try:
            filled, fallback = naive_impute(recs)
        except DataError as exc:
            with pytest.raises(DataError, match=str(exc)):
                impute_missing(recs)
            return
        out, report = impute_missing(recs)
        for rec, want in zip(out, filled):
            assert bits(getattr(rec, f) for f in IMPUTABLE_FIELDS) == bits(want.values())
        assert report.fallback_years == fallback

    def test_impute_fallback_years_equal_naive(self):
        recs = [turbine("A", year=2004, cap=1000.1), turbine("B", year=2004, cap=2000.3),
                turbine("C", year=2006, cap=None, rotor=None),
                turbine("D", year=2007, cap=None), turbine("E", year=2007, cap=None, rotor=95.5)]
        out, report = impute_missing(recs)
        filled, fallback = naive_impute(recs)
        assert report.fallback_years == fallback == {
            "hub_height": [], "rotor_diameter": [2006], "capacity": [2006, 2007]}
        assert [bits(r.capacity for r in out)] == [bits(f["capacity"] for f in filled)]

    @given(fleets(min_size=1, no_year=False))
    def test_missingness_equals_naive_rescan(self, recs):
        want = naive_missingness(recs)
        got = missingness_report(recs)
        assert list(got) == list(want)
        for fname, series in got.items():
            assert (series.start_year, bits(series.values)) == (
                want[fname][0], bits(want[fname][1]))

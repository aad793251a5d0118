import random

import pytest

from conftest import fleet_of, turbine
from windfleet.errors import DataError
from windfleet.fleet import ScenarioSpec, impute_missing
from windfleet.series import AnnualSeries
from windfleet.validate import (missingness_report, parse_reference_csv,
                                relative_difference, scenario_capacity)


def ref_csv(rows):
    return ("year,installed_capacity_mw,generation_gwh\n"
            + "\n".join(rows) + "\n").encode()


class TestParseReferenceCsv:
    def test_partial_columns(self):
        ref = parse_reference_csv(ref_csv(["2010,40000,95000", "2011,46000,"]))
        assert ref.capacity_mw.values == [40000.0, 46000.0]
        assert ref.generation_gwh.values == [95000.0]
        assert ref.generation_gwh.unit == "GWh"

    def test_empty(self):
        with pytest.raises(DataError, match="no reference data"):
            parse_reference_csv(ref_csv([])[:-1])

    def test_duplicate_year(self):
        with pytest.raises(DataError, match="duplicate year 2010"):
            parse_reference_csv(ref_csv(["2010,1,1", "2010,2,2"]))

    def test_non_contiguous(self):
        with pytest.raises(DataError, match="non-contiguous"):
            parse_reference_csv(ref_csv(["2010,1,", "2012,2,"]))

    @pytest.mark.parametrize("row, label", [("2011,-5,", "capacity"),
                                            ("2011,5,-0.5", "generation")])
    def test_negative_value_names_row(self, row, label):
        with pytest.raises(DataError, match=f"^negative {label}, row 2$"):
            parse_reference_csv(ref_csv(["2010,1,1", row]))

    def test_zero_value_parses(self):
        assert parse_reference_csv(ref_csv(["2010,0,0"])).capacity_mw.values == [0.0]

    def test_column_fully_empty(self):
        ref = parse_reference_csv(ref_csv(["2010,40000,", "2011,46000,"]))
        assert ref.generation_gwh is None


class TestRelativeDifference:
    def test_positive_five_percent(self):
        b = AnnualSeries(2010, [40000.0, 46000.0, 52000.0], "MW")
        a = AnnualSeries(2010, [1.05 * v for v in b.values], "MW")
        diff = relative_difference(a, b)
        assert diff.unit == "%"
        for v in diff.values:
            assert v == pytest.approx(5.0, rel=1e-12)

    def test_identical_series(self):
        a = AnnualSeries(2010, [1.0, 2.0], "MW")
        assert relative_difference(a, a).values == [0.0, 0.0]

    def test_zero_reference_names_year(self):
        a = AnnualSeries(2010, [1.0, 2.0], "MW")
        b = AnnualSeries(2010, [1.0, 0.0], "MW")
        with pytest.raises(DataError, match="2011"):
            relative_difference(a, b)

    def test_misaligned(self):
        with pytest.raises(DataError, match="misaligned"):
            relative_difference(AnnualSeries(2010, [1.0], "MW"),
                                AnnualSeries(2011, [1.0], "MW"))


class TestScenarioCapacity:
    def test_lifetime_not_binding(self):
        fleet = fleet_of([turbine("A", year=2010), turbine("B", year=2012)])
        years = range(2010, 2015)
        default = scenario_capacity(fleet, years, ScenarioSpec())
        capped = scenario_capacity(fleet, years, ScenarioSpec(lifetime_years=25))
        assert default.values == capped.values

    def test_drop_flagged_removes_capacity(self):
        fleet = fleet_of([turbine("A", year=2010, cap=1000.0),
                          turbine("B", year=2010, cap=500.0, flagged=True)])
        years = range(2010, 2013)
        keep = scenario_capacity(fleet, years, ScenarioSpec())
        drop = scenario_capacity(fleet, years, ScenarioSpec(drop_decommissioned_flagged=True))
        expected_gap = [0.25, 0.5, 0.5]  # MW, with the 0.5 first-year weight
        for k, d, g in zip(keep.values, drop.values, expected_gap):
            assert k - d == pytest.approx(g)

    def test_discard_missing_capacity_halves(self):
        fleet = fleet_of([turbine("A", year=2009, cap=1000.0),
                          turbine("B", year=2009, cap=1000.0, imputed=("capacity",))])
        years = range(2010, 2011)
        full = scenario_capacity(fleet, years, ScenarioSpec())
        half = scenario_capacity(fleet, years, ScenarioSpec(impute_capacity=False))
        assert half.values[0] == pytest.approx(full.values[0] / 2)

    def test_monotone_in_restrictions_random(self):
        rng = random.Random(43)
        for _ in range(25):
            recs = []
            for i in range(rng.randint(1, 15)):
                recs.append(turbine(f"T{i}", year=1990 + rng.randint(0, 25),
                                    cap=rng.uniform(100, 3000),
                                    flagged=rng.random() < 0.3))
            fleet = fleet_of(recs)
            years = range(2010, 2020)
            base = scenario_capacity(fleet, years, ScenarioSpec())
            for spec in (ScenarioSpec(drop_decommissioned_flagged=True),
                         ScenarioSpec(lifetime_years=rng.randint(5, 30)),
                         ScenarioSpec(impute_capacity=False)):
                restricted = scenario_capacity(fleet, years, spec)
                for b, r in zip(base.values, restricted.values):
                    assert r <= b + 1e-12


class TestMissingnessReport:
    def test_single_year_share(self):
        recs = [turbine("A", year=2010, cap=None), turbine("B", year=2010)]
        report = missingness_report(recs)
        assert report["capacity"].value(2010) == pytest.approx(0.5)

    def test_cumulative_dilution(self):
        recs = [turbine("A", year=2010, cap=None), turbine("B", year=2010),
                turbine("C", year=2011), turbine("D", year=2011)]
        report = missingness_report(recs)
        assert report["capacity"].value(2010) == pytest.approx(0.5)
        assert report["capacity"].value(2011) == pytest.approx(0.25)

    def test_nothing_missing(self):
        report = missingness_report([turbine("A"), turbine("B", year=2012)])
        for series in report.values():
            assert all(v == 0.0 for v in series.values)

    def test_unaffected_by_imputation(self):
        recs = [turbine("A", year=2010, hub=None), turbine("B", year=2010),
                turbine("C", year=2011, rotor=None)]
        before = missingness_report(recs)
        imputed, _ = impute_missing(recs)
        after = missingness_report(imputed)
        for fname in before:
            assert before[fname].values == after[fname].values

    def test_shares_in_unit_interval(self):
        rng = random.Random(47)
        recs = [turbine(f"T{i}", year=2005 + rng.randint(0, 10),
                        hub=None if rng.random() < 0.4 else 80.0,
                        cap=None if rng.random() < 0.4 else 1500.0)
                for i in range(40)]
        for series in missingness_report(recs).values():
            assert all(0.0 <= v <= 1.0 for v in series.values)

    def test_missing_commissioning_year_rejected(self):
        with pytest.raises(DataError):
            missingness_report([turbine("A", year=None)])

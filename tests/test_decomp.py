import random

import pytest

from windfleet.decomp import (additive_pin_decomposition, index_relative,
                              indexed_factors, multiplicative_decomposition)
from windfleet.errors import DataError
from windfleet.series import AnnualSeries


def series(values, unit="W", start=2010):
    return AnnualSeries(start, list(values), unit)


class TestMultiplicativeDecomposition:
    def test_worked_example(self):
        f, _ = multiplicative_decomposition(
            series([2], "count"), series([200], "m²"), series([1000]), series([100]))
        assert f.n.values == [2.0]
        assert f.area_per_turbine.values == [100.0]
        assert f.input_density.values == [5.0]
        assert f.efficiency.values == [0.1]
        product = 2.0 * 100.0 * 5.0 * 0.1
        assert product == pytest.approx(100.0, rel=1e-12)

    def test_all_ones(self):
        f, _ = multiplicative_decomposition(
            series([1, 1], "count"), series([1, 1], "m²"), series([1, 1]), series([1, 1]))
        for s in (f.n, f.area_per_turbine, f.input_density, f.efficiency):
            assert s.values == [1.0, 1.0]

    def test_identity_on_random_instances(self):
        rng = random.Random(13)
        for _ in range(100):
            length = rng.randint(1, 12)
            n = series([rng.uniform(1, 1e4) for _ in range(length)], "count")
            area = series([rng.uniform(1, 1e7) for _ in range(length)], "m²")
            p_in = series([rng.uniform(1, 1e9) for _ in range(length)])
            p_out = series([rng.uniform(1, 1e8) for _ in range(length)])
            f, error = multiplicative_decomposition(n, area, p_in, p_out)
            for i, expected in enumerate(p_out.values):
                product = (f.n.values[i] * f.area_per_turbine.values[i]
                           * f.input_density.values[i] * f.efficiency.values[i])
                assert abs(product - expected) <= 1e-12 * expected
            assert error <= 1e-12

    def test_misaligned_years(self):
        with pytest.raises(DataError, match="misaligned"):
            multiplicative_decomposition(series([1], "count", start=2011),
                                         series([1], "m²"), series([1]), series([1]))

    def test_zero_denominator_names_year(self):
        with pytest.raises(ValueError, match="2011"):
            multiplicative_decomposition(series([1, 0], "count"), series([1, 1], "m²"),
                                         series([1, 1]), series([1, 1]))

    @pytest.mark.parametrize("n, area, p_in, p_out, message", [
        (1e300, 1e300, 1e-300, 1e-300, "input density 0.0 "),  # underflow to 0
        (1.0, 1e-310, 1.0, 1.0, "area per turbine 1e-310 "),  # subnormal
        (1e-300, 1e300, 1.0, 1.0, "area per turbine inf "),  # overflow
        (1.0, 1.0, 1e-300, 1e300, "efficiency inf "),
    ])
    def test_factor_outside_float_range_is_data_error(self, n, area, p_in, p_out, message):
        """An extreme factor names its year and is a DataError; the identity
        check's InvariantError stays for in-range factors."""
        with pytest.raises(DataError, match=f"^{message}.*, year 2011$"):
            multiplicative_decomposition(series([1, n], "count"), series([1, area], "m²"),
                                         series([1, p_in]), series([1, p_out]))

    def test_zero_output_is_a_zero_efficiency(self):
        f, error = multiplicative_decomposition(series([2], "count"), series([200], "m²"),
                                                series([1000]), series([0.0]))
        assert f.efficiency.values == [0.0]
        assert error == 0.0


class TestIndexRelative:
    def test_basic(self):
        s = index_relative(series([10, 15, 20]), 2010)
        assert s.values == [100.0, 150.0, 200.0]
        assert s.unit == "%"

    def test_constant(self):
        assert index_relative(series([7, 7, 7]), 2010).values == [100.0] * 3

    def test_base_exact(self):
        s = index_relative(series([3.7, 11.1]), 2010)
        assert s.values[0] == 100.0

    def test_zero_base(self):
        with pytest.raises(DataError, match="zero"):
            index_relative(series([0, 1]), 2010)

    def test_base_year_missing(self):
        with pytest.raises(DataError):
            index_relative(series([1, 2]), 2009)

    def test_indexed_factors_is_a_new_series(self):
        f, _ = multiplicative_decomposition(series([2, 4], "count"), series([200, 600], "m²"),
                                            series([1000, 1500]), series([100, 120]))
        indexed = indexed_factors(f, 2011)
        assert indexed.n.values == [50.0, 100.0]
        assert indexed.area_per_turbine.values == [pytest.approx(200.0 / 3), 100.0]
        assert indexed.efficiency.unit == "%"
        assert f.n.values == [2.0, 4.0] and f.n.unit == "count"


class TestAdditiveDecomposition:
    def test_degenerate_scenario_all_zero(self):
        # fixed fleet at the reference height under constant climate: the
        # three mode variants coincide and every effect vanishes
        p = series([500.0, 500.0, 500.0])
        area = series([10.0, 10.0, 10.0], "m²")
        add, _ = additive_pin_decomposition(p, p, p, area, 2010)
        assert add.baseline == pytest.approx(50.0)
        for effect in (add.new_locations, add.hub_height, add.annual_variation):
            assert effect.values == [0.0, 0.0, 0.0]

    def test_hub_height_effect_sign(self):
        # constant climate, fixed locations, hubs raised each year: only the
        # hub-height effect is nonzero and it grows like (h/76)^(3*alpha)
        alpha = 0.2
        area_value = 10.0
        ref_density = 400.0
        p_ref = series([ref_density * area_value] * 3)
        heights = [76.0, 90.0, 110.0]
        p_avg_values = [ref_density * area_value * (h / 76.0) ** (3 * alpha)
                        for h in heights]
        p_avg = series(p_avg_values)
        p_in = series(p_avg_values)  # actual equals average climate
        area = series([area_value] * 3, "m²")
        add, _ = additive_pin_decomposition(p_in, p_avg, p_ref, area, 2010)
        assert add.new_locations.values == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
        assert add.annual_variation.values == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
        assert add.hub_height.values[0] == pytest.approx(0.0, abs=1e-12)
        assert add.hub_height.values[1] > 0
        assert add.hub_height.values[2] > add.hub_height.values[1]

    def test_telescoping_identity_random(self):
        rng = random.Random(17)
        for _ in range(100):
            length = rng.randint(1, 12)
            base_year = 2010 + rng.randrange(length)
            area = series([rng.uniform(0.5, 2e6) for _ in range(length)], "m²")
            p_in = series([rng.uniform(0.5, 2e9) for _ in range(length)])
            p_avg = series([rng.uniform(0.5, 2e9) for _ in range(length)])
            p_ref = series([rng.uniform(0.5, 2e9) for _ in range(length)])
            add, error = additive_pin_decomposition(p_in, p_avg, p_ref, area, base_year)
            for i in range(length):
                total = (add.baseline + add.new_locations.values[i]
                         + add.hub_height.values[i] + add.annual_variation.values[i])
                density = p_in.values[i] / area.values[i]
                scale = max(abs(density), abs(add.baseline))
                assert abs(total - density) <= 1e-12 * scale
            assert add.new_locations.value(base_year) == 0.0
            assert error <= 1e-12

    def test_misaligned(self):
        with pytest.raises(DataError, match="misaligned"):
            additive_pin_decomposition(series([1]), series([1]), series([1]),
                                       series([1, 2], "m²"), 2010)

    def test_bad_area(self):
        with pytest.raises(ValueError, match="area"):
            additive_pin_decomposition(series([1]), series([1]), series([1]),
                                       series([0], "m²"), 2010)

    def test_base_year_outside(self):
        with pytest.raises(DataError, match="base year"):
            additive_pin_decomposition(series([1]), series([1]), series([1]),
                                       series([1], "m²"), 2015)

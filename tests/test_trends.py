import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from windfleet import trends
from windfleet.errors import DataError
from windfleet.series import AnnualSeries
from windfleet.trends import counterfactual_efficiency, ols_fit, pearson


def series(values, start=2010, unit="dimensionless"):
    return AnnualSeries(start, list(values), unit)


def trend_slope(s: AnnualSeries) -> float:
    return ols_fit(list(s.years), s.values).slope


class TestOlsFit:
    def test_exact_line(self):
        fit = ols_fit([2010, 2011, 2012], [1.0, 2.0, 3.0])
        assert fit.slope == pytest.approx(1.0, rel=1e-12)
        assert fit.intercept == pytest.approx(-2009.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant_target(self):
        fit = ols_fit([1, 2, 3], [4.0, 4.0, 4.0])
        assert fit.slope == 0.0
        assert fit.intercept == 4.0
        assert fit.r_squared == 0.0

    def test_single_point(self):
        with pytest.raises(ValueError):
            ols_fit([2010], [1.0])

    def test_degenerate_x(self):
        with pytest.raises(ValueError, match="identical"):
            ols_fit([5, 5, 5], [1.0, 2.0, 3.0])

    def test_passes_through_means(self):
        rng = random.Random(23)
        xs = [rng.uniform(0, 10) for _ in range(9)]
        ys = [rng.uniform(-5, 5) for _ in range(9)]
        fit = ols_fit(xs, ys)
        assert fit.predict(sum(xs) / 9) == pytest.approx(sum(ys) / 9, rel=1e-10)

    def test_residual_invariants(self):
        rng = random.Random(29)
        for _ in range(50):
            n = rng.randint(2, 20)
            xs = [rng.uniform(-100, 100) for _ in range(n)]
            if len(set(xs)) < 2:
                continue
            ys = [rng.uniform(-1e3, 1e3) for _ in range(n)]
            fit = ols_fit(xs, ys)
            y_scale = max(max(abs(y) for y in ys), 1.0)
            assert abs(sum(fit.residuals)) <= 1e-10 * y_scale * n
            dot = sum(r * x for r, x in zip(fit.residuals, xs))
            assert abs(dot) <= 1e-10 * y_scale * max(abs(x) for x in xs) * n
            assert 0.0 <= fit.r_squared <= 1.0


class TestTrendSlope:
    """The per-year slope of an annual series' least-squares time trend."""

    def test_declining(self):
        s = series([1.0 - 0.1 * k for k in range(5)])
        assert trend_slope(s) == pytest.approx(-0.1, rel=1e-12)

    def test_constant(self):
        assert trend_slope(series([2.0, 2.0, 2.0])) == 0.0

    def test_noiseless_linear(self):
        s = series([2.0 * k for k in range(10)])
        assert trend_slope(s) == pytest.approx(2.0, rel=1e-12)

    def test_sign_matches_indexed_series(self):
        from windfleet.decomp import index_relative
        rng = random.Random(31)
        for _ in range(30):
            values = [rng.uniform(1, 10) for _ in range(8)]
            s = series(values)
            raw = trend_slope(s)
            indexed = trend_slope(index_relative(s, 2010))
            if abs(raw) > 1e-9:
                assert (raw > 0) == (indexed > 0)


class TestCounterfactualEfficiency:
    def test_constant_density_fallback(self):
        e = series([0.3, 0.35, 0.28])
        d = series([400.0, 400.0, 400.0], unit="W/m²")
        cf, fallback = counterfactual_efficiency(e, d)
        assert cf.values == e.values
        assert fallback is True
        assert counterfactual_efficiency(e, series([400.0, 410.0, 400.0])).fallback is False

    def test_perfectly_explained_variation(self):
        d = series([300.0, 400.0, 500.0, 350.0], unit="W/m²")
        e = series([0.5 - 0.0004 * dv for dv in d.values])
        cf = counterfactual_efficiency(e, d).series
        mean_e = sum(e.values) / len(e)
        assert cf.values == pytest.approx([mean_e] * 4, rel=1e-12)

    def test_against_independent_least_squares(self):
        # slope oracle: numpy polyfit (SVD-based lstsq) on the same instance
        d_values = [380.0, 420.0, 350.0, 465.0, 401.0, 377.0, 444.0, 390.0, 412.0, 431.0]
        e_values = [0.4 - 0.001 * dv + 0.002 * k for k, dv in enumerate(d_values)]
        e = series(e_values)
        d = series(d_values, unit="W/m²")
        alpha1 = np.polyfit(d_values, e_values, 1)[0]
        dbar = sum(d_values) / len(d_values)
        expected = [ev - alpha1 * (dv - dbar) for ev, dv in zip(e_values, d_values)]
        cf = counterfactual_efficiency(e, d).series
        assert cf.values == pytest.approx(expected, rel=1e-10)

    def test_mean_preservation_random(self):
        rng = random.Random(37)
        for _ in range(50):
            n = rng.randint(3, 15)
            e = series([rng.uniform(0.1, 0.5) for _ in range(n)])
            d = series([rng.uniform(200, 600) for _ in range(n)], unit="W/m²")
            cf = counterfactual_efficiency(e, d).series
            assert sum(cf.values) / n == pytest.approx(sum(e.values) / n, rel=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError):
            counterfactual_efficiency(series([0.3, 0.3]), series([1.0, 2.0]))

    def test_misaligned(self):
        with pytest.raises(DataError):
            counterfactual_efficiency(series([0.3, 0.3, 0.3]),
                                      series([1.0, 2.0, 3.0], start=2011))


class TestPearson:
    def test_perfect_negative(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)

    def test_perfect_positive(self):
        xs = [1.0, 5.0, 2.0, 8.0]
        assert pearson(xs, xs) == pytest.approx(1.0)

    def test_constant_series(self):
        with pytest.raises(ValueError, match="zero-variance"):
            pearson([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0])

    @pytest.mark.parametrize("scale", [1e100, 1e-160])
    def test_sums_whose_product_leaves_the_float_range(self, scale):
        # sxx·syy overflows to inf at 1e100 and underflows to 0 at 1e-160,
        # while sxx and syy stay finite and nonzero
        xs = [0.0, scale, 2 * scale]
        assert pearson(xs, xs) == 1.0
        assert pearson(xs, [-x for x in xs]) == -1.0

    def test_squares_that_underflow_are_zero_variance(self):
        with pytest.raises(ValueError, match="zero-variance"):
            pearson([0.0, 1e-170, 2e-170], [0.0, 1.0, 2.0])

    def test_affine_invariance_and_sign_flip(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.randint(3, 20)
            xs = [rng.uniform(-10, 10) for _ in range(n)]
            ys = [rng.uniform(-10, 10) for _ in range(n)]
            try:
                r = pearson(xs, ys)
            except ValueError:
                continue
            a, b = rng.uniform(0.1, 5), rng.uniform(-3, 3)
            assert pearson([a * x + b for x in xs], ys) == pytest.approx(r, rel=1e-9)
            assert pearson([-x for x in xs], ys) == pytest.approx(-r, rel=1e-9)
            assert -1.0 <= r <= 1.0


#: The float.hex of a trend fit, a Pearson r and a counterfactual series of one
#: ten-year efficiency and density sample, computed by ``trends`` loaded
#: without the package (which needs numpy; ``trends`` does not).  Builtin
#: ``sum`` gives other last bits for this sample under 3.10/3.11 than under
#: 3.12, which compensates; ``math.fsum`` gives the same on every version.
BITS_SCRIPT = """
import json, sys, types
package = types.ModuleType("windfleet")
package.__path__ = [sys.argv[1]]
sys.modules["windfleet"] = package
from windfleet import trends
from windfleet.series import AnnualSeries
e = [0.332882, 0.331494, 0.314663, 0.303355, 0.297078, 0.305313, 0.291779,
     0.284632, 0.297993, 0.294334]
d = [428.197, 406.29, 420.075, 419.029, 397.413, 428.07, 424.811, 455.837,
     423.045, 417.829]
fit = trends.ols_fit(range(2010, 2020), e)
counterfactual = trends.counterfactual_efficiency(AnnualSeries(2010, e, "dimensionless"),
                                                  AnnualSeries(2010, d, "W/m²"))
print(json.dumps({"slope": fit.slope.hex(), "intercept": fit.intercept.hex(),
                  "r_squared": fit.r_squared.hex(), "pearson": trends.pearson(e, d).hex(),
                  "counterfactual": [v.hex() for v in counterfactual.series.values]}))
"""

EXPECTED_BITS = {
    "slope": "-0x1.2d1a5c136de2dp-8",
    "intercept": "0x1.31f2efe1a4cb6p+3",
    "r_squared": "0x1.75256dad32c43p-1",
    "pearson": "-0x1.55f015628dfc8p-2",
    "counterfactual": ["0x1.571ab0b901e42p-2", "0x1.4db64ba8aaff1p-2",
                       "0x1.417e292ef6455p-2", "0x1.35886803b94c6p-2",
                       "0x1.273d7eaeec030p-2", "0x1.3ad3d01a9a805p-2",
                       "0x1.2bc8650efd4aap-2", "0x1.2fc0c8d4e026bp-2",
                       "0x1.3180dcd288b83p-2", "0x1.2bdbd4a60cb05p-2"],
}


class TestVersionIndependentBits:
    def bits(self, python: str, env=None) -> dict:
        package = Path(trends.__file__).parent
        done = subprocess.run([python, "-c", BITS_SCRIPT, str(package)], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        return json.loads(done.stdout)

    def test_this_python(self):
        assert self.bits(sys.executable) == EXPECTED_BITS

    @pytest.mark.parametrize("version", ["3.10", "3.11", "3.12"])
    def test_other_python(self, version):
        """The same bits under another interpreter on the path, when one
        runs; it needs no numpy.  A pyenv shim runs its installed
        ``<version>.x``."""
        python = shutil.which(f"python{version}")
        env = {**os.environ, "PYENV_VERSION": version}
        if python is None or subprocess.run([python, "-c", ""], env=env,
                                            capture_output=True).returncode:
            pytest.skip(f"no runnable python{version}")
        assert self.bits(python, env) == EXPECTED_BITS

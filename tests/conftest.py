import json
import os
from pathlib import Path

import numpy as np
import pytest

from windfleet.cli import main
from windfleet.fleet import Fleet, ImputationReport, TurbineRecord
from windfleet.windgrid import WindGrid


def turbine(tid="T1", lon=-97.0, lat=37.0, year=2010, hub=80.0, rotor=100.0,
            cap=2000.0, flagged=False, d_year=None, imputed=()):
    return TurbineRecord(
        id=tid, lon=lon, lat=lat, commissioning_year=year, hub_height=hub,
        rotor_diameter=rotor, capacity=cap, decommissioned_flag=flagged,
        decommissioning_year=d_year, imputed_fields=set(imputed))


def fleet_of(records):
    """Wrap complete records in a Fleet without running preprocessing."""
    return Fleet(turbines=list(records), provenance={},
                 imputation=ImputationReport({}, {}, {}))


def const_grid(v10=8.0, v100=8.0, t0=1262304000, n_time=24,
               lons=(-100.0, -95.0), lats=(35.0, 40.0), step=3600):
    """Spatially and temporally constant wind field written to u components.

    Default t0 is 2010-01-01T00:00Z.
    """
    shape = (n_time, len(lats), len(lons))
    return WindGrid(
        lons=np.asarray(lons, dtype=np.float64),
        lats=np.asarray(lats, dtype=np.float64),
        t0=t0, step=step,
        u10=np.full(shape, v10, dtype=np.float32),
        v10=np.zeros(shape, dtype=np.float32),
        u100=np.full(shape, v100, dtype=np.float32),
        v100=np.zeros(shape, dtype=np.float32))


def _cgroup_cpu_limit():
    """Whole CPUs allowed by the cgroup CPU quota, or None when unlimited.

    Reads cgroup v2 ``cpu.max`` or cgroup v1 ``cpu.cfs_quota_us`` /
    ``cpu.cfs_period_us`` at the cgroup mount root.
    """
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
    except (OSError, ValueError):
        v1 = Path("/sys/fs/cgroup/cpu")
        try:
            quota = (v1 / "cpu.cfs_quota_us").read_text().strip()
            period = (v1 / "cpu.cfs_period_us").read_text().strip()
        except OSError:
            return None
    if quota in ("max", "-1"):
        return None
    return max(1, int(quota) // int(period))


def physical_cores():
    """Physical cores this process may run on.

    Counts distinct (package, core) pairs over the CPUs in the affinity mask,
    so SMT siblings count once; falls back to the affinity count where sysfs
    has no topology. The count is capped by the cgroup CPU quota.
    """
    cpus = os.sched_getaffinity(0)
    try:
        cores = len({tuple((Path(f"/sys/devices/system/cpu/cpu{cpu}/topology") / name)
                           .read_text().strip()
                           for name in ("physical_package_id", "core_id"))
                     for cpu in cpus})
    except OSError:
        cores = len(cpus)
    limit = _cgroup_cpu_limit()
    return cores if limit is None else min(cores, limit)


def grid_from_field(u10, v10, u100, v100, lons, lats, t0=1262304000, step=3600):
    return WindGrid(
        lons=np.asarray(lons, dtype=np.float64),
        lats=np.asarray(lats, dtype=np.float64),
        t0=t0, step=step,
        u10=np.asarray(u10, dtype=np.float32),
        v10=np.asarray(v10, dtype=np.float32),
        u100=np.asarray(u100, dtype=np.float32),
        v100=np.asarray(v100, dtype=np.float32))


@pytest.fixture
def hours_2010():
    """Unix timestamp of 2010-01-01T00:00Z (grid epoch used in most tests)."""
    return 1262304000


def report_json(bundle, out, *flags):
    """Run ``report`` on a synth bundle's run.conf; the parsed report.json."""
    assert main(["report", "--config", str(bundle / "run.conf"), "--out", str(out),
                 *flags]) == 0
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def synth_report(tmp_path_factory):
    """report.json of a small synth bundle: 12 turbines over 2010-2012 with
    hub-height, rotor and efficiency trends."""
    path = tmp_path_factory.mktemp("synth_report")
    assert main(["synth", "--out", str(path / "bundle"), "--n-turbines", "12",
                 "--years", "2010:2012", "--wind", "sinusoidal:8,2,720",
                 "--hub", "80,2", "--rotor", "100,3", "--efficiency", "0.3,-0.003",
                 "--seed", "9"]) == 0
    return report_json(path / "bundle", path / "out")

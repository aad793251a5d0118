"""The benchmark's workloads: how each one makes its inputs from a seed, the
command it times, and the checks every run's outputs must pass.

The oracle gets the windfleet modules as ``wf`` (a namespace with ``synth``,
``fleet``, ``windgrid`` and ``powerflux``), imported from the checkout by
``run.py``; the registry generator runs in its own process
(``registry_gen.py``).
"""

from __future__ import annotations

import calendar
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

#: relative tolerance of the identity, efficiency and oracle checks
RTOL = 1e-9
#: turbines in the oracle sub-fleet
ORACLE_TURBINES = 16

#: chunk workers of every command.  With 2 workers the command needs both
#: vCPUs of the 2-vCPU VM the benchmark was tuned on for its whole run; that
#: VM's CPU share is throttled after a burst, and desk wall times then varied
#: 2x between runs (steal time up to 70 % of wall), where single-worker runs
#: stayed within 10 %.
WORKERS = 1

#: report workloads: planted hub-height and rotor trends (base,per_year) and
#: planted efficiency 0.32 - 0.003·k
HUB = "80,2"
ROTOR = "100,3"
EFFICIENCY = (0.32, -0.003)

#: registry workload: commissioning years, study years of ``validate``
COMMISSIONED = (1990, 2019)
STUDY = (2001, 2019)
#: share of hub, rotor and capacity fields blanked, one draw per field
BLANK_SHARE = 0.08
#: share of base turbines flagged decommissioned with a year
FLAG_SHARE = 0.05
#: decommissioned-only extension rows, as a share of the registry
EXTENSION_SHARE = 0.03
#: base turbines whose decommissioning flag and year arrive only through the
#: extension (merge fill)
FILL_SHARE = 0.01

FIELD_COLUMNS = {"hub_height": "t_hh", "rotor_diameter": "t_rd", "capacity": "t_cap"}


def _hours(years: tuple[int, int]) -> int:
    return (calendar.timegm((years[1] + 1, 1, 1, 0, 0, 0))
            - calendar.timegm((years[0], 1, 1, 0, 0, 0))) // 3600


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


@dataclass(frozen=True)
class ReportWorkload:
    """``windfleet synth`` makes the bundle, ``windfleet report`` is timed."""

    n_turbines: int
    years: tuple[int, int]
    grid: tuple[int, int]
    bbox: tuple[float, float, float, float]
    wind: str
    #: the oracle month must contain calm hours (zero wind at a reference height)
    expect_calm: bool

    def throughput(self, state: dict) -> tuple[str, int]:
        """Study turbine-hours per run: turbines × study hours."""
        return "turbine_hours_per_s", self.n_turbines * _hours(self.years)

    @property
    def turbine_hours(self) -> int:
        """Minimum kernel work, computed: 2 evaluation heights × turbines × hours."""
        return 2 * self.n_turbines * _hours(self.years)

    def setup_args(self, out: Path, seed: int) -> list[str]:
        """``windfleet`` arguments that write the bundle to ``out``."""
        return [
            "synth", "--out", str(out), "--n-turbines", str(self.n_turbines),
            "--years", f"{self.years[0]}:{self.years[1]}",
            "--grid", f"{self.grid[0]}x{self.grid[1]}",
            "--bbox", *(repr(v) for v in self.bbox), "--wind", self.wind,
            "--hub", HUB, "--rotor", ROTOR,
            "--efficiency", f"{EFFICIENCY[0]},{EFFICIENCY[1]}",
            "--seed", str(seed)]

    def args(self, inputs: Path, out: Path) -> list[str]:
        """``windfleet`` arguments of the timed command."""
        return ["report", "--config", str(inputs / "run.conf"),
                "--out", str(out), "--workers", str(WORKERS)]

    def check(self, out: Path, state: dict) -> list[str]:
        """Decomposition identities, planted efficiency, and the same bundle
        bytes on every run."""
        try:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"report.json unreadable: {exc}"]
        failures = []
        dec = report["decomposition"]
        for key in ("factor_identity_error", "additive_identity_error"):
            if not dec[key] <= RTOL:
                failures.append(f"{key} = {dec[key]!r} > {RTOL}")
        base, per_year = EFFICIENCY
        for k, value in enumerate(report["series"]["efficiency"]["values"]):
            planted = base + per_year * k
            if not _rel(value, planted) <= RTOL:
                failures.append(f"efficiency[{k}] = {value!r}, planted {planted!r}")
        digest = _tree_digest(out)
        if state.setdefault("digest", digest) != digest:
            failures.append("bundle bytes differ from the first run's")
        return failures

    def oracle(self, inputs: Path, seed: int, wf) -> tuple[list[str], dict]:
        """Chunked ``aggregate_pin`` against the naive ``brute_force_pin`` on a
        sub-fleet over one month of the workload's own grid."""
        grid = wf.windgrid.load_windgrid(inputs / "wind.wgrd")
        fleet = wf.fleet.preprocess(
            wf.fleet.parse_turbine_csv((inputs / "turbines.csv").read_bytes()), set())
        sub = wf.fleet.Fleet(turbines=fleet.turbines[:ORACLE_TURBINES],
                             provenance=fleet.provenance, imputation=fleet.imputation)
        period = (self.years[1], 1 + seed % 12)
        start, end = wf.powerflux.period_bounds(period)
        k0, k1 = (start - grid.t0) // grid.step, (end - grid.t0) // grid.step
        calm = int(((grid.u10[k0:k1] <= 0) | (grid.u100[k0:k1] <= 0)).any(axis=(1, 2)).sum())
        fast = wf.powerflux.aggregate_pin(grid, sub, period)
        slow = wf.synth.brute_force_pin(grid, sub, period)
        failures = []
        if not _rel(fast, slow) <= RTOL:
            failures.append(f"aggregate_pin {fast!r} vs brute_force_pin {slow!r}")
        if self.expect_calm and calm == 0:
            failures.append(f"oracle month {period} has no calm hours")
        return failures, {"period": list(period), "calm_hours": calm,
                          "relative_error": _rel(fast, slow)}


@dataclass(frozen=True)
class RegistryWorkload:
    """A national-scale registry from ``synth.generate_fleet`` with seeded
    blanks, decommissioning flags and an extension file; ``windfleet
    validate`` is timed."""

    n_turbines: int
    #: no wind grid and no kernel
    turbine_hours = 0

    def throughput(self, state: dict) -> tuple[str, int]:
        """Registry rows per run, base and extension."""
        return "records_per_s", state["expected"]["rows"]

    def _spec(self, synth, n: int):
        return synth.SynthSpec(
            n_turbines=n, years=COMMISSIONED,
            wind=synth.WindModel("constant", (8.0, 8.0)),
            bbox=(-125.0, -67.0, 25.0, 49.0), hub_trend=(50.0, 2.5),
            rotor_trend=(40.0, 3.0))

    def generate(self, synth, seed: int) -> tuple[bytes, bytes]:
        """The program's own generator (``synth`` is ``windfleet.synth``):
        base registry and extension rows."""
        n_ext = round(EXTENSION_SHARE * self.n_turbines)
        return (synth.generate_fleet(self._spec(synth, self.n_turbines), seed),
                synth.generate_fleet(self._spec(synth, n_ext), seed + 1))

    def write_inputs(self, base_csv: bytes, ext_csv: bytes, seed: int, out: Path) -> dict:
        """Blank fields and set flags with the benchmark's own seeded RNG,
        write turbines, extension and reference CSVs, and return what the
        outputs must show."""
        rng = random.Random(seed)
        rows = list(csv.reader(io.StringIO(base_csv.decode("utf-8"))))
        header, base = rows[0], rows[1:]
        ext = list(csv.reader(io.StringIO(ext_csv.decode("utf-8"))))[1:]
        col = {name: i for i, name in enumerate(header)}
        first, last = STUDY

        # the independent reference: true capacity before any blanking
        ref_kw = {y: 0.0 for y in range(first, last + 1)}
        for row in base:
            cy = int(row[col["p_year"]])
            for y in ref_kw:
                if y >= cy:
                    ref_kw[y] += (0.5 if y == cy else 1.0) * float(row[col["t_cap"]])
        reference = {y: kw / 1000.0 for y, kw in ref_kw.items()}

        def damage(row: list[str]) -> list[str]:
            row = list(row)
            for column in FIELD_COLUMNS.values():
                if rng.random() < BLANK_SHARE:
                    row[col[column]] = ""
            return row

        def decommission(row: list[str]) -> list[str]:
            row = list(row)
            row[col["is_decommissioned"]] = "true"
            row[col["d_year"]] = str(int(row[col["p_year"]]) + rng.randint(1, 25))
            return row

        fills = []
        for i, row in enumerate(base):
            original = row
            row = damage(row)
            u = rng.random()
            if u < FLAG_SHARE:
                row = decommission(row)
            elif u < FLAG_SHARE + FILL_SHARE:
                fills.append(decommission(original))
            base[i] = row
        extension = [decommission(damage(["D" + row[0][1:]] + row[1:])) for row in ext]

        # expected missingness: share of turbines commissioned in or before
        # each year whose field was blank, over base and new extension rows
        records = base + extension
        years = [int(r[col["p_year"]]) for r in records]
        span = range(min(years), max(years) + 1)
        cohort = dict.fromkeys(span, 0)
        blank = {f: dict.fromkeys(span, 0) for f in FIELD_COLUMNS}
        for row, cy in zip(records, years):
            cohort[cy] += 1
            for fname, column in FIELD_COLUMNS.items():
                blank[fname][cy] += row[col[column]] == ""
        missingness = {}
        for fname in FIELD_COLUMNS:
            n = m = 0
            for y in span:
                n += cohort[y]
                m += blank[fname][y]
                missingness[(y, fname)] = m / n

        def write(name: str, body: list[list[str]], head=header) -> None:
            with open(out / name, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(head)
                writer.writerows(body)

        write("turbines.csv", base)
        write("extension.csv", extension + fills)
        write("reference.csv", [[y, repr(v), ""] for y, v in reference.items()],
              ["year", "installed_capacity_mw", "generation_gwh"])
        return {"missingness": missingness, "reference": reference,
                "rows": len(base) + len(extension) + len(fills)}

    def args(self, inputs: Path, out: Path) -> list[str]:
        """``windfleet`` arguments of the timed command."""
        return ["validate", "--turbines", str(inputs / "turbines.csv"),
                "--extension", str(inputs / "extension.csv"),
                "--reference", str(inputs / "reference.csv"),
                "--years", f"{STUDY[0]}:{STUDY[1]}", "--out", str(out)]

    def check(self, out: Path, state: dict) -> list[str]:
        """Missingness equals the blanks written, lifetime scenarios are
        monotone, dropping flagged turbines never adds capacity, and the
        relative differences follow from scenarios and reference."""
        expected = state["expected"]
        try:
            missing = {(int(r["year"]), r["field"]): float(r["share"])
                       for r in _csv_rows(out / "missingness.csv")}
            scen: dict[str, dict[int, float]] = {}
            for r in _csv_rows(out / "scenarios.csv"):
                scen.setdefault(r["scenario"], {})[int(r["year"])] = float(r["capacity_mw"])
            rel = {(r["scenario"], int(r["year"])): float(r["percent"])
                   for r in _csv_rows(out / "relative_difference.csv")}
        except (OSError, KeyError, ValueError) as exc:
            return [f"validation tables unreadable: {exc}"]
        failures = []
        if missing != expected["missingness"]:
            bad = sorted(k for k in expected["missingness"].keys() | missing.keys()
                         if missing.get(k) != expected["missingness"].get(k))
            failures.append(f"missingness differs from the blanks written at {bad[:3]}")
        chain = ["lifetime-15", "lifetime-20", "lifetime-25", "lifetime-30", "default"]
        years = range(STUDY[0], STUDY[1] + 1)
        if set(scen) != set(chain) | {"drop-flagged"} or any(
                set(s) != set(years) for s in scen.values()):
            return failures + [f"scenario table incomplete: {sorted(scen)}"]
        for y in years:
            values = [scen[c][y] for c in chain]
            if values != sorted(values):
                failures.append(f"lifetime scenarios not monotone in {y}: {values}")
            if not scen["drop-flagged"][y] <= scen["default"][y]:
                failures.append(f"drop-flagged above default in {y}")
            for label in scen:
                ref = expected["reference"][y]
                want = 100.0 * (scen[label][y] - ref) / ref
                if not _rel(rel.get((label, y), math.nan), want) <= RTOL:
                    failures.append(f"relative difference {label} {y} is not {want!r}")
        return failures


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


_BBOX_DESK = (-100.0, -95.0, 35.0, 40.0)
_BBOX_WIDE = (-110.0, -90.0, 30.0, 45.0)

WORKLOADS = {
    "full": {
        "desk": ReportWorkload(256, (2010, 2014), (8, 8), _BBOX_DESK,
                               "sinusoidal:8,2,720", expect_calm=False),
        "wide_grid": ReportWorkload(20, (2010, 2012), (28, 28), _BBOX_WIDE,
                                    "sinusoidal:3,4,720", expect_calm=True),
        "registry": RegistryWorkload(35_000),
    },
    # the self-test's sizes: every code path of the full sizes, in seconds
    "tiny": {
        "desk": ReportWorkload(80, (2010, 2012), (3, 3), _BBOX_DESK,
                               "sinusoidal:8,2,720", expect_calm=False),
        "wide_grid": ReportWorkload(4, (2010, 2011), (6, 6), _BBOX_WIDE,
                                    "sinusoidal:3,4,720", expect_calm=True),
        "registry": RegistryWorkload(1_000),
    },
}

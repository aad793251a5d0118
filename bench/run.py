"""windfleet benchmark: one closed-loop client, one command at a time.

    python3 bench/run.py --workload {desk,wide_grid,registry} --seed N \\
        --seconds S --trace {0,1}
    python3 bench/run.py --self-test

Run from the root of a checkout; the program is imported and run from its
``src`` directory.  Each run makes the workload's inputs from ``--seed``
(set-up, timed several times), checks ``aggregate_pin`` against the naive
oracle, then runs the workload's command in fresh processes for about
``--seconds`` seconds and checks every run's outputs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced runs with runs of ``traced.py``, which wraps the public functions of
every windfleet module, and prints the per-layer metrics; the spans go to
``.bench_work/traces/``.  The last line of standard output is the result
JSON; the line before it records the host, the samples and the checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path

from tracer import COMPUTED, command_metrics, setup_metrics
from workloads import WORKERS, WORKLOADS, RegistryWorkload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: set-ups per run, at least SETUP_REPEATS and more while they take less
#: than SETUP_SECONDS in total; setup_s is their median
SETUP_REPEATS = 3
SETUP_SECONDS = 4.0
MAX_SETUP_REPEATS = 15
#: fewest command runs (trace 0) or untraced/traced pairs (trace 1) per run
MIN_SAMPLES = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Sample:
    wall_s: float
    maxrss_kb: int
    failures: list[str]
    spans: list[dict]


def run_process(cmd: list[str], env: dict, log: Path) -> tuple[float, int, int]:
    """Run ``cmd`` to completion through ``rusage.py``: wall seconds, exit
    code, and the peak RSS (KiB) of the process and the workers it reaped."""
    result = log.with_name("rusage.json")
    result.unlink(missing_ok=True)
    with open(log, "ab") as out:
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "rusage.py"), str(result), *cmd],
            env=env, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
        try:
            proc.wait()
        except BaseException:
            proc.terminate()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"rusage.py exited {proc.returncode}")
    r = json.loads(result.read_text(encoding="utf-8"))
    return r["wall_s"], r["exit"], r["maxrss_kb"]


def _tail(log: Path) -> str:
    """Last line the commands wrote, for failure messages."""
    lines = log.read_text(encoding="utf-8", errors="replace").split("\n") if log.exists() else []
    return next((line for line in reversed(lines) if line.strip()), "")


class Bench:
    """One workload at one seed, in its own scratch directory."""

    def __init__(self, name: str, seed: int, size: str):
        self.w = WORKLOADS[size][name]
        self.seed = seed
        self.dir = WORK / f"{name}-seed{seed}-{os.getpid()}"
        self.inputs = self.dir / "inputs"
        self.log = self.dir / "log.txt"
        self.state: dict = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.run_id = f"{name}-seed{seed}-{os.getpid()}-{time.time_ns()}"

    def __enter__(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _windfleet(self, args: list[str], spans: Path | None) -> list[str]:
        if spans is None:
            return [sys.executable, "-m", "windfleet.cli", *args]
        return [sys.executable, str(BENCH / "traced.py"), str(spans), self.run_id, "--", *args]

    def _setup_command(self, spans: Path | None) -> list[str]:
        if not isinstance(self.w, RegistryWorkload):
            return self._windfleet(self.w.setup_args(self.inputs, self.seed), spans)
        cmd = [sys.executable, str(BENCH / "registry_gen.py"), str(self.w.n_turbines),
               str(self.seed), str(self.dir / "generated")]
        return cmd + ([str(spans), self.run_id] if spans else [])

    def _flush_inputs(self) -> None:
        """Write the inputs to disk now, so that their write-back does not
        run during the next timed set-up or command."""
        for path in self.inputs.iterdir():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())

    def setup(self, traced: bool) -> tuple[list[float], list[dict]]:
        """Make the inputs.  The program's own preparation runs in a fresh
        process, timed ``SETUP_REPEATS`` times and more while the repeats
        take less than ``SETUP_SECONDS``; a traced set-up runs once.  Returns
        the times and, if traced, the spans."""
        spans_path = self.dir / "setup_spans.json" if traced else None
        times, outputs = [], set()
        while True:
            wall, code, _ = run_process(self._setup_command(spans_path), self.env, self.log)
            if code != 0:
                raise RuntimeError(f"set-up exited {code}: {_tail(self.log)}")
            times.append(wall)
            if isinstance(self.w, RegistryWorkload):
                # unlinked before write-back, so they cost no disk writes
                generated = [self.dir / "generated" / f for f in ("base.csv", "extension.csv")]
                outputs.add(tuple(f.read_bytes() for f in generated))
                for f in generated:
                    f.unlink()
            self._flush_inputs()
            enough = len(times) >= SETUP_REPEATS and (
                sum(times) >= SETUP_SECONDS or len(times) >= MAX_SETUP_REPEATS)
            if traced or enough:
                break
        if outputs:
            if len(outputs) != 1:
                raise RuntimeError("synth.generate_fleet is not deterministic")
            self.state["expected"] = self.w.write_inputs(*outputs.pop(), self.seed, self.inputs)
            self._flush_inputs()
        if not traced:
            return times, []
        return times, json.loads(spans_path.read_text(encoding="utf-8"))

    def sample(self, i: int, traced: bool, keep: bool = False) -> Sample:
        """One fresh process running the workload's command, then its checks."""
        out = self.dir / f"out{i}"
        spans_path = self.dir / f"spans{i}.json" if traced else None
        wall, code, rss = run_process(
            self._windfleet(self.w.args(self.inputs, out), spans_path), self.env, self.log)
        if code != 0:
            failures = [f"exit {code}: {_tail(self.log)}"]
        else:
            failures = self.w.check(out, self.state)
        spans = json.loads(spans_path.read_text()) if traced and spans_path.exists() else []
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        return Sample(wall, rss, failures, spans)


def measure(seconds: float, take) -> list:
    """Call ``take(i)`` until the next call would end after ``seconds``
    (at least ``MIN_SAMPLES`` calls); ``take`` returns a list of Samples."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(take(len(rounds)))
        elapsed = time.perf_counter() - t0
        if len(rounds) >= MIN_SAMPLES and elapsed * (1 + 1 / len(rounds)) > seconds:
            return rounds


def high_percentile(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}


def host_record(seed: int) -> dict:
    import numpy

    quota = None
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            quota = Path(path).read_text(encoding="ascii").strip()
            break
        except OSError:
            continue
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cgroup_cpu_quota": quota, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
            "seed": seed}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(name: str, seed: int, seconds: float, trace: int, size: str, wf) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, details line)."""
    units = _units()
    details = {"workload": name, "size": size, "host": host_record(seed)}
    with Bench(name, seed, size) as bench:
        w = bench.w
        setup_times, setup_spans = bench.setup(bool(trace))
        failures = []
        if hasattr(w, "oracle"):
            failures, details["oracle"] = w.oracle(bench.inputs, seed, wf)

        if trace:
            rounds = measure(seconds, lambda i: [bench.sample(2 * i, False),
                                                  bench.sample(2 * i + 1, True)])
            plain = [r[0] for r in rounds]
            traced = [r[1] for r in rounds]
            samples = plain + traced
        else:
            samples = [r[0] for r in measure(seconds, lambda i: [bench.sample(i, False)])]
            plain, traced = samples, []

    failed = sum(bool(s.failures) for s in samples)
    for s in samples:
        failures.extend(s.failures)
    walls = [s.wall_s for s in plain]
    throughput, work = w.throughput(bench.state)
    details.update({
        "samples": len(samples), "wall_s_samples": walls,
        "wall_s_high": high_percentile(walls),
        throughput: work / statistics.median(walls),
        "error_rate": failed / len(samples),
        "failures": failures[:10],
    })

    if trace:
        per_sample = [command_metrics(s.spans, w.turbine_hours, WORKERS) for s in traced]
        values = {k: statistics.median(m[k] for m in per_sample) for k in per_sample[0]}
        values.update(setup_metrics(setup_spans))
        values["trace.overhead_s"] = (statistics.median(s.wall_s for s in traced)
                                      - statistics.median(walls))
        metrics = {k: _metric(v, units[k]) for k, v in values.items() if k in units}
        details["derived"] = {k: v for k, v in values.items() if k not in units}
        details["computed_from_input_sizes"] = list(COMPUTED)
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{name}-seed{seed}.json"
        trace_file.write_text(json.dumps({
            "run": bench.run_id, "workload": name, "seed": seed,
            "setup": setup_spans, "samples": [s.spans for s in traced],
            "metrics": values, "computed_from_input_sizes": list(COMPUTED)}),
            encoding="utf-8")
        details["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = {
            "wall_s": _metric(statistics.median(walls), "s"),
            "peak_rss_mb": _metric(statistics.median(s.maxrss_kb for s in samples) / 1024, "MB"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
        }
    result = {"correct": not failures, "attempted": len(samples), "failed": failed,
              "metrics": metrics}
    return result, details


def import_windfleet():
    """The checkout's windfleet modules, or None when the checkout has none."""
    if not (SRC / "windfleet" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    from windfleet import fleet, powerflux, synth, windgrid

    return types.SimpleNamespace(fleet=fleet, powerflux=powerflux, synth=synth,
                                 windgrid=windgrid)


def _alter_report(out: Path) -> None:
    path = out / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["series"]["efficiency"]["values"][1] *= 1 + 1e-6
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _alter_missingness(out: Path) -> None:
    path = out / "missingness.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    year, fname, share = lines[1].split(",")
    lines[1] = f"{year},{fname},{float(share) + 1e-3!r}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def self_test(wf) -> int:
    """Every workload path at tiny sizes: every metric prints with its unit,
    every check passes, and an altered output value fails its check."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name in WORKLOADS["tiny"]:
        for trace in (0, 1):
            result, details = run(name, 5, 1, trace, "tiny", wf)
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()
                   if isinstance(v.get("value"), (int, float)) and math.isfinite(v["value"])}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {sorted(got)} != {sorted(want)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: checks failed {details['failures']}")
            print(f"self-test {name} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} runs, correct={result['correct']}")
    for name, alter in (("desk", _alter_report), ("registry", _alter_missingness)):
        with Bench(name, 5, "tiny") as bench:
            bench.setup(False)
            sample = bench.sample(0, False, keep=True)
            out = bench.dir / "out0"
            alter(out)
            caught = bench.w.check(out, {"expected": bench.state.get("expected")})
        if sample.failures or not caught:
            problems.append(f"{name}: altered output not caught ({sample.failures})")
        print(f"self-test {name} altered output: {caught[:1]}")
    for p in problems:
        print(f"FAIL {p}")
    print("self-test passed" if not problems else "self-test FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    wf = import_windfleet()
    if wf is None:
        print(f"run.py: no windfleet sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(wf)
    if args.workload is None:
        parser.error("--workload is required")
    result, details = run(args.workload, args.seed, args.seconds, args.trace, "full", wf)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Generate the registry workload's raw CSVs with ``synth.generate_fleet``.

    python3 bench/registry_gen.py N_TURBINES SEED OUT_DIR [SPANS_JSON RUN_ID]

Writes ``base.csv`` and ``extension.csv`` to OUT_DIR; ``run.py`` then blanks
fields and sets flags in them.  It times this script in a fresh process as
the registry's set-up, like ``windfleet synth`` for the report workloads.
With SPANS_JSON and RUN_ID the windfleet layers are traced as in
``traced.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from traced import run_traced
from workloads import RegistryWorkload


def main(argv: list[str]) -> int:
    n_turbines, seed, out, *trace = argv
    from windfleet import synth

    generate = RegistryWorkload(int(n_turbines)).generate
    if trace:
        spans_path, run_id = trace
        base, ext = run_traced(spans_path, run_id, "registry.generate",
                               generate, synth, int(seed))
    else:
        base, ext = generate(synth, int(seed))
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "base.csv").write_bytes(base)
    (out / "extension.csv").write_bytes(ext)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

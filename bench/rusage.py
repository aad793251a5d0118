"""Run a command and write its wall time, exit code and peak RSS as JSON.

    python3 -I -S bench/rusage.py RESULT_JSON <command...>

Linux carries the high-water RSS of the process that calls exec into the
new program's ``ru_maxrss``.  The benchmark process holds wind grids and
registries, so it starts commands through this small, freshly exec'd
process: the command's ``ru_maxrss`` from ``wait4`` then counts only the
command and the workers it forked and reaped.
"""

import json
import os
import signal
import subprocess
import sys
import time


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    result_path, *cmd = sys.argv[1:]
    signal.signal(signal.SIGTERM, _stop)
    t = time.perf_counter()
    proc = subprocess.Popen(cmd)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "exit": os.waitstatus_to_exitcode(status),
                   "maxrss_kb": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

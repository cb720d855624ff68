"""Start the benchmark's gbrec steps from a process that stays small.

Linux reports a child's peak resident memory (``ru_maxrss``) as at least the
peak of the process it was forked from. Children of the benchmark's own
process, which holds the reference scorer's matrices, would all read that
size, so the benchmark starts this helper first, while it is small, and has
it start every step.

Protocol: one JSON request per line on stdin, ``{"argv", "env", "cwd",
"stdout", "stderr", "timeout_s"}``; one JSON answer per line on stdout,
``{"wall_s", "maxrss_kb", "returncode"}``. The spawn time is passed to the
child in ``GBBENCH_SPAWN_T`` (``time.perf_counter``), for the traced run's
start-up measure. The helper exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    env = req["env"]
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        env["GBBENCH_SPAWN_T"] = repr(t0)
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=env, cwd=req["cwd"])
        timer = threading.Timer(req["timeout_s"], proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "returncode": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

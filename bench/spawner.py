"""Small launcher that starts the benchmark's child processes and times them.

Linux carries a process's peak RSS across exec, so a child started directly by
the benchmark, which holds whole output tables in memory while it checks them,
would report at least the benchmark's own peak through ``wait4``.  The
benchmark therefore starts this process once and has it start every child;
its own footprint is the floor of every reported peak.

Protocol: one JSON request per stdin line, ``{"args": [...], "cwd": ..., "log":
...}``; one JSON reply per stdout line, ``{"wall": s, "code": n, "maxrss_kb":
n}``.  The children inherit this process's environment.  It exits at EOF.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen(request["args"], stdout=sink, stderr=sink, cwd=request["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()

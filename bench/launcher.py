"""Process launcher for the benchmark: reads one JSON request per stdin line,
runs it, and answers with one JSON line {"wall", "rss_mb", "code"}.

Linux reports a child's peak RSS (ru_maxrss) as at least the high-water mark
of the process that spawned it, so children spawned by the benchmark itself,
once it has loaded numpy and read tens of MB of output, would report its
memory rather than their own. This launcher is started first and stays small;
the peak RSS it reports is the child's alone. Stdlib only.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "w", encoding="utf-8") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                          "code": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()

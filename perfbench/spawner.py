"""Run child processes on behalf of the benchmark and report their usage.

    python3 perfbench/spawner.py <cwd> <timeout_s>

Reads one JSON request per stdin line, ``{"argv": [...], "stdout": path,
"stderr": path}``, runs it to completion and answers with one JSON line
``{"code", "wall", "cpu", "rss_kb"}``.  It exits when stdin closes.

Children are started from this small process rather than from the benchmark
itself, because Linux folds the memory high-water mark of the process that
spawns a child into the child's ``ru_maxrss``; a large benchmark process
would hide the child's own peak.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, stdout_path, stderr_path, cwd, timeout):
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


def main() -> int:
    cwd, timeout = sys.argv[1], float(sys.argv[2])
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["stdout"], req["stderr"], cwd, timeout)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

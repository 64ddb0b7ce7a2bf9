"""Starts commands for the benchmark and reports each one's wall time and
peak RSS.

Linux carries a parent's peak RSS into a child it spawns (the high-water
mark of the address space the child replaces at exec), so a child of the
benchmark process, which holds numpy and the generated inputs, would never
report less than the benchmark's own peak. This launcher is started before
the benchmark imports anything large and stays small, so the peak RSS that
``os.wait4`` returns for each command is the command's own.

Protocol: one JSON request per stdin line, ``{"argv", "env", "cwd",
"stdout", "stderr", "timeout"}``; one JSON reply per stdout line, ``{"wall",
"maxrss_kb", "code"}``. A command still running after ``timeout`` seconds
is killed. The launcher exits at end of input.
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
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                req["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=req["env"], cwd=req["cwd"]
            )
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall": wall, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

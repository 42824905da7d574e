"""Starts the benchmark's CLI calls from a process that stays small.

On Linux a child's ru_maxrss starts from the memory of the process that
spawned it, so children started by the benchmark itself, which holds and
parses large outputs, would report its size instead of their own.  This
process reads one JSON request per line on stdin,
{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds},
runs it, and answers one JSON line {"wall", "cpu", "rss_mb", "code"}.
It exits when stdin closes.
"""

import json
import os
import signal
import sys
import time


def run(request: dict) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, max(request["timeout"], 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "code": os.waitstatus_to_exitcode(status),
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()

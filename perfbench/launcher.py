"""Starts the benchmark's child processes and reports what each one cost.

On Linux a process started by fork or vfork inherits its parent's peak RSS
at exec, so a child started straight from the benchmark would report at
least the benchmark's own peak.  This launcher imports almost nothing and
stays small, so the peak that wait4 reports for its children is their own.

Protocol, one JSON object per line: the request on stdin is
{"argv", "env", "stdout", "stderr", "timeout_s"}; the reply on stdout is
{"code", "wall_s", "rss_mb"}.  A child still running at its timeout is
killed (exit code -9).  On SIGTERM the launcher kills its current child,
waits for it, and exits.
"""

import json
import os
import signal
import sys
import time

_child = 0


def _kill_child(signum, frame):
    if _child:
        os.kill(_child, signal.SIGKILL)
    if signum == signal.SIGTERM:
        if _child:
            os.waitpid(_child, 0)
        sys.exit(1)


def main():
    global _child
    signal.signal(signal.SIGALRM, _kill_child)
    signal.signal(signal.SIGTERM, _kill_child)
    write_only = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], write_only, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], write_only, 0o644),
        ]
        start = time.perf_counter()
        _child = os.posix_spawn(req["argv"][0], req["argv"], req["env"],
                                file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, max(req["timeout_s"], 1.0))
        _, status, usage = os.wait4(_child, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        _child = 0
        reply = {
            "code": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

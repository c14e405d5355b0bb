"""Starts the benchmark's child processes from a small helper process.

A child's peak RSS as os.wait4 reports it is never below the RSS of the
process that spawned it: Linux carries the spawner's memory high-water
mark into the child at exec.  The helper is forked before the benchmark
imports anything else, so it stays smaller than any qsearch child and
each child's figure is its own.  For the same reason this module imports
only what the helper needs.
"""

import marshal
import os
import signal
import time


def _serve(requests, replies) -> None:
    child = [0]

    def kill(signum, frame):
        if child[0]:
            os.kill(child[0], signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    while True:
        try:
            argv, cwd, env, out_path, err_path, timeout = marshal.load(requests)
        except EOFError:
            return
        os.chdir(cwd)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        out = os.open(out_path, flags, 0o644)
        err = os.open(err_path, flags, 0o644)
        actions = [(os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)]
        t0 = time.perf_counter()
        child[0] = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        _, status, usage = os.wait4(child[0], 0)
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        child[0] = 0
        os.close(out)
        os.close(err)
        marshal.dump((os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss), replies)
        replies.flush()


class Spawner:
    """Runs one child at a time in the helper: exit code, wall seconds from
    spawn to reap, and the child's own peak RSS in KiB."""

    def __init__(self):
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(req_w)
            os.close(rep_r)
            try:
                _serve(os.fdopen(req_r, "rb"), os.fdopen(rep_w, "wb"))
            finally:
                os._exit(0)
        os.close(req_r)
        os.close(rep_w)
        self._requests = os.fdopen(req_w, "wb")
        self._replies = os.fdopen(rep_r, "rb")

    def run(self, argv, cwd, env, out_path, err_path, timeout):
        marshal.dump(
            (list(argv), str(cwd), dict(env), str(out_path), str(err_path), float(timeout)),
            self._requests,
        )
        self._requests.flush()
        return marshal.load(self._replies)

    def close(self) -> None:
        """Stop the helper and wait until it has ended."""
        self._requests.close()
        self._replies.close()
        os.waitpid(self.pid, 0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

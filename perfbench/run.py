#!/usr/bin/env python3
"""Build and run the jfeed benchmark from the root of a source tree.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (shared build cache off, so nothing
is written outside the tree), then runs it with the same arguments plus
the tree's provenance.  The benchmark's result object is the last line
of standard output; build messages go to standard error.  Exits non-zero
without a result when the tree holds no jfeed sources to build.
"""

import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def source_digest():
    """MD5 over every OCaml source and build file of the tree."""
    h = hashlib.md5()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".c", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: no jfeed sources here (dune-project and lib/ are "
              "missing); nothing to build", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    args = [exe] + sys.argv[1:] + [
        "--commit", commit(), "--source-digest", source_digest()]
    # A session of its own, so a timeout or a termination signal takes
    # down the daemon children too.
    proc = subprocess.Popen(args, cwd=ROOT, start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def on_signal(signum, _frame):
        # The handler may interrupt proc.wait(), which holds the Popen
        # lock, so the child is reaped with waitpid directly.
        kill_group()
        try:
            os.waitpid(proc.pid, 0)
        except ChildProcessError:
            pass
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group()
        proc.wait()
        print("perfbench: timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

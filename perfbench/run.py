#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload kv-read --seed 1 --seconds 10 --trace 0

Run it from the repository root. It builds perfbench/main.exe with dune
(into ./_build, with dune's shared cache off so nothing is written
outside the tree), then runs it with the same arguments. The benchmark's
last line of output is one JSON object; the exit code is the
benchmark's (non-zero when the build fails or any correctness gate
fails).
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def run(cmd, timeout, **kwargs):
    """Run cmd in its own process group and wait for it; on timeout kill
    the whole group (the benchmark forks workers) and reap it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    if shutil.which("dune") is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    build = run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "--display", "quiet", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if build != 0:
        print(f"perfbench: build failed ({build})", file=sys.stderr)
        return build
    return run([EXE] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())

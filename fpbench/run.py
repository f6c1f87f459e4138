#!/usr/bin/env python3
"""Builds and runs the FastPath benchmark (see README.md).

    python3 fpbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark program is built from source
with cargo (into $CARGO_TARGET_DIR, else fpbench/target) and run as a
child process. With --trace 0 this script adds the `peak_rss_mb` metric:
the child's peak resident memory, read from its own rusage when it is
reaped. The last output line is the single JSON result; nothing is printed
as a result when the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    args = sys.argv[1:]
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("fpbench: build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "fastpath-fpbench")

    child = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True)
    out = child.stdout.read()
    child.stdout.close()
    # Reap the child ourselves: wait4 returns the rusage of that process.
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(out)
        print(f"fpbench: benchmark exited with {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if "--trace" not in args or args[args.index("--trace") + 1] == "0":
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one legscale CLI invocation: python3 bench/shim.py ARGV...

`legscale.cli` has no __main__ guard, so `python -m legscale.cli` exits 0
without doing anything; this calls `main(argv)` the way the console script
does. Needs the package importable (PYTHONPATH=src).

When the CLI returns, the shim writes its own peak resident set size as the
last line of stderr (`HWM_PREFIX` and kB). It is read from VmHWM in
/proc/self/status, the high-water mark of this process's address space
only: the ru_maxrss a parent gets from wait4 also holds the parent's own
peak, which the kernel carries into the child when it execs.
"""

import re
import sys

HWM_PREFIX = "bench-peak-rss-kb "


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        return int(re.search(r"^VmHWM:\s+(\d+) kB", status.read(), re.M).group(1))


if __name__ == "__main__":
    from legscale.cli import main

    try:
        code = main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write(f"\n{HWM_PREFIX}{peak_rss_kb()}\n")
    sys.exit(code)

"""Fresh-process probes for the benchmark: set-up time and peak memory.

    python3 perfbench/child.py describe CONFIG
    python3 perfbench/child.py run CONFIG OUT_DIR

``describe`` times importing ``algebroids`` and validating the config
(parsing it and building its charts, algebroids and fibrations), which
is what a CLI user pays before the first task starts.  ``run`` executes
every task once and reports the process's peak resident memory.  Both
print one JSON object on stdout; the CLI's own output is discarded.
"""

import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv: list[str]) -> int:
    mode, config = argv[0], argv[1]
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    start = time.perf_counter()
    from algebroids import cli

    args = ["describe", config] if mode == "describe" else ["run", config, "--out", argv[2]]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            rc = cli.main(args)
        except Exception:  # reported as a failed run, like any nonzero exit
            traceback.print_exc()
            rc = -1
    elapsed = time.perf_counter() - start
    print(json.dumps({"rc": rc, "seconds": elapsed, "peak_rss_mb": peak_rss_mb()}))
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started, in MB.

    Linux keeps ``ru_maxrss`` across exec, so there it would include the
    parent's resident memory at the fork; ``VmHWM`` belongs to this
    program alone.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

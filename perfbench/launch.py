"""Run one csp2c command as its console script does; record the process's own
peak memory and user CPU time.

Usage: python3 launch.py STATS_JSON RUN_ID|- -- CSP2C_ARGS...

csp2c is imported from PYTHONPATH. With a RUN_ID other than "-", csp2c's
public functions are wrapped first (spans.py) and the spans go into
STATS_JSON next to the peak resident set size and user CPU time; with "-"
nothing is patched.
The exit code is csp2c's.
"""

from __future__ import annotations

import json
import resource
import sys


def peak_rss_kb() -> int:
    """High-water resident set size of this process's address space.

    VmHWM belongs to the address space that exec created, so it covers the
    csp2c process alone. getrusage's ru_maxrss is kept across exec and so
    starts at the peak of the process that spawned this one; it is only the
    fallback where /proc is missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    stats_path, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py STATS_JSON RUN_ID|- -- CSP2C_ARGS...")
    tracer = None
    if run_id != "-":
        import spans

        tracer = spans.Tracer(run_id)
        spans.install(tracer)
    import csp2c.cli

    try:
        code = csp2c.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    stats = {"maxrss_kb": peak_rss_kb(), "utime_s": usage.ru_utime}
    if tracer is not None:
        stats["spans"] = tracer.spans
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

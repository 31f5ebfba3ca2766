"""One timed invocation in a fresh interpreter.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON names the source directory, the CLI argument lists to run in
turn (an empty list only times the import), the trace mode ("off", "cli"
or "all") and where to write the spans and the record.  The record holds
the import time of xiverify.cli (setup_s), the wall time of all the
cli.main calls together (run_s), their exit statuses, the CPU time of this
process and its waited-for children, and the peak RSS of both.
"""

import json
import os
import resource
import sys
import time


def _cpu_s():
    """User plus system CPU of this process and its waited-for children."""
    return sum(r.ru_utime + r.ru_stime for r in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def _peak_self_kb():
    """Peak RSS of this process since it was started, in KiB.

    getrusage's ru_maxrss would do, except that Linux carries the parent's
    peak across fork and exec into it; VmHWM belongs to this address space
    alone.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import xiverify.cli as cli
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit("xiverify imported from %s, not %s"
                         % (cli.__file__, src))

    tracer = None
    if spec["trace"] != "off":
        import tracing  # this script's directory is first on sys.path
        tracer = tracing.Tracer()
        if spec["trace"] == "cli":
            tracing.install(tracer, layers=("cli",), cells=False)
        else:
            tracing.install(tracer)

    codes = []
    cpu0 = _cpu_s()
    t1 = time.perf_counter()
    for argv in spec["argvs"]:
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
    run_s = time.perf_counter() - t1
    cpu_s = _cpu_s() - cpu0

    if tracer is not None:
        tracer.dump(spec["spans"])
    peak_kb = max(_peak_self_kb(),
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record = {"setup_s": setup_s, "run_s": run_s, "codes": codes,
              "cpu_s": cpu_s, "peak_rss_mb": peak_kb / 1024.0}
    with open(spec["record"], "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1])

"""One benchmark round's process: ``child.py REPORT TRACE ARGV...``.

Imports ``repro.cli``, notes the ``time.monotonic()`` instant the import
finished (CLOCK_MONOTONIC is shared by every process on the machine, so
the parent can subtract its spawn instant), then runs
``repro.cli.main(ARGV)``.  With a non-empty TRACE path, the layer hooks
of ``layers.py`` are installed first and their spans are written to
TRACE when the command returns.

On the way out it writes REPORT, a JSON object: ``ready`` and ``done``
(when the import finished and the command returned), ``dump_s`` (time
spent writing TRACE) and ``peak_rss_mb``.  The peak is the kernel's
high-water mark of this program's own memory; the parent's rusage
figure would also count the pages the child had as a fork of the
parent, before it ran this program.
"""

import json
import sys
import time


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    report_path, trace_path, *argv = sys.argv[1:]
    import repro.cli

    report = {"ready": time.monotonic(), "dump_s": 0.0}
    recorder = None
    if trace_path:
        import layers

        recorder = layers.install()
    try:
        return repro.cli.main(argv)
    finally:
        report["done"] = time.monotonic()
        if recorder is not None:
            recorder.dump(trace_path)
            report["dump_s"] = time.monotonic() - report["done"]
        report["peak_rss_mb"] = peak_rss_mb()
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())

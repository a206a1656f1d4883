"""Run one ``restage`` command in a fresh interpreter and report on it.

    python child.py --report <file.json> [--trace] -- <restage arguments...>

The benchmark starts this script once per command. It imports restage from
the ``PYTHONPATH`` the benchmark sets, runs ``restage.cli.main`` on the
given arguments and writes a JSON report: the exit status, the
``time.monotonic_ns`` of the first entry into ``sampler.run`` (the end of
set-up), the peak resident set size, and with ``--trace`` every span and
counter the tracer recorded. The exit status is the command's.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, command = argv[:split], argv[split + 1 :]
    report_path = own[own.index("--report") + 1]
    trace = "--trace" in own

    import restage.cli as cli

    first_entry: list[int] = []
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        inner = cli.run

        def first_run(*args, **kwargs):
            first_entry.append(time.monotonic_ns())
            cli.run = inner
            return inner(*args, **kwargs)

        cli.run = first_run

    status = cli.main(command)
    report = {
        "status": status,
        "restage_file": cli.__file__,
        "first_run_ns": first_entry[0] if first_entry else None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counters"] = dict(tracer.counters)
        report["calls"] = dict(tracer.calls)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Child processes of a benchmark run.

    python3 perfbench/child.py setup <workload> <seed>
        import ``latticejets.cli`` (and with it the whole package), build the
        workload's inputs, print the monotonic clock and exit; the parent
        takes the set-up time from its own clock reading before the start
    python3 perfbench/child.py cli <0|1> <subcommand> [args...]
        run ``latticejets.cli.main`` as ``python -m latticejets.cli`` would,
        with the layer wrappers installed when the flag is 1; the report goes
        to stdout as usual, and the process's peak memory and the trace
        totals go to stderr as one JSON line
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import checkout


def main(argv) -> int:
    checkout.use_checkout_source()
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        importlib.import_module("latticejets.cli")
        import workloads

        workloads.WORKLOADS[rest[0]].build(checkout.ROOT, int(rest[1]))
        print(time.monotonic())
        return 0
    if mode == "cli":
        cli = importlib.import_module("latticejets.cli")
        tracer = None
        if rest[0] == "1":
            import layertrace

            tracer = layertrace.Tracer()
            tracer.install()
        code = cli.main(rest[1:])
        sys.stdout.flush()
        sys.stderr.write(json.dumps({"peak_rss_mb": checkout.peak_rss_mb(),
                                     "trace": tracer and tracer.totals()}) + "\n")
        return code
    raise SystemExit(f"child.py: unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

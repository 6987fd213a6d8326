"""Traced replay of one CLI job: ksep.cli.main inside this interpreter.

    python3 perfbench/cli_child.py SPAN_FILE JOB_ID eval --family ... --k 3 --probe FILE

Installs the same cross-module wrappers as the in-process workloads, runs
``ksep.cli.main`` with the remaining arguments inside a ``cli.main`` span,
writes the spans to SPAN_FILE at exit and exits with main's code.  The
plan is cold here, as in every untraced CLI job.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    span_file, job = sys.argv[1], sys.argv[2]
    tracer = Tracer()
    tracer.job = job
    import ksep.cli

    tracer.install()
    try:
        code = tracer.call("cli.main", ksep.cli.main, sys.argv[3:])
    finally:
        tracer.uninstall()
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

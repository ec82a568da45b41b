"""Run one `pgf` command with the span tracer installed, then dump the trace.

    python3 perfbench/traced_cli.py TRACE_JSON <pgf arguments...>

The exit code and stdout are the command's own; the aggregated spans and
counts go to TRACE_JSON.  run.py starts this in place of `python3 -m
pgf.cli` for a traced run.
"""

import json
import sys

import tracer

if __name__ == "__main__":
    from pgf import cli

    trace = tracer.install()
    rc = cli.main(sys.argv[2:])
    with open(sys.argv[1], "w") as fh:
        json.dump(trace.dump(), fh)
    sys.exit(rc)

"""One benchmark round in a fresh interpreter.

Usage (from the round's own working directory, with the package's ``src`` on
PYTHONPATH):

    python3 child.py CONFIG COMMAND SEED|- SPAWNED_AT TRACE_FILE|-

Imports weakkam, loads, validates and builds the model of CONFIG (the set-up
the user pays on every ``wkam`` invocation), then times one
``weakkam.cli.run_config`` call.  With a TRACE_FILE the call runs under the
tracer and the spans are written there when it ends.  The last line of
standard output is a JSON report.
"""

import json
import resource
import sys
import time


def main(argv):
    config, command, seed, spawned_at, trace_file = argv
    from weakkam import cli
    from weakkam.model import model_from_config
    model_from_config(cli.load_config(config)["model"])
    ready_at = time.monotonic()

    tracer = None
    if trace_file != "-":
        from tracing import Tracer
        tracer = Tracer(run_id=f"{command}-{spawned_at}").install()
    t0 = time.perf_counter()
    rc = cli.run_config(config, command, out_dir="out",
                        seed_override=None if seed == "-" else int(seed))
    wall = time.perf_counter() - t0
    report = {"rc": rc, "setup_s": ready_at - float(spawned_at), "wall_s": wall,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.restore()
        report["layers"] = tracer.metrics()
        with open(trace_file, "w") as fh:
            json.dump({"trace": tracer.run_id, "spans": tracer.span_records(),
                       "totals": dict(tracer.totals),
                       "counts": dict(tracer.counts)}, fh)
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])

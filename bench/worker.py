"""Benchmark worker: makes plasmakit calls one at a time, on request.

run.py starts this process with `src/` on the path and a manifest of input
paths; the worker holds no corpus.  For each request line
`{"item": k, "call": n}` on stdin it makes a call on input k (n numbers the
call for the trace), then answers one JSON line
with the call's wall time, error and captured stdout/stderr, and waits for
the next request (a closed loop with one caller).  A `{"stop": true}`
request ends the run; the answer carries the peak resident memory and, when
traced, the layer totals.

    python3 bench/worker.py --workload NAME --manifest FILE [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import plasmakit
from plasmakit import acquisition, calibration, cli, dataset, probe, svgchart

from corpus import SWEEP
from tracing import Tracer


def replay_call(item):
    return cli.main(["acq", "replay", "--in", item["frames"], "--out", item["out"],
                     "--config", item["config"], "--curve", item["curve"]])


def characterize_call(item):
    return cli.main(["characterize", "--in", item["shot"], "--trim",
                     "--out", item["out"], "--plot", item["plot"]])


def sweep_call(item, spec):
    # What `probe bode` does, for ladders the CLI cannot describe.
    net = probe.ProbeNetwork(base=probe.RCStage(*spec["base"]),
                             ladder=tuple(probe.RCStage(r, c) for r, c in spec["ladder"]))
    responses = probe.bode_sweep(net, SWEEP["f_min"], SWEEP["f_max"], SWEEP["points"], "log")
    with open(item["out"], "w", encoding="utf-8", newline="") as fh:
        probe.write_sweep_csv(responses, fh)
    return 0


def peak_rss_kb() -> int:
    """Peak resident set of this process since it was exec'd.

    ru_maxrss would do, but Linux carries it over from the parent across
    fork and exec, so it would report the benchmark driver's memory whenever
    that is larger."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def describe(exc: BaseException) -> str:
    """'Type: message (raised in f > g)', naming the plasmakit frames it passed."""
    text = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    package = os.path.dirname(plasmakit.__file__) + os.sep
    frames = [f.name for f in traceback.extract_tb(exc.__traceback__)
              if f.filename.startswith(package)]
    return f"{text} (raised in {' > '.join(frames) or 'the benchmark'})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["replay_session", "characterize_shots", "probe_sweep"])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--spans", help="trace the layers and write spans here")
    args = parser.parse_args()
    with open(args.manifest, encoding="utf-8") as fh:
        items = json.load(fh)

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install({"cli": cli, "acquisition": acquisition, "calibration": calibration,
                        "dataset": dataset, "probe": probe, "svgchart": svgchart})

    proto = sys.stdout
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("stop"):
            break
        item = items[request["item"]]
        spec = None
        if args.workload == "probe_sweep":
            with open(item["ladder"], encoding="utf-8") as fh:
                spec = json.load(fh)
        if tracer:
            tracer.request = request["call"]
        out, err = io.StringIO(), io.StringIO()
        error = None
        # Each call starts from an empty heap of garbage, so a collection the
        # previous calls left due does not land in this one's time.
        gc.collect()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if args.workload == "replay_session":
                    code = replay_call(item)
                elif args.workload == "characterize_shots":
                    code = characterize_call(item)
                else:
                    code = sweep_call(item, spec)
            if code != 0:
                error = f"exit code {code}"
        except Exception as exc:  # a crash is a counted failure, not the end of the run
            error = describe(exc)
        elapsed = perf_counter() - start
        proto.write(json.dumps({"elapsed": elapsed, "error": error,
                                "stdout": out.getvalue(), "stderr": err.getvalue()}) + "\n")
        proto.flush()

    final = {"peak_rss_mb": peak_rss_kb() / 1024.0}
    if tracer:
        tracer.write_spans(args.spans)
        final["totals"] = tracer.totals()
    proto.write(json.dumps(final) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""plasmakit benchmark: session replay, shot characterization, probe sweep.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  For one workload it

1. times fresh interpreters that import `plasmakit.cli` and build its
   parser, half of them before the workload and half after (setup_s, the
   Harrell-Davis median of SETUP_RUNS costs, see 5);
2. generates the workload's corpus from --seed under .bench_work/;
3. starts bench/worker.py, which holds only file paths, and drives it as a
   closed loop: one caller, one call at a time, in whole passes over the
   corpus, each in a seeded order, until another pass would end more than
   half a pass after --seconds.  The two many-file workloads have 100
   inputs each, so their p90 has ten samples beyond it;
4. checks every call's output against the oracles in oracles.py, which
   never go through plasmakit;
5. turns each wall time into a cost: the time scaled to a host of fixed
   speed by the reference loop timed in this process around the call
   (hostspeed.py), since the speed of a shared VM drifts by tens of percent
   within minutes; run.py, the worker and the timed interpreters share one
   pinned CPU.  Each input costs the median of its passes; call_p50_s and
   call_p90_s are Harrell-Davis quantiles over the corpus inputs,
   items_per_s is the items of correct inputs over the summed input costs,
   and setup_s is costed the same way;
6. prints a table of the metrics with units and sample counts, then, as the
   last line, the JSON result {"correct", "attempted", "failed", "metrics"}.

With --trace 1 the run is split in halves: an untraced half and a half with
the layers wrapped (tracing.py); it reports the per-layer metrics and the
tracing overhead.  A failure is an oracle mismatch or an exception.  The
result counts inputs, not calls: `attempted` is the number of corpus inputs
and `failed` the number whose calls failed at least once, so a seed gives
the same counts however many passes fit in --seconds.  On the probe
sweep's long ladders of corpus.DEFECT_N stages and more, the
expanded-polynomial transfer function is known to lose precision (NaN
gains, wrong gains, a ValueError from write_sweep_csv); such a ladder whose
every problem is one of those symptoms (oracles.is_long_ladder_defect) is
counted in `failed` but leaves `correct` true.  Any other failure makes
`correct` false.  The exit code is nonzero when the benchmark itself
cannot run, e.g. without `src/plasmakit`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import corpus
import hostspeed
import oracles
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("replay_session", "characterize_shots", "probe_sweep")
SETUP_RUNS = 12
# Reference samples after each interpreter start, and after each call one per
# REF_EVERY_S since the last sample, at most REF_MAX.
SETUP_REFS = 3
REF_EVERY_S = 0.25
REF_MAX = 16


@dataclass
class Workload:
    """Inputs of one workload and how to check a call's output."""

    name: str
    items: list                      # per call: file paths for the worker
    sizes: list                      # per call: items (rows or points) it carries
    outputs: object                  # k -> output paths of call k
    check: object                    # (k, reply) -> list of problems
    known_defect: object = lambda k, problems: False   # (k, problems) -> bool
    shape: dict = field(default_factory=dict)
    truth: dict = field(default_factory=dict)


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _memoized(check, outputs):
    """Check a call by the bytes it produced; identical bytes, same verdict."""
    verdicts = {}

    def wrapped(k, reply):
        try:
            texts = [_read(p) for p in outputs(k)]
        except OSError as exc:
            return [f"output missing: {exc}"]
        texts += [reply["stdout"], reply["stderr"]]
        key = (k, hashlib.sha256("\0".join(texts).encode()).hexdigest())
        if key not in verdicts:
            verdicts[key] = check(k, *texts)
        return verdicts[key]

    return wrapped


def prepare_replay(work: Path, seed: int) -> Workload:
    truth = corpus.make_replay(work / "corpus", seed)
    oracle = oracles.ReplayOracle(truth)
    out = work / "out" / "samples.csv"
    item = {"frames": str(truth.frames_path), "config": str(truth.config_path),
            "curve": str(truth.curve_path), "out": str(out)}
    outputs = lambda k: [out]
    check = _memoized(lambda k, csv_text, stdout, stderr: oracle.check(csv_text, stderr),
                      outputs)
    return Workload("replay_session", [item], [truth.shape["frames"]], outputs, check,
                    shape=truth.shape,
                    truth={"malformed": truth.shape["malformed"], "malformed_kinds": truth.bad_kinds,
                           "malformed_lines": sorted(truth.bad_lines)})


def prepare_shots(work: Path, seed: int) -> Workload:
    truth = corpus.make_shots(work / "corpus", seed)
    shot_oracles = [oracles.ShotOracle(s) for s in truth.shots]
    out = work / "out"
    items = [{"shot": str(s.path), "out": str(out / f"char_{k:03d}.json"),
              "plot": str(out / f"plot_{k:03d}.svg")} for k, s in enumerate(truth.shots)]
    outputs = lambda k: [Path(items[k]["out"]), Path(items[k]["plot"])]
    check = _memoized(lambda k, js, svg, stdout, stderr: shot_oracles[k].check(js, stdout, svg),
                      outputs)
    return Workload("characterize_shots", items, [s.rows for s in truth.shots], outputs, check,
                    shape=truth.shape,
                    truth={"noise_sigma": corpus.NOISE_SIGMA,
                           "shots": [{"file": s.path.name, "rows": s.rows,
                                      "ignition_t_ms": s.ignition_t_ms,
                                      "pre_ignition_rows": s.pre_ignition,
                                      "outliers": s.outliers} for s in truth.shots]})


def prepare_sweeps(work: Path, seed: int) -> Workload:
    truth = corpus.make_ladders(work / "corpus", seed)
    sweep_oracles = [oracles.SweepOracle(lt) for lt in truth.ladders]
    out = work / "out"
    items = [{"ladder": str(lt.path), "out": str(out / f"sweep_{k:03d}.csv")}
             for k, lt in enumerate(truth.ladders)]
    outputs = lambda k: [Path(items[k]["out"])]
    check = _memoized(lambda k, csv_text, stdout, stderr: sweep_oracles[k].check(csv_text),
                      outputs)
    return Workload("probe_sweep", items, [corpus.SWEEP["points"]] * len(items), outputs, check,
                    known_defect=lambda k, problems: (truth.ladders[k].defect and
                                                      oracles.is_long_ladder_defect(problems)),
                    shape=truth.shape,
                    truth={"ladders": [{"file": lt.path.name, "n": lt.n, "uniform": lt.uniform,
                                        "tail": lt.tail, "defect": lt.defect, "base": lt.base,
                                        "ladder": lt.ladder}
                                       for lt in truth.ladders]})


PREPARE = {"replay_session": prepare_replay, "characterize_shots": prepare_shots,
           "probe_sweep": prepare_sweeps}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    return env


def measure_setup(runs: int, speed: hostspeed.SpeedLog) -> list[tuple[float, float, float]]:
    """(start, end, wall seconds) of fresh interpreters that import the CLI and build
    its parser, each followed by reference samples."""
    cmd = [sys.executable, "-c", "from plasmakit import cli; cli.build_parser()"]
    times = []
    for _ in range(runs):
        start = perf_counter()
        subprocess.run(cmd, env=worker_env(), cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        end = perf_counter()
        times.append((start, end, end - start))
        speed.sample(SETUP_REFS)
    return times


@dataclass
class Call:
    item: int
    elapsed: float                   # wall seconds inside the worker
    start: float                     # the request's span in this process
    end: float
    problems: list
    cost: float = math.nan           # elapsed scaled to the reference host speed


def drive(wl: Workload, work: Path, seed: int, seconds: float, spans: Path | None,
          speed: hostspeed.SpeedLog):
    """Closed loop in whole passes over the corpus, with reference samples after
    each call; returns the calls, with their costs, and the worker's summary."""
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps(wl.items), encoding="utf-8")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", wl.name,
           "--manifest", str(manifest)]
    if spans:
        cmd += ["--spans", str(spans)]
    rng = np.random.default_rng([seed, 9])
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=worker_env(), cwd=ROOT)
    calls: list[Call] = []

    def call(k: int) -> None:
        for path in wl.outputs(k):
            path.unlink(missing_ok=True)
        start = perf_counter()
        proc.stdin.write(json.dumps({"item": k, "call": len(calls)}) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        end = perf_counter()
        if not line:
            raise RuntimeError(f"worker exited with code {proc.wait()}")
        reply = json.loads(line)
        if reply["error"]:
            problems = [f"{reply['error']} {reply['stderr'][-300:]}".strip()]
        else:
            problems = wl.check(k, reply)
        calls.append(Call(k, reply["elapsed"], start, end, problems))
        speed.sample(min(REF_MAX, int((perf_counter() - speed.last) / REF_EVERY_S)))

    try:
        start = perf_counter()
        passes = 0
        while True:
            for k in rng.permutation(len(wl.items)).tolist():
                call(k)
            passes += 1
            elapsed = perf_counter() - start
            if elapsed + elapsed / passes / 2 > seconds:
                break
        proc.stdin.write(json.dumps({"stop": True}) + "\n")
        proc.stdin.flush()
        summary = json.loads(proc.stdout.readline())
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    for c in calls:
        c.cost = c.elapsed * speed.scale(c.start, c.end)
    return calls, summary


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of `values`.

    It weights every order statistic by the Beta((n+1)q, (n+1)(1-q)) mass
    of its rank, so one input's noise does not decide the value as it does
    for a single order statistic: on repeated runs of one seed the spread of
    p50 and p90 fell from 0.07-0.11 to 0.04-0.07."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    u = np.linspace(0.0, 1.0, 20001)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pdf = (a - 1) * np.log(u) + (b - 1) * np.log1p(-u)
    pdf = np.exp(log_pdf - np.max(log_pdf[1:-1]))
    pdf[[0, -1]] = 0.0
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    weights = np.diff(np.interp(np.arange(n + 1) / n, u, cdf / cdf[-1]))
    return float(weights @ x)


def input_costs(calls: list[Call]) -> dict[int, float]:
    """Median cost of each input over the run's passes."""
    costs: dict[int, list[float]] = {}
    for c in calls:
        costs.setdefault(c.item, []).append(c.cost)
    return {k: statistics.median(v) for k, v in costs.items()}


def goodput(wl: Workload, calls: list[Call]) -> float:
    """Items of inputs whose every call was correct, per second of cost."""
    costs = input_costs(calls)
    failed = {c.item for c in calls if c.problems}
    return sum(wl.sizes[k] for k in costs if k not in failed) / sum(costs.values())


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True)
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Returns (result, report) for one workload."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    start = perf_counter()
    wl = PREPARE[name](work, seed)
    generate_s = perf_counter() - start
    (work / "truth.json").write_text(json.dumps(wl.truth, indent=1) + "\n", encoding="utf-8")

    speed = hostspeed.SpeedLog()
    if trace:
        plain, _ = drive(wl, work, seed, seconds / 2, None, speed)
        traced_from = len(speed.took)
        traced, summary = drive(wl, work, seed, seconds / 2, work / "spans.jsonl", speed)
        calls = plain + traced
        overhead = goodput(wl, plain) / goodput(wl, traced) - 1.0
        failed_ladders = {c.item for c in traced if c.problems} if name == "probe_sweep" else ()
        scale = hostspeed.REF_S / statistics.median(speed.took[traced_from:])
        metrics = tracing.layer_metrics(summary["totals"], len(traced), len(failed_ladders),
                                        overhead, scale)
        samples = {m[0]: f"{len(traced)} traced calls; moves {m[3]}"
                   for m in tracing.LAYER_METRICS}
    else:
        measure_setup(1, speed)             # compiles the bytecode once
        setup = measure_setup(SETUP_RUNS // 2, speed)
        calls, summary = drive(wl, work, seed, seconds, None, speed)
        setup += measure_setup(SETUP_RUNS - len(setup), speed)
        costs = list(input_costs(calls).values())
        passes = len(calls) // len(costs)
        metrics = {
            "setup_s": {"value": harrell_davis([t * speed.scale(a, b) for a, b, t in setup], 0.5),
                        "unit": "s"},
            "items_per_s": {"value": goodput(wl, calls), "unit": "1/s"},
            "call_p50_s": {"value": harrell_davis(costs, 0.5), "unit": "s"},
            "call_p90_s": {"value": harrell_davis(costs, 0.9), "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
        per_input = f"{len(costs)} inputs, median of {passes} passes"
        samples = {"setup_s": f"Harrell-Davis median of {len(setup)} interpreter starts",
                   "items_per_s": f"{sum(wl.sizes)} items; {per_input}",
                   "call_p50_s": f"Harrell-Davis quantile; {per_input}",
                   "call_p90_s": f"Harrell-Davis quantile; {per_input}; "
                                 f"{len(costs) - math.ceil(0.9 * len(costs))} beyond",
                   "peak_rss_mb": "1 worker process"}

    failures = [c for c in calls if c.problems]
    unexpected = [c for c in failures if not wl.known_defect(c.item, c.problems)]
    result = {"correct": not unexpected, "attempted": len(wl.items),
              "failed": len({c.item for c in failures}), "metrics": metrics}
    first = {}
    for c in unexpected + failures:
        first.setdefault(c.item, c.problems[:3])
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), "corpus": wl.shape, "generate_s": generate_s,
        "call_count": len(calls), "failed_calls": len(failures),
        "fail_frac": len(failures) / len(calls),
        "host_speed": {"reference_median_s": speed.median(), "reference_samples": len(speed.took),
                       "reference_host_s": hostspeed.REF_S,
                       "call_wall_median_s": statistics.median(c.elapsed for c in calls)},
        # The first path of an item is its input file.
        "failed_items": {Path(next(iter(wl.items[k].values()))).name: p
                         for k, p in list(first.items())[:10]},
        "unexpected_failures": len(unexpected),
        "samples": samples,
        "truth_file": str((work / "truth.json").relative_to(ROOT)),
        "report_file": str((work / "report.json").relative_to(ROOT)),
        "calls": [[c.item, c.start, c.end, c.elapsed, c.cost, not c.problems] for c in calls],
        "reference": [[a, *p] for a, p in zip(speed.at, speed.parts)],
    }
    (work / "report.json").write_text(json.dumps({**report, "result": result}, indent=1) + "\n",
                                      encoding="utf-8")
    return result, report


def print_table(result: dict, report: dict) -> None:
    print(f"== {report['workload']}  seed={report['seed']}  seconds={report['seconds']}  "
          f"trace={report['trace']}")
    print("   environment: " + json.dumps(report["environment"]))
    print("   corpus: " + json.dumps(report["corpus"]))
    print(f"   truth: {report['truth_file']}  per-call record: {report['report_file']}")
    print(f"   inputs: {result['attempted']} attempted, {result['failed']} failed; "
          f"calls: {report['call_count']}, {report['failed_calls']} failed, "
          f"fail_frac {report['fail_frac']:.6g} ({report['unexpected_failures']} outside "
          f"known defects)")
    print("   host speed: " + json.dumps(report["host_speed"]))
    for item, problems in report["failed_items"].items():
        print(f"   failed {item}: {'; '.join(problems)}")
    for name, m in result["metrics"].items():
        print(f"   {name:<40} {m['value']:>16.6g} {m['unit']:<6} {report['samples'][name]}")


def main() -> int:
    parser = argparse.ArgumentParser(description="plasmakit benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "plasmakit" / "__init__.py").is_file():
        print(f"error: no plasmakit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # The two vCPUs of a shared VM can differ twofold in speed at the same
    # moment, so the reference loop only describes the calls it sits between
    # when this process, the worker and the timed interpreters share one CPU.
    # They take turns, so the pinning costs no parallelism.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_table(result, report)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{m}": v for n, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: seeded corpora, oracles and the tracer.

    python3 -m pytest -q bench/test_bench.py

Each oracle is shown to accept plasmakit's real output on a small corpus and
to reject it after one deliberate corruption, so a zero fail_frac cannot
come from an oracle that accepts anything.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
from plasmakit import cli, probe  # noqa: E402

SMALL = {
    corpus.make_replay: {"frames": 3000},
    corpus.make_shots: {"count": 3, "size_lo": 400, "size_hi": 900},
    corpus.make_ladders: {"count": 8},
}


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("make", list(SMALL), ids=lambda f: f.__name__)
def test_seed_reproduces_corpus_bytes(make, tmp_path):
    make(tmp_path / "a", 5, **SMALL[make])
    make(tmp_path / "b", 5, **SMALL[make])
    make(tmp_path / "c", 6, **SMALL[make])
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 0, err.getvalue()
    return out.getvalue(), err.getvalue()


def test_replay_oracle_rejects_one_perturbed_lux(tmp_path):
    truth = corpus.make_replay(tmp_path, 7, frames=3000)
    out = tmp_path / "samples.csv"
    _, stderr = _cli(["acq", "replay", "--in", str(truth.frames_path), "--out", str(out),
                      "--config", str(truth.config_path), "--curve", str(truth.curve_path)])
    oracle = oracles.ReplayOracle(truth)
    text = out.read_text()
    assert oracle.check(text, stderr) == []

    lines = text.splitlines()
    k = next(k for k, line in enumerate(lines[1:], 1) if line.split(",")[4] not in ("", "0.0"))
    cells = lines[k].split(",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-6))
    corrupted = "\n".join(lines[:k] + [",".join(cells)] + lines[k + 1:]) + "\n"
    assert any("lux wrong in 1 rows" in p for p in oracle.check(corrupted, stderr))
    # A malformed row that slips through unreported is caught as well.
    dropped = "\n".join(stderr.splitlines()[1:])
    assert oracle.check(text, dropped) != []


def test_sweep_oracle_rejects_gain_off_by_1e_5(tmp_path):
    truth = corpus.make_ladders(tmp_path, 7, count=4, tail_share=0.0)
    for ladder in truth.ladders:
        net = probe.ProbeNetwork(probe.RCStage(*ladder.base),
                                 tuple(probe.RCStage(r, c) for r, c in ladder.ladder))
        responses = probe.bode_sweep(net, corpus.SWEEP["f_min"], corpus.SWEEP["f_max"],
                                     corpus.SWEEP["points"])
        buf = io.StringIO()
        probe.write_sweep_csv(responses, buf)
        oracle = oracles.SweepOracle(ladder)
        assert oracle.check(buf.getvalue()) == []

    lines = buf.getvalue().splitlines()
    cells = lines[500].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-5))
    lines[500] = ",".join(cells)
    assert any(p.startswith("gain wrong at 1 points") for p in oracle.check("\n".join(lines)))


def test_shot_oracle_rejects_wrong_trimmed_count(tmp_path):
    truth = corpus.make_shots(tmp_path, 7, count=2, size_lo=400, size_hi=900)
    for k, shot in enumerate(truth.shots):
        out, plot = tmp_path / f"char{k}.json", tmp_path / f"plot{k}.svg"
        stdout, _ = _cli(["characterize", "--in", str(shot.path), "--trim",
                          "--out", str(out), "--plot", str(plot)])
        oracle = oracles.ShotOracle(shot)
        assert oracle.check(out.read_text(), stdout, plot.read_text()) == []

    got = json.loads(out.read_text())
    got["trimmed_count"] += 1
    wrong = json.dumps(got)
    assert any(p.startswith("trimmed_count") for p in oracle.check(wrong, wrong, plot.read_text()))


def test_only_the_long_ladder_symptoms_count_as_the_known_defect(tmp_path):
    import run

    wl = run.prepare_sweeps(tmp_path, 7)
    ladders = wl.truth["ladders"]
    tail = next(k for k in range(len(wl.items)) if ladders[k]["defect"])
    short = next(k for k in range(len(wl.items)) if not ladders[k]["tail"])
    shorter_tail = next(k for k in range(len(wl.items))
                        if ladders[k]["tail"] and not ladders[k]["defect"])
    precision = ["gain wrong at 34 points, first at f=645.372 Hz",
                 "magnitude_db wrong at 12 points, first at f=849.042 Hz"]
    csv_error = ["ValueError: math domain error (raised in write_sweep_csv > magnitude_db)"]
    assert wl.known_defect(tail, precision) and wl.known_defect(tail, csv_error)
    assert not wl.known_defect(short, precision)
    assert not wl.known_defect(shorter_tail, precision)
    for other in (["999 points written, expected 1000"],
                  ["header ['f'] != 'frequency_hz,magnitude,phase_rad,magnitude_db'"],
                  ["TypeError: bad operand (raised in bode_sweep > frequency_response)"],
                  ["ValueError: math domain error (raised in bode_sweep > transfer_function)"],
                  ["frequency wrong at 3 points, first at f=10 Hz"],
                  precision + ["output missing: no such file"]):
        assert not wl.known_defect(tail, other), other


def test_every_seed_has_the_same_ladders_in_the_defect_band(tmp_path):
    # Stage counts between the bands are where plasmakit's sweep passes or
    # fails by the drawn components; no seed may put a ladder there.
    for seed in (1, 2, 3):
        truth = corpus.make_ladders(tmp_path / str(seed), seed)
        tail = sorted(lt.n for lt in truth.ladders if lt.tail)
        assert tail[:10] == [41, 43, 45, 47, 49, 51, 53, 55, 57, 59]
        assert all(n >= corpus.DEFECT_N for n in tail[10:])
        assert sum(lt.defect for lt in truth.ladders) == 10


def test_harrell_davis_estimates_quantiles():
    import run

    assert run.harrell_davis([0.25], 0.9) == 0.25
    assert run.harrell_davis([3.0] * 12, 0.5) == pytest.approx(3.0)
    evenly = list(range(101))
    assert run.harrell_davis(evenly, 0.5) == pytest.approx(50.0, abs=1e-6)
    assert run.harrell_davis(evenly, 0.9) == pytest.approx(90.0, abs=0.5)
    # Moving the slowest input moves p90 a little, not by the whole jump.
    shifted = evenly[:-1] + [1000]
    assert 0 < run.harrell_davis(shifted, 0.9) - run.harrell_davis(evenly, 0.9) < 1.0


def test_worker_names_the_plasmakit_frames_of_an_error():
    import worker

    try:
        probe.ProbeNetwork(probe.RCStage(-1.0, 1e-12), ())
    except Exception as exc:
        text = worker.describe(exc)
    assert text == ("plasmakit.errors.DomainError: stage resistance must be > 0, got -1.0 "
                    "(raised in __post_init__)")


def test_self_time_subtracts_wrapped_children():
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: sum(range(x))
    mod.mid = lambda x: [mod.leaf(x) for _ in range(3)]
    mod.top = lambda x: mod.mid(x) + [mod.leaf(x)]
    tracer = tracing.Tracer()
    for attr, per_row in (("leaf", True), ("mid", False), ("top", False)):
        wrap = tracer._per_row if per_row else tracer._span
        setattr(mod, attr, wrap(f"m.{attr}", getattr(mod, attr)))
    tracer.request = 0
    mod.top(20000)
    totals = tracer.totals()
    assert totals["m.leaf.calls"] == 4 and totals["m.top.calls"] == 1
    # Self times partition the outermost call's duration.
    assert sum(totals[f"m.{a}.self_s"] for a in ("leaf", "mid", "top")) == pytest.approx(
        totals["m.top.busy_s"], rel=1e-9)
    assert totals["m.leaf.self_s"] == totals["m.leaf.busy_s"]
    assert 0 < totals["m.mid.self_s"] < totals["m.mid.busy_s"]
    names = [s[3] for s in tracer.spans]
    parents = {s[3]: s[1] for s in tracer.spans}
    assert names == ["m.top", "m.mid"] and parents["m.mid"] == 0


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == [m[:3] for m in tracing.LAYER_METRICS]

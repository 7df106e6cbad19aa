import argparse
import codecs
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from plasmakit import ChannelConfig, InputKind, characterize, dataset, files, load_run, lux_from_input
from plasmakit.calibration import CalibrationCurve, curve_to_dict
from plasmakit.cli import build_parser, main

from conftest import POWER_COEFFS, VOLTAGE_COEFFS, narrow_span


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CAL_FLAGS = ["--a0", "2.533317", "--a1", "1.960146", "--a2", "2.118486",
             "--a3", "2.101649", "--kind", "voltage"]


class TestProbeCommands:
    def test_analyze_reference_network(self, capsys):
        code, out, _ = run_cli(capsys, "probe", "analyze", "--n", "5",
                               "--r1", "10e6", "--c1", "15e-12",
                               "--r0", "52.8e3", "--c0", "3e-9")
        assert code == 0
        data = json.loads(out)
        assert data["dc_attenuation"] == pytest.approx(1.054886e-3, rel=1e-6)
        assert data["exact_compensation_c0_farads"] == pytest.approx(2.8409e-9, rel=1e-4)
        assert data["is_compensated"] is True

    def test_design(self, capsys):
        code, out, _ = run_cli(capsys, "probe", "design", "--ratio", "0.001",
                               "--n", "5", "--r1", "10e6", "--c1", "15e-12")
        assert code == 0
        data = json.loads(out)
        assert data["r0_ohms"] == pytest.approx(50.05005e3, rel=1e-6)
        assert data["dc_attenuation"] == pytest.approx(0.001, rel=1e-12)

    def test_bode_unity_network(self, capsys):
        code, out, _ = run_cli(capsys, "probe", "bode", "--n", "0",
                               "--r1", "1", "--c1", "0",
                               "--r0", "52.8e3", "--c0", "3e-9",
                               "--fmin", "1", "--fmax", "1e6", "--points", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "frequency_hz,magnitude,phase_rad,magnitude_db"
        assert len(lines) == 6
        for line in lines[1:]:
            assert float(line.split(",")[1]) == pytest.approx(1.0, rel=1e-12)

    def test_bode_csv_and_svg_files(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        svg_path = tmp_path / "sweep.svg"
        args = ["probe", "bode", "--n", "5", "--r1", "10e6", "--c1", "15e-12",
                "--r0", "52.8e3", "--c0", "3e-9", "--points", "50"]
        assert run_cli(capsys, *args, "--out", str(csv_path))[0] == 0
        assert run_cli(capsys, *args, "--out", str(svg_path))[0] == 0
        assert csv_path.read_text().startswith("frequency_hz,")
        svg = svg_path.read_text()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")

    def test_bode_non_finite_fmax_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "probe", "bode", "--n", "5", "--r1", "10e6",
                                 "--c1", "15e-12", "--r0", "52.8e3", "--c0", "3e-9",
                                 "--fmax", "inf")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--fmax", "1.7976931348623157e308"],
        ["--fmin", "1e300", "--fmax", "1.7976931348623157e308", "--points", "5"],
        ["--fmax", "1.7976931348623157e308", "--spacing", "linear"],
    ])
    def test_bode_grid_overflow_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, "probe", "bode", "--n", "1", "--r1", "1", "--c1", "1",
                                 "--r0", "1", "--c0", "1", "--fmin", "1", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: the ") and "frequency grid" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-0.1"])
    def test_analyze_bad_tolerance_exits_1(self, capsys, tol):
        code, out, err = run_cli(capsys, "probe", "analyze", "--n", "5", "--r1", "10e6",
                                 "--c1", "15e-12", "--r0", "52.8e3", "--c0", "3e-9",
                                 "--tol", tol)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "rel_tol" in err

    def test_design_domain_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "probe", "design", "--ratio", "2.0",
                               "--n", "5", "--r1", "10e6", "--c1", "15e-12")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("argv", [
        # R0 + R1 overflows, so the DC ratio reads 0.0
        ["analyze", "--n", "1", "--r1", "1e308", "--c1", "1", "--r0", "1e308", "--c0", "1"],
        # C1*R1/R0 overflows
        ["analyze", "--n", "1", "--r1", "1e308", "--c1", "1e308", "--r0", "1", "--c0", "1"],
        ["design", "--ratio", "0.5", "--n", "1", "--r1", "1e308", "--c1", "1e-300"],
    ])
    def test_overflow_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, "probe", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "over- or underflows" in err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["probe", "analyze", "--n", "5"])  # missing component flags
        assert exc.value.code == 2


class TestCalCommands:
    def test_eval_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "cal", "eval", *CAL_FLAGS, "--input", "1")
        assert code == 0
        data = json.loads(out)
        assert data["lux"] == pytest.approx(12.5952, abs=5e-4)

    def test_eval_byte_stable(self, capsys):
        outs = {run_cli(capsys, "cal", "eval", *CAL_FLAGS, "--input", "1")[1]
                for _ in range(3)}
        assert len(outs) == 1

    def test_invert_overflowing_curve_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "cal", "invert", "--a0", "1e300", "--a1", "1e300",
                                 "--a2", "0", "--a3", "1e300", "--kind", "voltage",
                                 "--lux", "10")
        assert code == 1
        assert out == ""
        assert err.startswith("error: no input gives lux 10.0")

    def test_invert_root_outside_window_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "cal", "invert", "--a0", "0", "--a1", "1", "--a2", "0",
                                 "--a3", "0", "--kind", "voltage", "--lux", "1e305")
        assert code == 1
        assert out == ""
        assert err.startswith("error: no input gives lux 1e+305")

    def test_invert_subnormal_lux_exits_1(self, capsys):
        # cal eval refuses the input a subnormal lux would invert to
        code, out, err = run_cli(capsys, "cal", "invert", *CAL_FLAGS, "--lux", "5e-324")
        assert code == 1
        assert out == ""
        assert err.startswith("error: lux 5e-324 underflows")

    @pytest.mark.parametrize("flag, name", [("invert", "lux"), ("eval", "curve input")])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_value_exits_1(self, capsys, flag, name, value):
        option = "--lux" if flag == "invert" else "--input"
        code, out, err = run_cli(capsys, "cal", flag, *CAL_FLAGS, option, value)
        assert code == 1
        assert out == ""
        assert err == f"error: {name} must be finite, got {value}\n"

    @pytest.mark.parametrize("argv", [["eval", "--input", "1"], ["invert", "--lux", "10"]])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_coefficient_exits_1(self, capsys, argv, value):
        flags = [value if k == 5 else flag for k, flag in enumerate(CAL_FLAGS)]  # --a2
        code, out, err = run_cli(capsys, "cal", argv[0], *flags, *argv[1:])
        assert code == 1
        assert out == ""
        assert err == f"error: coefficient a2 must be a finite number, got {value}\n"

    def test_eval_underflow_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "cal", "eval", "--a0", "-800", "--a1", "0", "--a2", "0",
                                 "--a3", "1e-9", "--kind", "voltage", "--input", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: illuminance underflows")

    def test_invert_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "cal", "invert", *CAL_FLAGS,
                               "--lux", "12.5952")
        assert code == 0
        assert json.loads(out)["input"] == pytest.approx(1.0, abs=1e-6)

    def test_fit_log_linear_points(self, capsys, tmp_path):
        samples = tmp_path / "samples.csv"
        rows = ["input,lux"]
        for x in (1.0, 2.0, 5.0, 10.0):
            rows.append(f"{x},{math.exp(0.5 + 2.0 * math.log(x))}")
        samples.write_text("\n".join(rows) + "\n")
        out_path = tmp_path / "curve.json"
        code, out, _ = run_cli(capsys, "cal", "fit", "--in", str(samples),
                               "--out", str(out_path))
        assert code == 0
        data = json.loads(out)
        assert data["a2"] == pytest.approx(0.0, abs=1e-9)
        assert data["a3"] == pytest.approx(0.0, abs=1e-9)
        saved = json.loads(out_path.read_text())
        assert saved["kind"] == "voltage"

    def test_fit_plot_emits_svg(self, capsys, tmp_path):
        samples = tmp_path / "samples.csv"
        curve = CalibrationCurve(*VOLTAGE_COEFFS)
        rows = ["input,lux"] + [f"{x},{lux_from_input(curve, x)}"
                                for x in (0.5, 1.0, 2.0, 4.0, 8.0)]
        samples.write_text("\n".join(rows) + "\n")
        plot = tmp_path / "fit.svg"
        code, _, _ = run_cli(capsys, "cal", "fit", "--in", str(samples),
                             "--plot", str(plot))
        assert code == 0
        assert "<polyline" in plot.read_text()

    def test_trimmed_fit_plot_draws_the_curve_over_its_range(self, capsys, tmp_path):
        # the smallest input is an outlier that --trim drops: the fit line
        # spans the kept inputs, not the trimmed one, while every row is a dot
        curve = CalibrationCurve(*VOLTAGE_COEFFS)
        inputs = [0.8] + [8 ** (k / 39) for k in range(40)]
        lux = [50 * lux_from_input(curve, 0.8)] + [lux_from_input(curve, x) for x in inputs[1:]]
        samples, plot = tmp_path / "samples.csv", tmp_path / "fit.svg"
        samples.write_text("input,lux\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(inputs, lux)))
        code, out, _ = run_cli(capsys, "cal", "fit", "--in", str(samples), "--trim",
                               "--plot", str(plot))
        assert code == 0
        assert json.loads(out)["trimmed_count"] == 1
        svg = plot.read_text()
        dots = [float(cx) for cx in re.findall(r'<circle cx="([-0-9.]+)"', svg)]
        line = [float(pt.split(",")[0])
                for pt in re.search(r'<polyline points="([^"]+)"', svg).group(1).split()]
        assert len(dots) == len(inputs)
        assert dots[0] < dots[1]  # the trimmed row is drawn left of the fit
        assert line[0] == pytest.approx(dots[1], abs=0.01)
        assert line[-1] == pytest.approx(dots[-1], abs=0.01)

    def test_eval_extrapolation_warning(self, capsys, tmp_path):
        curve = CalibrationCurve(*VOLTAGE_COEFFS, input_range=(0.5, 8.0))
        path = tmp_path / "curve.json"
        files.write_texts((path, files.json_text(curve_to_dict(curve))))
        code, _, err = run_cli(capsys, "cal", "eval", "--curve", str(path),
                               "--input", "100")
        assert code == 0
        assert "outside the fitted range" in err

    def test_eval_at_the_largest_fitted_input_does_not_warn(self, capsys, tmp_path):
        samples, path = tmp_path / "samples.csv", tmp_path / "curve.json"
        curve = CalibrationCurve(*VOLTAGE_COEFFS)
        samples.write_text("input,lux\n" + "".join(
            f"{x!r},{lux_from_input(curve, x)!r}\n"
            for x in np.geomspace(1.0, 59.6456944009405, 40).tolist()))
        code, _, _ = run_cli(capsys, "cal", "fit", "--in", str(samples), "--out", str(path))
        assert code == 0
        code, _, err = run_cli(capsys, "cal", "eval", "--curve", str(path),
                               "--input", "59.6456944009405")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("row", ["1.0,abc", "abc,1.0", "1.0", "1.0,-2.0", "0,1.0"])
    def test_fit_bad_row_exits_1(self, capsys, tmp_path, row):
        samples = tmp_path / "samples.csv"
        samples.write_text(f"input,lux\n2.0,3.0\n{row}\n")
        code, out, err = run_cli(capsys, "cal", "fit", "--in", str(samples))
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 3:")

    @pytest.mark.parametrize("trim", [[], ["--trim"]])
    def test_fit_narrow_span_exits_1(self, capsys, tmp_path, trim):
        samples = tmp_path / "samples.csv"
        xs, ys = narrow_span(1000.0, 0.01, 2000, 0)
        samples.write_text("input,lux\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), ys.tolist())))
        out = tmp_path / "curve.json"
        code, stdout, err = run_cli(capsys, "cal", "fit", "--in", str(samples), "--kind", "power",
                                    "--out", str(out), *trim)
        assert (code, stdout) == (1, "")
        assert err.startswith("error: fitted curve is ") and "least-squares fit" in err
        assert not out.exists()

    def test_missing_curve_flags_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "cal", "eval", "--input", "1")
        assert code == 1
        assert "--a0" in err


class TestAcqCommands:
    def test_power_arduino_reading(self, capsys):
        code, out, _ = run_cli(capsys, "acq", "power", "--v", "498", "--i", "0.0366")
        assert code == 0
        assert json.loads(out)["p_watts"] == pytest.approx(18.227, abs=5e-4)

    def test_power_industrial_reading(self, capsys):
        code, out, _ = run_cli(capsys, "acq", "power", "--v", "479",
                               "--i", "0.038130")
        assert code == 0
        assert json.loads(out)["p_watts"] == pytest.approx(18.264, abs=5e-4)

    @pytest.mark.parametrize("v, i", [("nan", "1"), ("1e308", "10")])
    def test_power_non_finite_exits_1(self, capsys, v, i):
        code, out, err = run_cli(capsys, "acq", "power", "--v", v, "--i", i)
        assert code == 1
        assert out == ""
        assert err == {"nan": "error: v_volts must be finite, got nan\n",
                       "1e308": "error: p_watts must be finite, got inf\n"}[v]

    def test_power_byte_stable(self, capsys):
        outs = {run_cli(capsys, "acq", "power", "--v", "498", "--i", "0.0366")[1]
                for _ in range(3)}
        assert len(outs) == 1

    def test_replay_empty_file(self, capsys, tmp_path):
        src = tmp_path / "frames.csv"
        src.write_text("t_ms,raw_hv,raw_shunt\n")
        out_path = tmp_path / "samples.csv"
        code, _, _ = run_cli(capsys, "acq", "replay", "--in", str(src),
                             "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == "t_ms,v_volts,i_amps,p_watts,lux\n"

    def test_replay_with_config_and_flag_precedence(self, capsys, tmp_path):
        src = tmp_path / "frames.csv"
        src.write_text("t_ms,raw_hv,raw_shunt\n0,652,2596\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shunt_ohms": 46.0}))
        # config halves the current; the explicit flag restores it
        code, out, _ = run_cli(capsys, "acq", "replay", "--in", str(src),
                               "--config", str(cfg), "--shunt-ohms", "23")
        assert code == 0
        i = float(out.splitlines()[1].split(",")[2])
        assert i == pytest.approx(0.0366, rel=2e-3)

    @pytest.mark.parametrize("config", [
        "{not json", "[1, 2]", '{"bogus": 1}', '{"probe_ratio": "x"}',
        '{"shunt_ohms": true}', '{"offset_volts": NaN}', '{"adc_bits": 12.5}',
        b'{"probe_ratio": "\xff"}', '{"probe_ratio": 2}'])
    # a flag that replaces the bad value does not hide it
    @pytest.mark.parametrize("flags", [(), ("--probe-ratio", "0.001")], ids=["file", "flag"])
    def test_replay_bad_config_exits_1(self, capsys, tmp_path, config, flags):
        src = tmp_path / "frames.csv"
        src.write_text("t_ms,raw_hv,raw_shunt\n0,652,2596\n")
        cfg = tmp_path / "cfg.json"
        if isinstance(config, bytes):
            cfg.write_bytes(config)
        else:
            cfg.write_text(config)
        code, out, err = run_cli(capsys, "acq", "replay", "--in", str(src),
                                 "--config", str(cfg), *flags)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {cfg}: ")

    def test_replay_channel_flags_are_the_config_fields(self):
        def subparser(parser, name):
            actions = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            return actions.choices[name]

        replay = subparser(subparser(build_parser(), "acq"), "replay")
        flags = [(a.dest, a.type.__name__) for a in replay._actions
                 if a.dest not in ("help", "infile", "out", "config", "curve", "strict")]
        assert flags == [(f.name, f.type) for f in dataclasses.fields(ChannelConfig)]

    @pytest.mark.parametrize("curve", [False, True])
    def test_replay_light_count_out_of_range_is_a_bad_row(self, capsys, tmp_path, curve):
        # with or without --curve: the light channel keeps the count rule of hv and shunt
        src = tmp_path / "frames.csv"
        src.write_text("t_ms,raw_hv,raw_shunt,raw_ldr\n0,652,2596,100\n1,652,2596,99999\n")
        path = tmp_path / "curve.json"
        path.write_text(CURVE_JSON)
        argv = ["acq", "replay", "--in", str(src), *(["--curve", str(path)] if curve else [])]
        message = "line 3: ldr channel: count 99999 outside [0, 4095]\n"
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "warning: " + message)
        assert [line.split(",")[0] for line in out.splitlines()] == ["t_ms", "0.0"]
        assert run_cli(capsys, *argv, "--strict") == (1, "", "error: " + message)

    def test_replay_non_finite_flag_exits_1(self, capsys, tmp_path):
        src = tmp_path / "frames.csv"
        src.write_text("t_ms,raw_hv,raw_shunt\n0,652,2596\n")
        code, out, err = run_cli(capsys, "acq", "replay", "--in", str(src),
                                 "--offset-volts", "nan")
        assert code == 1
        assert out == ""
        assert err.startswith("error: offset_volts must be a finite number")

    def test_replay_reads_its_own_output(self, capsys, tmp_path):
        frames, first, second = (tmp_path / name for name in ("f.csv", "1.csv", "2.csv"))
        frames.write_text("t_ms,raw_hv,raw_shunt\n0,652,2596\n1,0,1551\n2,x,2\n")
        code, out, _ = run_cli(capsys, "acq", "replay", "--in", str(frames), "--out", str(first))
        assert (code, out) == (0, f"wrote {first} (2 samples)\n")
        code, out, err = run_cli(capsys, "acq", "replay", "--strict", "--in", str(first),
                                 "--out", str(second))
        assert (code, out, err) == (0, f"wrote {second} (2 samples)\n", "")
        assert second.read_bytes() == first.read_bytes()

    def test_replay_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "acq", "replay", "--in",
                               str(tmp_path / "nope.csv"))
        assert code == 1
        assert "error:" in err


class TestCharacterizeCommand:
    def _write_run(self, tmp_path, outlier=False):
        from conftest import POWER_COEFFS
        curve = CalibrationCurve(*POWER_COEFFS, input_kind=InputKind.PLASMA_POWER)
        rows = ["t_ms,v_volts,i_amps,lux", "0,0,0,", "1,0,0,", "2,0,0,"]
        for k in range(30):
            p = 5.0 * (40.0 / 5.0) ** (k / 29)
            i = 0.02
            lux = lux_from_input(curve, p)
            if outlier and k == 4:
                lux *= math.exp(3.0)
            rows.append(f"{3 + k},{p / i},{i},{lux}")
        path = tmp_path / "run.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_synthetic_run_recovers_coefficients(self, capsys, tmp_path):
        path = self._write_run(tmp_path)
        out_json = tmp_path / "char.json"
        code, out, _ = run_cli(capsys, "characterize", "--in", str(path),
                               "--out", str(out_json))
        assert code == 0
        data = json.loads(out)
        for key, want in zip(("a0", "a1", "a2", "a3"), POWER_COEFFS):
            assert data["curve"][key] == pytest.approx(want, abs=1e-6)
        assert out_json.exists()

    @pytest.mark.parametrize("trim", [[], ["--trim"]])
    def test_narrow_power_span_exits_1(self, capsys, tmp_path, trim):
        # 1000-1010 W at 1 A, lit from the first row
        p, lux = narrow_span(1000.0, 0.01, 2000, 0)
        path = tmp_path / "run.csv"
        path.write_text("t_ms,v_volts,i_amps,lux\n" + "".join(
            f"{k},{pk!r},1.0,{lk!r}\n" for k, (pk, lk) in enumerate(zip(p.tolist(), lux.tolist()))))
        out = tmp_path / "char.json"
        code, stdout, err = run_cli(capsys, "characterize", "--in", str(path),
                                    "--out", str(out), *trim)
        assert (code, stdout) == (1, "")
        assert err.startswith("error: fitted curve is ") and "least-squares fit" in err
        assert not out.exists()

    def test_trim_flags_single_outlier(self, capsys, tmp_path):
        path = self._write_run(tmp_path, outlier=True)
        code, out, _ = run_cli(capsys, "characterize", "--in", str(path), "--trim")
        assert code == 0
        assert json.loads(out)["trimmed_count"] == 1

    def test_plot_output(self, capsys, tmp_path):
        path = self._write_run(tmp_path)
        plot = tmp_path / "fig.svg"
        code, _, _ = run_cli(capsys, "characterize", "--in", str(path),
                             "--plot", str(plot))
        assert code == 0
        text = plot.read_text()
        assert "<circle" in text and "<polyline" in text

    @pytest.mark.parametrize("trim", [False, True])
    def test_plot_detects_ignition_once(self, capsys, tmp_path, monkeypatch, trim):
        # the plot draws the rows characterize selected, without selecting them again
        calls, detect = [], dataset.detect_ignition
        monkeypatch.setattr(dataset, "detect_ignition",
                            lambda *a, **kw: calls.append(a) or detect(*a, **kw))
        path, plot = self._write_run(tmp_path, outlier=True), tmp_path / "fig.svg"
        trim_flag = ["--trim"] if trim else []
        code, _, _ = run_cli(capsys, "characterize", "--in", str(path), "--plot", str(plot),
                             *trim_flag)
        assert (code, len(calls)) == (0, 1)
        assert plot.read_text().count("<circle") == 30

    def test_plot_shows_only_the_fitted_samples(self, capsys, tmp_path):
        # pre-ignition rows with p > 0 and lux > 0 are not plotted, nor are
        # post-ignition rows without lux or with p <= 0
        path = self._write_run(tmp_path)
        rows = path.read_text().splitlines()
        rows[1:4] = ["0,100,0.0005,2.5", "1,200,0.0004,3.5", "2,300,0.0003,4.5"]
        rows += ["33,100,0.02,", "34,0,0.02,7.0", "35,-100,0.02,7.0"]
        path.write_text("\n".join(rows) + "\n")
        plot = tmp_path / "fig.svg"
        code, _, _ = run_cli(capsys, "characterize", "--in", str(path),
                             "--plot", str(plot))
        assert code == 0
        assert plot.read_text().count("<circle") == 30

    def test_infinite_lux_reported_by_its_line(self, capsys, tmp_path):
        path = self._write_run(tmp_path)
        rows = path.read_text().splitlines()
        rows[13] = rows[13].rsplit(",", 1)[0] + ",inf"  # line 14
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "characterize", "--in", str(path))
        assert (code, out, err) == (1, "", "error: line 14: lux must be finite, got inf\n")

    def test_unknown_column_exits_1(self, capsys, tmp_path):
        # without a t_ms column, t would silently become the row index
        path = self._write_run(tmp_path)
        path.write_text(path.read_text().replace("t_ms", "time_ms", 1))
        assert run_cli(capsys, "characterize", "--in", str(path)) == (
            1, "", "error: run CSV has unknown columns ['time_ms'] "
                   "(allowed: t_ms,v_volts,i_amps,p_watts,lux)\n")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("trim", [False, True])
    def test_cal_fit_of_the_usable_rows_agrees(self, capsys, tmp_path, seed, trim):
        # a noisy run with outliers and rows without lux; cal fit of the rows
        # characterize fits prints the same curve and statistics, bit for bit
        rng = np.random.default_rng(seed)
        curve = CalibrationCurve(*POWER_COEFFS, input_kind=InputKind.PLASMA_POWER)
        rows = ["t_ms,v_volts,i_amps,lux", "0,0,0,", "1,0,0,", "2,0,0,"]
        for k in range(200):
            p, i = rng.uniform(2.0, 60.0), rng.uniform(0.01, 0.05)
            log_lux = math.log(lux_from_input(curve, p)) + rng.normal(0.0, 0.05)
            if rng.random() < 0.03:
                log_lux += rng.choice([-2.0, 2.0])
            lux = "" if rng.random() < 0.05 else repr(math.exp(log_lux))
            rows.append(f"{3 + k},{p / i!r},{i!r},{lux}")
        run_path, samples_path = tmp_path / "run.csv", tmp_path / "samples.csv"
        run_path.write_text("\n".join(rows) + "\n")
        used = characterize(load_run(str(run_path))).samples
        samples_path.write_text("input,lux\n" + "".join(
            f"{p!r},{lux!r}\n" for p, lux in zip(used.p_watts.tolist(), used.lux.tolist())))
        trim_flag = ["--trim"] if trim else []
        code, out, _ = run_cli(capsys, "characterize", "--in", str(run_path), *trim_flag)
        assert code == 0
        char = json.loads(out)
        code, out, _ = run_cli(capsys, "cal", "fit", "--kind", "power",
                               "--in", str(samples_path), *trim_flag)
        assert code == 0
        fit = json.loads(out)
        assert list(fit) == ["kind", "a0", "a1", "a2", "a3", "input_range",
                             "rmse_log", "max_abs_log", "trimmed_count"]
        assert fit == {**char["curve"], "rmse_log": char["rmse_log"],
                       "max_abs_log": char["max_abs_log"], "trimmed_count": char["trimmed_count"]}
        assert (char["trimmed_count"] > 0) == trim

    def test_missing_input_exits_1_without_artifacts(self, capsys, tmp_path):
        out_json = tmp_path / "char.json"
        code, _, err = run_cli(capsys, "characterize", "--in",
                               str(tmp_path / "missing.csv"), "--out", str(out_json))
        assert code == 1
        assert not out_json.exists()


# Samples whose fit succeeds but whose plot overflows lux between inputs 1 and 2.
OVERFLOWING_PLOT = {
    "cal fit": (["cal", "fit"], "input,lux", ["1,1", "2,1e300", "3,1e-300", "4,5", "5,1e200"]),
    "characterize": (["characterize"], "t_ms,v_volts,i_amps,lux",
                     ["0,100,0.01,1", "1,200,0.01,1e300", "2,300,0.01,1e-300",
                      "3,400,0.01,5", "4,500,0.01,1e200"]),
}


@pytest.mark.parametrize("command", sorted(OVERFLOWING_PLOT))
def test_failed_plot_leaves_the_out_file_as_it_was(capsys, tmp_path, command):
    argv, header, rows = OVERFLOWING_PLOT[command]
    src, out, plot = tmp_path / "in.csv", tmp_path / "out.json", tmp_path / "plot.svg"
    src.write_text("\n".join([header, *rows]) + "\n")
    out.write_text("old\n")
    code, stdout, err = run_cli(capsys, *argv, "--in", str(src), "--out", str(out),
                                "--plot", str(plot))
    assert (code, stdout) == (1, "")
    assert err.startswith("error: illuminance overflows at input 1.1567")
    assert out.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "out.json"]


# Inputs a CSV reader cannot read past: a byte that is not UTF-8, and a
# field longer than csv.field_size_limit() (131072 by default), in a record
# or in the header.
UNREADABLE_CSV = {
    "not_utf8": lambda header, row: (header + "\n" + row + "\n").encode() + b"\xff\n",
    "long_field": lambda header, row: (header + "\n" + row + "\n" + "1" * 140_000
                                       + "\n").encode(),
    "long_header": lambda header, row: (header + "," + "x" * 140_000 + "\n" + row
                                        + "\n").encode(),
}
UNREADABLE_COMMANDS = {
    "acq replay": (["acq", "replay"], "t_ms,raw_hv,raw_shunt", "0,652,2596"),
    "characterize": (["characterize"], "t_ms,v_volts,i_amps,lux", "0,500,0.02,100"),
    "cal fit": (["cal", "fit"], "input,lux", "2.0,3.0"),
}


class TestUnreadableInput:
    @pytest.mark.parametrize("command", sorted(UNREADABLE_COMMANDS))
    @pytest.mark.parametrize("kind", sorted(UNREADABLE_CSV))
    def test_csv_exits_1(self, capsys, tmp_path, command, kind):
        argv, header, row = UNREADABLE_COMMANDS[command]
        src = tmp_path / "in.csv"
        src.write_bytes(UNREADABLE_CSV[kind](header, row))
        code, out, err = run_cli(capsys, *argv, "--in", str(src))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
        if kind == "long_field":
            assert err.startswith("error: line 3: field larger than field limit")
        if kind == "long_header":
            assert err.startswith("error: line 1: field larger than field limit")

    @pytest.mark.parametrize("argv", [["characterize"], ["acq", "replay", "--strict"],
                                      ["cal", "fit"]])
    def test_strict_read_reports_the_first_bad_line(self, capsys, tmp_path, argv):
        # a bad cell on line 3 comes before a field the reader cannot read on line 5
        header, row = {"characterize": ("t_ms,v_volts,i_amps,lux", "0,500,0.02,100"),
                       "acq": ("t_ms,raw_hv,raw_shunt", "0,652,2596"),
                       "cal": ("input,lux", "2.0,3.0")}[argv[0]]
        bad = "x" + row[row.index(","):]
        src = tmp_path / "in.csv"
        src.write_text(f"{header}\n{row}\n{bad}\n{row}\n{'1' * 140_000}\n")
        code, out, err = run_cli(capsys, *argv, "--in", str(src))
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 3: ") and "field limit" not in err

    def test_lenient_replay_fails_on_the_unreadable_line(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text(f"t_ms,raw_hv,raw_shunt\n0,652,2596\nx,652,2596\n0,652,2596\n"
                       f"{'1' * 140_000}\n")
        code, out, err = run_cli(capsys, "acq", "replay", "--in", str(src))
        assert code == 1
        assert out == ""
        assert err == "error: line 5: field larger than field limit (131072)\n"

    def test_lenient_replay_still_exits_1(self, capsys, tmp_path):
        # replay skips malformed rows, but not what the reader cannot read
        src = tmp_path / "in.csv"
        src.write_bytes(b"t_ms,raw_hv,raw_shunt\n0,652,2596\nx,1,1\n\xff\n")
        code, out, err = run_cli(capsys, "acq", "replay", "--in", str(src))
        assert code == 1
        assert err.startswith("error: input is not UTF-8 text")

    @pytest.mark.parametrize("argv", [["cal", "eval", "--input", "1"],
                                      ["cal", "invert", "--lux", "10"]])
    def test_curve_not_utf8_exits_1(self, capsys, tmp_path, argv):
        path = tmp_path / "curve.json"
        path.write_bytes(b'{"kind": "voltage\xff", "a0": 1, "a1": 1, "a2": 0, "a3": 0}')
        code, out, err = run_cli(capsys, *argv, "--curve", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "not valid JSON" in err

    def test_replay_curve_not_utf8_exits_1(self, capsys, tmp_path):
        src = tmp_path / "frames.csv"
        src.write_text("t_ms,raw_hv,raw_shunt,raw_ldr\n0,652,2596,100\n")
        path = tmp_path / "curve.json"
        path.write_bytes(b'{"kind": "voltage\xff", "a0": 1, "a1": 1, "a2": 0, "a3": 0}')
        code, out, err = run_cli(capsys, "acq", "replay", "--in", str(src),
                                 "--curve", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "not valid JSON" in err

    @pytest.mark.parametrize("rng", ["[1]", "[1, 2, 3]", '["a", "b"]', "[]", "[2, 1]",
                                     "[0, 1]", "[1, Infinity]", "[NaN, 1]", "[true, 2]",
                                     '"12"', "5"])
    def test_curve_bad_input_range_exits_1(self, capsys, tmp_path, rng):
        path = tmp_path / "curve.json"
        path.write_text('{"kind": "voltage", "a0": 1, "a1": 1, "a2": 0, "a3": 0, '
                        f'"input_range": {rng}}}')
        code, out, err = run_cli(capsys, "cal", "eval", "--curve", str(path), "--input", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: bad calibration curve object: input_range")


    @pytest.mark.parametrize("coeffs", [
        '"a0": true, "a1": 1.96, "a2": 2.1, "a3": 2.1',
        '"a0": 2.5, "a1": "1.96", "a2": 2.1, "a3": 2.1',
        '"a0": 2.5, "a1": 1.96, "a2": null, "a3": 2.1',
        '"a0": 2.5, "a1": 1.96, "a2": 2.1, "a3": [2.1]',
        '"a0": 2.5, "a1": NaN, "a2": 2.1, "a3": 2.1',
        '"a0": 2.5, "a1": 1.96, "a2": 1e400, "a3": 2.1'])
    @pytest.mark.parametrize("command", ["cal eval", "acq replay"])
    def test_curve_wrongly_typed_coefficient_exits_1(self, capsys, tmp_path, coeffs, command):
        path = tmp_path / "curve.json"
        path.write_text(f'{{"kind": "voltage", {coeffs}}}')
        src = tmp_path / "frames.csv"
        src.write_text("t_ms,raw_hv,raw_shunt,raw_ldr\n0,652,2596,100\n")
        argv = (["cal", "eval", "--input", "1.0"] if command == "cal eval"
                else ["acq", "replay", "--in", str(src)])
        code, out, err = run_cli(capsys, *argv, "--curve", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: bad calibration curve object: coefficient a")
        assert "must be a finite number" in err


SAMPLES_CSV = "input,lux\n" + "".join(
    f"{x},{lux_from_input(CalibrationCurve(*VOLTAGE_COEFFS), x)}\n" for x in (0.5, 1, 2, 4, 8))
CURVE_JSON = json.dumps(dict(zip(("a0", "a1", "a2", "a3"), VOLTAGE_COEFFS), kind="voltage"))
# command -> (argv with {} for the input path, input suffix, input text)
BOM_INPUTS = {
    "acq replay": (["acq", "replay", "--in", "{}"], ".csv",
                   "t_ms,raw_hv,raw_shunt\n0,652,2596\n1,700,2600\n"),
    "acq replay --config": (["acq", "replay", "--in", "frames.csv", "--config", "{}"], ".json",
                            '{"shunt_ohms": 46.0}'),
    "characterize": (["characterize", "--in", "{}", "--trim"], ".csv", None),
    "cal fit": (["cal", "fit", "--in", "{}"], ".csv", SAMPLES_CSV),
    "cal eval --curve": (["cal", "eval", "--curve", "{}", "--input", "1.0"], ".json", CURVE_JSON),
}


class TestByteOrderMark:
    """A file saved as "CSV UTF-8" by a spreadsheet starts with a UTF-8 byte
    order mark; it reads as the same file without one."""

    @pytest.mark.parametrize("command", sorted(BOM_INPUTS))
    def test_bom_input_reads_as_without_it(self, capsys, tmp_path, monkeypatch, command):
        argv, suffix, text = BOM_INPUTS[command]
        if text is None:  # a run with v_volts first, so that the mark would hide it
            rows = TestCharacterizeCommand()._write_run(tmp_path, outlier=True).read_text()
            text = "".join(f"{v},{i},{t},{lux}\n" for t, v, i, lux in
                           (line.split(",") for line in rows.splitlines()))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "frames.csv").write_text(BOM_INPUTS["acq replay"][2])
        results = []
        for name, prefix in (("plain", b""), ("bom", codecs.BOM_UTF8)):
            (tmp_path / (name + suffix)).write_bytes(prefix + text.encode())
            results.append(run_cli(capsys, *(a.format(name + suffix) for a in argv)))
        assert results[0][0] == 0 and results[0][2] == ""
        assert results[1] == results[0]

    @pytest.mark.parametrize("data, argv, want", [
        (b"\xffa,b\n", ["cal", "fit", "--in", "in"],
         "error: input is not UTF-8 text: cannot decode b'\\xff'\n"),
        (b"\xef\xbbx,b\n", ["cal", "fit", "--in", "in"],
         "error: input is not UTF-8 text: cannot decode b'\\xef\\xbb'\n"),
        (b"\xef\xbb{}", ["cal", "eval", "--curve", "in", "--input", "1"],
         "error: in: not valid JSON: 'utf-8' codec can't decode bytes in position 0-1: "
         "invalid continuation byte\n")])
    def test_non_utf8_start_keeps_its_error(self, capsys, tmp_path, monkeypatch, data, argv, want):
        # Bytes that only begin like a byte order mark are not one.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in").write_bytes(data)
        assert run_cli(capsys, *argv) == (1, "", want)


class TestDeterminism:
    def test_svg_byte_stable(self, capsys, tmp_path):
        args = ["probe", "bode", "--n", "5", "--r1", "10e6", "--c1", "15e-12",
                "--r0", "52.8e3", "--c0", "3e-9", "--points", "30"]
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli(capsys, *args, "--out", str(a))
        run_cli(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

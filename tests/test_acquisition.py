import io
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasmakit import (
    CalibrationCurve,
    ChannelConfig,
    DomainError,
    InputKind,
    PreconditionError,
    RowError,
    Samples,
    SchemaError,
    counts_to_volts,
    detect_ignition,
    instantaneous_power,
    load_run,
    lux_from_input,
    needle_voltage,
    replay_stream,
    shunt_current,
)
from plasmakit.acquisition import IGNITION_SUSTAIN, write_samples_csv

from conftest import VOLTAGE_COEFFS

CFG = ChannelConfig()  # 23 ohm shunt, 1.25 V offset, 12-bit, 3.3 V


class TestChannelConfig:
    def test_defaults(self):
        assert CFG.probe_ratio == pytest.approx(1.054886e-3)
        assert CFG.shunt_ohms == 23.0
        assert CFG.offset_volts == 1.25
        assert CFG.adc_bits == 12
        assert CFG.adc_fullscale_volts == 3.3
        assert CFG.max_count == 4095

    def test_invariants(self):
        with pytest.raises(DomainError):
            ChannelConfig(probe_ratio=1.5)
        with pytest.raises(DomainError):
            ChannelConfig(shunt_ohms=0.0)
        with pytest.raises(DomainError):
            ChannelConfig(adc_bits=6)
        with pytest.raises(DomainError):
            ChannelConfig(adc_fullscale_volts=-3.3)

    @pytest.mark.parametrize("name", ["probe_ratio", "shunt_ohms", "offset_volts",
                                      "adc_bits", "adc_fullscale_volts"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                       "1.0", None, True, 10**400],
                             ids=["nan", "inf", "-inf", "str", "None", "bool", "huge-int"])
    def test_non_finite_and_non_numeric_rejected(self, name, value):
        with pytest.raises(DomainError, match=name):
            ChannelConfig(**{name: value})

    def test_fractional_adc_bits_rejected(self):
        with pytest.raises(DomainError, match="adc_bits"):
            ChannelConfig(adc_bits=12.0)

    def test_overflowing_full_scale_rejected(self):
        # every field is finite, but full-scale v = 1e300 / 1e-10 is not
        with pytest.raises(DomainError, match="overflows"):
            ChannelConfig(adc_fullscale_volts=1e300, probe_ratio=1e-10)


class TestCountsToVolts:
    def test_endpoints(self):
        assert counts_to_volts(CFG, 0) == 0.0
        assert counts_to_volts(CFG, 4095) == 3.3

    def test_midscale(self):
        assert counts_to_volts(CFG, 2048) == pytest.approx(1.6504029304029304,
                                                           rel=1e-15)

    def test_strictly_increasing(self):
        volts = [counts_to_volts(CFG, raw) for raw in range(0, 4096, 17)]
        assert all(a < b for a, b in zip(volts, volts[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            counts_to_volts(CFG, -1)
        with pytest.raises(DomainError):
            counts_to_volts(CFG, 4096)


class TestScaling:
    def test_needle_voltage_reference_reading(self):
        assert needle_voltage(CFG, 0.5253) == pytest.approx(0.5253 / 1.054886e-3,
                                                            rel=1e-12)
        assert needle_voltage(CFG, 0.5253) == pytest.approx(498.0, rel=1e-3)

    def test_needle_voltage_trivial(self):
        cfg = ChannelConfig(probe_ratio=0.5)
        assert needle_voltage(cfg, 1.0) == 2.0
        assert needle_voltage(cfg, 0.0) == 0.0

    def test_shunt_current_reference_reading(self):
        assert shunt_current(CFG, 2.127) == pytest.approx(0.877 / 23.0, rel=1e-12)

    def test_shunt_current_at_offset_is_zero(self):
        assert shunt_current(CFG, 1.25) == 0.0

    def test_shunt_current_negative_limit(self):
        assert shunt_current(CFG, 0.0) == pytest.approx(-1.25 / 23.0, rel=1e-12)
        assert shunt_current(CFG, 0.0) == pytest.approx(-0.054348, abs=1e-6)

    @given(st.floats(min_value=-1.25, max_value=2.0))
    @settings(max_examples=200)
    def test_offset_round_trip(self, v_s):
        recovered = shunt_current(CFG, v_s + CFG.offset_volts) * CFG.shunt_ohms
        assert recovered == pytest.approx(v_s, rel=1e-12, abs=1e-12)


# (v, i) pairs whose product is not finite or underflows
BAD_POWER = [(math.nan, 1.0), (1.0, -math.inf), (1e308, 10.0), (1e-200, 1e-200), (5e-324, 0.5)]


class TestInstantaneousPower:
    def test_arduino_reading(self):
        assert instantaneous_power(498.0, 0.0366) == pytest.approx(18.227, abs=5e-4)

    def test_industrial_reading(self):
        assert instantaneous_power(479.0, 0.877 / 23.0) == pytest.approx(18.264, abs=5e-4)

    def test_cross_check_under_two_percent(self):
        p1 = instantaneous_power(498.0, 0.0366)
        p2 = instantaneous_power(479.0, 0.877 / 23.0)
        assert abs(p1 - p2) / p2 < 0.02
        assert abs(p1 - p2) / p2 == pytest.approx(0.00206, abs=2e-4)

    def test_zero_and_sign(self):
        assert instantaneous_power(0.0, 123.0) == 0.0
        assert instantaneous_power(-2.0, 3.0) == -6.0
        assert instantaneous_power(-2.0, -3.0) == 6.0

    @pytest.mark.parametrize("v, i", BAD_POWER)
    def test_power_over_or_underflow_rejected(self, v, i):
        with pytest.raises(DomainError):
            instantaneous_power(v, i)

    @pytest.mark.parametrize("v, i", BAD_POWER + [(0.0, 1e-200), (5e-324, 0.0), (-2.0, 3.0),
                                                  (1e-150, 1e-150)])
    def test_replay_rejects_what_instantaneous_power_rejects(self, v, i):
        diagnostics = []
        samples = replay_stream(io.StringIO(f"t_ms,v_volts,i_amps\n0,{v!r},{i!r}\n"),
                                diagnostics=diagnostics)
        try:
            p = instantaneous_power(v, i)
        except DomainError as exc:
            assert len(samples) == 0
            assert [str(e) for e in diagnostics] == [f"line 2: bad engineering row: {exc}"]
        else:
            assert samples.p_watts.tolist() == [p] and diagnostics == []


class TestSamples:
    # t, v, i and lux of three rows; the second and third carry no lux
    COLUMNS = ([0.0, 1.0, 2.0], [2.0, -0.0, 1.5], [3.0, 4.0, 2.0],
               [5.0, math.nan, math.nan])

    def test_columns_and_rows(self):
        s = Samples(*self.COLUMNS)
        assert s.p_watts.tolist() == [6.0, -0.0, 3.0]
        assert np.isnan(s.lux).tolist() == [False, True, True]
        assert len(s) == 3 and math.isnan(s.lux[1]) and math.isnan(s.lux[2])
        head, lit = s[:2], s[~np.isnan(s.lux)]
        assert isinstance(head, Samples) and isinstance(lit, Samples)
        assert head.t_ms.tolist() == [0.0, 1.0] and head.p_watts.tolist() == [6.0, -0.0]
        assert np.isnan(head.lux).tolist() == [False, True]
        assert lit.t_ms.tolist() == [0.0] and lit.lux[0] == 5.0
        assert not len(Samples(*[()] * 4))
        with pytest.raises(TypeError, match="not iterable"):
            iter(s)

    @pytest.mark.parametrize("index", [0, -1, np.int64(1)])
    def test_integer_index_rejected(self, index):
        with pytest.raises(TypeError, match="^Samples selects rows by slice or mask, "
                                            "not by integer index$"):
            Samples(*self.COLUMNS)[index]

    def test_read_only(self):
        s = Samples(*self.COLUMNS)
        with pytest.raises(ValueError):
            s.t_ms[0] = 5.0

    def test_columns_must_align(self):
        with pytest.raises(DomainError):
            Samples([0.0, 1.0], [1.0], [1.0, 2.0], [0.0, 0.0])


def replay_frames(*frames, cfg=CFG, curve=None):
    """Samples of a raw CSV with one row per (t_ms, raw_hv, raw_shunt[, raw_ldr])
    frame; the raw_ldr column is present when the first frame has a fourth count."""
    header = ["t_ms", "raw_hv", "raw_shunt", "raw_ldr"][:len(frames[0])]
    text = "\n".join([",".join(header)] + [",".join(map(str, f)) for f in frames]) + "\n"
    return replay_stream(io.StringIO(text), cfg, curve, strict=True)


class TestProcessFrame:
    """One raw frame through replay_stream: the per-frame conversion chain."""

    def test_zero_current_frame(self):
        raw_shunt = round(1.25 * 4095 / 3.3)
        cfg = ChannelConfig(offset_volts=counts_to_volts(CFG, raw_shunt))
        s = replay_frames((0, 100, raw_shunt), cfg=cfg)
        assert s.i_amps.tolist() == [0.0]
        assert s.p_watts.tolist() == [0.0]

    def test_matches_explicit_chain_on_random_frames(self):
        rng = random.Random(99)
        curve = CalibrationCurve(*VOLTAGE_COEFFS)
        frames = [(rng.uniform(0, 1e5), rng.randint(0, 4095), rng.randint(0, 4095),
                   rng.randint(1, 4095)) for _ in range(1000)]
        got = replay_frames(*frames, curve=curve)
        assert len(got) == len(frames)
        for k, (t, hv, shunt, ldr) in enumerate(frames):
            v = needle_voltage(CFG, counts_to_volts(CFG, hv))
            i = shunt_current(CFG, counts_to_volts(CFG, shunt))
            assert got.t_ms[k] == t
            assert got.v_volts[k] == v
            assert got.i_amps[k] == i
            assert got.p_watts[k] == v * i
            assert got.lux[k] == lux_from_input(curve, counts_to_volts(CFG, ldr))

    def test_reproduces_reference_snapshot(self):
        # counts quantized from the 498 V / 36.6 mA reading
        s = replay_frames((0, 652, 2596))
        assert len(s) == 1
        assert s.p_watts[0] == pytest.approx(18.227, rel=5e-3)

    def test_lux_requires_curve_and_channel(self):
        curve = CalibrationCurve(*VOLTAGE_COEFFS)
        assert np.isnan(replay_frames((0, 100, 2000)).lux).tolist() == [True]
        assert np.isnan(replay_frames((0, 100, 2000), curve=curve).lux).tolist() == [True]
        assert np.isnan(replay_frames((0, 100, 2000, ""), curve=curve).lux).tolist() == [True]
        assert np.isnan(replay_frames((0, 100, 2000, 1241)).lux).tolist() == [True]
        assert np.isnan(replay_frames((0, 100, 2000, 1241), curve=curve).lux).tolist() == [False]

    def test_dark_light_channel_reads_zero_lux(self):
        curve = CalibrationCurve(*VOLTAGE_COEFFS)
        s = replay_frames((0, 100, 2000, 0), curve=curve)
        assert s.lux.tolist() == [0.0]

    def test_power_kind_curve_rejected(self):
        curve = CalibrationCurve(*VOLTAGE_COEFFS, input_kind=InputKind.PLASMA_POWER)
        with pytest.raises(PreconditionError):
            replay_frames((0, 1, 1, 1), curve=curve)

    def test_channel_identified_in_errors(self):
        with pytest.raises(RowError, match="line 2: hv channel: count 9999 outside"):
            replay_frames((0, 9999, 0))
        with pytest.raises(RowError, match="line 2: shunt channel: count 9999 outside"):
            replay_frames((0, 0, 9999))
        with pytest.raises(RowError, match="line 2: ldr channel: count -1 outside"):
            replay_frames((0, 0, 0, -1), curve=CalibrationCurve(*VOLTAGE_COEFFS))


class TestReplayStream:
    def test_empty_source(self):
        for text in ("", "t_ms,raw_hv,raw_shunt\n"):
            samples = replay_stream(io.StringIO(text))
            assert isinstance(samples, Samples) and len(samples) == 0

    def test_raw_mode(self):
        text = "t_ms,raw_hv,raw_shunt\n0,652,2596\n10,652,2596\n"
        samples = replay_stream(io.StringIO(text))
        assert len(samples) == 2
        assert samples.p_watts[0] == pytest.approx(18.23, abs=0.05)

    def test_engineering_mode(self):
        text = "t_ms,v_volts,i_amps,lux\n0,498,0.0366,150\n5,479,0.03813,140\n"
        samples = replay_stream(io.StringIO(text))
        assert len(samples) == 2
        assert samples.lux[0] == 150.0
        assert samples.p_watts[0] == pytest.approx(18.2268)

    def test_lenient_mode_reports_and_continues(self):
        text = ("t_ms,raw_hv,raw_shunt\n"
                "0,100,2000\n1,not_a_number,2000\n2,100,2000\n3,100,2000\n")
        diagnostics = []
        samples = replay_stream(io.StringIO(text), diagnostics=diagnostics)
        assert len(samples) == 3
        assert len(diagnostics) == 1
        assert diagnostics[0].line_number == 3

    def test_strict_mode_aborts(self):
        text = "t_ms,raw_hv,raw_shunt\n0,100,2000\n1,bad,2000\n"
        from plasmakit import RowError
        with pytest.raises(RowError, match="line 3"):
            replay_stream(io.StringIO(text), strict=True)

    def test_line_numbers_are_physical(self):
        # a blank line is not a record, and a quoted newline spans two lines
        text = 't_ms,raw_hv,raw_shunt\n0,1,2\n\n1,bad,2\n"2\nx",3,4\n3,5,x\n'
        diagnostics = []
        samples = replay_stream(io.StringIO(text), diagnostics=diagnostics)
        assert len(samples) == 1
        assert [e.line_number for e in diagnostics] == [4, 6, 7]
        from plasmakit import RowError
        with pytest.raises(RowError, match="line 4"):
            replay_stream(io.StringIO(text), strict=True)

    def test_unknown_header_rejected(self):
        with pytest.raises(SchemaError):
            replay_stream(io.StringIO("time,volts\n1,2\n"))

    @pytest.mark.parametrize("t, v, i, message", [
        (math.nan, math.inf, 1.0, "t_ms must be finite, got nan"),
        (0.0, -math.inf, math.nan, "v_volts must be finite, got -inf"),
        (0.0, 1.0, math.inf, "i_amps must be finite, got inf"),
        (0.0, 1e308, 10.0, "p_watts must be finite, got inf"),
    ])
    def test_non_finite_rejected_in_order(self, t, v, i, message):
        # a row's first non-finite value of t, v, i and p = v*i is the one reported
        text = f"t_ms,v_volts,i_amps\n0,1,2\n{t!r},{v!r},{i!r}\n"
        with pytest.raises(RowError, match=f"^line 3: bad engineering row: {message}$"):
            replay_stream(io.StringIO(text), strict=True)
        with pytest.raises(RowError, match=f"^line 3: {message}$"):
            load_run(io.StringIO(text))

    def test_order_preserved(self):
        rows = "".join(f"{t},100,2000\n" for t in range(50))
        samples = replay_stream(io.StringIO("t_ms,raw_hv,raw_shunt\n" + rows))
        assert samples.t_ms.tolist() == [float(t) for t in range(50)]


class TestDetectIgnition:
    def _trace(self, currents):
        n = len(currents)
        return Samples(range(n), [100.0] * n, currents, [math.nan] * n)

    def test_all_zero_returns_none(self):
        assert detect_ignition(self._trace([0.0] * 10), 1e-3) is None

    def test_step_trace(self):
        samples = self._trace([0.0, 0.0, 5e-3, 5e-3, 5e-3])
        assert detect_ignition(samples, 1e-3) == 2.0

    def test_sustain_requirement(self):
        # two-sample blips never qualify: ignition needs 3 samples in a row
        assert IGNITION_SUSTAIN == 3
        samples = self._trace([0.0, 5e-3, 5e-3, 0.0, 5e-3, 5e-3, 0.0])
        assert detect_ignition(samples, 1e-3) is None

    def test_ramp_matches_brute_force_scan(self):
        currents = [1e-4 * t for t in range(40)]
        samples = self._trace(currents)
        got = detect_ignition(samples, 1e-3)
        # oracle: scan every index for a qualifying run
        want = None
        for k in range(len(currents) - 2):
            if all(abs(c) >= 1e-3 for c in currents[k:k + 3]):
                want = samples.t_ms[k]
                break
        assert got == want

    def test_negative_current_counts(self):
        samples = self._trace([0.0, -5e-3, -5e-3, -5e-3])
        assert detect_ignition(samples, 1e-3) == 1.0

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            detect_ignition(self._trace([]), 0.0)


class TestSamplesCsv:
    def test_round_trip_layout(self):
        samples = Samples([0.0, 1.0], [498.0, 479.0], [0.0366, 0.877 / 23.0],
                          [150.0, math.nan])
        buf = io.StringIO()
        write_samples_csv(samples, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t_ms,v_volts,i_amps,p_watts,lux"
        assert len(lines) == 3
        assert lines[2].endswith(",")  # missing lux stays empty

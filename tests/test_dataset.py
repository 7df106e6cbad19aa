import io
import json
import math

import numpy as np
import pytest

from plasmakit import (
    Characterization,
    DomainError,
    ExperimentRun,
    FitError,
    InputKind,
    Samples,
    SchemaError,
    characterize,
    load_characterization,
    load_run,
    lux_from_input,
    save_characterization,
)
from plasmakit import files
from plasmakit.acquisition import write_samples_csv
from plasmakit.calibration import CalibrationCurve
from plasmakit.errors import RowError

from conftest import POWER_COEFFS


def synthetic_run(curve=None, n=40, p_lo=5.0, p_hi=40.0, pre_ignition=3,
                  lux_noise=None):
    """Run whose post-ignition samples lie exactly on a power curve."""
    curve = curve or CalibrationCurve(*POWER_COEFFS, input_kind=InputKind.PLASMA_POWER)
    # pre-ignition samples carry no current, voltage or lux
    v, i, lux = [0.0] * pre_ignition, [0.0] * pre_ignition, [math.nan] * pre_ignition
    for k in range(n):
        p = p_lo * (p_hi / p_lo) ** (k / (n - 1))
        i.append(0.02 + 0.0005 * k)  # well above the 1 mA ignition threshold
        v.append(p / i[-1])
        lux.append(lux_from_input(curve, p))
        if lux_noise:
            lux[-1] *= math.exp(lux_noise(k))
    return ExperimentRun(samples=Samples(range(pre_ignition + n), v, i, lux))


class TestRunTypes:
    def test_timestamps_must_be_nondecreasing(self):
        def run(*t):
            n = len(t)
            return ExperimentRun(samples=Samples(t, [1.0] * n, [1.0] * n, [math.nan] * n))
        run(0.0, 0.0)
        with pytest.raises(DomainError):
            run(1.0, 0.0)

    def test_characterization_invariants(self):
        curve = CalibrationCurve(*POWER_COEFFS, input_kind=InputKind.PLASMA_POWER)
        with pytest.raises(DomainError):
            Characterization(curve, 0.0, 0.0, (5.0, 1.0), 0)
        with pytest.raises(DomainError):
            Characterization(curve, 0.0, 0.0, (1.0, 5.0), -1)


class TestLoadRun:
    def test_engineering_csv(self):
        text = "t_ms,v_volts,i_amps,lux\n0,498,0.0366,150\n5,479,0.0381,140\n"
        run = load_run(io.StringIO(text))
        assert len(run.samples) == 2
        assert run.samples.p_watts[0] == pytest.approx(18.2268)

    def test_output_layout_with_p_column(self):
        text = "t_ms,v_volts,i_amps,p_watts,lux\n0,10,2,20,5\n"
        run = load_run(io.StringIO(text))
        assert run.samples.p_watts.tolist() == [20.0]

    def test_missing_mandatory_columns(self):
        with pytest.raises(SchemaError):
            load_run(io.StringIO("t_ms,lux\n0,5\n"))

    def test_strict_row_error_carries_line_number(self):
        text = "t_ms,v_volts,i_amps\n0,1,1\n1,oops,1\n"
        with pytest.raises(RowError, match="line 3"):
            load_run(io.StringIO(text))

    def test_line_numbers_are_physical(self):
        text = "t_ms,v_volts,i_amps\n0,1,1\n\n1,oops,1\n"
        with pytest.raises(RowError) as exc:
            load_run(io.StringIO(text))
        assert exc.value.line_number == 4

    def test_save_then_reload_idempotent(self, tmp_path):
        def save(run, path):
            with files.atomic_write(path) as fh:
                write_samples_csv(run.samples, fh)

        run = synthetic_run(n=10)
        path = tmp_path / "run.csv"
        save(run, path)
        again = load_run(str(path))
        for name in ("t_ms", "v_volts", "i_amps", "p_watts", "lux"):
            np.testing.assert_array_equal(getattr(again.samples, name),
                                          getattr(run.samples, name), err_msg=name)
        save(again, tmp_path / "run2.csv")
        assert (tmp_path / "run2.csv").read_text() == path.read_text()


class TestCharacterize:
    def test_recovers_generating_coefficients(self):
        run = synthetic_run()
        char = characterize(run)
        for got, want in zip(char.curve.coefficients, POWER_COEFFS):
            assert got == pytest.approx(want, abs=1e-6)
        assert char.curve.input_kind is InputKind.PLASMA_POWER
        assert char.trimmed_count == 0
        assert char.rmse_log == pytest.approx(0.0, abs=1e-9)

    def test_input_range_brackets_samples(self):
        char = characterize(synthetic_run(p_lo=5.0, p_hi=40.0))
        lo, hi = char.input_range
        assert lo == pytest.approx(5.0, rel=1e-9)
        assert hi == pytest.approx(40.0, rel=1e-9)

    def test_pre_ignition_samples_dropped(self):
        run = synthetic_run(pre_ignition=6)
        # pre-ignition rows have zero current, so the fit never sees them
        char = characterize(run)
        assert char.input_range[0] > 0.0

    def test_deterministic(self):
        run = synthetic_run(lux_noise=lambda k: 0.01 * math.sin(k))
        a = characterize(run, trim=True)
        b = characterize(run, trim=True)
        assert a == b

    def test_trim_removes_injected_outlier(self):
        def noise(k):
            return 2.5 if k == 7 else 0.002 * math.sin(k)
        run = synthetic_run(n=40, lux_noise=noise)
        char = characterize(run, trim=True)
        assert char.trimmed_count == 1

    def test_trim_guard_on_degenerate_trace(self):
        # alternating wild noise: the 3-sigma pass would cut > 20%, so the
        # untrimmed fit must be kept
        def noise(k):
            return 3.0 if k % 2 else -3.0
        run = synthetic_run(n=20, lux_noise=noise)
        char = characterize(run, trim=True)
        assert char.trimmed_count == 0

    def test_all_zero_lux_fails(self):
        samples = Samples(range(10), [100.0] * 10, [0.02] * 10, [math.nan] * 10)
        with pytest.raises(FitError):
            characterize(ExperimentRun(samples=samples))

    def test_never_ignited_fails(self):
        run = synthetic_run()
        with pytest.raises(FitError):
            characterize(run, ignition_i_min=1e3)


class TestCharacterizationIO:
    def _char(self):
        return characterize(synthetic_run())

    def test_round_trip_lossless(self, tmp_path):
        char = self._char()
        path = tmp_path / "char.json"
        save_characterization(char, path)
        again = load_characterization(path)
        assert again == char

    def test_round_trip_preserves_evaluation(self, tmp_path):
        char = self._char()
        path = tmp_path / "char.json"
        save_characterization(char, path)
        again = load_characterization(path)
        assert lux_from_input(again.curve, 10.0) == lux_from_input(char.curve, 10.0)

    def test_missing_coefficient_rejected(self, tmp_path):
        char = self._char()
        path = tmp_path / "char.json"
        save_characterization(char, path)
        data = json.loads(path.read_text())
        del data["curve"]["a3"]
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError):
            load_characterization(path)

    @pytest.mark.parametrize("key, value", [
        ("input_range", "12"), ("input_range", [1, math.inf]), ("input_range", [True, 2]),
        ("rmse_log", math.nan), ("rmse_log", "0.1"), ("max_abs_log", -0.5),
        ("max_abs_log", 10 ** 400), ("trimmed_count", 1.7), ("trimmed_count", True),
        ("trimmed_count", -1),
    ])
    def test_bad_field_rejected(self, tmp_path, key, value):
        path = tmp_path / "char.json"
        save_characterization(self._char(), path)
        data = json.loads(path.read_text())
        data[key] = value
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match=f"bad characterization object: {key}"):
            load_characterization(path)

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "char.json"
        target.mkdir()  # the final rename onto a directory fails
        with pytest.raises(OSError):
            save_characterization(self._char(), target)
        assert [p.name for p in tmp_path.iterdir()] == ["char.json"]

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "char.json"
        save_characterization(self._char(), path)
        path.write_bytes(path.read_bytes().replace(b'"power"', b'"power\xff"'))
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_characterization(path)

    def test_full_precision_serialization(self, tmp_path):
        char = self._char()
        path = tmp_path / "char.json"
        save_characterization(char, path)
        data = json.loads(path.read_text())
        assert data["curve"]["a0"] == char.curve.a0  # bit-exact via repr floats

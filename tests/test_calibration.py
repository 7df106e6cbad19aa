import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plasmakit import (
    CalibrationCurve,
    DomainError,
    FitError,
    InputKind,
    PreconditionError,
    SchemaError,
    eval_log_poly,
    fit_log_cubic,
    fit_residuals,
    input_from_lux,
    is_monotone,
    lux_from_input,
    monotone_direction,
)
from plasmakit.calibration import (
    curve_from_dict,
    curve_to_dict,
    load_curve,
    read_samples_csv,
    save_curve,
    trim_refit,
)

from conftest import POWER_COEFFS, VOLTAGE_COEFFS


def naive_poly(curve, x):
    # oracle: explicit power-sum evaluation
    return curve.a3 * x ** 3 + curve.a2 * x ** 2 + curve.a1 * x + curve.a0


class TestEvalLogPoly:
    def test_at_zero_returns_a0(self, voltage_curve):
        assert eval_log_poly(voltage_curve, 0.0) == 2.533317

    def test_at_one_returns_coefficient_sum(self, voltage_curve):
        assert eval_log_poly(voltage_curve, 1.0) == pytest.approx(8.713598, abs=1e-12)

    def test_zero_curve(self):
        curve = CalibrationCurve(0, 0, 0, 0)
        for x in (-3.0, 0.0, 7.5):
            assert eval_log_poly(curve, x) == 0.0

    @given(st.floats(min_value=-50, max_value=50))
    @settings(max_examples=200)
    def test_horner_matches_power_sum(self, x):
        curve = CalibrationCurve(*POWER_COEFFS)
        got = eval_log_poly(curve, x)
        want = naive_poly(curve, x)
        assert got == pytest.approx(want, rel=1e-14, abs=1e-14)


class TestForwardEvaluation:
    def test_worked_example_one_volt(self, voltage_curve):
        assert lux_from_input(voltage_curve, 1.0) == pytest.approx(12.5952, abs=5e-4)

    def test_power_curve_at_one_watt(self, power_curve):
        # extrapolates below the ignition region: exp(a0)
        assert lux_from_input(power_curve, 1.0) == pytest.approx(math.exp(-11.413655),
                                                                 rel=1e-12)

    def test_input_one_gives_exp_a0(self):
        curve = CalibrationCurve(1.5, -2.0, 0.3, 0.7)
        assert lux_from_input(curve, 1.0) == pytest.approx(math.exp(1.5), rel=1e-15)

    def test_nonpositive_input_rejected(self, voltage_curve):
        with pytest.raises(DomainError):
            lux_from_input(voltage_curve, 0.0)
        with pytest.raises(DomainError):
            lux_from_input(voltage_curve, -1.0)

    @pytest.mark.parametrize("coeffs, x", [
        ((1e308, 1e308, 0.0, 0.0), 10.0),      # ln lux = inf: exp() returns inf, no error
        ((0.0, 0.0, 0.0, 1e308), 1e308),       # Horner's a3*u overflows to inf
        ((700.0, 10.0, 0.0, 0.0), 10.0),       # exp() raises OverflowError
    ])
    def test_overflow_rejected(self, coeffs, x):
        with pytest.raises(DomainError, match="illuminance overflows"):
            lux_from_input(CalibrationCurve(*coeffs), x)

    @pytest.mark.parametrize("a0", [-800.0, -720.0])  # exp() gives 0.0, a subnormal
    def test_underflow_rejected(self, a0):
        with pytest.raises(DomainError, match="illuminance underflows"):
            lux_from_input(CalibrationCurve(a0, 0.0, 0.0, 1e-9), 1.0)


class TestMonotonicity:
    def test_both_published_curves_monotone_increasing(self, voltage_curve, power_curve):
        # discriminants 4*a2^2 - 12*a3*a1 are negative for both coefficient sets
        for curve in (voltage_curve, power_curve):
            a0, a1, a2, a3 = curve.coefficients
            assert 4 * a2 * a2 - 12 * a3 * a1 < 0
            assert monotone_direction(curve) == 1
            assert is_monotone(curve)

    def test_decreasing_linear_curve(self):
        curve = CalibrationCurve(0.0, -1.0, 0.0, 0.0)
        assert monotone_direction(curve) == -1
        assert is_monotone(curve)

    def test_quadratic_log_curve_not_monotone(self):
        assert not is_monotone(CalibrationCurve(0.0, 0.0, 1.0, 0.0))

    def test_cubic_with_turning_points_not_monotone(self):
        assert not is_monotone(CalibrationCurve(0.0, -1.0, 0.0, 1.0))

    def test_constant_curve_not_monotone(self):
        assert not is_monotone(CalibrationCurve(2.0, 0.0, 0.0, 0.0))


class TestInversion:
    def test_round_trip_power_curve(self, power_curve):
        lux = lux_from_input(power_curve, 2.0)
        assert input_from_lux(power_curve, lux) == pytest.approx(2.0, rel=1e-9)

    def test_worked_example_inverse(self, voltage_curve):
        assert input_from_lux(voltage_curve, 12.5952) == pytest.approx(1.0, abs=1e-6)

    def test_identity_like_curve(self):
        curve = CalibrationCurve(0.0, 1.0, 0.0, 0.0)
        assert input_from_lux(curve, math.e) == pytest.approx(math.e, rel=1e-12)

    def test_decreasing_curve_inverts(self):
        curve = CalibrationCurve(0.0, -2.0, 0.0, 0.0)
        lux = lux_from_input(curve, 3.0)
        assert input_from_lux(curve, lux) == pytest.approx(3.0, rel=1e-9)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=200)
    def test_round_trip_property(self, x):
        # the power curve keeps ln(lux) representable over the whole range;
        # the voltage curve overflows float past input ~730
        curve = CalibrationCurve(*POWER_COEFFS)
        assert input_from_lux(curve, lux_from_input(curve, x)) == pytest.approx(
            x, rel=1e-9)

    @given(st.floats(min_value=1e-3, max_value=500.0))
    @settings(max_examples=200)
    def test_round_trip_property_voltage_curve(self, x):
        curve = CalibrationCurve(*VOLTAGE_COEFFS)
        assert input_from_lux(curve, lux_from_input(curve, x)) == pytest.approx(
            x, rel=1e-9)

    @given(st.tuples(*[st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300))] * 4),
           st.floats(1e-300, 1e300))
    @example((1e300, 1e300, 0.0, 1e300), 10.0)   # the root is not representable
    @example((0.0, 1e300, 0.0, 1e300), 1e300)    # a3*u^3 overflows at the seed
    @settings(max_examples=1000, deadline=None)
    def test_round_trip_or_raise_property(self, coeffs, lux):
        curve = CalibrationCurve(*coeffs)
        try:
            x = input_from_lux(curve, lux)
        except (PreconditionError, DomainError):
            return
        assert abs(eval_log_poly(curve, math.log(x)) - math.log(lux)) <= 1e-9

    def test_overflowing_cubic_raises(self):
        curve = CalibrationCurve(1e300, 1e300, 0.0, 1e300)
        with pytest.raises(DomainError, match="off in ln lux"):
            input_from_lux(curve, 10.0)
        with pytest.raises(DomainError, match="overflows"):
            input_from_lux(CalibrationCurve(0.0, 1e300, 0.0, 1e300), 1e300)

    def test_non_monotone_curve_rejected(self):
        with pytest.raises(PreconditionError):
            input_from_lux(CalibrationCurve(0.0, -1.0, 0.0, 1.0), 10.0)

    def test_unreachable_lux_raises_domain_error(self):
        curve = CalibrationCurve(0.0, 1.0, 0.0, 0.0)  # lux = input
        with pytest.raises(DomainError, match="must be > 0"):
            input_from_lux(curve, 0.0)
        # the root u = ln(1e305) = 702.3 lies above the search window
        with pytest.raises(DomainError, match="no input gives lux"):
            input_from_lux(curve, 1e305)


class TestFitting:
    def test_recovers_generating_coefficients(self, voltage_curve):
        inputs = [0.5, 1.0, 2.0, 4.0, 8.0]
        fitted = fit_log_cubic(inputs, [lux_from_input(voltage_curve, x) for x in inputs])
        for got, want in zip(fitted.coefficients, voltage_curve.coefficients):
            assert got == pytest.approx(want, abs=1e-8)
        assert fitted.input_range == pytest.approx((0.5, 8.0))

    def test_log_linear_data_kills_high_orders(self):
        inputs = (1.0, 2.0, 5.0, 10.0)
        fitted = fit_log_cubic(inputs, [math.exp(0.5 + 2.0 * math.log(x)) for x in inputs])
        assert fitted.a2 == pytest.approx(0.0, abs=1e-9)
        assert fitted.a3 == pytest.approx(0.0, abs=1e-9)
        assert fitted.a1 == pytest.approx(2.0, abs=1e-9)

    def test_duplicate_inputs_rejected(self):
        with pytest.raises(FitError):
            fit_log_cubic([2.0] * 4, [1.0, 2.0, 3.0, 4.0])

    def test_too_few_samples_rejected(self):
        with pytest.raises(FitError):
            fit_log_cubic([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_fit_optimality(self, power_curve):
        # perturbing any fitted coefficient never decreases the SSE
        import random
        rng = random.Random(7)
        inputs = (5, 8, 12, 18, 25, 33, 40)
        lux = [lux_from_input(power_curve, x) * math.exp(rng.gauss(0, 0.05))
               for x in inputs]
        fitted = fit_log_cubic(inputs, lux, kind=InputKind.PLASMA_POWER)

        def sse(curve):
            return sum((math.log(y) - eval_log_poly(curve, math.log(x))) ** 2
                       for x, y in zip(inputs, lux))

        base = sse(fitted)
        a = list(fitted.coefficients)
        for k in range(4):
            for delta in (-1e-4, 1e-4):
                perturbed = a.copy()
                perturbed[k] += delta
                assert sse(CalibrationCurve(*perturbed)) >= base

    def test_scale_covariance(self, voltage_curve):
        inputs = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
        lux = [lux_from_input(voltage_curve, x) for x in inputs]
        f1 = fit_log_cubic(inputs, lux)
        f2 = fit_log_cubic(inputs, [y * 7.5 for y in lux])
        assert f2.a0 - f1.a0 == pytest.approx(math.log(7.5), abs=1e-9)
        for k in ("a1", "a2", "a3"):
            assert getattr(f2, k) == pytest.approx(getattr(f1, k), abs=1e-9)


class TestResiduals:
    def test_perfect_fit_has_zero_rmse(self, voltage_curve):
        inputs = (0.5, 1.0, 3.0)
        stats = fit_residuals(voltage_curve, inputs,
                              [lux_from_input(voltage_curve, x) for x in inputs])
        assert stats["rmse_log"] == pytest.approx(0.0, abs=1e-12)
        assert stats["max_abs_log"] == pytest.approx(0.0, abs=1e-12)

    def test_single_offset_sample(self, voltage_curve):
        lux = lux_from_input(voltage_curve, 2.0) * math.e
        stats = fit_residuals(voltage_curve, [2.0], [lux])
        assert stats["rmse_log"] == pytest.approx(1.0, rel=1e-12)
        assert stats["max_abs_log"] == pytest.approx(1.0, rel=1e-12)

    def test_empty_sample_list_rejected(self, voltage_curve):
        with pytest.raises(DomainError):
            fit_residuals(voltage_curve, [], [])


class TestTrimRefit:
    def _samples_with_outlier(self, curve):
        # enough clean points that the first fit cannot absorb the outlier
        inputs = [5.0 * 1.11 ** k for k in range(20)]
        good = [lux_from_input(curve, x) * math.exp(0.001 * (k % 3))
                for k, x in enumerate(inputs)]
        outlier = lux_from_input(curve, 6.0) * math.exp(3.0)
        return inputs + [6.0], good + [outlier]

    def test_outlier_is_trimmed(self, power_curve):
        inputs, lux = self._samples_with_outlier(power_curve)
        curve, kept, trimmed = trim_refit(inputs, lux, InputKind.PLASMA_POWER)
        assert trimmed == 1
        assert len(kept) == len(inputs) - 1

    def test_guard_keeps_untrimmed_fit(self, power_curve):
        # half the points far off: trimming >20% must be refused
        base, bad = (5, 10, 20, 40), (6, 12, 24, 48)
        inputs = [*base, *(x * 1.1 for x in bad)]
        lux = ([lux_from_input(power_curve, x) for x in base]
               + [lux_from_input(power_curve, x) * 50 for x in bad])
        curve, kept, trimmed = trim_refit(inputs, lux, InputKind.PLASMA_POWER)
        assert trimmed == 0
        assert len(kept) == 8


class TestSerialization:
    def test_dict_round_trip(self, power_curve):
        assert curve_from_dict(curve_to_dict(power_curve)) == power_curve

    def test_file_round_trip(self, tmp_path, voltage_curve):
        path = tmp_path / "curve.json"
        save_curve(voltage_curve, path)
        assert load_curve(path) == voltage_curve

    def test_missing_coefficient_rejected(self):
        with pytest.raises(SchemaError):
            curve_from_dict({"kind": "voltage", "a0": 1.0, "a1": 2.0, "a2": 3.0})

    def test_samples_csv(self):
        text = "input,lux\n1.0,12.6\n2.0,80.5\n"
        inputs, lux = read_samples_csv(io.StringIO(text))
        assert inputs.tolist() == [1.0, 2.0] and lux.tolist() == [12.6, 80.5]

    def test_samples_csv_bad_header(self):
        with pytest.raises(SchemaError):
            read_samples_csv(io.StringIO("volts,lumens\n1,2\n"))

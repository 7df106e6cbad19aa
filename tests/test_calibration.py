import io
import json
import math
import sys
from unittest import mock

import numpy as np
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
    input_from_lux,
    lux_from_input,
    monotone_direction,
)
from plasmakit import calibration, files
from plasmakit.calibration import (
    INVERT_ATOL,
    TRIM_SIGMA,
    curve_from_dict,
    curve_to_dict,
    load_curve,
    read_samples_csv,
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
            assert monotone_direction(curve) != 0

    def test_decreasing_linear_curve(self):
        curve = CalibrationCurve(0.0, -1.0, 0.0, 0.0)
        assert monotone_direction(curve) == -1
        assert monotone_direction(curve) != 0

    def test_quadratic_log_curve_not_monotone(self):
        assert monotone_direction(CalibrationCurve(0.0, 0.0, 1.0, 0.0)) == 0

    def test_cubic_with_turning_points_not_monotone(self):
        assert monotone_direction(CalibrationCurve(0.0, -1.0, 0.0, 1.0)) == 0

    def test_constant_curve_not_monotone(self):
        assert monotone_direction(CalibrationCurve(2.0, 0.0, 0.0, 0.0)) == 0

    @pytest.mark.parametrize("sign", [1, -1])
    def test_slope_with_a_double_root_is_monotone(self, sign):
        # ln lux = sign * ((u + 1)^3 - 1): the slope 3 sign (u + 1)^2 touches 0
        # at u = -1 without changing sign, so the discriminant is exactly 0
        curve = CalibrationCurve(0.0, 3.0 * sign, 3.0 * sign, 1.0 * sign)
        assert 4 * curve.a2 * curve.a2 - 12 * curve.a3 * curve.a1 == 0
        assert monotone_direction(curve) == sign


class TestInputRange:
    def test_covers_both_ends_and_nothing_past_them(self):
        curve = CalibrationCurve(0.0, 1.0, 0.0, 0.0, input_range=(0.5, 8.0))
        assert curve.covers(0.5) and curve.covers(8.0)
        assert not curve.covers(math.nextafter(0.5, 0.0))
        assert not curve.covers(math.nextafter(8.0, 9.0))

    def test_a_one_point_range_is_accepted(self):
        curve = CalibrationCurve(0.0, 1.0, 0.0, 0.0, input_range=(2.0, 2.0))
        assert curve.input_range == (2.0, 2.0) and curve.covers(2.0)


class TestInversion:
    # ln lux = (u + 1)^3 - 1, strictly increasing with a zero slope at u = -1
    FLAT_POINT_CUBIC = CalibrationCurve(0.0, 3.0, 3.0, 1.0)

    @pytest.mark.parametrize("lux", [5.0, 1e-3, 1e3])
    def test_cubic_with_a_flat_point_inverts_to_the_closed_form(self, lux):
        t = math.log(lux) + 1.0  # (u + 1)^3
        u = math.copysign(abs(t) ** (1 / 3), t) - 1.0
        assert input_from_lux(self.FLAT_POINT_CUBIC, lux) == pytest.approx(math.exp(u), rel=1e-12)

    def test_cubic_inverts_at_its_flat_point(self):
        # the triple root amplifies rounding in x, so the residual, not x, is checked
        x = input_from_lux(self.FLAT_POINT_CUBIC, math.exp(-1.0))
        assert abs(eval_log_poly(self.FLAT_POINT_CUBIC, math.log(x)) + 1.0) <= INVERT_ATOL
        assert x == pytest.approx(math.exp(-1.0), rel=1e-4)

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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_named_as_such(self, voltage_curve, value):
        with pytest.raises(DomainError, match=f"^lux must be finite, got {value}$"):
            input_from_lux(voltage_curve, value)
        with pytest.raises(DomainError, match=f"^curve input must be finite, got {value}$"):
            lux_from_input(voltage_curve, value)
        with pytest.raises(DomainError, match="^curve input must be > 0, got -1.0$"):
            lux_from_input(voltage_curve, -1.0)

    def test_subnormal_lux_rejected(self, voltage_curve):
        # lux_from_input never returns a lux below the smallest normal float,
        # so no input may be reported for one
        for lux in (5e-324, sys.float_info.min / 2):
            with pytest.raises(DomainError, match="underflows"):
                input_from_lux(voltage_curve, lux)
        x = input_from_lux(voltage_curve, sys.float_info.min)
        assert lux_from_input(voltage_curve, x) == pytest.approx(sys.float_info.min, rel=1e-9)


class TestFitting:
    def test_recovers_generating_coefficients(self, voltage_curve):
        inputs = [0.5, 1.0, 2.0, 4.0, 8.0]
        fitted, kept, stats = fit_log_cubic(inputs,
                                            [lux_from_input(voltage_curve, x) for x in inputs])
        for got, want in zip(fitted.coefficients, voltage_curve.coefficients):
            assert got == pytest.approx(want, abs=1e-8)
        assert fitted.input_range == pytest.approx((0.5, 8.0))
        assert kept.tolist() == [0, 1, 2, 3, 4]
        # data on the curve: the residuals are rounding noise
        assert list(stats) == ["rmse_log", "max_abs_log", "trimmed_count"]
        assert stats["rmse_log"] == pytest.approx(0.0, abs=1e-12)
        assert stats["max_abs_log"] == pytest.approx(0.0, abs=1e-12)
        assert stats["trimmed_count"] == 0

    def test_log_linear_data_kills_high_orders(self):
        inputs = (1.0, 2.0, 5.0, 10.0)
        fitted, _, _ = fit_log_cubic(inputs, [math.exp(0.5 + 2.0 * math.log(x)) for x in inputs])
        assert fitted.a2 == pytest.approx(0.0, abs=1e-9)
        assert fitted.a3 == pytest.approx(0.0, abs=1e-9)
        assert fitted.a1 == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("trim", [False, True])
    def test_duplicate_inputs_rejected(self, trim):
        with pytest.raises(FitError):
            fit_log_cubic([2.0] * 4, [1.0, 2.0, 3.0, 4.0], trim=trim)

    @pytest.mark.parametrize("trim", [False, True])
    def test_too_few_samples_rejected(self, trim):
        with pytest.raises(FitError):
            fit_log_cubic([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], trim=trim)

    def test_fit_optimality(self, power_curve):
        # perturbing any fitted coefficient never decreases the SSE
        import random
        rng = random.Random(7)
        inputs = (5, 8, 12, 18, 25, 33, 40)
        lux = [lux_from_input(power_curve, x) * math.exp(rng.gauss(0, 0.05))
               for x in inputs]
        fitted, _, stats = fit_log_cubic(inputs, lux, kind=InputKind.PLASMA_POWER)

        def sse(curve):
            return sum((math.log(y) - eval_log_poly(curve, math.log(x))) ** 2
                       for x, y in zip(inputs, lux))

        base = sse(fitted)
        assert stats["rmse_log"] == pytest.approx(math.sqrt(base / len(inputs)), rel=1e-12)
        a = list(fitted.coefficients)
        for k in range(4):
            for delta in (-1e-4, 1e-4):
                perturbed = a.copy()
                perturbed[k] += delta
                assert sse(CalibrationCurve(*perturbed)) >= base

    def test_scale_covariance(self, voltage_curve):
        inputs = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
        lux = [lux_from_input(voltage_curve, x) for x in inputs]
        f1, _, _ = fit_log_cubic(inputs, lux)
        f2, _, _ = fit_log_cubic(inputs, [y * 7.5 for y in lux])
        assert f2.a0 - f1.a0 == pytest.approx(math.log(7.5), abs=1e-9)
        for k in ("a1", "a2", "a3"):
            assert getattr(f2, k) == pytest.approx(getattr(f1, k), abs=1e-9)


    @pytest.mark.parametrize("trim", [False, True])
    def test_input_range_is_the_exact_span_of_the_inputs(self, voltage_curve, trim):
        # exp(ln x) of the largest input is 1 ulp below it; the range must not be
        inputs = np.geomspace(1.0, 59.6456944009405, 40)
        fitted, _, _ = fit_log_cubic(inputs, [lux_from_input(voltage_curve, x) for x in inputs],
                                     trim=trim)
        assert fitted.input_range == (1.0, 59.6456944009405)
        assert fitted.covers(59.6456944009405)


class TestStats:
    """The residual statistics fit_log_cubic returns with its curve."""

    @pytest.mark.parametrize("trim", [False, True])
    def test_perfect_fit_has_zero_rmse(self, voltage_curve, trim):
        inputs = [0.5 * 1.2 ** k for k in range(20)]
        _, kept, stats = fit_log_cubic(inputs, [lux_from_input(voltage_curve, x) for x in inputs],
                                       trim=trim)
        assert stats["rmse_log"] == pytest.approx(0.0, abs=1e-12)
        assert stats["max_abs_log"] == pytest.approx(0.0, abs=1e-12)
        assert len(kept) + stats["trimmed_count"] == len(inputs)

    @pytest.mark.parametrize("trim", [False, True])
    def test_paired_offset_samples(self, voltage_curve, trim):
        # two rows at one input, e times above and below the curve: the fit
        # passes through their mean and the other three rows, so the
        # residuals are 0, 0, 0, +1, -1
        inputs = [1.0, 2.0, 3.0, 4.0, 4.0]
        lux = [lux_from_input(voltage_curve, x) for x in inputs]
        lux[3] *= math.e
        lux[4] /= math.e
        _, kept, stats = fit_log_cubic(inputs, lux, trim=trim)
        assert kept.tolist() == [0, 1, 2, 3, 4]
        assert stats["rmse_log"] == pytest.approx(math.sqrt(2 / 5), rel=1e-9)
        assert stats["max_abs_log"] == pytest.approx(1.0, rel=1e-9)
        assert stats["trimmed_count"] == 0

    @pytest.mark.parametrize("trim", [False, True])
    def test_empty_sample_list_rejected(self, trim):
        with pytest.raises(FitError, match="got 0"):
            fit_log_cubic([], [], trim=trim)

    @pytest.mark.parametrize("trim", [False, True])
    def test_stats_are_python_numbers(self, power_curve, trim):
        # the CLI prints them with repr and writes them as JSON
        inputs = [5.0 * 1.11 ** k for k in range(12)]
        lux = [lux_from_input(power_curve, x) * math.exp(0.01 * (k % 3))
               for k, x in enumerate(inputs)]
        _, kept, stats = fit_log_cubic(inputs, lux, InputKind.PLASMA_POWER, trim=trim)
        assert [type(v) for v in stats.values()] == [float, float, int]
        assert kept.dtype.kind == "i"


class TestTrim:
    def _samples_with_outlier(self, curve):
        # enough clean points that the first fit cannot absorb the outlier
        inputs = [5.0 * 1.11 ** k for k in range(20)]
        good = [lux_from_input(curve, x) * math.exp(0.001 * (k % 3))
                for k, x in enumerate(inputs)]
        outlier = lux_from_input(curve, 6.0) * math.exp(3.0)
        return inputs + [6.0], good + [outlier]

    def test_outlier_is_trimmed(self, power_curve):
        inputs, lux = self._samples_with_outlier(power_curve)
        curve, kept, stats = fit_log_cubic(inputs, lux, InputKind.PLASMA_POWER, trim=True)
        assert stats["trimmed_count"] == 1
        assert len(kept) == len(inputs) - 1
        assert kept.tolist() == list(range(20))  # the outlier is the last row
        # without trim the same rows keep the outlier and fit worse
        _, all_rows, untrimmed = fit_log_cubic(inputs, lux, InputKind.PLASMA_POWER)
        assert all_rows.tolist() == list(range(21))
        assert untrimmed["trimmed_count"] == 0
        assert stats["max_abs_log"] < 0.01 < 1.0 < untrimmed["max_abs_log"]

    def test_guard_keeps_untrimmed_fit(self, power_curve):
        # half the points far off: trimming >20% must be refused
        base, bad = (5, 10, 20, 40), (6, 12, 24, 48)
        inputs = [*base, *(x * 1.1 for x in bad)]
        lux = ([lux_from_input(power_curve, x) for x in base]
               + [lux_from_input(power_curve, x) * 50 for x in bad])
        curve, kept, stats = fit_log_cubic(inputs, lux, InputKind.PLASMA_POWER, trim=True)
        assert stats["trimmed_count"] == 0
        assert len(kept) == 8
        assert (curve, stats) == fit_log_cubic(inputs, lux, InputKind.PLASMA_POWER)[::2]

    @pytest.mark.parametrize("n", range(5, 10))
    def test_a_three_sigma_cut_needs_ten_rows(self, power_curve, n):
        # no residual exceeds sqrt(n) * rmse, so with n <= TRIM_SIGMA**2 rows
        # the cut trims nothing, however far off one row is
        assert n <= TRIM_SIGMA ** 2
        inputs = [5.0 * 1.3 ** k for k in range(n)]
        lux = [lux_from_input(power_curve, x) for x in inputs]
        lux[n // 2] *= 1e3
        curve, kept, stats = fit_log_cubic(inputs, lux, InputKind.PLASMA_POWER, trim=True)
        assert stats["trimmed_count"] == 0
        assert kept.tolist() == list(range(n))
        assert 1.0 < stats["max_abs_log"] <= math.sqrt(n) * stats["rmse_log"]

    @pytest.mark.parametrize("sigma, kept_rows", [(0.8, list(range(8))), (0.95, [0, 3, 6, 7])])
    def test_at_least_four_rows_are_kept(self, power_curve, sigma, kept_rows):
        # with the share guard lifted, a cut at 0.8 rmse would leave 3 of
        # these 8 rows and is refused; a cut at 0.95 rmse leaves 4, whose
        # residuals are 0.37, 0.71, 0.93 and 0.20 rmse
        inputs = [5.0 * 1.3 ** k for k in range(8)]
        lux = [lux_from_input(power_curve, x) * math.exp(0.1 * (-1) ** k * (k % 3 + 1))
               for k, x in enumerate(inputs)]
        with mock.patch.object(calibration, "TRIM_SIGMA", sigma), \
                mock.patch.object(calibration, "MAX_TRIM_FRACTION", 1.0):
            _, kept, stats = fit_log_cubic(inputs, lux, InputKind.PLASMA_POWER, trim=True)
        assert kept.tolist() == kept_rows
        assert stats["trimmed_count"] == 8 - len(kept_rows)

    @pytest.mark.parametrize("kind", list(InputKind))
    def test_refit_keeps_the_kind(self, power_curve, kind):
        inputs, lux = self._samples_with_outlier(power_curve)
        curve, _, stats = fit_log_cubic(inputs, lux, kind, trim=True)
        assert stats["trimmed_count"] == 1
        assert curve.input_kind is kind


class TestSerialization:
    def test_dict_round_trip(self, power_curve):
        assert curve_from_dict(curve_to_dict(power_curve)) == power_curve

    def test_file_round_trip(self, tmp_path, voltage_curve):
        path = tmp_path / "curve.json"
        files.write_texts((path, json.dumps(curve_to_dict(voltage_curve))))
        assert load_curve(path) == voltage_curve

    @pytest.mark.parametrize("text", ['["curve"]', '"a curve"', "[]", "3", "null",
                                      '{"curve": ["a0"]}'])
    def test_file_not_holding_a_curve_object_rejected(self, tmp_path, text):
        path = tmp_path / "curve.json"
        path.write_text(text)
        with pytest.raises(SchemaError, match="bad calibration curve object"):
            load_curve(path)

    def test_missing_coefficient_rejected(self):
        with pytest.raises(SchemaError):
            curve_from_dict({"kind": "voltage", "a0": 1.0, "a1": 2.0, "a2": 3.0})

    def test_int_coefficients_load_as_floats(self):
        curve = curve_from_dict({"kind": "voltage", "a0": 1, "a1": 2, "a2": 0, "a3": -1})
        assert [(type(c), c) for c in curve.coefficients] == \
            [(float, 1.0), (float, 2.0), (float, 0.0), (float, -1.0)]

    @pytest.mark.parametrize("value", [True, "1", pytest.param(10**400, id="10**400"),
                                       math.inf, math.nan, None])
    def test_curve_rejects_a_coefficient_that_is_not_a_finite_number(self, value):
        with pytest.raises(DomainError) as exc:
            CalibrationCurve(1.0, value, 0.0, 0.0)
        assert str(exc.value) == f"coefficient a1 must be a finite number, got {value!r}"

    def test_curve_stores_coefficients_as_floats(self):
        curve = CalibrationCurve(1, 2, 0, -1)
        assert [(type(c), c) for c in curve.coefficients] == \
            [(float, 1.0), (float, 2.0), (float, 0.0), (float, -1.0)]

    def test_bad_kind_is_reported_before_a_bad_coefficient(self):
        with pytest.raises(SchemaError, match="'volts' is not a valid InputKind"):
            curve_from_dict({"kind": "volts", "a0": True, "a1": 2.0, "a2": 0.0, "a3": 0.0})

    def test_samples_csv(self):
        text = "input,lux\n1.0,12.6\n2.0,80.5\n"
        inputs, lux = read_samples_csv(io.StringIO(text))
        assert inputs.tolist() == [1.0, 2.0] and lux.tolist() == [12.6, 80.5]

    def test_samples_csv_bad_header(self):
        with pytest.raises(SchemaError):
            read_samples_csv(io.StringIO("volts,lumens\n1,2\n"))

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plasmakit import (
    DomainError,
    FrequencySweep,
    PreconditionError,
    ProbeNetwork,
    RCStage,
    RationalTransferFunction,
    SingularityError,
    bode_sweep,
    compensation_capacitor,
    dc_attenuation,
    design_probe,
    is_compensated,
    transfer_function,
)
from plasmakit.probe import _gain

from conftest import direct_gain, reference_network

# Long enough that the expanded polynomial of transfer_function is wrong in
# the fourth digit at 1 kHz.
LONG_LADDER = ProbeNetwork.uniform(80, 10e6, 15e-12, 52.8e3, 3e-9)


@st.composite
def networks(draw, max_n=200):
    """Ladders of 0..max_n stages, R in 100 Ohm..10 MOhm and C in 1 pF..10 nF
    (one stage in five a bare resistor); components come from a drawn seed,
    since drawing each one makes generation the bulk of the test's time."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))

    def stage():
        c = 0.0 if rng.random() < 0.2 else 10 ** rng.uniform(-12, -8)
        return RCStage(10 ** rng.uniform(2, 7), c)
    return ProbeNetwork(base=stage(), ladder=tuple(stage() for _ in range(n)))


class TestStageImpedance:
    def test_invalid_components_rejected(self):
        with pytest.raises(DomainError):
            RCStage(0.0, 1e-12)
        with pytest.raises(DomainError):
            RCStage(1e3, -1e-12)

    @pytest.mark.parametrize("r, c, name", [
        ("1", 0.0, "resistance"), (True, 0.0, "resistance"), (math.inf, 0.0, "resistance"),
        (1e3, "1e-12", "capacitance"), (1e3, False, "capacitance"), (1e3, math.nan, "capacitance"),
    ])
    def test_non_number_components_rejected(self, r, c, name):
        with pytest.raises(DomainError, match=f"^stage {name} must be a finite number, got "):
            RCStage(r, c)


class TestTransferFunction:
    def test_base_only_network_is_unity(self):
        tf = transfer_function(ProbeNetwork(base=RCStage(52.8e3, 3e-9)))
        assert tf.numerator == tf.denominator
        assert tf(0) == 1.0
        assert tf(2j * math.pi * 1e6) == pytest.approx(1.0)

    def test_reference_network_dc_value(self):
        tf = transfer_function(reference_network())
        assert tf(0).real == pytest.approx(52.8e3 / 50.0528e6, rel=1e-12)

    def test_exact_compensation_gives_constant_gain(self):
        c0 = 15e-12 * 10e6 / 52.8e3
        tf = transfer_function(reference_network(c0=c0))
        dc = tf(0)
        for f in (1.0, 1e3, 1e6, 1e7):
            g = tf(2j * math.pi * f)
            assert abs(g) == pytest.approx(abs(dc), rel=1e-9)
            assert abs(cmath.phase(g)) <= 1e-9

    def test_zero_denominator_rejected(self):
        with pytest.raises(DomainError):
            RationalTransferFunction((1.0,), (0.0, 0.0))

    def test_pole_raises_and_value_is_a_python_complex(self):
        tf = RationalTransferFunction((1.0,), (1.0, 1e-3))  # 1/(1 + s/1000)
        with pytest.raises(SingularityError, match="pole"):
            tf(-1000.0)
        assert type(tf(1000j)) is complex and tf(1000j) == 1 / (1 + 1j)
        assert type(tf(0)) is complex and tf(0) == 1.0

    def test_trailing_zeros_trimmed(self):
        tf = RationalTransferFunction((1.0, 0.0, 0.0), (2.0, 1.0, 0.0))
        assert tf.numerator == (1.0,)
        assert tf.denominator == (2.0, 1.0)

    def test_oracle_equivalence_on_random_networks(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            n = rng.randint(0, 6)
            net = ProbeNetwork(
                base=RCStage(10 ** rng.uniform(2, 7), 10 ** rng.uniform(-12, -8)),
                ladder=tuple(RCStage(10 ** rng.uniform(2, 7),
                                     10 ** rng.uniform(-12, -8))
                             for _ in range(n)))
            f = 10 ** rng.uniform(0, 8)
            got = transfer_function(net)(2j * math.pi * f)
            want = direct_gain(net, f)
            assert got == pytest.approx(want, rel=1e-12)

    def test_long_ladder_expansion_raises(self):
        with pytest.raises(DomainError, match="loses precision"):
            transfer_function(LONG_LADDER)

    @pytest.mark.parametrize("base", [RCStage(1e-200, 1e-200), RCStage(1e-155, 1e-155)])
    def test_underflowing_time_constant(self, base):
        # R*C underflows to 0 (a bare resistor) or to a subnormal whose corner
        # frequency overflows: either an accurate function or a DomainError
        net = ProbeNetwork(base, (RCStage(1.0, 1.0),))
        try:
            tf = transfer_function(net)
        except DomainError:
            return
        for f in (0.0, 1.0, 1e3, 1e6):
            assert tf(2j * math.pi * f) == pytest.approx(direct_gain(net, f), rel=1e-12)


class TestFrequencyResponse:
    def test_dc_limit_equals_attenuation(self):
        # transfer_function's DC check relies on this being exact
        net = reference_network()
        gain = _gain(net, np.array([0.0]))[0]
        assert gain.real == dc_attenuation(net)
        assert gain.imag == 0.0

    def test_compensated_network_flat_at_1mhz(self):
        net = reference_network(c0=15e-12 * 10e6 / 52.8e3)
        sweep = bode_sweep(net, 1e6, 1e7, 2)  # the sweep's endpoints are pinned
        assert sweep.frequency[0] == 1e6
        assert sweep.magnitude[0] == pytest.approx(52.8e3 / 50.0528e6, rel=1e-9)
        assert abs(sweep.phase[0]) <= 1e-9

    def test_off_the_shelf_c0_deviates_at_1mhz(self):
        # frozen from the direct complex-impedance oracle for C0 = 3 nF
        sweep = bode_sweep(reference_network(), 1e6, 1e7, 2)
        assert sweep.frequency[0] == 1e6
        assert sweep.gain[0] == pytest.approx(direct_gain(reference_network(), 1e6), rel=1e-12)
        assert sweep.magnitude[0] == pytest.approx(9.990010570045072e-4, rel=1e-9)


class TestDcAttenuation:
    def test_reference_network(self):
        assert dc_attenuation(reference_network()) == pytest.approx(1.054886e-3, rel=1e-6)
        assert dc_attenuation(reference_network()) == pytest.approx(52.8e3 / 50.0528e6,
                                                                    rel=1e-15)

    def test_base_only(self):
        assert dc_attenuation(ProbeNetwork(base=RCStage(1e3))) == 1.0

    def test_symmetric_divider(self):
        assert dc_attenuation(ProbeNetwork.uniform(1, 1e3, 0, 1e3, 0)) == 0.5

    def test_adding_stage_strictly_decreases_ratio(self):
        stage = RCStage(1e6, 10e-12)
        net = ProbeNetwork(base=RCStage(1e3))
        prev = dc_attenuation(net)
        for n in range(1, 6):
            net = ProbeNetwork(base=net.base, ladder=(stage,) * n)
            cur = dc_attenuation(net)
            assert cur < prev
            prev = cur


class TestCompensation:
    def test_reference_value(self):
        c0 = compensation_capacitor(reference_network())
        assert c0 == pytest.approx(15e-12 * 10e6 / 52.8e3, abs=1e-24)
        assert c0 == pytest.approx(2.840909090909091e-9, abs=1e-15)

    def test_equal_r_gives_equal_c(self):
        net = ProbeNetwork.uniform(1, 1e3, 1e-9, 1e3, 0)
        assert compensation_capacitor(net) == pytest.approx(1e-9, rel=1e-15)

    @pytest.mark.parametrize("tol", [0.0, 0.1])
    def test_zero_ladder_capacitance(self, tol):
        # with C1 = 0 the exact C0 is 0, and only C0 = 0 is within any tolerance of it
        net = ProbeNetwork.uniform(3, 1e6, 0.0, 1e3, 0.0)
        assert compensation_capacitor(net) == 0.0
        assert is_compensated(net, tol) is True
        assert is_compensated(ProbeNetwork.uniform(3, 1e6, 0.0, 1e3, 1e-12), tol) is False

    def test_non_uniform_ladder_rejected(self):
        net = ProbeNetwork(base=RCStage(1e3),
                           ladder=(RCStage(1e6, 1e-12), RCStage(2e6, 1e-12)))
        with pytest.raises(PreconditionError):
            compensation_capacitor(net)
        with pytest.raises(PreconditionError):
            is_compensated(net, 0.1)

    def test_is_compensated_tolerances(self):
        net = reference_network()  # 3 nF vs exact 2.8409 nF: 5.6% off
        assert is_compensated(net, 0.10) is True
        assert is_compensated(net, 0.01) is False
        exact = reference_network(c0=2.840909090909091e-9)
        assert is_compensated(exact, 1e-12) is True


class TestDesignProbe:
    def test_reference_design(self):
        net = design_probe(1e-3, 5, 10e6, 15e-12)
        assert net.base.resistance == pytest.approx(5e7 / 999.0, rel=1e-12)
        assert net.base.capacitance == pytest.approx(15e-12 * 10e6 / (5e7 / 999.0),
                                                     rel=1e-12)
        assert net.base.capacitance == pytest.approx(2.997e-9, rel=1e-6)

    def test_trivial_half_divider(self):
        net = design_probe(0.5, 1, 1e3, 0.0)
        assert net.base.resistance == pytest.approx(1e3, rel=1e-15)
        assert net.base.capacitance == 0.0

    @given(st.floats(min_value=1e-6, max_value=0.999),
           st.integers(min_value=1, max_value=10),
           st.floats(min_value=1.0, max_value=1e8))
    @settings(max_examples=100)
    def test_round_trip_ratio(self, k, n, r):
        net = design_probe(k, n, r, 10e-12)
        assert dc_attenuation(net) == pytest.approx(k, rel=1e-12)
        assert is_compensated(net, 1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            design_probe(1.0, 5, 1e6, 1e-12)
        with pytest.raises(DomainError):
            design_probe(0.0, 5, 1e6, 1e-12)
        with pytest.raises(DomainError):
            design_probe(0.5, 0, 1e6, 1e-12)


class TestBodeSweep:
    def test_compensated_sweep_is_flat(self):
        net = design_probe(1e-3, 5, 10e6, 15e-12)
        sweep = bode_sweep(net, 1.0, 1e7, 50)
        assert sweep.magnitude.max() / sweep.magnitude.min() - 1.0 <= 1e-9
        assert np.all(np.abs(sweep.phase) <= 1e-9)

    def test_two_points_are_endpoints(self):
        assert bode_sweep(reference_network(), 10.0, 1e5, 2).frequency.tolist() == [10.0, 1e5]

    def test_reference_network_peaking(self):
        # frozen from the oracle sweep: the 5.6%-high C0 peaks the response
        sweep = bode_sweep(reference_network(), 1.0, 1e7, 200, "log")
        mags = sweep.magnitude
        assert mags.max() / mags.min() == pytest.approx(1.0559408718310286, rel=1e-9)
        for f, gain in zip(sweep.frequency[::20].tolist(), sweep.gain[::20].tolist()):
            assert gain == pytest.approx(direct_gain(reference_network(), f), rel=1e-12)

    def test_linear_spacing(self):
        sweep = bode_sweep(reference_network(), 100.0, 200.0, 3, "linear")
        assert sweep.frequency.tolist() == [100.0, 150.0, 200.0]

    def test_invalid_grid_rejected(self):
        net = reference_network()
        with pytest.raises(DomainError):
            bode_sweep(net, 0.0, 1e6, 10)
        with pytest.raises(DomainError):
            bode_sweep(net, 1e6, 1e3, 10)
        with pytest.raises(DomainError):
            bode_sweep(net, 1.0, 1e6, 1)
        with pytest.raises(DomainError):
            bode_sweep(net, 1.0, 1e6, 10, "cubic")
        for f_min, f_max in ((1.0, math.inf), (math.nan, 1e6), (1.0, math.nan)):
            with pytest.raises(DomainError):
                bode_sweep(net, f_min, f_max, 10)

    def test_underflowing_gain_raises(self):
        # R0*C0*s overflows, so Z0 and the gain come out exactly zero.
        net = ProbeNetwork(base=RCStage(1e3, 1e300), ladder=(RCStage(1e6, 1e-12),))
        with pytest.raises(DomainError, match="over- or underflow"):
            bode_sweep(net, 1.0, 1e7, 10)

    def test_columns_match_responses(self):
        sweep = bode_sweep(reference_network(), 1.0, 1e7, 20)
        assert isinstance(sweep, FrequencySweep)
        assert sweep.frequency.shape == sweep.gain.shape == (20,)
        assert sweep.frequency.dtype == float and sweep.gain.dtype == complex
        assert not sweep.gain.flags.writeable
        gains = sweep.gain.tolist()
        for name, point in (("magnitude", abs), ("phase", cmath.phase),
                            ("magnitude_db", lambda g: 20.0 * math.log10(abs(g)))):
            np.testing.assert_allclose(getattr(sweep, name), list(map(point, gains)), rtol=1e-15)

    @given(networks(), st.floats(min_value=0.0, max_value=1e9))
    @example(LONG_LADDER, 1e3)
    @settings(max_examples=100, deadline=None)
    def test_sweep_and_point_match_oracle(self, net, f):
        sweep = bode_sweep(net, 1.0, 1e8, 41)
        for freq, gain in zip(sweep.frequency.tolist(), sweep.gain.tolist()):
            assert gain == pytest.approx(direct_gain(net, freq), rel=1e-12)
        assert _gain(net, np.array([f]))[0] == pytest.approx(direct_gain(net, f), rel=1e-12)

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from platenull.core import RunReport, StatePair, energy, euclidean_sq, rate_sequence


class TestEnergy:
    def test_zero_state(self):
        z = np.zeros(5)
        assert energy(StatePair(v=z, w=z)) == 0.0

    def test_unit_vector(self):
        v = np.zeros(4)
        v[0] = 1.0
        assert energy(StatePair(v=v, w=np.zeros(4))) == pytest.approx(1.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        v, w = rng.standard_normal(9), rng.standard_normal(9)
        perm = rng.permutation(9)
        before = energy(StatePair(v=v, w=w))
        after = energy(StatePair(v=v[perm], w=w[perm]))
        assert after == pytest.approx(before, rel=1e-15)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StatePair(v=np.zeros(3), w=np.zeros(4))

    def test_column_blocks(self):
        StatePair(v=np.zeros((5, 3)), w=np.ones((5, 3)))
        with pytest.raises(ValueError):
            StatePair(v=np.zeros((5, 3)), w=np.zeros((5, 2)))
        with pytest.raises(ValueError):
            StatePair(v=np.zeros((5, 3, 1)), w=np.zeros((5, 3, 1)))

    def test_custom_norm(self):
        s = StatePair(v=np.array([1.0, 1.0]), w=np.array([2.0, 0.0]))
        assert energy(s, lambda x: 3.0 * euclidean_sq(x)) == pytest.approx(18.0)


class TestRateSequence:
    def test_exact_factor_four(self):
        assert rate_sequence([8.0, 2.0]) == [pytest.approx(2.0)]

    def test_published_rate(self):
        # first rate of the FEM coarse table, printed as 1.838
        (rate,) = rate_sequence([2.8778e-01, 8.0441e-02])
        assert rate == pytest.approx(1.838, abs=1e-2)

    def test_no_change(self):
        assert rate_sequence([3.7, 3.7]) == [pytest.approx(0.0)]

    def test_geometric_quarter_ratio(self):
        vals = [5.0 * 0.25**k for k in range(6)]
        assert rate_sequence(vals) == pytest.approx([2.0] * 5)

    def test_rejects_nonpositive_and_short(self):
        with pytest.raises(ValueError):
            rate_sequence([1.0, 0.0])
        with pytest.raises(ValueError):
            rate_sequence([1.0])

    @pytest.mark.parametrize("values", [[1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf]],
                             ids=["nan", "inf", "minus-inf"])
    def test_rejects_non_finite(self, values, capfd):
        with pytest.raises(ValueError, match="finite positive") as excinfo:
            rate_sequence(values)
        assert excinfo.type is ValueError
        assert capfd.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values,sign", [([1e300, 1e-300], 1), ([1e-300, 1e300], -1)],
                             ids=["quotient-overflows", "quotient-underflows"])
    def test_quotient_outside_the_float_range(self, values, sign):
        assert rate_sequence(values) == [pytest.approx(sign * 600 * math.log2(10), rel=1e-12)]

    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_single_ratio_roundtrip(self, base, ratio):
        (rate,) = rate_sequence([base, base * ratio])
        assert 2.0**-rate == pytest.approx(ratio, rel=1e-9)


class TestRunReport:
    def test_accepts_zero(self):
        RunReport(terminal_energy=0.0, control_norm=0.0)

    @pytest.mark.parametrize("energy_value,norm", [
        (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf),
        (-1e-300, 1.0), (1.0, -np.inf), (np.nan, np.inf),
    ])
    def test_rejects_negative_or_non_finite(self, energy_value, norm):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            RunReport(terminal_energy=energy_value, control_norm=norm)

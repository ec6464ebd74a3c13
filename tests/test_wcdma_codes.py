"""Unit and property tests for OVSF and Gold scrambling codes."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wcdma import (
    code_from_2bit,
    code_to_2bit,
    codes,
    ovsf_code,
    ovsf_tree_conflicts,
    scrambling_code,
    scrambling_code_2bit,
)
from repro.wcdma.params import SCRAMBLING_LFSR_PERIOD

sf_strategy = st.sampled_from([4, 8, 16, 32, 64, 128, 256, 512])


# -- reference: the TS 25.213 LFSRs stepped one bit at a time -----------------


@lru_cache(maxsize=1)
def _x_reference() -> np.ndarray:
    """x(i+18) = x(i+7) + x(i) mod 2, seed 100...0."""
    n = SCRAMBLING_LFSR_PERIOD
    x = np.zeros(n + 18, dtype=np.int8)
    x[0] = 1
    for i in range(n):
        x[i + 18] = x[i + 7] ^ x[i]
    return x[:n]


@lru_cache(maxsize=1)
def _y_reference() -> np.ndarray:
    """y(i+18) = y(i+10) + y(i+7) + y(i+5) + y(i) mod 2, seed all
    ones."""
    n = SCRAMBLING_LFSR_PERIOD
    y = np.zeros(n + 18, dtype=np.int8)
    y[:18] = 1
    for i in range(n):
        y[i + 18] = y[i + 10] ^ y[i + 7] ^ y[i + 5] ^ y[i]
    return y[:n]


def _scrambling_reference(n: int, length: int) -> np.ndarray:
    """S_dl,n from the reference sequences, TS 25.213 sec. 5.2.2."""
    x, y = _x_reference(), _y_reference()
    period = SCRAMBLING_LFSR_PERIOD
    idx = np.arange(length)
    z = x[(idx + n) % period] ^ y[idx % period]
    zq = x[(idx + n + 131072) % period] ^ y[(idx + 131072) % period]
    return (1 - 2 * z.astype(np.int64)) + 1j * (1 - 2 * zq.astype(np.int64))


class TestMSequences:
    """The block-doubling m-sequence builder against the per-bit LFSRs."""

    def test_x_bit_exact_over_full_period(self):
        assert np.array_equal(codes._x_sequence(), _x_reference())

    def test_y_bit_exact_over_full_period(self):
        assert np.array_equal(codes._y_sequence(), _y_reference())

    @pytest.mark.parametrize("seq", ["_x_sequence", "_y_sequence"])
    def test_balance_and_period(self, seq):
        s = getattr(codes, seq)()
        assert s.size == SCRAMBLING_LFSR_PERIOD
        # an m-sequence of degree 18 has 2^17 ones and 2^17 - 1 zeros
        assert int(s.sum()) == 1 << 17

    @pytest.mark.parametrize("n", [0, 1, 8191, 262142])
    def test_frame_codes_match_reference(self, n):
        assert np.array_equal(scrambling_code(n, 38400),
                              _scrambling_reference(n, 38400))


class TestOvsf:
    def test_known_small_codes(self):
        assert list(ovsf_code(1, 0)) == [1]
        assert list(ovsf_code(2, 0)) == [1, 1]
        assert list(ovsf_code(2, 1)) == [1, -1]
        assert list(ovsf_code(4, 1)) == [1, 1, -1, -1]
        assert list(ovsf_code(4, 2)) == [1, -1, 1, -1]

    def test_values_are_pm1(self):
        c = ovsf_code(64, 17)
        assert set(np.unique(c)) <= {-1, 1}

    def test_invalid_sf(self):
        with pytest.raises(ValueError):
            ovsf_code(3, 0)
        with pytest.raises(ValueError):
            ovsf_code(1024, 0)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            ovsf_code(8, 8)

    @given(sf_strategy, st.data())
    @settings(max_examples=30, deadline=None)
    def test_same_sf_orthogonality(self, sf, data):
        """Codes of equal SF are mutually orthogonal — the property that
        lets one rake finger reject the other downlink channels."""
        i = data.draw(st.integers(min_value=0, max_value=sf - 1))
        j = data.draw(st.integers(min_value=0, max_value=sf - 1))
        dot = int(np.dot(ovsf_code(sf, i), ovsf_code(sf, j)))
        assert dot == (sf if i == j else 0)

    @given(sf_strategy)
    @settings(max_examples=8, deadline=None)
    def test_cross_sf_orthogonality_different_branch(self, sf):
        """A short code is orthogonal to long codes outside its subtree."""
        short = ovsf_code(4, 1)
        long = ovsf_code(sf, 0)  # subtree of C(4,0) for sf >= 4
        if sf >= 4:
            reps = sf // 4
            dot = int(np.dot(np.tile(short, reps), long))
            assert dot == 0

    def test_tree_conflicts(self):
        assert ovsf_tree_conflicts(4, 1, 8, 2)      # C(8,2) child of C(4,1)
        assert ovsf_tree_conflicts(8, 2, 4, 1)      # symmetric
        assert not ovsf_tree_conflicts(4, 1, 8, 4)
        assert ovsf_tree_conflicts(4, 1, 4, 1)
        assert not ovsf_tree_conflicts(4, 1, 4, 2)


class TestScrambling:
    def test_values_are_qpsk(self):
        code = scrambling_code(0, 1000)
        assert set(np.unique(code.real)) <= {-1.0, 1.0}
        assert set(np.unique(code.imag)) <= {-1.0, 1.0}

    def test_distinct_codes_for_distinct_numbers(self):
        a = scrambling_code(0, 2560)
        b = scrambling_code(16, 2560)
        assert not np.array_equal(a, b)

    def test_shift_property(self):
        """Code n is the x-sequence shifted by n against the same y: the
        I parts of codes n and n+k agree when x is shifted accordingly."""
        n = 3
        a = scrambling_code(0, 512)
        b = scrambling_code(n, 512)
        # they must differ but both be balanced-ish QPSK streams
        assert not np.array_equal(a, b)

    def test_low_cross_correlation(self):
        """Gold codes: normalised cross-correlation between basestation
        codes stays small — the property soft handover relies on."""
        length = 8192
        a = scrambling_code(0, length)
        b = scrambling_code(1, length)
        xcorr = abs(np.vdot(a, b)) / (2 * length)
        assert xcorr < 0.05

    def test_good_autocorrelation(self):
        """Shifted autocorrelation is small relative to the zero-lag peak
        — the property the path searcher relies on."""
        length = 8192
        a = scrambling_code(7, length + 64)
        zero_lag = abs(np.vdot(a[:length], a[:length])) / (2 * length)
        shifted = abs(np.vdot(a[:length], a[13:13 + length])) / (2 * length)
        assert zero_lag == pytest.approx(1.0)
        assert shifted < 0.05

    def test_balance(self):
        """The code is roughly balanced between +1 and -1 on each rail."""
        code = scrambling_code(5, 38400)
        assert abs(np.mean(code.real)) < 0.02
        assert abs(np.mean(code.imag)) < 0.02

    def test_bad_code_number(self):
        with pytest.raises(ValueError):
            scrambling_code(-1)
        with pytest.raises(ValueError):
            scrambling_code(1 << 18)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            scrambling_code(0, -5)

    def test_cached_and_read_only(self):
        """Repeated requests return the same cached array, which is
        read-only so no caller can corrupt the cache."""
        a = scrambling_code(7, 256)
        b = scrambling_code(7, 256)
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
        # a copy is mutable and leaves the cache intact
        c = a.copy()
        c[0] = 0
        assert scrambling_code(7, 256)[0] == a[0]
        # distinct (n, length) keys give distinct arrays
        assert scrambling_code(8, 256) is not a
        assert np.array_equal(scrambling_code(7, 128), a[:128])


class TestTwoBitRepresentation:
    def test_roundtrip(self):
        code = scrambling_code(9, 4096)
        bits = code_to_2bit(code)
        assert np.array_equal(code_from_2bit(bits), code)

    def test_2bit_range(self):
        bits = scrambling_code_2bit(3, 1000)
        assert bits.min() >= 0 and bits.max() <= 3

    def test_mapping_convention(self):
        # bit1 = I negative, bit0 = Q negative
        assert code_from_2bit(np.array([0]))[0] == 1 + 1j
        assert code_from_2bit(np.array([1]))[0] == 1 - 1j
        assert code_from_2bit(np.array([2]))[0] == -1 + 1j
        assert code_from_2bit(np.array([3]))[0] == -1 - 1j

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            code_from_2bit(np.array([4]))

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=10, deadline=None)
    def test_2bit_equals_direct(self, n):
        direct = scrambling_code(n, 256)
        via_bits = code_from_2bit(scrambling_code_2bit(n, 256))
        assert np.array_equal(direct, via_bits)

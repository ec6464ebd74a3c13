"""Spreading and scrambling code generation.

These are the paper's *dedicated hardware* blocks ("Scrambling Code
Generation", "Spreading Code Generation" in Fig. 4), modelled
bit-accurately:

* OVSF channelisation codes (3GPP TS 25.213 sec. 4.3.1) for spreading
  factors 4..512,
* downlink Gold scrambling codes built from the two 18-bit LFSRs of
  TS 25.213 sec. 5.2.2, and
* the 2-bit code representation the code generators feed to the
  reconfigurable array, which translates it to +-1 +-j with a multiplexer
  (Fig. 5).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.wcdma.params import FRAME_CHIPS, MAX_SF, SCRAMBLING_LFSR_PERIOD


# ---------------------------------------------------------------------------
# OVSF channelisation codes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _ovsf_cached(sf: int, index: int) -> tuple:
    if sf == 1:
        return (1,)
    parent = _ovsf_cached(sf // 2, index // 2)
    if index % 2 == 0:
        return parent + parent
    return parent + tuple(-c for c in parent)


def ovsf_code(sf: int, index: int) -> np.ndarray:
    """OVSF code ``C_ch,sf,index`` as a +-1 integer array of length ``sf``.

    ``sf`` must be a power of two (1..512); ``index`` in ``[0, sf)``.
    """
    if sf < 1 or sf > MAX_SF or sf & (sf - 1):
        raise ValueError(f"spreading factor must be a power of 2 in 1..512: {sf}")
    if not 0 <= index < sf:
        raise ValueError(f"code index must be in [0, {sf}): {index}")
    return np.array(_ovsf_cached(sf, index), dtype=np.int64)


def ovsf_tree_conflicts(sf_a: int, idx_a: int, sf_b: int, idx_b: int) -> bool:
    """True if two OVSF codes are on the same tree branch (one is an
    ancestor of the other), i.e. they may NOT be allocated together."""
    if sf_a == sf_b:
        return idx_a == idx_b
    if sf_a > sf_b:
        sf_a, idx_a, sf_b, idx_b = sf_b, idx_b, sf_a, idx_a
    # (sf_a, idx_a) is the shorter code: ancestor iff idx_b's prefix is idx_a
    ratio = sf_b // sf_a
    return idx_b // ratio == idx_a


# ---------------------------------------------------------------------------
# downlink scrambling codes (TS 25.213 sec. 5.2.2 Gold sequences)
# ---------------------------------------------------------------------------

def _m_sequence(seed, taps: tuple) -> np.ndarray:
    """One period of the 18-stage m-sequence ``s(i+18) = XOR of s(i+t)
    for t in taps`` (``taps`` includes 0), from the 18-bit ``seed``.

    Over GF(2), ``p(D)^(2^k) = p(D^(2^k))``, so the sequence also obeys
    ``s(i+18m) = XOR of s(i+t*m)`` for every power of two ``m``.  With
    ``top`` the largest tap below 18, a prefix of at least ``18m``
    terms fixes the next ``(18-top)*m`` terms at once: one vectorised
    XOR per block, with ``m`` doubling as the prefix grows.
    """
    n = SCRAMBLING_LFSR_PERIOD
    s = np.empty(n, dtype=np.int8)
    s[:18] = seed
    top = max(taps)
    filled, m = 18, 1
    while filled < n:
        while filled >= 36 * m:
            m *= 2
        block = min((18 - top) * m, n - filled)
        base = filled - 18 * m
        new = s[base:base + block].copy()
        for t in taps:
            if t:
                new ^= s[base + t * m:base + t * m + block]
        s[filled:filled + block] = new
        filled += block
    return s


@lru_cache(maxsize=1)
def _x_sequence() -> np.ndarray:
    """The m-sequence x: x(i+18) = x(i+7) + x(i) mod 2, seed 100...0."""
    return _m_sequence([1] + [0] * 17, (0, 7))


@lru_cache(maxsize=1)
def _y_sequence() -> np.ndarray:
    """The m-sequence y: y(i+18) = y(i+10) + y(i+7) + y(i+5) + y(i),
    seed all ones."""
    return _m_sequence([1] * 18, (0, 5, 7, 10))


@lru_cache(maxsize=32)
def _scrambling_code_cached(n: int, length: int) -> np.ndarray:
    x = _x_sequence()
    y = _y_sequence()
    period = SCRAMBLING_LFSR_PERIOD
    idx = np.arange(length)
    z = (x[(idx + n) % period] ^ y[idx % period]).astype(np.int64)
    zq = (x[(idx + n + 131072) % period] ^ y[(idx + 131072) % period]) \
        .astype(np.int64)
    i_part = 1 - 2 * z
    q_part = 1 - 2 * zq
    code = i_part + 1j * q_part
    code.setflags(write=False)
    return code


def scrambling_code(n: int, length: int = FRAME_CHIPS) -> np.ndarray:
    """Complex downlink scrambling code ``S_dl,n`` of the given length.

    Values are in {+-1 +-j} (the unnormalised QPSK constellation the
    descrambler's multiplexer produces).

    Cached per ``(n, length)``: every link/benchmark run asks for the
    same handful of codes.  The two m-sequences behind all codes are
    built once per process (about 1 ms, see :func:`_m_sequence`); the
    first call for a 38400-chip frame then takes about 4 ms.  The
    returned array is read-only; ``.copy()`` it to mutate.
    """
    if not 0 <= n < SCRAMBLING_LFSR_PERIOD:
        raise ValueError(f"scrambling code number out of range: {n}")
    if length < 0:
        raise ValueError("length must be non-negative")
    return _scrambling_code_cached(n, length)


def code_to_2bit(code: np.ndarray) -> np.ndarray:
    """Encode a {+-1 +-j} code into the 2-bit representation delivered by
    the dedicated code-generation hardware: bit1 = I is negative,
    bit0 = Q is negative."""
    arr = np.asarray(code)
    bit1 = (arr.real < 0).astype(np.int64)
    bit0 = (arr.imag < 0).astype(np.int64)
    return (bit1 << 1) | bit0


def code_from_2bit(bits: np.ndarray) -> np.ndarray:
    """Decode the 2-bit representation back to {+-1 +-j} — the multiplexer
    translation the reconfigurable hardware performs in Fig. 5."""
    b = np.asarray(bits, dtype=np.int64)
    if np.any((b < 0) | (b > 3)):
        raise ValueError("2-bit code symbols must be in 0..3")
    i_part = 1 - 2 * (b >> 1)
    q_part = 1 - 2 * (b & 1)
    return i_part + 1j * q_part


def scrambling_code_2bit(n: int, length: int = FRAME_CHIPS) -> np.ndarray:
    """Scrambling code ``S_dl,n`` in the 2-bit hardware representation."""
    return code_to_2bit(scrambling_code(n, length))

"""QPSK mapping, spreading and scrambling for the W-CDMA downlink."""

from __future__ import annotations

import numpy as np

from repro.wcdma.codes import ovsf_code


def bits_to_qpsk(bits: np.ndarray) -> np.ndarray:
    """Map pairs of bits to QPSK symbols: (b0, b1) -> (1-2*b0) + j(1-2*b1).

    ``bits`` must have even length.
    """
    b = np.asarray(bits, dtype=np.int64)
    if b.size % 2:
        raise ValueError("QPSK needs an even number of bits")
    if np.any((b != 0) & (b != 1)):
        raise ValueError("bits must be 0/1")
    i_part = 1 - 2 * b[0::2]
    q_part = 1 - 2 * b[1::2]
    return (i_part + 1j * q_part).astype(np.complex128)


def qpsk_to_bits(symbols: np.ndarray) -> np.ndarray:
    """Hard-decide QPSK symbols back to a bit stream."""
    s = np.asarray(symbols, dtype=np.complex128)
    bits = np.empty(2 * s.size, dtype=np.int64)
    bits[0::2] = (s.real < 0).astype(np.int64)
    bits[1::2] = (s.imag < 0).astype(np.int64)
    return bits


def spread(symbols: np.ndarray, sf: int, code_index: int) -> np.ndarray:
    """Spread symbols by the OVSF code: each symbol becomes ``sf`` chips."""
    code = ovsf_code(sf, code_index)
    s = np.asarray(symbols, dtype=np.complex128)
    return (s[:, None] * code[None, :]).reshape(-1)


def despread(chips: np.ndarray, sf: int, code_index: int) -> np.ndarray:
    """Integrate-and-dump despreading: inverse of :func:`spread` (after
    descrambling), normalised by the spreading factor."""
    code = ovsf_code(sf, code_index)
    c = np.asarray(chips, dtype=np.complex128)
    if c.size % sf:
        c = c[:c.size - c.size % sf]
    blocks = c.reshape(-1, sf)
    # elementwise rather than ``@``: a matrix-vector product this small
    # costs more in BLAS thread start-up than in arithmetic
    return (blocks * code).sum(axis=1) / sf


def scramble(chips: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Apply the complex scrambling code (transmitter side).

    The code is the unnormalised {+-1 +-j} sequence; descrambling divides
    by its squared magnitude (2) when using the conjugate, so we keep the
    convention: scramble multiplies by ``code / sqrt(2)`` to preserve
    power.
    """
    c = np.asarray(chips, dtype=np.complex128)
    k = np.asarray(code, dtype=np.complex128)[:c.size]
    if k.size < c.size:
        raise ValueError("scrambling code shorter than chip stream")
    return c * k / np.sqrt(2.0)


def descramble(chips: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Remove the scrambling code: multiply by conj(code)/sqrt(2)."""
    c = np.asarray(chips, dtype=np.complex128)
    k = np.asarray(code, dtype=np.complex128)[:c.size]
    if k.size < c.size:
        raise ValueError("scrambling code shorter than chip stream")
    return c * np.conj(k) / np.sqrt(2.0)

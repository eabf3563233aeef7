"""Binary BCH codes: systematic encoding and Berlekamp-Massey decoding.

A BCH code over GF(2^m) has natural length ``n = 2^m - 1`` and corrects any
``t`` bit errors using roughly ``m*t`` check bits.  The paper's strong-ECC
mechanism protects each 512-bit memory line with a *shortened* BCH code
(m = 10, n = 1023 shortened to 512 data bits), so ECC-4 costs 40 check bits
and ECC-8 costs 80 - versus SECDED's 64 bits for only single-error
correction per word.

Decoding is the classical pipeline:

1. syndromes ``S_i = r(alpha^i)`` for ``i = 1..2t``,
2. Berlekamp-Massey to find the error-locator polynomial,
3. Chien search for its roots (error positions),
4. bit flips; root-count mismatches are reported as *decode failures*
   (detected uncorrectable patterns).

Bits are numpy int8 arrays; index 0 is the first data bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import GF2m, poly2_degree, poly2_lcm, poly2_mod


@dataclass(frozen=True)
class BchDecodeResult:
    """Outcome of decoding one received word."""

    #: Corrected data+parity bits (valid only if ``ok``).
    bits: np.ndarray
    #: Number of bit errors the decoder corrected.
    errors_corrected: int
    #: False when the decoder detected an uncorrectable pattern.
    ok: bool


class BchCode:
    """A shortened binary BCH code with ``data_bits`` message bits.

    Parameters
    ----------
    data_bits:
        Message length (e.g. 512 for a 64-byte line).
    t:
        Designed correction capability in bits.
    m:
        Field degree; the natural length ``2^m - 1`` must fit the message
        plus check bits.  Chosen automatically if omitted.
    """

    def __init__(self, data_bits: int, t: int, m: int | None = None):
        if data_bits <= 0:
            raise ValueError("data_bits must be positive")
        if t <= 0:
            raise ValueError("t must be positive; use CrcDetector for detect-only")
        self.data_bits = data_bits
        self.t = t
        if m is None:
            m = self._choose_m(data_bits, t)
        self.field = GF2m(m)
        self.n = self.field.order  # natural code length

        # Generator polynomial: lcm of minimal polynomials of alpha^1..alpha^2t.
        generator = 1
        for i in range(1, 2 * t + 1):
            generator = poly2_lcm(generator, self.field.minimal_polynomial(i))
        self.generator = generator
        self.check_bits = poly2_degree(generator)
        self.k = self.n - self.check_bits  # natural message length
        if data_bits > self.k:
            raise ValueError(
                f"data_bits={data_bits} exceeds k={self.k} for m={m}, t={t}; "
                "use a larger m"
            )
        #: Length of the stored (shortened) codeword: data + parity.
        self.codeword_bits = self.data_bits + self.check_bits

    @staticmethod
    def _choose_m(data_bits: int, t: int) -> int:
        """Smallest field degree whose natural code fits the message."""
        for m in range(3, 15):
            n = (1 << m) - 1
            if n - m * t >= data_bits:
                return m
        raise ValueError(f"no supported field fits data_bits={data_bits}, t={t}")

    # -- encoding -------------------------------------------------------------

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Systematic encode: returns ``data`` followed by parity bits.

        Shortening: the message is implicitly left-padded with zeros to the
        natural length; zeros contribute nothing to the remainder, so we can
        work directly on the short message.
        """
        data = self._check_bits_array(data, self.data_bits, "data")
        # Message polynomial (bit i of the int = coefficient of x^i).  Data
        # bit 0 is the highest-degree message coefficient, matching the
        # conventional systematic layout.
        message = 0
        for bit in data:
            message = (message << 1) | int(bit)
        remainder = poly2_mod(message << self.check_bits, self.generator)
        parity = np.zeros(self.check_bits, dtype=np.int8)
        for i in range(self.check_bits):
            parity[i] = (remainder >> (self.check_bits - 1 - i)) & 1
        return np.concatenate([data, parity])

    # -- decoding ----------------------------------------------------------------

    def decode(self, received: np.ndarray) -> BchDecodeResult:
        """Correct up to ``t`` bit errors in ``received``.

        Returns a failure result (``ok=False``) when the error pattern is
        detectably uncorrectable: locator degree > t, root count mismatch,
        or a root pointing into the shortened (nonexistent) prefix.
        """
        received = self._check_bits_array(received, self.codeword_bits, "received")
        syndromes = self._syndromes(received)
        if not any(syndromes):
            return BchDecodeResult(bits=received.copy(), errors_corrected=0, ok=True)

        locator = self.field.berlekamp_massey(syndromes)
        degree = len(locator) - 1
        if degree > self.t:
            return BchDecodeResult(bits=received.copy(), errors_corrected=0, ok=False)

        positions = self.field.chien_search(locator, self.n)
        if len(positions) != degree:
            return BchDecodeResult(bits=received.copy(), errors_corrected=0, ok=False)

        corrected = received.copy()
        for pos in positions:
            if pos < 0 or pos >= self.codeword_bits:
                # Error located in the shortened prefix: detectable failure.
                return BchDecodeResult(
                    bits=received.copy(), errors_corrected=0, ok=False
                )
            corrected[pos] ^= 1

        # Sanity: corrected word must have zero syndromes.
        if any(self._syndromes(corrected)):
            return BchDecodeResult(bits=received.copy(), errors_corrected=0, ok=False)
        return BchDecodeResult(
            bits=corrected, errors_corrected=len(positions), ok=True
        )

    def extract_data(self, codeword: np.ndarray) -> np.ndarray:
        """Message bits of a (corrected) codeword."""
        codeword = self._check_bits_array(codeword, self.codeword_bits, "codeword")
        return codeword[: self.data_bits].copy()

    # -- internals --------------------------------------------------------------------

    def _syndromes(self, received: np.ndarray) -> list[int]:
        """S_i = r(alpha^i), i = 1..2t.

        The stored word covers degrees ``n-1 .. n-codeword_bits`` of the
        natural codeword (shortened prefix is zero).  Bit j of the array is
        the coefficient of x^(n-1-j).
        """
        field = self.field
        ones = np.flatnonzero(received)
        out = []
        for i in range(1, 2 * self.t + 1):
            acc = 0
            for j in ones:
                exponent = (self.n - 1 - int(j)) * i
                acc ^= field.alpha_pow(exponent)
            out.append(acc)
        return out

    @staticmethod
    def _check_bits_array(bits: np.ndarray, expected: int, name: str) -> np.ndarray:
        bits = np.asarray(bits, dtype=np.int8)
        if bits.shape != (expected,):
            raise ValueError(f"{name} must have shape ({expected},), got {bits.shape}")
        if bits.size and (bits.min() < 0 or bits.max() > 1):
            raise ValueError(f"{name} must contain only 0/1")
        return bits

"""Reed-Solomon codes over GF(2^m): symbol-oriented ECC for MLC lines.

BCH corrects *bit* errors; Reed-Solomon corrects *symbol* errors - and an
MLC line has a natural symbol structure, because drift corrupts whole
cells.  With 2-bit cells and 4-bit RS symbols, two drifted cells can land
in one symbol and cost a single unit of correction budget, while BCH pays
per bit regardless of clustering.  The trade: RS check symbols are wider
(2m bits per corrected symbol vs ~10 bits per corrected bit for the
shortened BCH), so which code is cheaper depends on how clustered the
error patterns are - exactly the kind of design question benchmark A9
settles with the real codecs.

Implementation: classical systematic RS.

* generator ``g(x) = prod_{i=1..2t} (x - alpha^i)`` with coefficients in
  GF(2^m),
* encoding by polynomial division (symbols, not bits),
* decoding by syndromes -> Berlekamp-Massey -> Chien search -> Forney's
  formula for error magnitudes (unlike binary BCH, RS must compute *what*
  to add, not just where).

Symbols are numpy int arrays in ``[0, 2^m)``; shortening works as for
BCH (implicit zero prefix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import GF2m


@dataclass(frozen=True)
class RsDecodeResult:
    """Outcome of decoding one received word."""

    symbols: np.ndarray
    errors_corrected: int
    ok: bool


class RsCode:
    """A shortened Reed-Solomon code with ``data_symbols`` message symbols.

    Parameters
    ----------
    data_symbols:
        Message length in symbols.
    t:
        Symbol-correction capability; the code stores ``2t`` check symbols.
    m:
        Symbol width in bits; natural length is ``2^m - 1`` symbols.
    """

    def __init__(self, data_symbols: int, t: int, m: int = 8):
        if data_symbols <= 0:
            raise ValueError("data_symbols must be positive")
        if t <= 0:
            raise ValueError("t must be positive")
        self.field = GF2m(m)
        self.n = self.field.order
        self.t = t
        self.check_symbols = 2 * t
        self.k = self.n - self.check_symbols
        if data_symbols > self.k:
            raise ValueError(
                f"data_symbols={data_symbols} exceeds k={self.k} for m={m}, t={t}"
            )
        self.data_symbols = data_symbols
        self.codeword_symbols = data_symbols + self.check_symbols

        # Generator polynomial, ascending coefficients (index = degree).
        generator = [1]
        for i in range(1, 2 * t + 1):
            generator = self.field.poly_mul(generator, [self.field.alpha_pow(i), 1])
        self._generator = generator

    @property
    def bits_per_symbol(self) -> int:
        return self.field.m

    @property
    def check_bits(self) -> int:
        """Storage overhead in bits."""
        return self.check_symbols * self.field.m

    # -- encoding -------------------------------------------------------------

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Systematic encode: data symbols followed by check symbols."""
        data = self._check_symbols_array(data, self.data_symbols, "data")
        field = self.field
        # Remainder of data(x) * x^{2t} divided by g(x); data[0] is the
        # highest-degree coefficient (matching the BCH layout convention).
        remainder = [0] * self.check_symbols
        for symbol in data:
            feedback = int(symbol) ^ remainder[0]
            remainder = remainder[1:] + [0]
            if feedback:
                for i in range(self.check_symbols):
                    coeff = self._generator[self.check_symbols - 1 - i]
                    if coeff:
                        remainder[i] ^= field.mul(feedback, coeff)
        return np.concatenate(
            [data, np.array(remainder, dtype=np.int64)]
        )

    # -- decoding ----------------------------------------------------------------

    def decode(self, received: np.ndarray) -> RsDecodeResult:
        """Correct up to ``t`` symbol errors."""
        received = self._check_symbols_array(
            received, self.codeword_symbols, "received"
        )
        field = self.field
        syndromes = self._syndromes(received)
        if not any(syndromes):
            return RsDecodeResult(symbols=received.copy(), errors_corrected=0, ok=True)

        locator = self.field.berlekamp_massey(syndromes)
        degree = len(locator) - 1
        if degree > self.t:
            return RsDecodeResult(symbols=received.copy(), errors_corrected=0, ok=False)

        positions = self.field.chien_search(locator, self.n)
        if len(positions) != degree:
            return RsDecodeResult(symbols=received.copy(), errors_corrected=0, ok=False)
        if any(not 0 <= p < self.codeword_symbols for p in positions):
            return RsDecodeResult(symbols=received.copy(), errors_corrected=0, ok=False)

        # Forney: with syndromes S_j = r(alpha^j) starting at j = 1 (first
        # consecutive root c = 1) and S(x) holding S_1 at degree 0, the
        # error value at a located position is
        #   e = Omega(X^-1) / Lambda'(X^-1),   Omega = (S * Lambda) mod x^{2t}
        # (the X^{1-c} factor of the general formula is 1 here).
        syndrome_poly = list(syndromes)
        omega = self.field.poly_mul(syndrome_poly, locator)[: 2 * self.t]
        corrected = received.copy()
        for pos in positions:
            natural = self.n - 1 - pos
            x_inv = field.alpha_pow(-natural % field.order)
            denominator = self._locator_derivative_at(locator, x_inv)
            if denominator == 0:
                return RsDecodeResult(
                    symbols=received.copy(), errors_corrected=0, ok=False
                )
            numerator = field.poly_eval(omega, x_inv)
            magnitude = field.div(numerator, denominator)
            corrected[pos] ^= magnitude

        if any(self._syndromes(corrected)):
            return RsDecodeResult(symbols=received.copy(), errors_corrected=0, ok=False)
        return RsDecodeResult(
            symbols=corrected, errors_corrected=len(positions), ok=True
        )

    def extract_data(self, codeword: np.ndarray) -> np.ndarray:
        codeword = self._check_symbols_array(
            codeword, self.codeword_symbols, "codeword"
        )
        return codeword[: self.data_symbols].copy()

    # -- internals --------------------------------------------------------------------

    def _syndromes(self, received: np.ndarray) -> list[int]:
        field = self.field
        nonzero = np.flatnonzero(received)
        out = []
        for i in range(1, 2 * self.t + 1):
            acc = 0
            for j in nonzero:
                exponent = (self.n - 1 - int(j)) * i
                acc ^= field.mul(int(received[j]), field.alpha_pow(exponent))
            out.append(acc)
        return out

    def _locator_derivative_at(self, locator: list[int], x: int) -> int:
        """Formal derivative of Lambda evaluated at ``x`` (char-2 field)."""
        field = self.field
        acc = 0
        # d/dx sum c_i x^i = sum over odd i of c_i x^{i-1} in char 2.
        for i in range(1, len(locator), 2):
            if locator[i]:
                acc ^= field.mul(locator[i], field.pow(x, i - 1))
        return acc

    def _check_symbols_array(
        self, symbols: np.ndarray, expected: int, name: str
    ) -> np.ndarray:
        symbols = np.asarray(symbols, dtype=np.int64)
        if symbols.shape != (expected,):
            raise ValueError(
                f"{name} must have shape ({expected},), got {symbols.shape}"
            )
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.field.size):
            raise ValueError(f"{name} symbols must be in [0, {self.field.size})")
        return symbols

    # -- bit-level adapter ---------------------------------------------------------

    def encode_bits(self, bits: np.ndarray) -> np.ndarray:
        """Encode a bit array (MSB-first per symbol)."""
        return self._symbols_to_bits(self.encode(self._bits_to_symbols(bits)))

    def decode_bits(self, bits: np.ndarray) -> tuple[np.ndarray, int, bool]:
        """Decode a bit array; returns (bits, symbol_errors, ok)."""
        result = self.decode(self._bits_to_symbols(bits, self.codeword_symbols))
        return self._symbols_to_bits(result.symbols), result.errors_corrected, result.ok

    def _bits_to_symbols(self, bits: np.ndarray, expected: int | None = None) -> np.ndarray:
        expected = self.data_symbols if expected is None else expected
        bits = np.asarray(bits, dtype=np.int64)
        width = self.field.m
        if bits.shape != (expected * width,):
            raise ValueError(
                f"bit array must have {expected * width} bits, got {bits.shape}"
            )
        grouped = bits.reshape(expected, width)
        weights = 1 << np.arange(width - 1, -1, -1)
        return (grouped * weights).sum(axis=1)

    def _symbols_to_bits(self, symbols: np.ndarray) -> np.ndarray:
        width = self.field.m
        shifts = np.arange(width - 1, -1, -1)
        bits = (symbols[:, None] >> shifts[None, :]) & 1
        return bits.reshape(-1).astype(np.int8)


@dataclass(frozen=True)
class RsBitDecodeResult:
    """Bit-level decode outcome, API-compatible with the BCH result."""

    bits: np.ndarray
    errors_corrected: int
    ok: bool


class RsBitCodec:
    """Bit-array facade over :class:`RsCode`, matching the BCH codec API.

    Lets the scheme registry and the bit-exact engine treat RS like any
    other line codec: ``encode(bits) -> bits``, ``decode(bits) -> result``
    with ``.ok``/``.errors_corrected``/``.bits``, ``extract_data``.
    ``errors_corrected`` counts *symbols*, the unit RS spends budget in.
    """

    def __init__(self, data_bits: int, t: int, m: int = 8):
        if data_bits % m:
            raise ValueError(f"data_bits must be a multiple of the symbol width {m}")
        self.code = RsCode(data_symbols=data_bits // m, t=t, m=m)
        self.data_bits = data_bits
        self.check_bits = self.code.check_bits
        self.codeword_bits = self.code.codeword_symbols * m

    def encode(self, data: np.ndarray) -> np.ndarray:
        return self.code.encode_bits(np.asarray(data, dtype=np.int8))

    def decode(self, received: np.ndarray) -> RsBitDecodeResult:
        bits, errors, ok = self.code.decode_bits(
            np.asarray(received, dtype=np.int8)
        )
        return RsBitDecodeResult(bits=bits, errors_corrected=errors, ok=ok)

    def extract_data(self, codeword: np.ndarray) -> np.ndarray:
        codeword = np.asarray(codeword, dtype=np.int8)
        if codeword.shape != (self.codeword_bits,):
            raise ValueError(
                f"codeword must have {self.codeword_bits} bits, got {codeword.shape}"
            )
        return codeword[: self.data_bits].copy()

"""Optimal Prime Fields (OPFs): p = u * 2^k + 1 with a short u.

OPF elements are stored in the Montgomery domain (radix ``R = 2^(s*w)``) and
*incompletely reduced*: the internal value may be anywhere in ``[0, R)`` as
long as it is congruent to the represented element.  Addition/subtraction use
the branch-less double-conditional-subtraction from paper Section III-A;
multiplication and squaring use the OPF-optimised FIPS Montgomery routine
(``s^2 + s`` word multiplications).  Values are computed on Python integers
with the same corrections, so every result is the exact incompletely reduced
representative the word-level routines of :mod:`repro.mpa` return; each op
charges ``counter.words`` the word-op delta measured once, at construction,
by running that executed routine.  :mod:`repro.mpa` stays the reference, and
``tests/test_field_differential.py`` checks values and tallies against it.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..mpa.addsub import modadd_incomplete, modsub_incomplete
from ..mpa.montgomery import MontgomeryContext, fips_montgomery_opf
from ..mpa.words import DEFAULT_WORD_BITS, to_words
from .counters import word_tally
from .inversion import kaliski_almost_inverse
from .prime_field import PrimeField


def is_opf_prime_shape(p: int, word_bits: int = DEFAULT_WORD_BITS) -> bool:
    """True when ``p`` has the low-weight OPF word pattern ``u * 2^k + 1``.

    Checks the *word-array* property the arithmetic relies on: LSW == 1, MSW
    non-zero, all interior words zero.
    """
    s = -(-p.bit_length() // word_bits)
    words = to_words(p, s, word_bits)
    return (
        words[0] == 1
        and words[-1] != 0
        and all(w == 0 for w in words[1:-1])
    )


class OptimalPrimeField(PrimeField):
    """A 'low-weight' prime field with Montgomery-domain OPF arithmetic.

    Args:
        u: the short multiplier (at most 16 bits in the paper).
        k: the power-of-two exponent; ``p = u * 2^k + 1``.
        word_bits: word size *w* (32 in the paper; 8 makes handy toy fields).
        name: optional human-readable identifier.

    Raises ``ValueError`` if the resulting modulus does not have the
    low-weight word shape (e.g. if ``k`` is not a multiple of *word_bits*
    plus the final partial word arrangement required), or if it does not
    fill its top word.  Incomplete reduction needs ``p > R/2``: two
    conditional corrections by ``p`` must bring any sum or difference in
    ``(-R, 2R)`` back into ``[0, R)``.
    """

    cost_profile = "opf"

    def __init__(self, u: int, k: int, word_bits: int = DEFAULT_WORD_BITS,
                 name: Optional[str] = None):
        if u <= 0:
            raise ValueError(f"u must be positive, got {u}")
        p = u * (1 << k) + 1
        super().__init__(p, name or f"OPF({u}*2^{k}+1)")
        self.u = u
        self.k = k
        self.word_bits = word_bits
        if not is_opf_prime_shape(p, word_bits):
            raise ValueError(
                f"p = {u}*2^{k}+1 does not have the OPF word shape "
                f"for w = {word_bits}"
            )
        self.mont = MontgomeryContext.create(p, word_bits)
        self.num_words = self.mont.num_words
        self.radix_bits = self.num_words * word_bits
        if p.bit_length() != self.radix_bits:
            raise ValueError(
                f"p = {u}*2^{k}+1 has {p.bit_length()} bits, not the "
                f"{self.radix_bits} of its {self.num_words} words: incomplete "
                f"reduction needs p > R/2"
            )
        self._r = self.mont.r
        self._r_mask = self._r - 1
        self._r_inv = pow(self._r, -1, p)
        #: ``-p^-1 mod R``, the full-width Montgomery quotient constant.
        self._n_prime = (-pow(p, -1, self._r)) % self._r
        # Per-op word tallies of the executed reference routines.
        zeros = [0] * self.num_words
        p_words = self.mont.p_words
        self._mul_words = word_tally(fips_montgomery_opf, zeros, zeros,
                                     self.mont)
        self._add_words = word_tally(modadd_incomplete, zeros, zeros,
                                     p_words, word_bits)
        self._sub_words = word_tally(modsub_incomplete, zeros, zeros,
                                     p_words, word_bits)
        #: Phase-1 iteration counts of every inversion performed — exposed for
        #: the leakage analysis of the projective-to-affine conversion.
        self.inversion_iteration_counts: List[int] = []

    # -- representation -----------------------------------------------------

    def int_to_internal(self, value: int) -> int:
        """Enter the Montgomery domain (one counted FIPS multiplication).

        The constants 0 and 1 are free: their Montgomery forms (0 and
        ``R mod p``) would live in ROM on the real device.
        """
        value %= self.p
        if value == 0:
            return 0
        if value == 1:
            return self.mont.r % self.p
        self.counter.mul += 1
        return self._mul(value, self.mont.r2)

    def internal_to_int(self, internal: int) -> int:
        """Leave the Montgomery domain and fully reduce (uncounted read-out)."""
        return (internal * self._r_inv) % self.p

    # -- arithmetic -----------------------------------------------------------

    def _add(self, x: int, y: int) -> int:
        # Two conditional subtractions of p, each taken on a carry out of R.
        self.counter.words += self._add_words
        t = x + y
        if t >= self._r:
            t -= self.p
            if t >= self._r:
                t -= self.p
                if t >= self._r:
                    raise AssertionError(
                        "incomplete reduction invariant violated: residual "
                        "carry 1 after two conditional subtractions"
                    )
        return t

    def _sub(self, x: int, y: int) -> int:
        # Two conditional additions of p, each taken on a borrow below 0.
        self.counter.words += self._sub_words
        t = x - y
        if t < 0:
            t += self.p
            if t < 0:
                t += self.p
                if t < 0:
                    raise AssertionError(
                        "incomplete reduction invariant violated: residual "
                        "borrow 1 after two conditional additions"
                    )
        return t

    def _mul(self, x: int, y: int) -> int:
        # Montgomery REDC with the full-width quotient m: the FIPS column
        # digits of m are exactly its words, so the result is the same
        # representative below R that fips_montgomery_opf returns.
        self.counter.words += self._mul_words
        t = x * y
        m = (t * self._n_prime) & self._r_mask
        v = (t + m * self.p) >> self.radix_bits
        return v - self.p if v >= self._r else v

    def _mul_small(self, x: int, constant: int) -> int:
        # Multiplying the Montgomery form by a *plain* short constant keeps
        # the result in the Montgomery domain: (a*R) * c = (a*c) * R.
        # Functionally we reduce with big-int mod; the cycle model prices
        # this operation at the paper's 0.25-0.3 M.
        return (x * constant) % self.p

    def _inv(self, x: int) -> int:
        # x = a * R (mod p, possibly incompletely reduced).  The inverse in
        # internal form is a^-1 * R = x^-1 * R^2 mod p.
        plain = x % self.p
        almost, k = kaliski_almost_inverse(plain, self.p)
        self.inversion_iteration_counts.append(k)
        # almost = plain^-1 * 2^k; adjust the exponent to reach R^2 = 2^(2n).
        target = 2 * self.radix_bits
        result = almost
        if k <= target:
            for _ in range(target - k):
                result = result * 2
                if result >= self.p:
                    result -= self.p
        else:  # pragma: no cover - cannot happen for k <= 2 * bitlen(p)
            result = (result * pow(2, target - k, self.p)) % self.p
        return result

    def random_element(self, rng: Optional[random.Random] = None):
        """Uniformly random element; may be produced incompletely reduced."""
        return super().random_element(rng)

"""The rings of the property tests, the digit vectors of their elements
and their nonzero scalar digits, written once.

Hypothesis records and replays every choice, so a draw costs about as
much as its number of choices.  A vector here takes three whatever e is
(42 at p = 7), where a draw per digit took 2e.  Its modes and values
come from byte strings, which Hypothesis draws uniformly; a bounded
integer is drawn near small magnitudes and would leave high digits 0.
"""

from functools import lru_cache

from hypothesis import strategies as st

from p2models.dvr import make_ring


ring = lru_cache(maxsize=None)(make_ring)


def _below(n):
    """Integers from byte strings one byte longer than n needs: every
    residue mod n occurs, each about equally often."""
    size = (n - 1).bit_length() // 8 + 2
    return st.binary(min_size=size, max_size=size).map(
        lambda b: int.from_bytes(b, "little"))


def _vectors(R, modes, digit):
    """Fresh lists of e digits.  One draw in ten is all 0 and one all
    p^M - 1; otherwise an integer read in base `modes` gives each digit's
    mode k, one read in base p^M its value q, and the digit is
    digit(k, q)."""
    def vector(kind, m, v):
        if kind < 2:
            return [(0, R.pM - 1)[kind]] * R.e
        out = []
        for _ in range(R.e):
            (m, k), (v, q) = divmod(m, modes), divmod(v, R.pM)
            out.append(digit(k, q))
        return out

    return st.builds(vector, st.integers(0, 9), _below(modes ** R.e),
                     _below(R.pM ** R.e))


# Built once per ring: building a strategy costs more than drawing it.
@lru_cache(maxsize=None)
def digit_vectors(R):
    """Each digit 0, p^M - 1 or any value: the vectors of e draws of
    one_of(just(0), just(p^M - 1), integers(0, p^M - 1))."""
    return _vectors(R, 3, lambda k, q: (0, R.pM - 1, q)[k])


@lru_cache(maxsize=None)
def nonzero_digits(R):
    """One digit in [1, p^M - 1]: 1 in one draw of ten, p^M - 1 in one,
    otherwise any value."""
    def digit(kind, q):
        return (1, R.pM - 1, q % (R.pM - 1) + 1)[min(kind, 2)]

    return st.builds(digit, st.integers(0, 9), _below(R.pM - 1))


@lru_cache(maxsize=None)
def valuation_digits(R):
    """Each digit 0, p^M - 1 or q p^j mod p^M for some 0 <= j <= M, so
    that digits of every p-valuation occur."""
    return _vectors(R, R.M + 3, lambda k, q: (
        (0, R.pM - 1)[k] if k < 2 else q * R.p ** (k - 2) % R.pM))

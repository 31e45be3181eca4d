"""The digit vectors of `tests/strategies.py` reach their edge values at
p = 7, M = 2 (e = 42), where a draw per digit would almost never give
all 0 or all p^M - 1, and its nonzero digits reach 1 and p^M - 1 at
p = 5, M = 8, where p^M - 1 has 19 bits."""

from hypothesis import Phase, find, settings
from hypothesis import strategies as st

from strategies import digit_vectors, nonzero_digits, ring, valuation_digits

R = ring(7, 2)
TOP = R.pM - 1
# find's own budget; that an example exists is the finding, and
# shrinking it took seconds
FOUND = settings(max_examples=2000, phases=[Phase.generate])


def test_digit_vectors_reach_the_edges():
    for want in ([0] * R.e, [TOP] * R.e):
        assert find(digit_vectors(R), lambda v, w=want: v == w,
                    settings=FOUND) == want
    find(digit_vectors(R), lambda v: {0, TOP} <= set(v)
         and any(0 < d < TOP for d in v), settings=FOUND)
    # each draw is a fresh list: a test may overwrite its digits[0]
    a, b = find(st.tuples(digit_vectors(R), digit_vectors(R)),
                lambda ab: ab[0] == ab[1] == [0] * R.e, settings=FOUND)
    assert a is not b


def test_valuation_digits_reach_every_inner_valuation():
    for j in range(1, R.M):
        find(valuation_digits(R), lambda v, j=j: any(
            d % R.p ** j == 0 and d % R.p ** (j + 1) for d in v),
             settings=FOUND)


def test_nonzero_digits_reach_the_edges():
    R5 = ring(5, 8)
    for want in (1, R5.pM - 1):
        assert find(nonzero_digits(R5), lambda d, w=want: d == w,
                    settings=FOUND) == want
    find(nonzero_digits(R5), lambda d: 1 < d < R5.pM - 1 and d >> 16,
         settings=FOUND)

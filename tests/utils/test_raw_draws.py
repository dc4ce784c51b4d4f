"""``RawDraws`` against numpy's own scalar calls.

Each test runs two generators from one seed: one answers through
``int(rng.integers(0, n))`` and ``rng.random()``, the other through the
helper, and the two value sequences must be equal with ``==``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import RawDraws

#: Ranges covering Lemire's easy and rejection paths; 2**31 + 1 rejects
#: about half of all draws.
RANGES = [1, 2, 3, 7, 9, 12, 16, 20, 2**31 + 1, 2**32 - 1]


def interleaved(seed, ops, pending_half=False):
    """Run ``ops`` (``n`` for ``below(n)``, ``None`` for ``random()``)
    through numpy and through the helper; return both sequences."""
    numpy_rng = np.random.default_rng(seed)
    helper_rng = np.random.default_rng(seed)
    if pending_half:
        # An odd count of 32-bit draws leaves the upper half of a word
        # pending in the bit generator.
        numpy_rng.integers(0, 5)
        helper_rng.integers(0, 5)
        assert helper_rng.bit_generator.state["has_uint32"] == 1
    draws = RawDraws(helper_rng)
    expected = [numpy_rng.random() if n is None
                else int(numpy_rng.integers(0, n)) for n in ops]
    got = [draws.random() if n is None else draws.below(n) for n in ops]
    return expected, got


ops_strategy = st.lists(st.one_of(st.none(), st.sampled_from(RANGES)),
                        max_size=300)


class TestRawDraws:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), ops_strategy, st.booleans(),
           st.integers(0, 1100))
    def test_matches_numpy_interleaved(self, seed, ops, pending_half,
                                       lead_in):
        # `lead_in` one-word draws move `ops` across the first chunk
        # boundary at a random offset.
        expected, got = interleaved(seed, [None] * lead_in + ops,
                                    pending_half)
        assert got == expected

    @pytest.mark.parametrize("n", RANGES)
    @pytest.mark.parametrize("pending_half", [False, True])
    def test_each_range_past_one_chunk(self, n, pending_half):
        ops = [n, None, n, n] * 1200  # >= 1,200 words: past a chunk
        expected, got = interleaved(11, ops, pending_half)
        assert got == expected

    def test_two_scalar_draws_match_one_pair_draw(self):
        pair = np.random.default_rng(5).integers(0, 20, size=2)
        draws = RawDraws(np.random.default_rng(5))
        assert [draws.below(20), draws.below(20)] == pair.tolist()

    def test_result_types(self):
        draws = RawDraws(np.random.default_rng(0))
        assert type(draws.below(7)) is int
        assert type(draws.random()) is float

    @pytest.mark.parametrize("n", [0, -1, 2**32, 2**40])
    def test_rejects_out_of_range(self, n):
        with pytest.raises(ValueError):
            RawDraws(np.random.default_rng(0)).below(n)

    def test_rejects_other_bit_generators(self):
        with pytest.raises(TypeError):
            RawDraws(np.random.Generator(np.random.MT19937(0)))

"""Exactness properties of the bit-parallel EDR kernel.

The contract under test is absolute: ``edr_bitparallel`` and
``edr_many_bitparallel`` must agree with the scalar and batched kernels
*byte for byte* — every finite distance identical, and every
early-abandon sentinel placed on exactly the same candidates, so the
engines can swap kernels without changing one answer or counter.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Trajectory
from repro.core.edr import EARLY_ABANDONED, edr, edr_reference
from repro.core.edr_batch import edr_many
from repro.core.edr_bitparallel import edr_bitparallel, edr_many_bitparallel
from repro.core.matching import match_bits, match_matrix

from .oracles import free_start_edr

# Candidate lengths on and around the 64-bit word edges.
_WORD_EDGES = (0, 1, 63, 64, 65, 127, 128, 129)


def _walks(rng, count, low, high, ndim=2):
    return [
        np.cumsum(rng.normal(size=(int(rng.integers(low, high)), ndim)), axis=0)
        for _ in range(count)
    ]


class TestMatchBits:
    def test_bits_equal_dense_matrix(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(int(rng.integers(1, 90)), 2))
            b = rng.normal(size=(int(rng.integers(1, 90)), 2))
            dense = match_matrix(a, b, 0.8)
            bits = match_bits(a, b, 0.8)
            m, n = dense.shape
            assert bits.shape == (m, (n + 63) // 64)
            unpacked = np.unpackbits(
                bits.view(np.uint8), axis=1, bitorder="little"
            )[:, :n].astype(bool)
            assert np.array_equal(unpacked, dense)

    def test_padding_bits_are_zero(self):
        a = np.zeros((3, 2))
        b = np.zeros((70, 2))
        bits = match_bits(a, b, 0.5)
        unpacked = np.unpackbits(bits.view(np.uint8), axis=1, bitorder="little")
        assert unpacked[:, 70:].sum() == 0  # no phantom matches past n


class TestScalarAgreement:
    """edr_bitparallel(first, second) == edr(first, second), always."""

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_random_pairs(self, ndim):
        rng = np.random.default_rng(11 + ndim)
        for _ in range(40):
            a = np.cumsum(rng.normal(size=(int(rng.integers(0, 140)), ndim)), axis=0)
            b = np.cumsum(rng.normal(size=(int(rng.integers(0, 140)), ndim)), axis=0)
            assert edr_bitparallel(a, b, 0.5) == edr(a, b, 0.5)

    @pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 129])
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129])
    def test_word_boundary_lengths(self, m, n):
        rng = np.random.default_rng(m * 131 + n)
        a = np.cumsum(rng.normal(size=(m, 2)), axis=0)
        b = np.cumsum(rng.normal(size=(n, 2)), axis=0)
        got = edr_bitparallel(a, b, 0.5)
        assert got == edr(a, b, 0.5)
        assert got == edr_reference(a, b, 0.5)

    def test_epsilon_zero_and_identical(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(40, 2))
        assert edr_bitparallel(a, a, 0.0) == 0.0
        b = rng.normal(size=(55, 2))
        assert edr_bitparallel(a, b, 0.0) == edr(a, b, 0.0)

    def test_band_matches_scalar(self):
        rng = np.random.default_rng(9)
        for band in (0, 1, 3, 10):
            a = np.cumsum(rng.normal(size=(50, 2)), axis=0)
            b = np.cumsum(rng.normal(size=(44, 2)), axis=0)
            assert edr_bitparallel(a, b, 0.5, band=band) == edr(
                a, b, 0.5, band=band
            )

    def test_bound_sentinels_match_scalar(self):
        """Same finite values AND the same abandonment pattern as edr."""
        rng = np.random.default_rng(21)
        hits = 0
        for _ in range(60):
            a = np.cumsum(rng.normal(size=(int(rng.integers(1, 80)), 2)), axis=0)
            b = np.cumsum(rng.normal(size=(int(rng.integers(1, 80)), 2)), axis=0)
            bound = float(rng.integers(0, 40))
            want = edr(a, b, 0.5, bound=bound)
            got = edr_bitparallel(a, b, 0.5, bound=bound)
            assert got == want
            if want == EARLY_ABANDONED:
                hits += 1
        assert hits > 0  # the workload actually exercised abandonment

    def test_trajectory_inputs(self):
        rng = np.random.default_rng(2)
        a = Trajectory(np.cumsum(rng.normal(size=(30, 2)), axis=0))
        b = Trajectory(np.cumsum(rng.normal(size=(25, 2)), axis=0))
        assert edr_bitparallel(a, b, 0.5) == edr(a, b, 0.5)


class TestBatchedAgreement:
    """edr_many_bitparallel == edr_many: values and sentinel placement."""

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_no_bounds(self, ndim):
        rng = np.random.default_rng(31 + ndim)
        query = np.cumsum(rng.normal(size=(70, ndim)), axis=0)
        candidates = _walks(rng, 30, 1, 130, ndim)
        want = edr_many(query, candidates, 0.5)
        got = edr_many_bitparallel(query, candidates, 0.5)
        assert np.array_equal(want, got)

    def test_empty_inputs(self):
        assert edr_many_bitparallel(np.zeros((0, 2)), [], 0.5).size == 0
        got = edr_many_bitparallel(np.zeros((0, 2)), [np.zeros((4, 2))], 0.5)
        assert np.array_equal(got, [4.0])
        got = edr_many_bitparallel(np.zeros((4, 2)), [np.zeros((0, 2))], 0.5)
        assert np.array_equal(got, [4.0])

    def test_per_candidate_bounds_byte_identical(self):
        """The compaction schedule cannot change values or sentinels."""
        rng = np.random.default_rng(47)
        for trial in range(25):
            query = np.cumsum(
                rng.normal(size=(int(rng.integers(1, 90)), 2)), axis=0
            )
            candidates = _walks(rng, int(rng.integers(1, 40)), 1, 120)
            bounds = rng.integers(0, 50, size=len(candidates)).astype(float)
            want = edr_many(query, candidates, 0.5, bounds=bounds)
            got = edr_many_bitparallel(query, candidates, 0.5, bounds=bounds)
            assert np.array_equal(want, got), f"trial {trial}"

    def test_abandon_soundness(self):
        """A sentinel always proves the true distance exceeds the bound."""
        rng = np.random.default_rng(53)
        query = np.cumsum(rng.normal(size=(60, 2)), axis=0)
        candidates = _walks(rng, 25, 5, 100)
        bounds = rng.integers(5, 45, size=len(candidates)).astype(float)
        got = edr_many_bitparallel(query, candidates, 0.5, bounds=bounds)
        for candidate, bound, value in zip(candidates, bounds, got):
            true = edr(query, candidate, 0.5)
            if value == EARLY_ABANDONED:
                assert true > bound
            else:
                assert value == true

    def test_band_delegates_exactly(self):
        rng = np.random.default_rng(61)
        query = np.cumsum(rng.normal(size=(40, 2)), axis=0)
        candidates = _walks(rng, 12, 5, 80)
        for band in (0, 2, 8):
            want = edr_many(query, candidates, 0.5, band=band)
            got = edr_many_bitparallel(query, candidates, 0.5, band=band)
            assert np.array_equal(want, got)

    def test_scalar_bound_broadcast(self):
        rng = np.random.default_rng(67)
        query = np.cumsum(rng.normal(size=(50, 2)), axis=0)
        candidates = _walks(rng, 15, 5, 90)
        want = edr_many(query, candidates, 0.5, bounds=20.0)
        got = edr_many_bitparallel(query, candidates, 0.5, bounds=20.0)
        assert np.array_equal(want, got)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_mixed_word_count_batch(self, data):
        """Candidates of 0..3 words share one column without carries
        crossing between them: values and sentinels stay exact with and
        without bounds, and in free-start mode, in 1-D to 3-D."""
        ndim = data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        def lattice(n):  # coordinate differences exact multiples of ε
            return rng.integers(-3, 4, size=(n, ndim)).astype(np.float64) * 0.5

        query = lattice(data.draw(st.integers(1, 40)))
        lengths = data.draw(
            st.lists(st.sampled_from(_WORD_EDGES), min_size=2, max_size=6)
        )
        candidates = [lattice(n) for n in lengths]
        bounds = None
        if data.draw(st.booleans()):
            bounds = rng.integers(0, 60, size=len(candidates)).astype(float)
        if data.draw(st.booleans()):
            got = edr_many_bitparallel(
                query, candidates, 0.5, bounds=bounds, free_start=True
            )
            want = [free_start_edr(query, c, 0.5) for c in candidates]
            if bounds is not None:
                want = [
                    EARLY_ABANDONED if len(c) and value > bound else value
                    for c, value, bound in zip(candidates, want, bounds)
                ]
        else:
            got = edr_many_bitparallel(query, candidates, 0.5, bounds=bounds)
            want = edr_many(query, candidates, 0.5, bounds=bounds)
        assert got.tobytes() == np.asarray(want, dtype=np.float64).tobytes()

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            edr_many_bitparallel(np.zeros((3, 2)), [np.zeros((3, 2))], -1.0)

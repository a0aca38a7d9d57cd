"""Differential tests: the sample plan against the former code.

``NeighborhoodSampler.plan`` draws each radius layer as one array and
returns the center and every point in one flat batch.  It must give exactly
what the former layered code in ``tests/one_point_oracle.py`` gives: the
center in row 0, then the same points in the same order, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator

import one_point_oracle as oracle
from cq_analyzer import rank
from cq_analyzer.rank import NeighborhoodSampler

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# ---------------------------------------------------------------------------
# NeighborhoodSampler.plan
# ---------------------------------------------------------------------------


def assert_same_plan(sampler):
    radius, points = sampler.plan()
    expected = oracle.points_by_radius(sampler)
    assert _bits(radius) == _bits([0.0] + [r for r, layer in expected for _ in layer])
    assert _bits(points) == _bits([sampler.center] + [p for _, layer in expected for p in layer])
    return radius, points


@SETTINGS
@given(
    center=st.integers(1, 8).flatmap(
        lambda n: st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)
    ),
    radii=st.lists(st.floats(1e-9, 10.0), min_size=1, max_size=6, unique=True),
    samples=st.sampled_from((0, 1, 2, 7, 32, 40)),
    seed=st.integers(0, 2**31),
)
def test_plan_matches_one_draw_per_point(center, radii, samples, seed):
    sampler = NeighborhoodSampler(
        center=tuple(center), radii=tuple(sorted(radii, reverse=True)),
        samples_per_radius=samples, seed=seed,
    )
    assert_same_plan(sampler)


class ZeroingGenerator:
    """A PCG64 stream of normal vectors in which the vectors at the given
    stream positions come out as zeros; its state includes the position, so
    a replay from a saved state replays the zeros too."""

    zero_at: frozenset = frozenset()

    def __init__(self, bit_generator):
        self._rng = Generator(bit_generator)
        self._drawn = 0
        self.bit_generator = self

    @property
    def state(self):
        return self._rng.bit_generator.state, self._drawn

    @state.setter
    def state(self, value):
        self._rng.bit_generator.state, self._drawn = value

    def standard_normal(self, size):
        g = self._rng.standard_normal(size)
        vectors = g.reshape(-1, g.shape[-1])
        for i in range(len(vectors)):
            if self._drawn + i in self.zero_at:
                vectors[i] = 0.0
        self._drawn += len(vectors)
        return g


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("zero_at", [{0}, {5, 6}, {9, 17}])
def test_plan_redraws_a_zero_vector_like_one_draw_per_point(monkeypatch, n, zero_at):
    sampler = NeighborhoodSampler(center=(0.5,) * n, radii=(1.0, 0.1, 0.01),
                                  samples_per_radius=8, seed=11)
    _, plain = sampler.plan()
    monkeypatch.setattr(ZeroingGenerator, "zero_at", frozenset(zero_at))
    monkeypatch.setattr(rank, "Generator", ZeroingGenerator)
    monkeypatch.setattr(oracle, "Generator", ZeroingGenerator)
    radius, points = assert_same_plan(sampler)
    assert _bits(points) != _bits(plain)
    assert [int(np.sum(radius == r)) for r in sampler.radii] == [8, 8, 8]
    for r, p in zip(radius[1:], points[1:]):
        assert np.linalg.norm(p - 0.5) == pytest.approx(r, rel=1e-12)

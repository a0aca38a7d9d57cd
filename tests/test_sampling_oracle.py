"""Differential tests: cone-direction sampler and sample plan against the
former code.

``cones.sample_cone_directions`` makes no random draws on an equality
kernel of dimension 1, and ``NeighborhoodSampler.points_by_radius`` draws
each radius layer as one array.  Both must give exactly what the former
code in ``tests/one_point_oracle.py`` gives: the same directions in the same
order, and the same points in every layer, bit for bit.  Only the sampler's
``attempts`` count may differ, and only on a kernel of dimension 1, where
it is 0.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, Generator

import one_point_oracle as oracle
from cq_analyzer import rank
from cq_analyzer.cones import (
    LinearizedCone, build_linearized_cone, kernel_basis, sample_cone_directions,
)
from cq_analyzer.config import DIRECTION_COUNT, ToolConfig
from cq_analyzer.corpus import load_case
from cq_analyzer.model import active_set, evaluate_point
from cq_analyzer.problem import parse_problem_dict
from cq_analyzer.rank import NeighborhoodSampler

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)

# The corpus cases whose cone has an equality kernel of dimension 1: the
# former sampler spent all 20 * DIRECTION_COUNT draws on each of them.
ONE_DIMENSIONAL_KERNEL = (
    "cusp-powers", "x-squared-leq-zero", "parallel-equalities",
    "circle-point", "duplicate-bounds", "sign-obstructed",
)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def kernel_dimension(cone, tol=1e-8):
    return kernel_basis(cone.eq_rows, tol).shape[0]


def assert_same_sample(cone, count, seed, tol=1e-8):
    got = sample_cone_directions(cone, count, seed, tol)
    expected = oracle.sample_cone_directions(cone, count, seed, tol)
    assert [_bits(d) for d in got.directions] == [_bits(d) for d in expected.directions]
    assert (got.requested, got.trivial, got.stalled) == (
        expected.requested, expected.trivial, expected.stalled
    )
    if kernel_dimension(cone, tol) >= 2:
        assert got.attempts == expected.attempts
    else:
        assert got.attempts == 0
    return got, expected


# ---------------------------------------------------------------------------
# sample_cone_directions
# ---------------------------------------------------------------------------


def _rows(rng, kind, count, n, scales):
    """``count`` rows of ``kind``: Gaussian, or signed scaled unit vectors."""
    if kind == "gaussian":
        return rng.standard_normal((count, n))
    rows = np.zeros((count, n))
    rows[np.arange(count), rng.integers(0, n, count)] = scales[:count]
    return rows


@st.composite
def cones(draw, inequalities):
    """Cones in R^n, n = 1..8, whose equality kernel has dimension 0..3."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(0, min(3, n)))
    rng = Generator(PCG64(draw(st.integers(0, 2**32 - 1))))
    kind = draw(st.sampled_from(("gaussian", "coordinate")))
    scales = draw(st.lists(st.sampled_from((-3.0, -1.0, -0.5, 0.5, 1.0, 2.0)),
                           min_size=8, max_size=8))
    if k == n:
        eq = np.zeros((draw(st.integers(0, 1)), n))
    else:
        eq = np.zeros((n - k, n))
        if kind == "gaussian":
            eq = rng.standard_normal((n - k, n))
        else:
            eq[np.arange(n - k), rng.permutation(n)[: n - k]] = scales[: n - k]
        if draw(st.booleans()):  # a dependent row keeps the kernel
            eq = np.vstack([eq, draw(st.sampled_from((2.0, -1.0))) * eq[0]])
    m_in = draw(st.integers(1, 3)) if inequalities else 0
    ineq = _rows(rng, draw(st.sampled_from(("gaussian", "coordinate"))), m_in, n, scales)
    if m_in and draw(st.booleans()):
        ineq[-1] = 0.0
    cone = LinearizedCone(
        eq_rows=eq,
        ineq_rows=ineq,
        eq_indices=tuple(range(1, len(eq) + 1)),
        ineq_indices=tuple(range(len(eq) + 1, len(eq) + m_in + 1)),
        base_point=np.zeros(n),
    )
    assert kernel_dimension(cone) == k
    return cone


@pytest.mark.parametrize("inequalities", [False, True], ids=["equalities", "inequalities"])
def test_cone_directions_match_the_former_sampler(inequalities):
    @SETTINGS
    @given(
        cone=cones(inequalities),
        count=st.sampled_from((1, 2, 3, 5, 8, 16, 24)),
        seed=st.integers(0, 2**31),
    )
    def check(cone, count, seed):
        assert_same_sample(cone, count, seed)

    check()


def test_cone_generator_reaches_every_kernel_dimension():
    seen = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(cone=cones(True))
    def collect(cone):
        seen.add(kernel_dimension(cone))

    collect()
    assert seen == {0, 1, 2, 3}


def _corpus_cone(name):
    _, pf = load_case(name)
    cfg = pf.config(ToolConfig())
    pd = evaluate_point(pf.system, pf.x0)
    return build_linearized_cone(pd, active_set(pd, cfg.tol_active)), cfg


@pytest.mark.parametrize("name", ONE_DIMENSIONAL_KERNEL)
def test_one_dimensional_kernel_makes_no_random_draws(name):
    cone, cfg = _corpus_cone(name)
    assert kernel_dimension(cone, cfg.tol_cone) == 1
    got, expected = assert_same_sample(cone, DIRECTION_COUNT, cfg.seed + 1, cfg.tol_cone)
    assert got.attempts == 0
    assert expected.attempts == 20 * DIRECTION_COUNT
    assert 1 <= len(got.directions) <= 2


def _manifold_cones():
    for problem in workloads.round_problems("analyze-manifold", 1, 0):
        pf = parse_problem_dict(problem.data)
        pd = evaluate_point(pf.system, pf.x0)
        cfg = pf.config(ToolConfig())
        yield build_linearized_cone(pd, active_set(pd, cfg.tol_active)), cfg


def test_wider_kernels_make_the_former_number_of_draws():
    cone, cfg = _corpus_cone("axis-squares")
    cases = [(cone, cfg), *_manifold_cones()]
    for cone, cfg in cases:
        assert kernel_dimension(cone, cfg.tol_cone) >= 2
        got, expected = assert_same_sample(cone, DIRECTION_COUNT, cfg.seed + 1, cfg.tol_cone)
        assert got.attempts == expected.attempts > 0


# ---------------------------------------------------------------------------
# NeighborhoodSampler.points_by_radius
# ---------------------------------------------------------------------------


def assert_same_plan(sampler):
    got = sampler.points_by_radius()
    expected = oracle.points_by_radius(sampler)
    assert [r for r, _ in got] == [r for r, _ in expected]
    for (_, layer), (_, former) in zip(got, expected):
        assert [_bits(p) for p in layer] == [_bits(p) for p in former]
    return got


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
    plain = sampler.points_by_radius()
    monkeypatch.setattr(ZeroingGenerator, "zero_at", frozenset(zero_at))
    monkeypatch.setattr(rank, "Generator", ZeroingGenerator)
    monkeypatch.setattr(oracle, "Generator", ZeroingGenerator)
    got = assert_same_plan(sampler)
    assert _bits([p for _, layer in got for p in layer]) != _bits(
        [p for _, layer in plain for p in layer]
    )
    for r, layer in got:
        assert len(layer) == 8
        for p in layer:
            assert np.linalg.norm(p - 0.5) == pytest.approx(r, rel=1e-12)

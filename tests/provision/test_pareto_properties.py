"""Hypothesis laws for the Pareto core.

``tests/provision/test_search.py`` pins example-based behavior; this
module states the algebra the provisioning pipeline leans on:

* :func:`repro.provision.dominates` is a strict partial order
  (irreflexive, asymmetric, transitive);
* the frontier is invariant to input order and to positive per-axis
  rescaling (scales drawn as powers of two, so the float products are
  exact and invariance is observable as tuple equality);
* every frontier point is non-dominated, and every dropped point is
  dominated by a surviving one (soundness + completeness);
* :func:`repro.provision.merge_frontiers` is associative and
  commutative;
* the knee lies on its frontier and is itself rescaling-invariant.

The hypothesis profile is pinned in ``tests/conftest.py`` (derandomized,
no deadline), so these runs are deterministic and CI-safe.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.provision import (
    ParetoError,
    ParetoPoint,
    dominates,
    knee_point,
    merge_frontiers,
    pareto_frontier,
)

#: Axis values drawn from a small integer grid: ties and exact-equality
#: cases (the interesting dominance corners) come up constantly.
AXIS = st.integers(min_value=0, max_value=6).map(float)
#: Exact positive rescaling factors (powers of two multiply losslessly).
SCALE = st.integers(min_value=-3, max_value=3).map(lambda e: 2.0**e)


def vectors(dims: int):
    return st.lists(
        st.tuples(*([AXIS] * dims)), min_size=1, max_size=12
    )


def points_strategy(dims: int = 3):
    return vectors(dims).map(
        lambda vs: [
            ParetoPoint(key=f"p{i}", values=v) for i, v in enumerate(vs)
        ]
    )


def rescale(point: ParetoPoint, scales) -> ParetoPoint:
    return ParetoPoint(
        key=point.key,
        values=tuple(s * v for s, v in zip(scales, point.values)),
    )


class TestDominanceOrder:
    @given(a=st.tuples(AXIS, AXIS, AXIS))
    def test_irreflexive(self, a):
        assert not dominates(a, a)

    @given(a=st.tuples(AXIS, AXIS, AXIS), b=st.tuples(AXIS, AXIS, AXIS))
    def test_asymmetric(self, a, b):
        assert not (dominates(a, b) and dominates(b, a))

    @given(
        a=st.tuples(AXIS, AXIS, AXIS),
        b=st.tuples(AXIS, AXIS, AXIS),
        c=st.tuples(AXIS, AXIS, AXIS),
    )
    def test_transitive(self, a, b, c):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ParetoError):
            dominates((1.0, 2.0), (1.0, 2.0, 3.0))


class TestFrontierLaws:
    @given(points=points_strategy())
    def test_sound_and_complete(self, points):
        frontier = pareto_frontier(points)
        kept = {p.key for p in frontier}
        for p in points:
            others = [q for q in points if q.key != p.key]
            dominated = any(dominates(q.values, p.values) for q in others)
            assert (p.key in kept) == (not dominated)

    @given(points=points_strategy(), seed=st.randoms(use_true_random=False))
    def test_input_order_invariant(self, points, seed):
        shuffled = list(points)
        seed.shuffle(shuffled)
        assert pareto_frontier(shuffled) == pareto_frontier(points)

    @given(
        points=points_strategy(),
        scales=st.tuples(SCALE, SCALE, SCALE),
    )
    def test_positive_rescaling_invariant(self, points, scales):
        # Rescaling changes coordinates but never dominance, so the
        # surviving *keys* are identical and the surviving points are
        # exactly the originals rescaled.
        frontier = pareto_frontier(points)
        rescaled = pareto_frontier(rescale(p, scales) for p in points)
        assert {p.key for p in rescaled} == {p.key for p in frontier}

    @given(points=points_strategy())
    def test_idempotent(self, points):
        frontier = pareto_frontier(points)
        assert pareto_frontier(frontier) == frontier

    def test_conflicting_key_rejected(self):
        with pytest.raises(ParetoError):
            pareto_frontier(
                [
                    ParetoPoint(key="x", values=(1.0, 2.0)),
                    ParetoPoint(key="x", values=(2.0, 1.0)),
                ]
            )

    @given(points=points_strategy())
    def test_points_round_trip_through_json(self, points):
        for point in points:
            data = json.loads(json.dumps(point.to_dict()))
            assert ParetoPoint.from_dict(data) == point

    def test_nan_axis_rejected(self):
        with pytest.raises(ParetoError):
            ParetoPoint(key="x", values=(float("nan"), 1.0))


class TestMergeLaws:
    @given(a=points_strategy(), b=points_strategy(), c=points_strategy())
    def test_associative(self, a, b, c):
        # Disambiguate keys across the three sets (same key must not
        # carry different values).
        b = [ParetoPoint(key="b" + p.key, values=p.values) for p in b]
        c = [ParetoPoint(key="c" + p.key, values=p.values) for p in c]
        left = merge_frontiers(merge_frontiers(a, b), c)
        right = merge_frontiers(a, merge_frontiers(b, c))
        flat = merge_frontiers(a, b, c)
        assert left == right == flat

    @given(a=points_strategy(), b=points_strategy())
    def test_commutative(self, a, b):
        b = [ParetoPoint(key="b" + p.key, values=p.values) for p in b]
        assert merge_frontiers(a, b) == merge_frontiers(b, a)

    @given(a=points_strategy())
    def test_merge_with_own_frontier_is_identity(self, a):
        frontier = pareto_frontier(a)
        assert merge_frontiers(frontier, a) == frontier


class TestKneeLaws:
    @given(points=points_strategy())
    def test_knee_lies_on_frontier(self, points):
        frontier = pareto_frontier(points)
        assert knee_point(frontier) in frontier

    @given(
        points=points_strategy(),
        scales=st.tuples(SCALE, SCALE, SCALE),
    )
    def test_knee_rescaling_invariant(self, points, scales):
        # Per-axis normalization cancels the scales exactly (powers of
        # two divide losslessly), so the knee's key cannot move.
        frontier = pareto_frontier(points)
        rescaled = pareto_frontier(rescale(p, scales) for p in points)
        assert knee_point(rescaled).key == knee_point(frontier).key

    def test_empty_frontier_rejected(self):
        with pytest.raises(ParetoError):
            knee_point([])

    def test_dominated_input_rejected(self):
        with pytest.raises(ParetoError):
            knee_point(
                [
                    ParetoPoint(key="good", values=(0.0, 0.0)),
                    ParetoPoint(key="bad", values=(1.0, 1.0)),
                ]
            )

    def test_weights_validated(self):
        frontier = pareto_frontier(
            [
                ParetoPoint(key="a", values=(0.0, 2.0)),
                ParetoPoint(key="b", values=(2.0, 0.0)),
            ]
        )
        with pytest.raises(ParetoError):
            knee_point(frontier, weights=(1.0,))
        with pytest.raises(ParetoError):
            knee_point(frontier, weights=(1.0, -1.0))

    def test_weights_steer_the_knee(self):
        frontier = pareto_frontier(
            [
                ParetoPoint(key="low-x", values=(0.0, 4.0)),
                ParetoPoint(key="mid", values=(1.0, 1.0)),
                ParetoPoint(key="low-y", values=(4.0, 0.0)),
            ]
        )
        assert knee_point(frontier).key == "mid"
        # Caring overwhelmingly about axis 0 drags the knee to its min.
        assert knee_point(frontier, weights=(100.0, 1.0)).key == "low-x"

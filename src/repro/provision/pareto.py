"""Pareto-dominance core for provisioning trade-offs.

Per-lot provisioning compares candidate scrub configurations along
several simultaneously-minimized axes (UE FIT, scrub energy per GiB,
write wear, $/GiB, carbon/GiB).  No single candidate is "best"; the
useful object is the *non-dominated frontier* - the candidates for
which no other candidate is at least as good on every axis and
strictly better on one.

Everything here is exact, deterministic set algebra over finite point
sets - no floating-point tolerances, no randomness - so the frontier
is a pure function of its inputs.  Properties the test suite pins
(``tests/provision/test_pareto_properties.py``):

* :func:`dominates` is a strict partial order (irreflexive,
  asymmetric, transitive);
* :func:`pareto_frontier` is invariant to input order and to any
  positive per-axis rescaling;
* :func:`merge_frontiers` is associative and commutative, so frontiers
  computed per shard/lot can be folded together in any grouping.

Outputs are always in *canonical order* - sorted by ``(values, key)``
- which is what makes order invariance observable as tuple equality.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..fields import dump, load


class ParetoError(ValueError):
    """A point set is malformed (NaN axis, mixed dimensions, key clash)."""


@dataclass(frozen=True)
class ParetoPoint:
    """One candidate's objective vector; every axis is minimized.

    ``key`` identifies the candidate (e.g. ``threshold/T3600/t4/theta3``)
    and ``values`` holds its objective coordinates.  Two points with the
    same key must carry the same values - a key appearing with two
    different vectors in one frontier computation is a caller bug and
    raises :class:`ParetoError` rather than silently keeping one.
    """

    key: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.key:
            raise ParetoError("pareto point key must be non-empty")
        if not self.values:
            raise ParetoError(f"point {self.key!r}: values need at least one axis")
        values = tuple(float(v) for v in self.values)
        for v in values:
            if math.isnan(v):
                raise ParetoError(f"point {self.key!r}: NaN axis in {values}")
        object.__setattr__(self, "values", values)

    def to_dict(self) -> dict:
        return dump(self)

    @classmethod
    def from_dict(cls, data: dict, path: str = "") -> "ParetoPoint":
        return load(cls, data, path)


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether objective vector ``a`` Pareto-dominates ``b`` (minimize).

    ``a`` dominates ``b`` iff it is no worse on every axis and strictly
    better on at least one.  Strict: a vector never dominates itself.
    """
    if len(a) != len(b):
        raise ParetoError(
            f"dominance needs equal dimensions, got {len(a)} vs {len(b)}"
        )
    strictly_better = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            strictly_better = True
    return strictly_better


def _validated(points: Iterable[ParetoPoint]) -> list[ParetoPoint]:
    """Dedup identical points, reject key clashes and mixed dimensions."""
    by_key: dict[str, ParetoPoint] = {}
    dims: int | None = None
    for point in points:
        if dims is None:
            dims = len(point.values)
        elif len(point.values) != dims:
            raise ParetoError(
                f"point {point.key!r} has {len(point.values)} axes; "
                f"expected {dims}"
            )
        seen = by_key.get(point.key)
        if seen is None:
            by_key[point.key] = point
        elif seen.values != point.values:
            raise ParetoError(
                f"point key {point.key!r} appears with conflicting values "
                f"{seen.values} and {point.values}"
            )
    return list(by_key.values())


def pareto_frontier(points: Iterable[ParetoPoint]) -> tuple[ParetoPoint, ...]:
    """The non-dominated subset of ``points``, in canonical order.

    Duplicate-valued points under *different* keys all survive together
    (none dominates the other - dominance is strict), which keeps the
    frontier stable when two candidates genuinely tie.
    """
    unique = _validated(points)
    kept = [
        p
        for p in unique
        if not any(
            dominates(q.values, p.values) for q in unique if q.key != p.key
        )
    ]
    kept.sort(key=lambda p: (p.values, p.key))
    return tuple(kept)


def merge_frontiers(
    *frontiers: Iterable[ParetoPoint],
) -> tuple[ParetoPoint, ...]:
    """Fold several frontiers (or raw point sets) into one frontier.

    ``merge(merge(A, B), C) == merge(A, merge(B, C)) == merge(A, B, C)``:
    merging is just the frontier of the union, so partial frontiers
    computed independently (per lot, per shard, per search round)
    compose without re-evaluating anything.
    """
    combined: list[ParetoPoint] = []
    for frontier in frontiers:
        combined.extend(frontier)
    return pareto_frontier(combined)

"""Grid-batched finite-horizon renewal evaluation.

The scalar oracle (:func:`repro.verify.equivalence.scalar_finite_horizon`)
answers one ``(distribution, T, t, theta, horizon)`` question at a time
with a pure-Python ``O(V^2)`` recursion - microseconds per point, but a
million-device screen or a lot x candidate provisioning grid asks the
same question tens of thousands of times.  This module first collapses
equal tasks - same distribution content hash, interval, strength,
threshold and cells per line - to one row, then batches the two
expensive stages across the distinct rows:

* **Propagation** - the per-cycle resolution vectors ``u_m`` / ``w_m``
  (probability a fresh cycle ends in a UE / write-back exactly at visit
  ``m``) are computed for many distributions at once: one ``(R, V)`` CDF
  matrix, then the count-state transition loop runs over visits with the
  tiny state/increment loops vectorized across rows.  Identical float
  operations to :meth:`RenewalModel.propagate` per row, so results
  agree to rounding noise (the ``surrogate_batch`` law pins <= 1e-9
  relative).
* **Recursion** - tasks sharing a visit grid (same ``V``, ``t``,
  ``theta``, cells per line) are stacked into ``(R, V)`` arrays and the
  renewal recursion runs as per-visit array ops: prefix sums for the
  direct terms plus one reversed-slice dot product per visit for the
  convolution terms.

Propagations are memoized on ``(distribution content hash, interval,
strength, threshold, visits, tolerance)`` in :data:`PROPAGATIONS`, an
:class:`~repro.sim.cache.ArrayCache` like the distribution cache
(:mod:`repro.sim.runner`): an in-process LRU in front of the shared
on-disk cache.  Zero-spread lots - the common case in screening fleets -
collapse to one row, one memo lookup and at most one propagation per
(lot, policy) however many devices they hold; every input task still
gets its own solution, in input order.

Consumers: :func:`repro.screen.planner.plan_screen` (one call per
chunk, one task per device) and
:class:`repro.provision.search.ProvisionSearch` (one call per lot
covering the whole candidate grid).  Batch telemetry lands in the
process metrics registry as ``surrogate_batch_*`` gauges
(``surrogate_batch_tasks`` counts the input tasks) and the
``surrogate_memo`` counter group, which counts each distinct task once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..obs.metrics import GLOBAL_REGISTRY
from .analytic import CrossingDistribution, _log_comb
from .cache import ArrayCache
from .renewal import (
    MAX_VISITS, TOLERANCE, FiniteHorizonSolution, aligned_visits, check_seconds,
)

#: Bump when the persisted propagation layout changes; stale entries then
#: miss on the key and degrade to recomputation, never to bad numbers.
RENEWAL_MEMO_FORMAT = 1


def _valid_resolution(u: np.ndarray, w: np.ndarray) -> bool:
    """Per-visit resolution probabilities: non-negative, ``u + w <= 1``."""
    return not ((u < 0).any() or (w < 0).any() or (u + w > 1.0 + 1e-12).any())


#: Propagated ``(u, w)`` pairs.  Entries are two ``(V,)`` float arrays -
#: a few KiB each - so the LRU is generous: a provisioning sweep touches
#: ``lots x candidates`` unique keys, a screening fleet one per (lot,
#: policy).  Its counters record where each request was satisfied:
#: ``memory``, ``disk`` or ``computed``.  Equal tasks inside one batch
#: call count once - they collapse to one row before any lookup.
PROPAGATIONS = ArrayCache(
    "surrogate_memo",
    prefix="renewal",
    members=("u", "w"),
    capacity=4096,
    miss="computed",
    check=_valid_resolution,
)
SURROGATE_MEMO_COUNTERS = PROPAGATIONS.counters
clear_propagation_cache = PROPAGATIONS.clear


@dataclass(frozen=True)
class RenewalTask:
    """One finite-horizon question: a device under a threshold policy."""

    #: The device's crossing-time distribution.
    distribution: CrossingDistribution
    #: Cells per line (the binomial population size).
    cells_per_line: int
    #: Scrub interval (seconds).
    interval: float
    #: ECC correction strength ``t``.
    t_ecc: int
    #: Write-back threshold ``theta`` in ``[1, t_ecc]``.
    threshold: int

    def __post_init__(self) -> None:
        if self.cells_per_line <= 0:
            raise ValueError("cells_per_line must be positive")
        check_seconds("interval", self.interval)
        if not 1 <= self.threshold <= self.t_ecc:
            raise ValueError("need 1 <= threshold <= t_ecc")


# -- the propagation memo --------------------------------------------------------


def propagation_cache_key(task: RenewalTask, visits: int, tolerance: float) -> str:
    """Content hash identifying one propagated ``(u, w)`` pair.

    Everything the vectors depend on goes in: the tabulated distribution's
    content hash, the policy point, the propagation length, and the
    survival-mass tolerance.  Equal keys mean bit-identical vectors.
    """
    payload = "|".join(
        [
            f"v{RENEWAL_MEMO_FORMAT}",
            task.distribution.content_hash(),
            repr(float(task.interval)),
            repr(int(task.t_ecc)),
            repr(int(task.threshold)),
            repr(int(task.cells_per_line)),
            repr(int(visits)),
            repr(float(tolerance)),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# -- vectorized stages -----------------------------------------------------------


def _binomial_pmf_batch(n: int, p: np.ndarray, max_k: int) -> np.ndarray:
    """Binomial(``n``, ``p_r``) PMF rows for k = 0..max_k.

    Vectorized twin of :func:`repro.sim.analytic._binomial_pmf`: same
    log-space form, same degenerate ``p = 0`` / ``p = 1`` handling, one
    row per entry of ``p``.
    """
    max_k = min(max_k, n)
    ks = np.arange(max_k + 1)
    out = np.zeros((p.size, max_k + 1))
    interior = (p > 0.0) & (p < 1.0)
    if interior.any():
        pi = p[interior][:, None]
        log_terms = (
            _log_comb(n, ks)[None, :]
            + ks[None, :] * np.log(pi)
            + (n - ks)[None, :] * np.log1p(-pi)
        )
        out[interior] = np.exp(log_terms)
    out[p <= 0.0, 0] = 1.0
    if max_k == n:
        out[p >= 1.0, n] = 1.0
    return out


def _propagate_batch(
    distributions: Sequence[CrossingDistribution],
    intervals: Sequence[float],
    t_ecc: int,
    threshold: int,
    cells_per_line: int,
    visits: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cycle resolution vectors for many rows at once.

    Row ``r`` reproduces :meth:`RenewalModel.propagate` for
    ``(distributions[r], intervals[r])`` under the shared ``(t, theta,
    cells)`` point: the CDF is evaluated as one ``(R, V)`` matrix, the
    visit loop stays in Python (each step depends on the last), and the
    tiny state/increment loops run as width-``R`` array ops.  The scalar
    solver's early break (surviving mass below :data:`TOLERANCE`) becomes a
    sticky per-row ``active`` mask, so frozen rows emit the same zero
    tail the scalar path pads with.
    """
    rows = len(distributions)
    steps = np.arange(1.0, visits + 1.0)
    cdf = np.empty((rows, visits))
    for r, distribution in enumerate(distributions):
        cdf[r] = distribution.cdf(intervals[r] * steps)

    u = np.zeros((rows, visits))
    w = np.zeros((rows, visits))
    survive = np.zeros((rows, threshold))
    survive[:, 0] = 1.0
    active = np.ones(rows, dtype=bool)
    prev_f = np.zeros(rows)
    for n in range(visits):
        f = cdf[:, n]
        denom = 1.0 - prev_f
        safe = np.where(denom <= 0.0, 1.0, denom)
        p_step = np.where(
            denom <= 0.0, 0.0, np.minimum(1.0, (f - prev_f) / safe)
        )
        prev_f = f

        active &= survive.sum(axis=1) > TOLERANCE
        if not active.any():
            break

        visit_ue = np.zeros(rows)
        visit_write = np.zeros(rows)
        next_survive = np.zeros_like(survive)
        for k in range(threshold):
            mass = survive[:, k]
            pmf = _binomial_pmf_batch(cells_per_line - k, p_step, t_ecc - k)
            for j in range(pmf.shape[1]):
                total = k + j
                share = mass * pmf[:, j]
                if total < threshold:
                    next_survive[:, total] += share
                else:  # threshold <= total <= t_ecc: write-back
                    visit_write += share
            visit_ue += mass * np.maximum(0.0, 1.0 - pmf.sum(axis=1))
        u[:, n] = np.where(active, visit_ue, 0.0)
        w[:, n] = np.where(active, visit_write, 0.0)
        survive = np.where(active[:, None], next_survive, survive)
    return u, w


def _recursion_batch(
    u: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The discrete renewal recursion over ``(R, V)`` resolution stacks.

    Vectorized form of :func:`repro.verify.equivalence.finite_horizon_recursion`:
    the direct ``sum_m u_m`` terms are prefix sums, and the convolution
    terms ``sum_m r_m * N(v - m)`` are one reversed-slice row-dot per
    visit.  Returns the horizon-final ``(expected_ue, expected_writes,
    no_ue_probability)`` per row.
    """
    rows, visits = u.shape
    resolve = u + w
    cum_u = np.cumsum(u, axis=1)
    cum_w = np.cumsum(w, axis=1)
    cum_r = np.cumsum(resolve, axis=1)
    n_ue = np.zeros((rows, visits + 1))
    n_write = np.zeros((rows, visits + 1))
    no_ue = np.ones((rows, visits + 1))
    for v in range(1, visits + 1):
        # Column m - 1 of the reversed slice is N(v - m), m = 1..v.
        tail = slice(v - 1, None, -1)
        conv_ue = np.einsum("rm,rm->r", resolve[:, :v], n_ue[:, tail])
        conv_write = np.einsum("rm,rm->r", resolve[:, :v], n_write[:, tail])
        conv_q = np.einsum("rm,rm->r", w[:, :v], no_ue[:, tail])
        n_ue[:, v] = cum_u[:, v - 1] + conv_ue
        n_write[:, v] = cum_w[:, v - 1] + conv_write
        no_ue[:, v] = np.clip(1.0 - cum_r[:, v - 1] + conv_q, 0.0, 1.0)
    return n_ue[:, visits], n_write[:, visits], no_ue[:, visits]


# -- the batched kernel ----------------------------------------------------------


def finite_horizon_batch(
    tasks: Iterable[RenewalTask], horizon: float
) -> list[FiniteHorizonSolution]:
    """Solve every task's finite-horizon question in grid-sized batches.

    Drop-in for the per-task scalar oracle
    (:func:`repro.verify.equivalence.scalar_finite_horizon`; same
    defaults, same :class:`FiniteHorizonSolution` rows, task order
    preserved).  Equal tasks - same distribution content hash, interval,
    ``t_ecc``, threshold and cells per line - are solved once and share
    one solution.  The distinct tasks sharing a visit grid - equal
    ``(visits, t_ecc, threshold, cells_per_line)`` - are stacked and
    evaluated together.  Each row's arithmetic is independent of its
    group-mates, so results do not depend on how a fleet is split across
    calls (or ``--jobs`` chunks) or on how many duplicates it holds.
    """
    tasks = list(tasks)
    check_seconds("horizon", horizon)

    # Collapse key -> row of ``distinct``; ``slots`` maps each task to its row.
    rows: dict[tuple, int] = {}
    distinct: list[RenewalTask] = []
    slots = []
    for task in tasks:
        key = (
            task.distribution.content_hash(), task.interval, task.t_ecc,
            task.threshold, task.cells_per_line,
        )
        row = rows.get(key)
        if row is None:
            row = rows[key] = len(distinct)
            distinct.append(task)
        slots.append(row)

    solutions: list[FiniteHorizonSolution | None] = [None] * len(distinct)
    groups: dict[tuple[int, int, int, int], list[int]] = {}
    for i, task in enumerate(distinct):
        visits = aligned_visits(horizon, task.interval)
        if visits == 0:
            solutions[i] = FiniteHorizonSolution(
                interval=task.interval, horizon=horizon, visits=0,
                expected_ue=0.0, expected_writes=0.0, no_ue_probability=1.0,
            )
            continue
        key = (visits, task.t_ecc, task.threshold, task.cells_per_line)
        groups.setdefault(key, []).append(i)

    propagated = 0
    for (visits, t_ecc, threshold, cells), members in groups.items():
        n_prop = min(MAX_VISITS, visits)
        resolved: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(members)
        #: memo key -> member positions still waiting on a propagation.
        pending: dict[str, list[int]] = {}
        for pos, i in enumerate(members):
            key = propagation_cache_key(distinct[i], n_prop, TOLERANCE)
            if key in pending:
                pending[key].append(pos)
                continue
            cached = PROPAGATIONS.get(key)
            if cached is None:
                cached = PROPAGATIONS.load(key, [(n_prop,), (n_prop,)])
                if cached is not None:
                    PROPAGATIONS.put(key, cached)
            if cached is None:
                pending[key] = [pos]
            else:
                resolved[pos] = cached

        if pending:
            rep_tasks = [distinct[members[positions[0]]] for positions in pending.values()]
            u2d, w2d = _propagate_batch(
                [task.distribution for task in rep_tasks],
                [task.interval for task in rep_tasks],
                t_ecc, threshold, cells, n_prop,
            )
            propagated += len(pending)
            SURROGATE_MEMO_COUNTERS["computed"] += len(pending)
            for r, (key, positions) in enumerate(pending.items()):
                value = (u2d[r].copy(), w2d[r].copy())
                PROPAGATIONS.put(key, value)
                PROPAGATIONS.save(key, value)
                for pos in positions:
                    resolved[pos] = value

        stacked_u = np.zeros((len(members), visits))
        stacked_w = np.zeros((len(members), visits))
        for pos in range(len(members)):
            u_row, w_row = resolved[pos]
            stacked_u[pos, : u_row.size] = u_row
            stacked_w[pos, : w_row.size] = w_row
        n_ue, n_write, no_ue = _recursion_batch(stacked_u, stacked_w)
        for pos, i in enumerate(members):
            solutions[i] = FiniteHorizonSolution(
                interval=distinct[i].interval,
                horizon=horizon,
                visits=visits,
                expected_ue=float(n_ue[pos]),
                expected_writes=float(n_write[pos]),
                no_ue_probability=float(no_ue[pos]),
            )

    GLOBAL_REGISTRY.gauge("surrogate_batch_tasks").set(len(tasks))
    GLOBAL_REGISTRY.gauge("surrogate_batch_groups").set(len(groups))
    GLOBAL_REGISTRY.gauge("surrogate_batch_propagations").set(propagated)
    return [solutions[row] for row in slots]

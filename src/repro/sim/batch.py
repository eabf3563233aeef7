"""Batched visit engine: whole device rounds as single array ops.

The scalar :class:`repro.sim.population.PopulationEngine` walks one region
per iteration, paying the full per-visit Python overhead (index gather,
decision call, half a dozen ledger updates) tens of thousands of times on
busy workloads where the quiescent fast-forward layer cannot engage.  This
module batches that loop for static uniform-interval policies (those whose
:meth:`repro.core.policy.ScrubPolicy.batch_interval` is not ``None``): the
*entire device round* is evaluated as one ``(regions, region_size)`` block.
The per-visit operations are the scalar engine's own, each of which takes
one visit or a whole round: demand (``_apply_demand``), the drift-crossing
comparison, the detector draw and policy decision (``visit_batch``, a
round :class:`~repro.core.policy.VisitDecision`), the read/detect/decode
charges (``_charge_visit``) and the quiescent skip's bulk charge
(``_charge_quiescent``).  Only the sparse consequences - uncorrectable
recoveries, write-backs, retirement - go through the scalar engine's
per-visit settlement, region by region in ascending order so the
population RNG stream is consumed exactly as the scalar walk consumes it.
What this module owns is the round clock, the round-level quiescence test
and the loop over regions with consequences.

Every other policy (adaptive and combined scrub steer per-region
intervals) runs on the scalar walk itself.  Batching the scheduler's
per-tick cohorts instead buys nothing: the stagger's distinct phases make
almost every cohort a single visit, and such a loop measured 1.4-1.6x
slower than the scalar walk it replays (docs/performance.md).

RNG draw-order contract (what is bit-identical, and why):

* **Engine stream** (detector draws): one C-order ``random((R, S))`` fill
  per round is bitwise the scalar walk's R successive ``random(S)``
  per-visit draws, so detector schemes stay bit-identical - including the
  multi-region case the scalar fast-forward layer must stand down for.
* **Population stream** (rewrite/lifetime draws): mutations run per region
  in ascending region order, the same order the scalar walk visits them
  within a round, so idle workloads are bit-identical for every policy.
* **Workload stream** (demand draws): demand traffic *is* batched across
  the round (one Poisson fill, one arrival-offset fill), which reorders
  draws relative to the scalar walk's per-region interleaving whenever
  more than one region carries demand.  Those runs are statistically
  equivalent, not bitwise equal, and are gated by the batch-vs-scalar band
  in :mod:`repro.verify.equivalence`.  Single-region runs and write-idle
  workloads (including read-refresh with zero read rates) replay the
  scalar draw sequence exactly.

Bit-identity is pinned by the ``batch_identity`` metamorphic law
(:mod:`repro.verify.metamorphic`); the statistical regime by
``batch_equivalence``.  Both run under ``pcm-scrub verify``.

Time-series sampling note: the batch engine takes samples at round
granularity (all samples due strictly before a round's first visit are
taken before the round is processed), so a sample landing *mid-round* can
differ from the scalar engine's visit-granular ledger by up to one round
of visits.  The final sample at the horizon is identical.
"""

from __future__ import annotations

import numpy as np

from ..core.stats import ScrubStats
from ..obs.sampler import PeriodicSampler
from .population import PopulationEngine


class BatchPopulationEngine(PopulationEngine):
    """Round-at-a-time event loop over the same population state.

    Construction arguments are identical to
    :class:`~repro.sim.population.PopulationEngine`; only the visit loop
    differs.  When the policy exposes a uniform static cadence
    (:meth:`~repro.core.policy.ScrubPolicy.batch_interval`), the stagger
    schedule is replayed whole device rounds at a time, with a round-level
    quiescent skip replacing the scalar per-region fast-forward (and
    covering the multi-region detector case the scalar layer cannot).  Any
    other policy runs on the inherited scalar walk, bit for bit.
    """

    engine_mode = "batch"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: The round cadence, or ``None`` when the policy steers per-region
        #: intervals and the run takes the scalar walk.
        self._round_interval = self.policy.batch_interval()
        #: Round-mode visit clock (``None`` until round mode starts, and
        #: forever on the scalar walk).  Lives on the engine so round-mode
        #: runs can suspend between rounds and resume bit-identically.
        self._round_times: np.ndarray | None = None

    def simulate(self, budget: int | None = None) -> ScrubStats:
        """Simulate to the horizon and return the (shared) stats ledger.

        ``budget`` bounds this call to that many loop events (device
        rounds or round-skip jumps; scheduler events on the scalar walk);
        see :meth:`repro.sim.population.PopulationEngine.simulate` for the
        suspend/resume contract.
        """
        interval = self._round_interval
        if interval is None:
            return super().simulate(budget)
        if self.complete:
            return self.stats
        engine_rng = self.streams.get("engine")
        workload_rng = self.streams.get("workload")
        self._prepare()
        num_regions = self.num_regions
        regions = np.arange(num_regions)
        times = self._round_times
        sampler = self._sampler

        scratch_last = np.empty(num_regions)
        steps = 0
        with self._profiler.span("simulate"):
            while times[0] <= self.horizon:
                if budget is not None and steps >= budget:
                    return self.stats
                steps += 1
                if sampler is not None:
                    sampler.advance_to(times[0])
                if self._ff_active and self._skip_quiescent_rounds(
                    times, interval, engine_rng, sampler, scratch_last
                ):
                    continue
                if times[-1] <= self.horizon:
                    self._process_cohort(
                        times, regions, engine_rng, workload_rng
                    )
                    times += interval
                else:
                    # Partial final round: only the leading regions still
                    # fit before the horizon, and no later round can.
                    due = int(np.searchsorted(times, self.horizon, side="right"))
                    self._process_cohort(
                        times[:due], regions[:due], engine_rng, workload_rng
                    )
                    break
            self._account_demand_reads()
            if sampler is not None:
                sampler.finalize(self.horizon)
        self.complete = True
        return self.stats

    def _prepare_loop(self, ff_active: bool) -> bool:
        """Round-mode setup: arm the round skip and start the round clock.

        The round skip folds whole rounds, so it needs every region
        fast-forward eligible and demand-idle; otherwise it stands down for
        the run.  A snapshot restore may already have set the clock.
        """
        interval = self._round_interval
        if interval is None:
            return super()._prepare_loop(ff_active)
        num_regions = self.num_regions
        if ff_active:
            if any(
                self.policy.fast_forward_interval(r) is None
                for r in range(num_regions)
            ):
                self._note_fast_forward_disabled("policy", 0.0)
                ff_active = False
            elif not bool(self._ff_region_idle.all()):
                self._note_fast_forward_disabled("demand", 0.0)
                ff_active = False
            else:
                self.population.enable_region_tracking(self.region_size)
        if self._round_times is None:
            # The scheduler's stagger, replayed verbatim: region r first
            # visits at interval*(r+1)/R, then advances by iterated
            # `+= interval` per round - the same per-region float additions
            # the scalar heap replays, so every visit time is bitwise the
            # scalar one.  Within a round times ascend with the region
            # index and rounds never interleave (round k ends at
            # (k+1)*interval, before round k+1's first phase), matching the
            # heap's (time, region) pop order.
            self._round_times = np.array(
                [interval * (r + 1) / num_regions for r in range(num_regions)]
            )
        return ff_active

    def _skip_quiescent_rounds(
        self,
        times: np.ndarray,
        interval: float,
        engine_rng: np.random.Generator,
        sampler: PeriodicSampler | None,
        scratch_last: np.ndarray,
    ) -> bool:
        """Fold a run of provably zero-error device rounds into one charge.

        The round-level analogue of the scalar engine's
        :meth:`~repro.sim.population.PopulationEngine._maybe_fast_forward`,
        with the same bit-exactness argument - except the detector clause:
        the batch engine draws the detector for a whole round in visit
        order anyway, so advancing the engine stream by ``rounds * R * S``
        draws is exact for any number of regions (the scalar layer must
        stand down for multi-region detector runs; this one need not).
        Mutates ``times`` past the skipped rounds and returns ``True``
        when anything was skipped.
        """
        population = self.population
        num_regions = self.num_regions
        actionable = min(
            population.region_actionable_time(r) for r in range(num_regions)
        )
        if actionable <= times[-1]:
            return False
        if self.retire_hard_limit is not None and (
            max(population.region_max_stuck(r) for r in range(num_regions))
            >= self.retire_hard_limit
        ):
            return False
        cap = self.horizon
        if sampler is not None and sampler.next_due < cap:
            cap = sampler.next_due
        if not (times[-1] <= cap):
            return False

        first = times.copy()
        rounds = 0
        while times[-1] <= cap and times[-1] < actionable:
            scratch_last[:] = times
            times += interval
            rounds += 1
        if rounds == 0:
            return False

        with self._profiler.span("fastforward"):
            self._charge_quiescent(rounds * num_regions, engine_rng)
            self._last_visit.reshape(num_regions, self.region_size)[:, :] = (
                scratch_last[:, None]
            )
            if self._tracer.enabled:
                for region in range(num_regions):
                    self._tracer.emit(
                        "fast_forward",
                        float(first[region]),
                        region=region,
                        skipped=rounds,
                        to_time=float(times[region]),
                    )
        return True

    # -- the batched visit ----------------------------------------------------

    def _process_cohort(
        self,
        times: np.ndarray,
        regions: np.ndarray,
        engine_rng: np.random.Generator,
        workload_rng: np.random.Generator,
    ) -> None:
        """One batched pass over ``regions`` visited at per-region ``times``.

        Dense work (demand, error-count evaluation, detector, decision,
        read/detect/decode/histogram charges) runs as whole-round calls to
        the scalar engine's per-visit operations; sparse consequences go
        through the scalar engine's
        :meth:`~repro.sim.population.PopulationEngine._settle_visit`, per
        region in ascending order, so the population stream and the
        scrub-write ledger replay the scalar sequence.
        """
        profiler = self._profiler
        verifier_armed = self._verifier.enabled
        num_regions = regions.shape[0]
        idx2 = self._region_index[regions]

        with profiler.span("visit"):
            with profiler.span("demand"):
                self._apply_demand(idx2, times[:, None], workload_rng)
                if self.read_refresh:
                    for i in range(num_regions):
                        self._apply_read_refresh(
                            idx2[i], float(times[i]), workload_rng
                        )

            error_counts = self.population.error_counts(idx2, times)
            with profiler.span("decode"):
                decision = self.policy.visit_batch(
                    times, regions, error_counts, engine_rng
                )

            # The invariant checker cross-checks the ledger after *every*
            # visit, so verified runs charge region by region inside the
            # loop below instead (same additions, same final ledger).
            if not verifier_armed:
                self._charge_visit(idx2, error_counts, decision)

            # Tracing, invariant checks, and retirement need every region;
            # otherwise only regions with consequences enter the loop.
            if (
                self.retire_hard_limit is not None
                or self._tracer.enabled
                or verifier_armed
            ):
                targets = range(num_regions)
            else:
                targets = np.flatnonzero(
                    decision.uncorrectable.any(axis=1)
                    | decision.written_back.any(axis=1)
                ).tolist()
            for i in targets:
                row = decision.row(i)
                if verifier_armed:
                    self._charge_visit(idx2[i], error_counts[i], row)
                self._settle_visit(
                    float(times[i]), int(regions[i]), idx2[i], error_counts[i], row
                )

            self._last_visit.reshape(self.num_regions, self.region_size)[
                regions
            ] = times[:, None]

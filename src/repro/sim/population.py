"""The population Monte-Carlo engine - the reproduction's workhorse.

Simulating a year of scrubbing over many thousands of lines is intractable
if every cell's resistance is stepped through time.  Two observations make
it cheap without approximating the physics:

1. **Crossing times are deterministic per write.**  Given the drawn
   ``(r0, nu)`` of a cell, the moment it will misread is a closed form
   (:meth:`repro.pcm.drift.DriftModel.crossing_time`), so the randomness
   can be sampled once per write instead of per time step.

2. **Only the smallest few crossing times per line matter.**  A line is
   uncorrectable once its error count exceeds the ECC strength ``t <= 8``;
   what happens after the ~24th error is irrelevant.  So each line keeps
   only its ``keep`` smallest crossing times, drawn directly as order
   statistics of the cell-crossing mixture distribution
   (:meth:`repro.sim.analytic.CrossingDistribution.sample_smallest`) -
   O(keep) per line per write, independent of cells-per-line.

The same trick handles endurance: each line keeps its ``keep`` smallest
per-cell write lifetimes (drawn once - lifetimes are physical, not
per-write), and its stuck-cell count is a lookup against the line's write
counter.

:class:`PopulationEngine` plays scrub visits (via a
:class:`repro.core.scheduler.ScrubScheduler`) and Poisson demand traffic
against this state, delegating all decisions to a
:class:`repro.core.policy.ScrubPolicy` and charging a
:class:`repro.core.stats.ScrubStats` ledger.
"""

from __future__ import annotations

import numpy as np

from ..core.policy import ScrubPolicy, VisitDecision
from ..core.scheduler import ScrubScheduler
from ..core.stats import ScrubStats
from ..obs.profile import NULL_PROFILER
from ..obs.sampler import PeriodicSampler
from ..obs.session import Observation
from ..obs.trace import NULL_TRACER
from ..pcm.endurance import EnduranceModel
from ..pcm.thermal import ThermalProfile
from ..verify.invariants import NULL_VERIFIER, Verifier
from ..workloads.generators import DemandRates, idle_rates
from .analytic import CrossingDistribution
from .rng import RngStreams


class LinePopulation:
    """Order-statistics state for a population of lines.

    Parameters
    ----------
    num_lines, cells_per_line:
        Geometry (cells per line counts data + check cells; the check bits
        drift like any other cells and are protected by the same code).
    distribution:
        Crossing-time mixture to draw from.
    endurance:
        Endurance model, or ``None`` to disable wear-out.
    rng:
        Stream for all population draws.
    keep:
        Order statistics retained per line; must comfortably exceed the
        strongest ECC strength simulated.
    thermal:
        Optional time-varying temperature profile.  When given, the
        ``distribution`` must be tabulated at the profile's *reference*
        temperature; sampled crossing ages are mapped to wall-clock
        through the profile's effective-age inverse.
    """

    def __init__(
        self,
        num_lines: int,
        cells_per_line: int,
        distribution: CrossingDistribution,
        rng: np.random.Generator,
        endurance: EnduranceModel | None = None,
        keep: int = 24,
        thermal: "ThermalProfile | None" = None,
    ):
        if num_lines <= 0 or cells_per_line <= 0:
            raise ValueError("geometry must be positive")
        if keep <= 0 or keep > cells_per_line:
            raise ValueError("keep must be in [1, cells_per_line]")
        self.num_lines = num_lines
        self.cells_per_line = cells_per_line
        self.distribution = distribution
        self.keep = keep
        self.rng = rng
        self.thermal = thermal
        #: Stuck-cell mismatch probability on a data change: a frozen cell
        #: disagrees with fresh uniform data unless it matches by luck.
        levels = distribution.spec.num_levels
        self._mismatch_probability = (levels - 1) / levels

        #: Absolute crossing times, ascending per row, inf past the last.
        self.crossing = np.full((num_lines, keep), np.inf)
        #: Cumulative full-line writes (demand + scrub + recovery).
        self.writes = np.zeros(num_lines, dtype=np.int64)
        #: Stuck cells currently conflicting with stored data.
        self.hard_mismatch = np.zeros(num_lines, dtype=np.int16)
        #: Sub-line wear accumulated by partial rewrites (cells/C units).
        self._fractional_wear = np.zeros(num_lines)
        #: Per-region fast-forward caches; armed by
        #: :meth:`enable_region_tracking`, ``None`` keeps every mutator on
        #: its exact pre-tracking path.
        self._region_size: int | None = None

        self._endurance = endurance
        if endurance is not None:
            # Smallest `keep` of `cells_per_line` per-cell lifetimes, per
            # line, drawn once: lifetimes belong to the physical cells.
            self.lifetime = self._lifetime_order_statistics(endurance, num_lines)
        else:
            self.lifetime = np.full((num_lines, keep), np.inf)

        # Everything is freshly written at t = 0.
        self.rewrite(np.arange(num_lines), np.zeros(num_lines), data_changed=True)
        # The initial fill is not an operational write; reset the counter.
        self.writes[:] = 0

    def _lifetime_order_statistics(
        self, endurance: EnduranceModel, num_lines: int
    ) -> np.ndarray:
        """Smallest ``keep`` of ``cells_per_line`` lifetimes, per line."""
        u = np.zeros((num_lines, self.keep))
        prev = np.zeros(num_lines)
        for i in range(self.keep):
            v = self.rng.random(num_lines)
            step = 1.0 - np.power(v, 1.0 / (self.cells_per_line - i))
            prev = prev + (1.0 - prev) * step
            u[:, i] = prev
        # Invert the lognormal CDF at the uniform order statistics.
        sigma_ln = endurance.spec.sigma_log10 * np.log(10.0)
        if sigma_ln == 0:
            return np.full(u.shape, endurance.spec.mean_writes)
        mu_ln = np.log(endurance.spec.mean_writes) - 0.5 * sigma_ln**2
        from scipy.special import ndtri

        return np.exp(mu_ln + sigma_ln * ndtri(u))

    # -- queries ------------------------------------------------------------

    def drift_error_counts(
        self, idx: np.ndarray, now: float | np.ndarray
    ) -> np.ndarray:
        """Drifted cells per line at time ``now`` (capped at ``keep``).

        ``idx`` may be any integer index shape; the result matches it.  A
        2-D ``(regions, region_size)`` block with a per-region ``now``
        array evaluates a whole device round in one comparison.
        """
        rows = self.crossing[idx]
        now = np.asarray(now, dtype=np.float64)
        if now.ndim:
            now = now.reshape(now.shape + (1,) * (rows.ndim - now.ndim))
        return (rows <= now).sum(axis=-1).astype(np.int64)

    def stuck_counts(self, idx: np.ndarray) -> np.ndarray:
        """Stuck (worn-out) cells per line (capped at ``keep``)."""
        return (
            (self.lifetime[idx] <= self.writes[idx][..., None])
            .sum(axis=-1)
            .astype(np.int64)
        )

    def error_counts(
        self, idx: np.ndarray, now: float | np.ndarray
    ) -> np.ndarray:
        """Total observable errors per line: drift + conflicting stuck cells."""
        return self.drift_error_counts(idx, now) + self.hard_mismatch[idx]

    # -- per-region fast-forward caches --------------------------------------

    def enable_region_tracking(self, region_size: int) -> None:
        """Arm lazily maintained per-region actionable-time caches.

        The fast-forward layer asks, per scrub visit, when a region will
        next have anything observable (:meth:`region_actionable_time`) and
        how worn its worst line is (:meth:`region_max_stuck`).  Recomputing
        either from scratch costs a full region scan, so both are cached
        per region and invalidated by the mutators (``rewrite``,
        ``partial_rewrite``, and ``retire`` through them).
        """
        if region_size <= 0 or self.num_lines % region_size:
            raise ValueError("region_size must evenly divide num_lines")
        num_regions = self.num_lines // region_size
        self._region_size = region_size
        self._region_dirty = np.ones(num_regions, dtype=bool)
        self._region_actionable = np.zeros(num_regions)
        self._region_max_stuck = np.zeros(num_regions, dtype=np.int64)

    def _mark_regions_dirty(self, idx: np.ndarray) -> None:
        if self._region_size is None:
            return
        regions = np.unique(np.asarray(idx) // self._region_size)
        self._region_dirty[regions] = True

    def _refresh_region(self, region: int) -> None:
        size = self._region_size
        sl = slice(region * size, (region + 1) * size)
        if self.hard_mismatch[sl].any():
            # A standing hard mismatch is an error at every instant.
            self._region_actionable[region] = -np.inf
        else:
            self._region_actionable[region] = float(self.crossing[sl, 0].min())
        self._region_max_stuck[region] = int(
            (self.lifetime[sl] <= self.writes[sl, None]).sum(axis=1).max()
        )
        self._region_dirty[region] = False

    def region_actionable_time(self, region: int, theta: int = 1) -> float:
        """Earliest instant any line of ``region`` reaches ``theta`` errors.

        Folds hard mismatches through the same theta-index idiom as the
        read-refresh window solver: a line with ``h`` standing hard
        mismatches reaches ``theta`` total errors at its ``(theta - h)``-th
        drift crossing, and is actionable immediately (``-inf``) once
        ``h >= theta``.  The engine's fast-forward layer always asks for
        ``theta == 1``: with decode-all schemes a single error already
        perturbs the observed histogram, and with detector gating it makes
        the detector's RNG draw significant — so only a strictly error-free
        stretch may be skipped.  The ``theta == 1`` hot path is served from
        the per-region cache.
        """
        if self._region_size is None:
            raise RuntimeError("call enable_region_tracking() first")
        if not 0 <= region < self._region_dirty.size:
            raise ValueError(f"region {region} out of range")
        if theta < 1:
            raise ValueError("theta must be >= 1")
        if theta == 1:
            if self._region_dirty[region]:
                self._refresh_region(region)
            return float(self._region_actionable[region])
        size = self._region_size
        sl = slice(region * size, (region + 1) * size)
        hard = self.hard_mismatch[sl].astype(np.int64)
        theta_index = np.clip(theta - 1 - hard, 0, self.keep - 1)
        times = self.crossing[sl][np.arange(size), theta_index]
        times = np.where(hard >= theta, -np.inf, times)
        return float(times.min())

    def region_max_stuck(self, region: int) -> int:
        """Worst per-line stuck-cell count in ``region`` (cached)."""
        if self._region_size is None:
            raise RuntimeError("call enable_region_tracking() first")
        if not 0 <= region < self._region_dirty.size:
            raise ValueError(f"region {region} out of range")
        if self._region_dirty[region]:
            self._refresh_region(region)
        return int(self._region_max_stuck[region])

    # -- mutations -----------------------------------------------------------------

    def rewrite(
        self,
        idx: np.ndarray,
        at_times: np.ndarray,
        data_changed: bool,
        extra_writes: np.ndarray | None = None,
    ) -> None:
        """Re-program whole lines at per-line times ``at_times``.

        Drift clocks reset (fresh crossing-time order statistics anchored at
        the write time).  The write counter advances by 1 plus
        ``extra_writes`` (multiple demand writes between scrub visits each
        wear the cells, but only the last one's drift clock matters).

        ``data_changed`` distinguishes demand writes and UE-recovery loads
        (new data: stuck cells re-draw whether they conflict) from scrub
        write-backs (same data: existing conflicts persist, cells that froze
        earlier while holding this data stay consistent).
        """
        idx = np.asarray(idx)
        if idx.size == 0:
            return
        at_times = np.asarray(at_times, dtype=np.float64)
        if at_times.shape != idx.shape:
            raise ValueError("at_times must match idx")
        relative = self.distribution.sample_smallest(
            idx.size, self.cells_per_line, self.keep, self.rng
        )
        if self.thermal is None:
            self.crossing[idx] = relative + at_times[:, None]
        else:
            self.crossing[idx] = self.thermal.crossing_wall_times(
                at_times[:, None], relative
            )
        # Cells stuck *before* this write may conflict with the new data;
        # cells that freeze during it hold the data just written, so they
        # start consistent.
        stuck_before = self.stuck_counts(idx) if data_changed else None
        self.writes[idx] += 1
        if extra_writes is not None:
            self.writes[idx] += np.asarray(extra_writes, dtype=np.int64)
        if data_changed:
            self.hard_mismatch[idx] = self.rng.binomial(
                stuck_before, self._mismatch_probability
            ).astype(np.int16)
        self._mark_regions_dirty(idx)

    def partial_rewrite(self, idx: np.ndarray, now: float) -> np.ndarray:
        """Re-program only the *drifted* cells of each line at time ``now``.

        PCM programs cells individually, so a scrub write-back need not
        touch the healthy cells: their programmed state (and drift clock,
        and wear) is left alone.  In the order-statistics representation
        the drifted cells are exactly the leading entries with
        ``crossing <= now``; they are replaced by fresh order statistics
        (anchored at ``now``) of that many new cell draws, merged with the
        surviving entries.

        Wear advances *fractionally*: rewriting ``j`` of ``C`` cells costs
        ``j/C`` of a line write against the per-line wear counter (the
        rewritten cells are a random subset over time, so average wear is
        the right per-line statistic).  Returns the per-line rewritten-cell
        counts so callers can charge energy proportionally.

        Truncation note: replacement cells that never cross contribute
        ``inf`` entries; untracked original cells (beyond the ``keep``
        window) are not re-promoted into the row, slightly undercounting
        errors at horizons where the count would exceed ``keep - j``
        anyway - the same order-statistics truncation class as the rest of
        the engine.
        """
        idx = np.asarray(idx)
        if idx.size == 0:
            return np.zeros(0, dtype=np.int64)
        rows = self.crossing[idx]
        crossed = (rows <= now).sum(axis=1).astype(np.int64)

        # Group lines by how many cells they replace so the fresh-draw
        # sampler runs on equal-width batches.
        for j in np.unique(crossed):
            if j == 0:
                continue
            group = np.flatnonzero(crossed == j)
            lines = idx[group]
            fresh_keep = int(min(j, self.keep))
            fresh = self.distribution.sample_smallest(
                group.size, int(j), fresh_keep, self.rng
            )
            if self.thermal is None:
                fresh = fresh + now
            else:
                fresh = self.thermal.crossing_wall_times(
                    np.full((group.size, 1), now), fresh
                )
            surviving = self.crossing[lines, int(j):]
            merged = np.sort(
                np.concatenate([surviving, fresh], axis=1), axis=1
            )[:, : self.keep]
            self.crossing[lines] = merged

        # Fractional wear: j/C of a full-line write.
        self._fractional_wear[idx] += crossed / self.cells_per_line
        whole = self._fractional_wear[idx] >= 1.0
        if whole.any():
            w_idx = idx[whole]
            increments = np.floor(self._fractional_wear[w_idx]).astype(np.int64)
            self.writes[w_idx] += increments
            self._fractional_wear[w_idx] -= increments
        self._mark_regions_dirty(idx)
        return crossed

    def retire(self, idx: np.ndarray, now: float) -> None:
        """Replace lines with fresh spares (new cells: new lifetimes)."""
        idx = np.asarray(idx)
        if idx.size == 0:
            return
        if self._endurance is not None:
            self.lifetime[idx] = self._fresh_lifetimes(idx.size)
        self.writes[idx] = 0
        self.hard_mismatch[idx] = 0
        self.rewrite(idx, np.full(idx.size, now), data_changed=True)
        self.writes[idx] = 0

    def _fresh_lifetimes(self, count: int) -> np.ndarray:
        endurance = self._endurance
        if endurance is None:
            raise RuntimeError("retirement requires an endurance model")
        return self._lifetime_order_statistics(endurance, count)


#: Chunk size for bulk RNG advancement: bounds peak memory while consuming
#: exactly the doubles the skipped per-visit detector draws would have
#: (``Generator.random`` fills sequentially, so any chunking of the same
#: total consumes an identical stream).
_RNG_ADVANCE_CHUNK = 1 << 20


def _advance_rng(rng: np.random.Generator, count: int) -> None:
    while count > 0:
        take = min(count, _RNG_ADVANCE_CHUNK)
        rng.random(take)
        count -= take


class PopulationEngine:
    """Event loop: scrub visits + Poisson demand against a population.

    Parameters
    ----------
    population:
        Device state.
    policy:
        Scrub mechanism under test.
    stats:
        Ledger to charge; typically fresh per run.
    streams:
        Named RNG family (uses the ``"engine"`` and ``"workload"`` streams).
    rates:
        Demand traffic; ``None`` means idle memory.
    region_size:
        Lines per scrub region (a bank); adaptive policies steer intervals
        at this granularity.
    horizon:
        Simulated wall-clock seconds.
    retire_hard_limit:
        Retire a line once this many of its cells are stuck (``None``
        disables retirement).
    read_refresh:
        Treat demand reads as scrub probes: the read path decodes anyway,
        so a read that observes an error count at or above the policy's
        write-back threshold triggers an immediate refresh write, and a
        read of an uncorrectable line surfaces the UE at the read instead
        of at the next scrub pass.  Modelled at the last read per line per
        inter-visit window (the one closest to the error peak).
    spare_pool:
        Optional finite spare budget behind retirement
        (:class:`repro.mem.sparing.SparePool`); retirements beyond the
        budget are refused and the broken lines stay in service.
    obs:
        Optional telemetry bundle (:class:`repro.obs.session.Observation`).
        When ``None`` (the default) the engine runs its exact
        pre-observability path: the no-op tracer/profiler guards draw no
        randomness and cost one attribute check per visit, so results are
        bit-identical with observability on or off.
    verifier:
        Optional invariant checker
        (:class:`repro.verify.invariants.InvariantChecker`).  ``None``
        (the default) installs the no-op verifier: one ``enabled`` check
        per visit, no randomness, results bit-identical with verification
        on or off.  When enabled, the engine hands every visit's decision
        counts to the checker, which raises
        :class:`repro.verify.invariants.InvariantViolation` the moment the
        stats ledger stops agreeing with them.
    """

    #: Which visit loop this engine implements; emitted once per traced run
    #: (``engine_mode`` event) so downstream tooling can tell traces apart.
    engine_mode = "scalar"

    def __init__(
        self,
        population: LinePopulation,
        policy: ScrubPolicy,
        stats: ScrubStats,
        streams: RngStreams,
        horizon: float,
        rates: DemandRates | None = None,
        region_size: int = 1024,
        retire_hard_limit: int | None = None,
        read_refresh: bool = False,
        spare_pool=None,
        obs: Observation | None = None,
        verifier: Verifier | None = None,
        fast_forward: bool = True,
    ):
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if region_size <= 0:
            raise ValueError("region_size must be positive")
        if population.num_lines % region_size:
            raise ValueError("num_lines must be a multiple of region_size")
        self.population = population
        self.policy = policy
        self.stats = stats
        self.streams = streams
        self.horizon = horizon
        self.rates = rates if rates is not None else idle_rates(population.num_lines)
        if self.rates.num_lines != population.num_lines:
            raise ValueError("demand rates must cover the whole population")
        self.region_size = region_size
        self.num_regions = population.num_lines // region_size
        self.retire_hard_limit = retire_hard_limit
        self.read_refresh = read_refresh
        if spare_pool is not None and spare_pool.num_regions != self.num_regions:
            raise ValueError("spare pool must cover exactly the scrub regions")
        self.spare_pool = spare_pool
        self.obs = obs
        #: Event sink and wall-time spans; the shared no-op singletons when
        #: observability is off, so hot paths pay one ``enabled`` check.
        self._tracer = obs.tracer if obs is not None else NULL_TRACER
        self._profiler = obs.profiler if obs is not None else NULL_PROFILER
        #: Invariant checker; the shared no-op singleton when verification
        #: is off, so hot paths pay one ``enabled`` check.
        self._verifier = verifier if verifier is not None else NULL_VERIFIER
        # Policies emit their own events (e.g. ``interval_adapted``); bind
        # this run's tracer so a reused policy object never leaks one.
        policy.tracer = self._tracer
        #: Per-line time of the last scrub visit (or start of time).
        self._last_visit = np.zeros(population.num_lines)
        self._all_lines = np.arange(population.num_lines)
        #: Row ``r`` is region ``r``'s line indices; ``region_lines`` serves
        #: views of this instead of allocating an ``arange`` per visit.
        self._region_index = self._all_lines.reshape(
            self.num_regions, region_size
        )
        #: Scratch for per-line rewrite timestamps (``rewrite`` consumes the
        #: values within the call), replacing a ``np.full`` per mutation.
        self._fill_times = np.empty(region_size)
        #: Quiescent-visit fast-forward (bit-identical to the naive walk;
        #: see :meth:`_maybe_fast_forward`).
        self.fast_forward = fast_forward
        self.fast_forward_skipped_visits = 0
        self.fast_forward_jumps = 0
        self._ff_disabled_reported: set[str] = set()
        # A region may fast-forward only if demand never touches it: any
        # write rate perturbs state and RNG, and (under read-refresh) any
        # read rate does too, so idleness is a static per-region property.
        write = self.rates.write_rate.reshape(self.num_regions, region_size)
        read = self.rates.read_rate.reshape(self.num_regions, region_size)
        self._ff_region_idle = ~(
            (write != 0).any(axis=1) | (read != 0).any(axis=1)
        )
        self._ff_counter = (
            obs.metrics.counter("fast_forward_skipped_visits")
            if obs is not None and fast_forward
            else None
        )
        #: Loop state lives on the engine (not in :meth:`simulate` locals)
        #: so a run can suspend at an event boundary and resume - in this
        #: process or, via :mod:`repro.sim.snapshot`, in another one.
        self._scheduler: ScrubScheduler | None = None
        self._sampler: PeriodicSampler | None = None
        self._ff_active = False
        self._prepared = False
        #: True once the run reached the horizon and final accounting
        #: (demand reads, sampler flush) has been charged.
        self.complete = False

    def region_lines(self, region: int) -> np.ndarray:
        return self._region_index[region]

    def _times_filled(self, count: int, time: float) -> np.ndarray:
        """``count`` copies of ``time`` from the preallocated scratch buffer."""
        buf = self._fill_times[:count]
        buf.fill(time)
        return buf

    def _prepare(self) -> None:
        """One-time loop setup, shared by fresh starts and snapshot resumes.

        A snapshot restore pre-seeds ``self._scheduler`` before the first
        :meth:`simulate` call; everything else here is deterministic,
        draws no randomness, and is safe to recompute on resume (the
        fast-forward caches are lazily rebuilt from the restored arrays).
        """
        if self._prepared:
            return
        self._prepared = True
        self._emit_engine_mode()
        if self.obs is not None and self.obs.config.sample_every is not None:
            self._sampler = PeriodicSampler(
                self.obs.config.sample_every,
                self._collect_sample,
                self.obs.timeseries,
            )
        ff_active = self.fast_forward
        if ff_active and self.read_refresh:
            # Read-refresh plays demand probes between visits; a "quiet"
            # window is never provably event-free, so fast-forward stands
            # down for the whole run.
            self._note_fast_forward_disabled("read_refresh", 0.0)
            ff_active = False
        self._ff_active = self._prepare_loop(ff_active)

    def _prepare_loop(self, ff_active: bool) -> bool:
        """The visit loop's own setup; returns whether fast-forward is armed.

        The scalar walk arms per-region fast-forward as offered and builds
        the scheduler unless a snapshot restore already provided one.
        """
        if ff_active:
            self.population.enable_region_tracking(self.region_size)
        if self._scheduler is None:
            self._scheduler = ScrubScheduler(
                self.num_regions,
                [self.policy.initial_interval(r) for r in range(self.num_regions)],
            )
        return ff_active

    def simulate(self, budget: int | None = None) -> ScrubStats:
        """Simulate to the horizon and return the (shared) stats ledger.

        ``budget`` bounds this call to that many scheduler events (scrub
        visits or fast-forward jumps).  When the budget runs out before
        the horizon, the engine returns with ``self.complete`` still
        ``False``, suspended at an event boundary: all loop state lives on
        the engine, so a later ``simulate`` call (or a snapshot taken by
        :mod:`repro.sim.snapshot` and resumed elsewhere) continues
        bit-identically.  Final accounting (bulk demand-read energy, the
        sampler's horizon flush) is charged exactly once, when the run
        actually completes.
        """
        if self.complete:
            return self.stats
        engine_rng = self.streams.get("engine")
        workload_rng = self.streams.get("workload")
        self._prepare()
        scheduler = self._scheduler
        sampler = self._sampler
        steps = 0
        with self._profiler.span("simulate"):
            while len(scheduler) and scheduler.peek_time() <= self.horizon:
                if budget is not None and steps >= budget:
                    return self.stats
                steps += 1
                visit = scheduler.pop()
                if sampler is not None:
                    sampler.advance_to(visit.time)
                if self._ff_active:
                    resumed = self._maybe_fast_forward(
                        visit.time, visit.region, engine_rng, sampler
                    )
                    if resumed is not None:
                        scheduler.advance_to(resumed, visit.region)
                        continue
                next_interval = self._process_visit(
                    visit.time, visit.region, engine_rng, workload_rng
                )
                scheduler.push(visit.time + next_interval, visit.region)
            self._account_demand_reads()
            if sampler is not None:
                sampler.finalize(self.horizon)
        self.complete = True
        return self.stats

    def _emit_engine_mode(self) -> None:
        """Trace-header record of which visit loop produced this run."""
        if self._tracer.enabled:
            self._tracer.emit("engine_mode", 0.0, engine=self.engine_mode)

    def _note_fast_forward_disabled(self, reason: str, time: float) -> None:
        """Trace (once per run per cause) why fast-forward stood down."""
        if reason in self._ff_disabled_reported:
            return
        self._ff_disabled_reported.add(reason)
        if self._tracer.enabled:
            self._tracer.emit("fast_forward_disabled", time, reason=reason)

    def _maybe_fast_forward(
        self,
        time: float,
        region: int,
        engine_rng: np.random.Generator,
        sampler: PeriodicSampler | None,
    ) -> float | None:
        """Fold a run of provably zero-error visits into one bulk charge.

        Returns the resumed visit time (push it and move on), or ``None``
        to take the naive per-visit path.  Bit-exactness argument, piece
        by piece:

        * **Eligibility** — the policy promises its zero-error decision is
          deterministic, draws no RNG beyond the fixed detector check, and
          leaves the interval unchanged; the region carries no demand
          rates (no workload-RNG draws, no state changes between visits);
          read-refresh is off (checked in :meth:`simulate`); and no line
          is at the retirement limit (wear is static without writes, so it
          stays below the limit for the whole window).
        * **Event horizon** — :meth:`LinePopulation.region_actionable_time`
          is the exact instant the region next has a nonzero error count.
          Visits strictly before it observe all-zero counts and mutate
          nothing; the cache is invalidated by every population mutator.
        * **Visit times** — the naive loop accumulates ``t + I`` per push;
          the skip loop replays the same iterated float additions, never a
          fused ``t + k*I``, so the resumed time is bitwise the naive one.
        * **Stats** — :meth:`ScrubStats.record_zero_error_visits` replays
          the per-visit float additions; interleaving with other regions'
          visits is immaterial because every zero-error visit adds the
          same per-category constant.
        * **RNG** — detector-less schemes draw nothing on any visit, so
          skipping consumes nothing.  Detector schemes draw ``n`` uniforms
          per visit on the engine stream shared by *all* regions in global
          visit order; that order is only reproducible in bulk when there
          is a single region, so multi-region detector runs stand down.
        * **Sampling** — skips stop at the sampler's next due time, so a
          sample at ``S`` sees exactly the visits at or before ``S``.
        """
        interval = self.policy.fast_forward_interval(region)
        if interval is None:
            self._note_fast_forward_disabled("policy", time)
            return None
        if not self._ff_region_idle[region]:
            self._note_fast_forward_disabled("demand", time)
            return None
        has_detector = self.policy.scheme.has_detector
        if has_detector and self.num_regions > 1:
            self._note_fast_forward_disabled("detector_interleaving", time)
            return None
        population = self.population
        actionable = population.region_actionable_time(region)
        if actionable <= time:
            return None
        if (
            self.retire_hard_limit is not None
            and population.region_max_stuck(region) >= self.retire_hard_limit
        ):
            return None

        cap = self.horizon
        if sampler is not None and sampler.next_due < cap:
            cap = sampler.next_due
        visits = 1
        last = time
        nxt = time + interval
        while nxt <= cap and nxt < actionable:
            visits += 1
            last = nxt
            nxt = last + interval
        if visits < 2:
            return None  # nothing beyond the current visit; not worth a jump

        with self._profiler.span("fastforward"):
            self._charge_quiescent(visits, engine_rng)
            n = self.region_size
            self._last_visit[region * n : (region + 1) * n] = last
            if self._tracer.enabled:
                self._tracer.emit(
                    "fast_forward",
                    time,
                    region=region,
                    skipped=visits,
                    to_time=float(nxt),
                )
        return nxt

    def _charge_quiescent(
        self, visits: int, engine_rng: np.random.Generator
    ) -> None:
        """Charge ``visits`` provably zero-error region visits in one block.

        The bulk charge both quiescent skips share (the scalar
        :meth:`_maybe_fast_forward` and the batch engine's round skip):
        the per-visit ledger additions, the detector draws those visits
        would have made, the skip counters and the verifier's note.  The
        caller owns the last-visit update and the ``fast_forward`` events.
        """
        lines = self.region_size
        has_detector = self.policy.scheme.has_detector
        self.stats.record_zero_error_visits(
            visits, lines, detector=has_detector, decode_all=not has_detector
        )
        if has_detector:
            _advance_rng(engine_rng, visits * lines)
        self.fast_forward_skipped_visits += visits
        self.fast_forward_jumps += 1
        if self._ff_counter is not None:
            self._ff_counter.inc(visits)
        if self._verifier.enabled:
            self._verifier.note_fast_forward(
                visited=visits * lines,
                detected=visits * lines if has_detector else 0,
                decoded=0 if has_detector else visits * lines,
            )

    # -- internals ----------------------------------------------------------

    def _process_visit(
        self,
        time: float,
        region: int,
        engine_rng: np.random.Generator,
        workload_rng: np.random.Generator,
    ) -> float:
        profiler = self._profiler
        with profiler.span("visit"):
            idx = self.region_lines(region)
            with profiler.span("demand"):
                self._apply_demand(idx, time, workload_rng)
                if self.read_refresh:
                    self._apply_read_refresh(idx, time, workload_rng)

            error_counts = self.population.error_counts(idx, time)
            with profiler.span("decode"):
                decision = self.policy.visit(time, region, error_counts, engine_rng)

            self._charge_visit(idx, error_counts, decision)
            self._settle_visit(time, region, idx, error_counts, decision)
            self._last_visit[idx] = time
            return decision.next_interval

    def _charge_visit(
        self, idx: np.ndarray, error_counts: np.ndarray, decision: VisitDecision
    ) -> None:
        """Charge the reads, detector checks and decodes of a visit or round.

        Every visited line is read; detector-equipped schemes check every
        line; the decoder runs only where the policy engaged it.  A round
        (``(regions, region_size)`` arrays) is charged as one visit per row
        in row order: the same per-visit ledger additions, in the same
        order, as one call per row.
        """
        stats = self.stats
        lines = idx.shape[-1]
        visits = idx.size // lines
        stats.record_reads(lines, visits)
        if self.policy.scheme.has_detector:
            stats.record_detects(lines, visits)
        for decoded in decision.decoded.reshape(visits, lines).sum(axis=1).tolist():
            stats.record_decodes(decoded)
        stats.record_error_counts(error_counts[decision.decoded])
        stats.detector_misses += int(decision.missed.sum())

    def _settle_visit(
        self,
        time: float,
        region: int,
        idx: np.ndarray,
        error_counts: np.ndarray,
        decision: VisitDecision,
    ) -> None:
        """Apply what one visit decision does to the population and ledger.

        UE recovery, write-backs (full or partial), retirement with spare
        grants, the ``scrub_visit`` trace record and the invariant check,
        in that order - the one settlement both visit loops share, so the
        population stream and the scrub-write ledger advance identically
        whichever loop decided the visit.
        """
        tracer = self._tracer
        stats = self.stats
        population = self.population

        # Uncorrectable lines: record, then recover (the OS reloads the
        # page); recovery is a data-changing write outside the scrub budget.
        ue_idx = idx[decision.uncorrectable]
        if ue_idx.size:
            stats.uncorrectable += ue_idx.size
            if tracer.enabled:
                tracer.emit(
                    "uncorrectable", time, region=region, count=int(ue_idx.size)
                )
            population.rewrite(
                ue_idx, self._times_filled(ue_idx.size, time), data_changed=True
            )

        # Write-backs: the scrub-cost metric the paper minimizes.
        partial = getattr(self.policy, "partial_writeback", False)
        partial_cells_visit: int | None = None
        wb_idx = idx[decision.written_back]
        if wb_idx.size:
            if partial:
                cells = population.partial_rewrite(wb_idx, time)
                partial_cells_visit = int(cells.sum())
                stats.record_partial_scrub_writes(wb_idx.size, partial_cells_visit)
            else:
                stats.record_scrub_writes(wb_idx.size)
                population.rewrite(
                    wb_idx,
                    self._times_filled(wb_idx.size, time),
                    data_changed=False,
                )
        elif partial:
            partial_cells_visit = 0

        retired_visit = 0
        if self.retire_hard_limit is not None:
            stuck = population.stuck_counts(idx)
            retire_idx = idx[stuck >= self.retire_hard_limit]
            if retire_idx.size:
                requested = int(retire_idx.size)
                if self.spare_pool is not None:
                    grant = self.spare_pool.request(region, requested)
                    retire_idx = retire_idx[:grant]
                    if tracer.enabled:
                        tracer.emit(
                            "spare_allocated",
                            time,
                            region=region,
                            requested=requested,
                            granted=int(grant),
                        )
                if retire_idx.size:
                    retired_visit = int(retire_idx.size)
                    stats.retired += retire_idx.size
                    if tracer.enabled:
                        tracer.emit(
                            "retire", time, region=region, count=retired_visit
                        )
                    population.retire(retire_idx, time)

        if tracer.enabled:
            tracer.emit(
                "scrub_visit",
                time,
                region=region,
                lines=int(idx.size),
                errors=int(error_counts.sum()),
                max_errors=int(error_counts.max()) if error_counts.size else 0,
                decoded=int(decision.decoded.sum()),
                written_back=int(decision.written_back.sum()),
                uncorrectable=int(decision.uncorrectable.sum()),
                next_interval=float(decision.next_interval),
            )

        if self._verifier.enabled:
            # The checker re-derives every ledger counter from these
            # decision counts; the error mass uses the histogram's cap
            # so it matches what ``record_error_counts`` folded in.
            capped = np.minimum(error_counts, stats.error_histogram.size - 1)
            resolved_mask = decision.written_back | decision.uncorrectable
            observed = int(capped[decision.decoded].sum())
            resolved = int(capped[decision.decoded & resolved_mask].sum())
            pending = int(capped[decision.decoded & ~resolved_mask].sum())
            self._verifier.check_visit(
                time=time,
                region=region,
                visited=int(idx.size),
                detected=int(idx.size) if self.policy.scheme.has_detector else 0,
                decoded=int(decision.decoded.sum()),
                written_back=int(decision.written_back.sum()),
                partial_cells=partial_cells_visit,
                uncorrectable=int(ue_idx.size),
                missed=int(decision.missed.sum()),
                retired=retired_visit,
                errors_observed=observed,
                errors_resolved=resolved,
                errors_pending=pending,
            )

    def _apply_demand(
        self, idx: np.ndarray, now: float | np.ndarray, rng: np.random.Generator
    ) -> None:
        """Apply Poisson demand writes that hit ``idx`` since their last visit.

        ``idx`` is one region's lines visited at ``now``, or a device
        round's ``(regions, region_size)`` block with ``now`` one time per
        region as a ``(regions, 1)`` column.  A round draws one Poisson
        fill and one arrival-offset fill over all its lines, region-major;
        lines without demand draw nothing (a zero Poisson rate consumes no
        variate), so a round with one region under demand draws exactly
        what that region's own visit would.  ``demand_burst`` events are
        emitted per written region, in region order.
        """
        rates = self.rates.write_rate[idx]
        if not rates.any():
            return
        elapsed = now - self._last_visit[idx]
        counts = rng.poisson(rates * elapsed)
        written = counts > 0
        if not written.any():
            return
        w_idx = idx[written]
        w_counts = counts[written]
        w_elapsed = elapsed[written]
        # Given N uniform arrivals in the window, the last one sits at
        # start + window * max(U_1..U_N); max of N uniforms ~ U^(1/N).
        last_offset = w_elapsed * np.power(rng.random(w_idx.size), 1.0 / w_counts)
        last_write = (now - elapsed)[written] + last_offset
        self.population.rewrite(
            w_idx,
            last_write,
            data_changed=True,
            extra_writes=(w_counts - 1),
        )
        self.stats.record_demand_writes(int(w_counts.sum()))
        if self._tracer.enabled:
            w_now = np.broadcast_to(now, idx.shape)[written]
            w_region = w_idx // self.region_size
            for region in np.unique(w_region).tolist():
                burst = w_region == region
                self._tracer.emit(
                    "demand_burst",
                    float(w_now[burst][0]),
                    region=region,
                    lines=int(burst.sum()),
                    writes=int(w_counts[burst].sum()),
                )

    #: Read-refresh events processed per line per inter-visit window; the
    #: expected count is well below this for any sane configuration.
    _READ_REFRESH_MAX_EVENTS = 16

    def _apply_read_refresh(
        self, idx: np.ndarray, now: float, rng: np.random.Generator
    ) -> None:
        """Play continuous read probes against each line's crossing times.

        A line becomes refresh-eligible the moment its error count reaches
        the policy's write-back threshold - an instant the population knows
        exactly (the theta-th smallest crossing time).  The first Poisson
        read after that instant refreshes the line (or, if the count has
        already passed the correction strength, surfaces the UE).  Each
        refresh resets the line, which may become eligible again within
        the same window, so the loop iterates until every line's next
        event falls beyond the current visit.
        """
        rates = self.rates.read_rate[idx]
        active = rates > 0
        if not active.any():
            return
        threshold = getattr(self.policy, "threshold", 1)
        t_ecc = self.policy.scheme.t
        pending = idx[active]
        pending_rates = rates[active]
        window_start = self._last_visit[idx][active]

        for __ in range(self._READ_REFRESH_MAX_EVENTS):
            if pending.size == 0:
                break
            hard = self.population.hard_mismatch[pending].astype(np.int64)
            crossing = self.population.crossing
            keep = crossing.shape[1]
            # Instant the line's total error count reaches the threshold:
            # the (theta - hard)-th drift crossing, or immediately when
            # stuck mismatches alone reach it.
            theta_index = np.clip(threshold - 1 - hard, 0, keep - 1)
            theta_time = crossing[pending, theta_index]
            theta_time = np.where(hard >= threshold, window_start, theta_time)
            theta_time = np.maximum(theta_time, window_start)

            # First read probe after the line became eligible.  The draw
            # covers every pending line (its order is pinned by the
            # goldens); only what follows is gated on the hits.
            probe = theta_time + rng.exponential(1.0 / pending_rates)
            in_window = (theta_time < now) & (probe < now)
            if not in_window.any():
                break

            hit = np.flatnonzero(in_window)
            hit_lines = pending[hit]
            hit_probes = probe[hit]
            # Instant the count exceeds the correction strength — gathered
            # only for lines whose window actually fires; the cold majority
            # ends its window above, so their fancy-index gather (the
            # loop's dominant cost) is skipped.
            hard_hit = hard[hit]
            ue_index = np.clip(t_ecc - hard_hit, 0, keep - 1)
            ue_time = crossing[hit_lines, ue_index]
            ue_time = np.where(hard_hit > t_ecc, window_start[hit], ue_time)
            is_ue = hit_probes >= ue_time

            if is_ue.any():
                ue_lines = hit_lines[is_ue]
                self.stats.uncorrectable += int(is_ue.sum())
                self.population.rewrite(
                    ue_lines, hit_probes[is_ue], data_changed=True
                )
            if (~is_ue).any():
                refresh_lines = hit_lines[~is_ue]
                self.stats.record_scrub_writes(int((~is_ue).sum()))
                self.population.rewrite(
                    refresh_lines, hit_probes[~is_ue], data_changed=False
                )
            if self._verifier.enabled:
                self._verifier.note_refresh(
                    writes=int((~is_ue).sum()), ues=int(is_ue.sum())
                )
            # Only the lines that just reset can fire again this window.
            pending = hit_lines
            pending_rates = pending_rates[hit]
            window_start = hit_probes

    def _account_demand_reads(self) -> None:
        """Charge expected demand-read energy over the horizon (bulk)."""
        expected = self.rates.total_read_rate * self.horizon
        if expected > 0:
            self.stats.ledger.add(
                "demand_read", self.stats.costs.read_energy, int(round(expected))
            )

    def _collect_sample(self, now: float) -> dict:
        """One time-series sample: stats aggregates + device state at ``now``.

        The stats ledger is read as-is (events are processed in global time
        order, so at sample time everything earlier has been charged) and
        device-state queries are evaluated exactly at ``now``.  Reads only
        deterministic state - never the RNG streams - so sampling cannot
        perturb results.
        """
        registry = self.obs.metrics
        registry.observe_stats(self.stats)
        population = self.population
        idx = self._all_lines
        registry.gauge("stuck_cells").set(
            float(population.stuck_counts(idx).sum())
        )
        registry.gauge("hard_mismatch_cells").set(
            float(population.hard_mismatch.sum())
        )
        registry.gauge("drift_errors").set(
            float(population.drift_error_counts(idx, now).sum())
        )
        registry.gauge("mean_writes_per_line").set(float(population.writes.mean()))
        if self.spare_pool is not None:
            for key, value in self.spare_pool.metrics().items():
                registry.gauge(key).set(value)
        return registry.snapshot()

"""Threshold write-back scrub - deferring writes until they matter.

A drift error, once corrected by the decoder, does not need to be *written
back* immediately: the corrected data is delivered to the requester either
way, and the stored line remains correctable as long as its accumulated
error count stays at or below the code's strength ``t``.  Writing back on
the first error (the DRAM habit) wastes the most expensive operation PCM
has on lines that were in no danger.

The threshold mechanism writes a line back only when its observed error
count reaches ``threshold`` (with ``threshold <= t``), letting errors
accumulate across scrub passes in the safe band ``[1, threshold)``.  The
trade-off is explicit: higher thresholds save writes (and the wear they
cause) but leave less slack for errors arriving between two passes, so
uncorrectable errors rise as the threshold approaches ``t``.

:class:`ThresholdScrubPolicy` is also the shared implementation behind the
basic, strong-ECC, and lightweight-detection mechanisms - each is a
configuration of (scheme, detector, threshold); see the sibling modules.
"""

from __future__ import annotations

import numpy as np

from ..ecc.schemes import EccScheme, scheme_for_strength
from .policy import ScrubPolicy, VisitDecision


class ThresholdScrubPolicy(ScrubPolicy):
    """Scrub with a write-back threshold and optional detector gating.

    Parameters
    ----------
    scheme:
        ECC scheme; when it carries a detector, decode is gated behind it.
    interval:
        Static scrub interval (seconds) for every region.
    threshold:
        Write back a correctable line iff its error count >= ``threshold``.
        ``threshold=1`` restores immediate write-back.
    partial_writeback:
        Re-program only the drifted cells instead of the whole line (PCM
        programs cells individually).  Energy and wear scale with the
        error count; protection is identical.
    label:
        Display name for tables (defaults to the class name).
    """

    def __init__(
        self,
        scheme: EccScheme,
        interval: float,
        threshold: int = 1,
        partial_writeback: bool = False,
        label: str | None = None,
    ):
        super().__init__(scheme, interval)
        if not 1 <= threshold <= scheme.t:
            raise ValueError(
                f"threshold must be in [1, t={scheme.t}], got {threshold}"
            )
        self.threshold = threshold
        self.partial_writeback = partial_writeback
        self._label = label

    @property
    def name(self) -> str:
        return self._label if self._label else type(self).__name__

    def fast_forward_interval(self, region: int) -> float | None:
        """Static-interval policies are always fast-forward eligible.

        A zero-error pass decodes deterministically (all-or-nothing per the
        detector gate), writes nothing back (``threshold >= 1``), and
        reschedules at the fixed ``interval``.
        """
        return self.interval

    def batch_interval(self) -> float | None:
        """Static-interval policies batch whole device rounds.

        Every region is visited at the same fixed cadence and every
        decision reschedules at it unchanged, so the batch engine may
        replay full rounds of the stagger schedule.
        """
        return self.interval

    def visit_batch(
        self,
        times: np.ndarray,
        regions: np.ndarray,
        error_counts: np.ndarray,
        rng: np.random.Generator,
    ) -> VisitDecision:
        """The threshold rule over a whole device round in one set of array ops.

        The same rule as :meth:`visit`, applied to ``(regions,
        region_size)`` counts; the detector draw is one C-order fill over
        the round, bitwise the scalar per-visit draws in visit order.
        """
        return self._decide(
            error_counts, rng, np.full(regions.shape[0], self.interval)
        )

    def visit(
        self,
        time: float,
        region: int,
        error_counts: np.ndarray,
        rng: np.random.Generator,
    ) -> VisitDecision:
        return self._decide(error_counts, rng, self.interval)

    def _decide(
        self,
        error_counts: np.ndarray,
        rng: np.random.Generator,
        next_interval: float | np.ndarray,
    ) -> VisitDecision:
        flagged, missed = self._detect(error_counts, rng)
        decoded = flagged
        correctable, uncorrectable = self._classify(error_counts, decoded)
        written_back = correctable & (error_counts >= self.threshold)
        return VisitDecision(
            decoded=decoded,
            written_back=written_back,
            uncorrectable=uncorrectable,
            missed=missed,
            next_interval=next_interval,
        )


def default_threshold(t: int) -> int:
    """The threshold family's write-back threshold for a code of strength ``t``.

    ``t - 1`` (at least 1): write back only lines one error away from the
    correction limit.

    >>> default_threshold(4), default_threshold(1)
    (3, 1)
    """
    return max(1, t - 1)


def threshold_scrub(
    interval: float,
    strength: int = 4,
    threshold: int | None = None,
    with_detector: bool = True,
) -> ThresholdScrubPolicy:
    """The paper's threshold write-back mechanism.

    Defaults to BCH-``strength`` with a CRC detector and a threshold of
    :func:`default_threshold` (``t - 1``), the most write-frugal setting
    that still leaves one error of slack between passes.
    """
    scheme = scheme_for_strength(strength, with_detector=with_detector)
    if threshold is None:
        threshold = default_threshold(scheme.t)
    return ThresholdScrubPolicy(
        scheme,
        interval,
        threshold=threshold,
        label=f"threshold(t={scheme.t},theta={threshold})",
    )


def partial_scrub(
    interval: float,
    strength: int = 4,
    threshold: int | None = None,
) -> ThresholdScrubPolicy:
    """Threshold scrub with cell-selective (partial) write-back.

    The most write-frugal configuration short of not writing at all: the
    write-back event count matches :func:`threshold_scrub`, but each event
    re-programs only the handful of drifted cells, so write energy and
    wear drop by roughly ``cells_per_line / threshold``.
    """
    scheme = scheme_for_strength(strength, with_detector=True)
    if threshold is None:
        threshold = default_threshold(scheme.t)
    return ThresholdScrubPolicy(
        scheme,
        interval,
        threshold=threshold,
        partial_writeback=True,
        label=f"partial(t={scheme.t},theta={threshold})",
    )

"""Distribution quantiles: bit-identical to ``scipy.stats``, which the program never loads.

:mod:`repro.analysis.stats` computes every quantile from the
``scipy.special`` kernel that ``scipy.stats`` calls.  Here ``scipy.stats``
is the oracle: each quantile must equal it bit for bit.  A fresh
interpreter then runs the program's paths that use the quantiles and must
end without ``scipy.stats`` loaded.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

import repro
from repro.analysis.stats import (
    _t_critical,
    binomial_interval,
    poisson_interval,
    poisson_quantile,
)
from repro.screen.planner import poisson_predictive

#: Central coverages from the planner's and the reports' ranges.
CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9)
#: Open-interval coverages, as :class:`~repro.screen.ScreenConstraints` admits.
OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
#: Expected counts, past the ``1e10`` where ``pdtrik`` starts to give NaN.
RATES = st.floats(1e-12, 1e12)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def wilson_reference(successes: int, trials: int, confidence: float) -> tuple[float, float]:
    z = float(stats.norm.ppf(0.5 + confidence / 2))
    p_hat = successes / trials
    denominator = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denominator
    half = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
        / denominator
    )
    return max(0.0, center - half), min(1.0, center + half)


class TestPoissonQuantile:
    def test_grid_matches_scipy_stats(self):
        rates = np.logspace(-12, 7, 2001)
        for confidence in CONFIDENCES:
            alpha = 1.0 - confidence
            for q in (alpha / 2.0, 1.0 - alpha / 2.0):
                assert same_bits(poisson_quantile(q, rates), stats.poisson.ppf(q, rates))

    @given(q=st.floats(0.0, 1.0, exclude_min=True), rates=st.lists(RATES, min_size=1, max_size=40))
    def test_matches_scipy_stats(self, q, rates):
        rates = np.array(rates)
        assert same_bits(poisson_quantile(q, rates), stats.poisson.ppf(q, rates))

    @given(confidence=OPEN_UNIT, rates=st.lists(RATES | st.just(0.0), min_size=1, max_size=40))
    def test_predictive_bounds_match_scipy_stats(self, confidence, rates):
        rates = np.array(rates)
        alpha = 1.0 - confidence
        lo, hi = poisson_predictive(rates, confidence)
        zero = rates == 0.0
        assert not lo[zero].any() and not hi[zero].any()
        assert same_bits(lo[~zero], stats.poisson.ppf(alpha / 2.0, rates[~zero]))
        assert same_bits(hi[~zero], stats.poisson.ppf(1.0 - alpha / 2.0, rates[~zero]))


class TestIntervalQuantiles:
    @given(count=st.integers(0, 10**7), confidence=OPEN_UNIT)
    def test_garwood_matches_chi2(self, count, confidence):
        alpha = 1.0 - confidence
        low = 0.0 if count == 0 else float(stats.chi2.ppf(alpha / 2, 2 * count) / 2)
        high = float(stats.chi2.ppf(1 - alpha / 2, 2 * (count + 1)) / 2)
        assert same_bits(poisson_interval(count, confidence), (low, high))

    @given(trials=st.integers(1, 10**6), fraction=st.floats(0.0, 1.0), confidence=OPEN_UNIT)
    def test_wilson_matches_norm(self, trials, fraction, confidence):
        successes = round(fraction * trials)
        assert same_bits(
            binomial_interval(successes, trials, confidence),
            wilson_reference(successes, trials, confidence),
        )

    @given(dof=st.integers(1, 10**5), confidence=OPEN_UNIT)
    def test_t_critical_matches_t(self, dof, confidence):
        expected = float(stats.t.ppf(0.5 + confidence / 2, dof))
        assert same_bits(_t_critical(dof, confidence), expected)


def test_program_paths_never_load_scipy_stats(tmp_path):
    # A fresh interpreter: this one has loaded scipy.stats as the oracle.
    script = textwrap.dedent(
        """
        import sys

        import repro.cli
        import repro.service.supervisor
        from repro import units
        from repro.analysis.stats import summarize
        from repro.fleet import FleetSpec, run_campaign
        from repro.screen import ScreenConstraints, plan_screen
        from repro.sim.config import SimulationConfig

        spec = FleetSpec(
            name="imports", devices=2, policy="threshold",
            policy_kwargs={"interval": 7200.0, "strength": 3, "with_detector": False},
            base_config=SimulationConfig(
                num_lines=64, region_size=64, horizon=units.DAY, endurance=None,
            ),
        )
        report = run_campaign(spec).report
        assert report.fit_high > 0 and report.availability_low >= 0
        plan = plan_screen(spec, ScreenConstraints(fit_limit=1e12))
        assert len(plan.decisions) == 2
        summarize([1.0, 2.0, 4.0])
        print(sorted(name for name in sys.modules if name.split(".")[:2] == ["scipy", "stats"]))
        """
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        cwd=tmp_path, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

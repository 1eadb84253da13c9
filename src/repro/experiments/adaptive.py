"""Adaptive sweep scheduling: climb each series' load ladder, stop at the knee.

Opt-in through :class:`AdaptiveSettings`: each series climbs its load ladder
low to high, and once :func:`~repro.router.saturation.is_saturated_point`
flags ``cutoff_after`` consecutive saturated points the remaining higher
loads are recorded as provenance-flagged *extrapolated* RunRecords instead of
simulated — saturated points are the slowest of a sweep and past the knee
they carry no new information.  :func:`_start_adaptive` is the scheduler
:func:`~repro.experiments.orchestrator.run_jobs` drives when the setting is
on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..keys import _hash_payload
from ..metrics import SimulationResult
from ..record import RunRecord
from ..router.saturation import DEFAULT_SATURATION_MARGIN, is_saturated_point
from ..simulation import average_results

if TYPE_CHECKING:
    from .executors import _PoolChunkExecutor, _SerialChunkExecutor
    from .orchestrator import Job, JobRunStats

#: store-key marker of adaptive-mode extrapolated records (the full suffix
#: also hashes the :class:`AdaptiveSettings`, see :func:`_adaptive_key_suffix`).
#: Extrapolated results never live under the plain config key, so a later
#: non-adaptive sweep over the same store re-simulates those points instead
#: of silently serving synthesized data.
EXTRAPOLATED_KEY_SUFFIX = ":extrapolated"


@dataclass(frozen=True)
class AdaptiveSettings:
    """Saturation cutoff of the adaptive sweep scheduler (opt-in).

    Each series is processed low load to high.  After every completed
    ``(series, load)`` point the seed-averaged summary is judged by
    :func:`~repro.router.saturation.is_saturated_point` with ``margin``;
    once ``cutoff_after`` *consecutive* points are saturated, all remaining
    higher loads of that series are recorded as extrapolated copies of the
    last simulated point (see :meth:`repro.record.RunRecord.extrapolate`)
    instead of simulated.  Extrapolated records are stored under a suffixed
    key (:data:`EXTRAPOLATED_KEY_SUFFIX`), so they never masquerade as
    simulated results in later non-adaptive runs.
    """

    cutoff_after: int = 2
    margin: float = DEFAULT_SATURATION_MARGIN

    def __post_init__(self) -> None:
        if self.cutoff_after < 1:
            raise ValueError("cutoff_after must be >= 1")
        if not 0.0 <= self.margin < 1.0:
            raise ValueError("margin must be in [0, 1)")


@lru_cache(maxsize=None)
def _adaptive_key_suffix(settings: AdaptiveSettings) -> str:
    """Store-key suffix of extrapolated records under given adaptive settings.

    Hashing the settings into the key mirrors the convergence-mode suffix:
    an extrapolation is only valid under the margin/cutoff that produced it,
    so a rerun with e.g. a stricter margin (whose cutoff would not have
    fired at those loads) must re-decide instead of serving stale
    synthesized points.
    """
    return EXTRAPOLATED_KEY_SUFFIX + ":" + _hash_payload(asdict(settings))[:8]


class _SeriesPlan:
    """Per-series load ladder the adaptive scheduler walks bottom-up."""

    def __init__(self, jobs: Sequence[Job]) -> None:
        by_load: Dict[float, List[Job]] = {}
        for job in jobs:
            by_load.setdefault(job.load, []).append(job)
        #: (load, jobs-at-load) in ascending load order.
        self.steps: List[Tuple[float, List[Job]]] = sorted(by_load.items())
        self.index = 0
        self.consecutive_saturated = 0
        #: jobs of the current step still executing (the step is judged only
        #: once every seed's result is in).
        self.outstanding = 0
        #: seed -> (summary, config key) of the last evaluated (hence
        #: simulated/cached) step, the extrapolation base once the cutoff
        #: fires.
        self.last_summaries: Dict[int, SimulationResult] = {}
        self.last_keys: Dict[int, str] = {}
        self.last_load: Optional[float] = None

    def remaining_jobs(self) -> List[Job]:
        return [job for _, jobs in self.steps[self.index:] for job in jobs]


def _start_adaptive(
    executor: "_SerialChunkExecutor | _PoolChunkExecutor",
    unique_jobs: Sequence[Job],
    stats: JobRunStats,
    settings: AdaptiveSettings,
    on_result: Callable[[Job, RunRecord], None],
) -> Callable[[Tuple[Job, ...]], None]:
    """Start per-series load ladders with a saturation cutoff.

    Submits every series' first unresolved step and returns the callback
    :func:`~repro.experiments.orchestrator.run_jobs`' drain loop invokes
    after each completed chunk.  Series advance independently (parallelism
    across series); within one series each load step — all of its seeds —
    must complete before the next is submitted, because the next submission
    *is* the scheduling decision.
    """
    results = stats.results
    by_series: Dict[str, List[Job]] = {}
    for job in unique_jobs:
        by_series.setdefault(job.series, []).append(job)
    plans = {series: _SeriesPlan(jobs) for series, jobs in by_series.items()}
    def extrapolate_remaining(plan: _SeriesPlan) -> None:
        base_load = plan.last_load
        for job in plan.remaining_jobs():
            if job.key in results:
                # Already resolved (served from a previous sweep's store
                # entry — simulated or extrapolated): nothing to synthesize.
                continue
            source_summary = plan.last_summaries.get(job.seed)
            source_key = plan.last_keys.get(job.seed)
            if source_summary is None:  # degenerate: no same-seed base
                source_summary = next(iter(plan.last_summaries.values()))
                source_key = next(iter(plan.last_keys.values()), None)
            source = RunRecord.from_summary(source_summary, config_key=source_key)
            record = RunRecord.extrapolate(
                source,
                offered_load=job.load,
                extra_provenance={
                    "config_key": job.key,
                    "adaptive": {
                        "cutoff_after": settings.cutoff_after,
                        "margin": settings.margin,
                        "base_load": base_load,
                    },
                },
            )
            on_result(job, record)
        plan.index = len(plan.steps)

    def advance(plan: _SeriesPlan) -> None:
        # Re-entrancy: advance() only runs when the plan has nothing in
        # flight (plan.outstanding == 0) — either initially or after the
        # last job of its current step completed.
        while plan.index < len(plan.steps):
            if (
                plan.consecutive_saturated >= settings.cutoff_after
                and plan.last_summaries
            ):
                extrapolate_remaining(plan)
                return
            load, step_jobs = plan.steps[plan.index]
            missing = [
                job for job in step_jobs
                # a job that resolved to a JobFailure is never resubmitted
                if job.key not in results and job.key not in stats.failures
            ]
            if missing:
                # One task per job: the seeds of a step are independent, so
                # they spread across the pool even for single-series sweeps;
                # only the judge-then-continue decision is a barrier.
                for job in missing:
                    executor.submit([job])
                plan.outstanding = len(missing)
                return
            # Step fully resolved (simulated or cached): judge saturation.
            summaries = [
                results[job.key] for job in step_jobs if job.key in results
            ]
            if not summaries:
                # Every seed of the step failed terminally; without a point
                # to judge, abandon the rest of this series' ladder (no
                # extrapolation from failures).
                plan.index = len(plan.steps)
                return
            point = average_results(summaries)
            if is_saturated_point(point, settings.margin):
                plan.consecutive_saturated += 1
            else:
                plan.consecutive_saturated = 0
            plan.last_summaries = {
                job.seed: results[job.key] for job in step_jobs
                if job.key in results
            }
            plan.last_keys = {
                job.seed: job.key for job in step_jobs if job.key in results
            }
            plan.last_load = load
            plan.index += 1

    def chunk_done(chunk: Tuple[Job, ...]) -> None:
        plan = plans[chunk[0].series]
        plan.outstanding -= 1
        if plan.outstanding == 0:
            advance(plan)

    for plan in plans.values():
        advance(plan)
    return chunk_done

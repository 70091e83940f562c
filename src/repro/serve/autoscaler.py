"""Feedback- and forecast-controlled fleet sizing for the service.

The autoscaler watches two signals over a sliding window — pending
queue depth per active chip and SLO attainment of recently finished
requests — and actuates the cluster at the event engine's decision
points (arrival, chip-free, and the dedicated *scale-tick* event the
engine schedules when the service goes idle):

* **scale up** when the windowed queue depth per chip exceeds
  ``target_queue_per_chip`` or windowed SLO attainment drops below
  ``slo_target``. New chips take ``warmup_s`` to come online (boot,
  load firmware, fill the trace cache's working set) and draw their
  config from ``growth_configs`` round-robin, so a heterogeneous fleet
  can grow with whatever mix the operator provisioned.
* **scale down** when the queue has drained, at least two active chips
  sit idle *right now*, and the window shows no SLO pressure; the most
  expensive idle chip is retired first (pairs with the ``cost-aware``
  sharding policy, which packs work onto cheap chips and lets pricey
  ones drain).

That default ``reactive`` mode only ever trails the load: by the time
the queue window shows pressure, the wave has already arrived, and a
chip added now still spends ``warmup_s`` booting while SLOs burn. The
``predictive`` mode leads instead of chasing: the engine feeds it every
*offered* arrival, it fits a windowed arrival-rate trend (EWMA over
rate samples and over the rate's slope), projects demand ``warmup_s``
(plus ``lead_s``) ahead, converts that to a fleet size through the
dispatcher's observed service-time estimate and a ``target_utilization``
headroom, and provisions toward the projection *before* the queue
feels it — and, on the downslope, retires surplus chips the projection
says the trough will not need. The reactive queue/SLO triggers stay
armed underneath as a backstop, so a forecast miss degrades to exactly
the old behaviour rather than to an outage.

Every action is appended to :attr:`Autoscaler.events`, which becomes
the fleet-size timeline in the :class:`~repro.serve.metrics.ServiceReport`.
``cooldown_s`` rate-limits actions so one burst cannot thrash the fleet
and bounds either mode to one action per cooldown window. All state is
deterministic: same trace, same decisions.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Container, Sequence

from repro.core.config import AcceleratorConfig
from repro.errors import ConfigError
from repro.serve.cluster import ServeCluster


@dataclass(frozen=True)
class FleetEvent:
    """One autoscaling action (the fleet-size timeline's unit)."""

    t_s: float
    action: str      # "add" | "retire"
    chip_id: int
    config: str      # AcceleratorConfig.label of the chip
    n_active: int    # fleet size *after* the action

    def to_dict(self) -> dict:
        return {
            "t_s": self.t_s,
            "action": self.action,
            "chip_id": self.chip_id,
            "config": self.config,
            "n_active": self.n_active,
        }


class Autoscaler:
    """Grow/shrink a :class:`ServeCluster` against queue and SLO signals."""

    #: Recognized controller modes.
    MODES = ("reactive", "predictive")

    #: Optional :class:`repro.obs.observer.Observer` the engine attaches
    #: when a run is instrumented; ``None`` keeps every action unobserved
    #: at the cost of one pointer check per fleet flex (not per tick).
    observer = None

    def __init__(
        self,
        min_chips: int = 1,
        max_chips: int = 8,
        *,
        target_queue_per_chip: float = 4.0,
        slo_target: float = 0.99,
        window_s: float = 0.25,
        warmup_s: float = 0.02,
        cooldown_s: float = 0.05,
        growth_configs: Sequence[AcceleratorConfig | None] | None = None,
        mode: str = "reactive",
        lead_s: float | None = None,
        target_utilization: float = 0.75,
        trend_alpha: float = 0.3,
        min_forecast_samples: int = 8,
        shrink_margin: float = 1.25,
    ) -> None:
        if min_chips < 1:
            raise ConfigError("autoscaler floor must be >= 1 chip")
        if max_chips < min_chips:
            raise ConfigError("autoscaler ceiling must be >= its floor")
        if target_queue_per_chip <= 0:
            raise ConfigError("target queue depth must be positive")
        if not 0.0 < slo_target <= 1.0:
            raise ConfigError("SLO target must be in (0, 1]")
        if window_s <= 0 or warmup_s < 0 or cooldown_s < 0:
            raise ConfigError("autoscaler time constants cannot be negative")
        if mode not in self.MODES:
            raise ConfigError(
                f"unknown autoscaler mode {mode!r}; choose from {self.MODES}")
        if lead_s is not None and lead_s < 0:
            raise ConfigError("forecast lead time cannot be negative")
        if not 0.0 < target_utilization <= 1.0:
            raise ConfigError("target utilization must be in (0, 1]")
        if not 0.0 < trend_alpha <= 1.0:
            raise ConfigError("trend EWMA alpha must be in (0, 1]")
        if min_forecast_samples < 2:
            raise ConfigError("forecaster needs at least 2 arrival samples")
        if shrink_margin < 1.0:
            raise ConfigError("shrink margin must be >= 1 (hysteresis band)")
        self.min_chips = min_chips
        self.max_chips = max_chips
        self.target_queue_per_chip = target_queue_per_chip
        self.slo_target = slo_target
        self.window_s = window_s
        self.warmup_s = warmup_s
        self.cooldown_s = cooldown_s
        self.growth_configs = list(growth_configs) if growth_configs else [None]
        self.mode = mode
        self.predictive = mode == "predictive"
        #: Projection horizon beyond the warm-up: demand is forecast at
        #: ``now + warmup_s + lead_s`` so a chip added on this tick is
        #: *serving* when the projected load lands, not still booting.
        self.lead_s = warmup_s if lead_s is None else lead_s
        self.target_utilization = target_utilization
        self.trend_alpha = trend_alpha
        self.min_forecast_samples = min_forecast_samples
        #: Demand safety factor of the forecast *shrink* path (see
        #: :meth:`desired_fleet`); > 1 opens the hysteresis band.
        self.shrink_margin = shrink_margin
        self._next_growth = 0
        self._last_action_s = float("-inf")
        # Sliding windows with running sums: the event engine observes
        # the controller at every decision point, so window maintenance
        # must be O(1) amortized, not a per-tick rebuild.
        self._queue_samples: deque[tuple[float, int]] = deque()
        self._queue_sum = 0
        self._slo_samples: deque[tuple[float, bool]] = deque()
        self._slo_met = 0
        # Forecast state (predictive mode only): offered-arrival window,
        # EWMA-smoothed rate, and EWMA-smoothed rate slope.
        self._arrivals: deque[float] = deque()
        self._n_arrivals = 0          # lifetime, for the warm-up gate
        self._rate_ewma = 0.0
        self._slope_ewma = 0.0
        self._trend_at: float | None = None   # t of the last trend update
        self._est_service_ewma = 0.0
        self.events: list[FleetEvent] = []

    # -- signal intake --------------------------------------------------
    def record_response(self, finish_s: float, slo_met: bool) -> None:
        """Feed one completed request into the SLO window."""
        self._slo_samples.append((finish_s, slo_met))
        self._slo_met += slo_met

    def record_shed(self, shed_at_s: float) -> None:
        """Feed one admission refusal into the SLO window.

        A shed is an SLO failure the queue never sees, and it enters the
        window **immediately at its arrival stamp** — unlike served
        requests, which the engine reveals only once their finish time
        has passed (no clairvoyance). This asymmetry is deliberate: the
        refusal itself is the controller's earliest evidence of
        overload, and it happened *now*, so suppressing it until some
        later completion would hide exactly the pressure that should
        grow the fleet. Exactly one window sample per shed.
        """
        self.record_response(shed_at_s, slo_met=False)

    def record_arrival(self, arrival_s: float) -> None:
        """Feed one *offered* arrival into the forecast window (the
        engine only feeds this in predictive mode)."""
        if not self.predictive:
            return
        self._arrivals.append(arrival_s)
        self._n_arrivals += 1

    def _prune(self, now: float) -> None:
        # Samples are only approximately time-ordered (shed events carry
        # arrival stamps that can interleave with completion stamps); a
        # stale sample that landed behind a fresher one simply survives
        # until it reaches the head — at most one window late, an
        # acceptable smear for a sliding-window controller.
        horizon = now - self.window_s
        queue = self._queue_samples
        while queue and queue[0][0] < horizon:
            _, depth = queue.popleft()
            self._queue_sum -= depth
        slo = self._slo_samples
        while slo and slo[0][0] < horizon:
            _, met = slo.popleft()
            self._slo_met -= met
        arrivals = self._arrivals
        while arrivals and arrivals[0] < horizon:
            arrivals.popleft()

    def mean_queue_depth(self) -> float:
        if not self._queue_samples:
            return 0.0
        return self._queue_sum / len(self._queue_samples)

    def window_slo_attainment(self) -> float:
        """SLO attainment over the window; 1.0 when nothing finished."""
        if not self._slo_samples:
            return 1.0
        return self._slo_met / len(self._slo_samples)

    # -- forecasting (predictive mode) ----------------------------------
    def arrival_rate(self) -> float:
        """Offered arrivals per second over the sliding window."""
        return len(self._arrivals) / self.window_s

    def _update_trend(self, now: float, est_service_s: float) -> None:
        """One EWMA step of the rate and of the rate's slope.

        Trend samples are taken on a fixed cadence (an eighth of the
        window) rather than at every engine tick: decision points
        cluster microseconds apart under load, and a finite difference
        over a near-zero ``dt`` is pure noise with unbounded magnitude
        — no amount of EWMA smoothing recovers from feeding it that.
        """
        if est_service_s > 0.0:
            self._est_service_ewma = est_service_s
        if self._trend_at is None:
            self._rate_ewma = self.arrival_rate()
            self._trend_at = now
            return
        dt = now - self._trend_at
        if dt < self.window_s / 8.0:
            return
        previous = self._rate_ewma
        self._rate_ewma = previous + self.trend_alpha * (
            self.arrival_rate() - previous)
        slope_sample = (self._rate_ewma - previous) / dt
        self._slope_ewma += self.trend_alpha * (
            slope_sample - self._slope_ewma)
        self._trend_at = now

    def projected_rate(self) -> float:
        """Arrival rate projected one warm-up plus one lead ahead — the
        demand a chip added *now* would actually meet. The trend term
        is clamped to at most one doubling (or one halving) per
        horizon: a linear fit extrapolated through a wave's crest would
        otherwise project demand the trace never carries."""
        horizon = self.warmup_s + self.lead_s
        trend = self._slope_ewma * horizon
        bound = self._rate_ewma
        trend = max(-bound, min(bound, trend))
        return max(0.0, self._rate_ewma + trend)

    def desired_fleet(self, margin: float = 1.0) -> int | None:
        """Projected fleet size, clamped to [min_chips, max_chips];
        ``None`` while the forecaster lacks signal (too few arrivals
        seen, or no service-time estimate yet) — callers then fall back
        to the reactive triggers alone. ``margin`` scales the projected
        demand: the shrink path evaluates it with a safety factor > 1,
        so grow-at-N / shrink-at-N decisions sit on different
        thresholds and a projection wobbling around a fleet-size
        boundary cannot retire into a crest it will re-buy one warm-up
        later (hysteresis)."""
        if (self._n_arrivals < self.min_forecast_samples
                or self._est_service_ewma <= 0.0
                or self._trend_at is None):
            return None
        # Provision for the projection, but never below what the window
        # is measuring *right now*: the smoothed rate lags a fast
        # upswing, and trusting it alone lets the shrink path retire
        # into a wave that has already arrived.
        rate = max(self.projected_rate(), self.arrival_rate())
        demand = margin * rate * self._est_service_ewma
        needed = math.ceil(demand / self.target_utilization - 1e-9)
        return max(self.min_chips, min(self.max_chips, needed))

    # -- control loop ---------------------------------------------------
    def observe(self, now: float, cluster: ServeCluster, queue_depth: int,
                reserved: Container[int] = (),
                est_service_s: float = 0.0) -> None:
        """One control-loop tick at an event-engine decision point.

        ``reserved`` masks chip ids that look idle but already own a
        staged (dispatch-ahead) batch — retiring one would strand queued
        work on a chip that no longer serves. ``est_service_s`` is the
        dispatcher's current per-request service-time estimate; only
        the predictive mode consumes it (capacity = chips / service
        time), so reactive callers may leave it 0.
        """
        self._prune(now)
        self._queue_samples.append((now, queue_depth))
        self._queue_sum += queue_depth
        if self.predictive:
            self._update_trend(now, est_service_s)
        if now - self._last_action_s < self.cooldown_s:
            return

        # Capacity is the chips that are actually *up*: a crashed chip
        # is a capacity loss, not an idle retire candidate, so every
        # grow/shrink comparison runs against n_available. On healthy
        # runs n_available == n_active and the decisions are unchanged.
        n_live = max(1, cluster.n_available)
        desired = self.desired_fleet() if self.predictive else None
        pressure = (
            self.mean_queue_depth() / n_live > self.target_queue_per_chip
            or self.window_slo_attainment() < self.slo_target
        )
        lead = desired is not None and desired > n_live
        if (pressure or lead) and n_live < self.max_chips:
            config = self.growth_configs[self._next_growth % len(self.growth_configs)]
            self._next_growth += 1
            chip = cluster.add_chip(config, now=now, warmup_s=self.warmup_s)
            self._last_action_s = now
            self.events.append(FleetEvent(
                now, "add", chip.chip_id, chip.config.label, cluster.n_active
            ))
            if self.observer is not None:
                self.observer.on_scale(now, "scale_up", 1, cluster.n_active)
            return

        # Both shrink rules need an empty queue, so the O(live fleet)
        # idle scan runs only then.
        idle = []
        if queue_depth == 0:
            idle = [c for c in cluster.active_chips
                    if c.available and c.free_at_s <= now
                    and c.chip_id not in reserved]
        calm = (
            queue_depth == 0
            and self.mean_queue_depth() < 1.0
            and self.window_slo_attainment() >= self.slo_target
        )
        # Shrink symmetrically with how the mode grew. The reactive
        # rule waits for full calm — a whole window of near-empty queue
        # plus a two-idle hedge — because it cannot see the trough
        # coming, so it must *observe* one. A forecast surplus instead
        # mirrors the forecast add: the queue must be drained right now
        # and the window free of SLO pressure, but one idle chip and
        # the projection saying the coming horizon needs fewer chips
        # are enough — without this, a predictive fleet leads the wave
        # up but trails it down, and the early chip-seconds are never
        # won back.
        if desired is not None:
            surplus = self.desired_fleet(margin=self.shrink_margin)
            may_shrink = (surplus is not None and surplus < n_live
                          and self._slope_ewma <= 0.0
                          and queue_depth == 0
                          and len(idle) >= 1
                          and self.window_slo_attainment() >= self.slo_target)
        else:
            may_shrink = calm and len(idle) >= 2
        if may_shrink and n_live > self.min_chips:
            victim = max(
                idle, key=lambda c: (c.config.chip_cost_rate, c.added_at_s, c.chip_id)
            )
            cluster.retire_chip(victim, now)
            self._last_action_s = now
            self.events.append(FleetEvent(
                now, "retire", victim.chip_id, victim.config.label,
                cluster.n_active,
            ))
            if self.observer is not None:
                self.observer.on_scale(now, "scale_down", -1, cluster.n_active)


def make_elastic_autoscaler(
    min_chips: int = 3,
    max_chips: int = 6,
    warmup_s: float = 0.005,
    growth_configs: Sequence[AcceleratorConfig | None] | None = None,
    mode: str = "reactive",
) -> Autoscaler:
    """The tuned controller shared by ``repro serve --autoscale``, the
    ``ext_elastic``/``ext_predictive`` experiments, and the examples: by
    default grow with a mix of 2x-PE/2x-SRAM and baseline chips and
    drain between bursts. Defaults are tuned for the elastic evaluation
    workload (bursts at ~10x a 150 req/s mean against a 50 ms SLO);
    ``mode="predictive"`` arms the forecast path on the same constants."""
    if growth_configs is None:
        growth_configs = [AcceleratorConfig().scaled(2, 2), None]
    return Autoscaler(
        min_chips=min_chips,
        max_chips=max_chips,
        target_queue_per_chip=1.0,
        slo_target=0.95,
        window_s=0.1,
        warmup_s=warmup_s,
        cooldown_s=0.02,
        growth_configs=growth_configs,
        mode=mode,
    )

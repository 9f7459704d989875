//! The autopilot: pressure-driven worker scaling, decided from the
//! telemetry spine instead of operator edits.
//!
//! The reconciler's base loop only ever steers toward the spec'd worker
//! count. The autopilot lets the controller *originate*
//! [`Action::ScaleWorkers`](crate::Action) decisions: each reconcile
//! round it reads two pressure signals — instantaneous queue depth from
//! the fleet observation, and the worst per-tenant p99 over the window
//! since the previous evaluation (computed from the telemetry ledger's
//! per-tenant histograms via [`LatencySnapshot::delta`]) — and moves the
//! worker target up under pressure or back down toward the spec floor
//! when pressure clears. Thrash is kept out structurally:
//!
//! * **hysteresis** — the scale-up thresholds
//!   ([`AutopilotPolicy::queue_high_water`] /
//!   [`AutopilotPolicy::p99_high_us`]) sit strictly above the
//!   scale-down ones ([`AutopilotPolicy::queue_low_water`] /
//!   [`AutopilotPolicy::p99_low_us`]), so there is a dead band where
//!   the fleet holds its shape;
//! * **cooldown** — after any decision the autopilot holds for
//!   [`AutopilotPolicy::cooldown_rounds`] evaluations, giving scaled
//!   workers time to drain the queue before being judged;
//! * **bounds** — the target never exceeds
//!   [`AutopilotPolicy::max_workers`] and never retires below the
//!   spec's worker count (the floor the operator declared).
//!
//! Every decision is recorded as a telemetry event by the reconciler, so
//! a [`TelemetrySnapshot`] carries
//! *why* the fleet changed shape alongside what tenants experienced.

use duality_service::LatencySnapshot;
use duality_telemetry::TelemetrySnapshot;
use std::collections::BTreeMap;

/// Scaling thresholds and discipline. See the [module docs](self).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AutopilotPolicy {
    /// Scale up when the observed queue depth exceeds this.
    pub queue_high_water: usize,
    /// Scale down only when the queue depth is at or below this.
    pub queue_low_water: usize,
    /// Scale up when any tenant's windowed p99 exceeds this (µs).
    pub p99_high_us: u64,
    /// Scale down only when every tenant's windowed p99 is at or below
    /// this (µs).
    pub p99_low_us: u64,
    /// Workers added or retired per decision.
    pub scale_step: usize,
    /// Ceiling on the autopilot's worker target.
    pub max_workers: usize,
    /// Evaluations to hold after a decision before deciding again.
    pub cooldown_rounds: u64,
}

impl AutopilotPolicy {
    /// Checks the policy is coherent: positive step and ceiling, and the
    /// scale-up thresholds strictly above the scale-down ones (the
    /// hysteresis dead band).
    ///
    /// # Errors
    ///
    /// A human-readable reason naming the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.scale_step == 0 {
            return Err("autopilot scale_step must be ≥ 1".into());
        }
        if self.max_workers == 0 {
            return Err("autopilot max_workers must be ≥ 1".into());
        }
        if self.queue_low_water >= self.queue_high_water {
            return Err(format!(
                "autopilot queue_low_water {} must sit below queue_high_water {}",
                self.queue_low_water, self.queue_high_water
            ));
        }
        if self.p99_low_us > self.p99_high_us {
            return Err(format!(
                "autopilot p99_low_us {} must not exceed p99_high_us {}",
                self.p99_low_us, self.p99_high_us
            ));
        }
        Ok(())
    }
}

/// One pressure reading: what the autopilot judged a round on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PressureReading {
    /// Jobs queued (not yet claimed) at observation time.
    pub queue_depth: usize,
    /// Worst per-tenant end-to-end p99 over the evaluation window, when
    /// any tenant executed a job in it.
    pub worst_p99_us: Option<u64>,
}

/// A worker-target change the autopilot decided on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AutopilotDecision {
    /// Target before the decision.
    pub from: usize,
    /// Target after the decision.
    pub to: usize,
    /// The pressure signal that tripped (operator-readable).
    pub reason: String,
}

impl AutopilotDecision {
    /// The telemetry event label (`scale-up` / `scale-down`).
    pub fn label(&self) -> &'static str {
        if self.to > self.from {
            "scale-up"
        } else {
            "scale-down"
        }
    }
}

impl std::fmt::Display for AutopilotDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} -> {}: {}",
            self.label(),
            self.from,
            self.to,
            self.reason
        )
    }
}

/// The autopilot's evaluation state: the policy plus the per-tenant
/// histogram bases the pressure window is measured against, and the
/// cooldown countdown.
#[derive(Debug)]
pub struct Autopilot {
    policy: AutopilotPolicy,
    /// Per-tenant end-to-end histogram as of the previous evaluation;
    /// the window is the delta against this.
    window_base: BTreeMap<u64, LatencySnapshot>,
    cooldown_left: u64,
}

impl Autopilot {
    /// An autopilot with an empty pressure window and no cooldown.
    pub fn new(policy: AutopilotPolicy) -> Autopilot {
        Autopilot {
            policy,
            window_base: BTreeMap::new(),
            cooldown_left: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &AutopilotPolicy {
        &self.policy
    }

    /// Extracts this evaluation's pressure reading from a telemetry
    /// snapshot and queue depth, advancing the per-tenant window bases.
    pub fn read_pressure(
        &mut self,
        snapshot: &TelemetrySnapshot,
        queue_depth: usize,
    ) -> PressureReading {
        let mut worst: Option<u64> = None;
        for t in &snapshot.tenants {
            let base = self.window_base.entry(t.tenant).or_default();
            let window = t.stats.total.delta(base);
            *base = t.stats.total;
            if let Some(p99) = window.quantile_us(0.99) {
                worst = Some(worst.map_or(p99, |w| w.max(p99)));
            }
        }
        PressureReading {
            queue_depth,
            worst_p99_us: worst,
        }
    }

    /// Judges one pressure reading: `Some(decision)` to move the worker
    /// target, `None` to hold (dead band, cooldown, or already at a
    /// bound). `current` is the target in force; `floor` is the spec's
    /// worker count, the level cooperative retire returns to.
    pub fn evaluate(
        &mut self,
        reading: &PressureReading,
        current: usize,
        floor: usize,
    ) -> Option<AutopilotDecision> {
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return None;
        }
        let p = &self.policy;
        let queue_hot = reading.queue_depth > p.queue_high_water;
        let p99_hot = reading.worst_p99_us.is_some_and(|v| v > p.p99_high_us);
        let queue_cold = reading.queue_depth <= p.queue_low_water;
        let p99_cold = reading.worst_p99_us.is_none_or(|v| v <= p.p99_low_us);
        let decision = if queue_hot || p99_hot {
            let to = current.saturating_add(p.scale_step).min(p.max_workers);
            (to > current).then(|| AutopilotDecision {
                from: current,
                to,
                reason: if queue_hot {
                    format!(
                        "queue depth {} > high water {}",
                        reading.queue_depth, p.queue_high_water
                    )
                } else {
                    format!(
                        "worst tenant p99 {}us > {}us",
                        reading.worst_p99_us.unwrap_or(0),
                        p.p99_high_us
                    )
                },
            })
        } else if queue_cold && p99_cold {
            let to = current.saturating_sub(p.scale_step).max(floor);
            (to < current).then(|| AutopilotDecision {
                from: current,
                to,
                reason: format!(
                    "pressure clear (queue {} ≤ {}, worst p99 {}us ≤ {}us)",
                    reading.queue_depth,
                    p.queue_low_water,
                    reading.worst_p99_us.unwrap_or(0),
                    p.p99_low_us
                ),
            })
        } else {
            None
        };
        if decision.is_some() {
            self.cooldown_left = self.policy.cooldown_rounds;
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AutopilotPolicy {
        AutopilotPolicy {
            queue_high_water: 8,
            queue_low_water: 1,
            p99_high_us: 100_000,
            p99_low_us: 50_000,
            scale_step: 2,
            max_workers: 6,
            cooldown_rounds: 2,
        }
    }

    fn calm() -> PressureReading {
        PressureReading {
            queue_depth: 0,
            worst_p99_us: Some(1_000),
        }
    }

    #[test]
    fn validation_catches_inverted_bands() {
        assert!(policy().validate().is_ok());
        let mut p = policy();
        p.queue_low_water = 8;
        assert!(p.validate().is_err(), "no dead band");
        let mut p = policy();
        p.p99_low_us = 200_000;
        assert!(p.validate().is_err());
        let mut p = policy();
        p.scale_step = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn pressure_scales_up_to_the_ceiling_and_retires_to_the_floor() {
        let mut ap = Autopilot::new(AutopilotPolicy {
            cooldown_rounds: 0,
            ..policy()
        });
        let deep = PressureReading {
            queue_depth: 20,
            worst_p99_us: None,
        };
        let d = ap.evaluate(&deep, 2, 2).unwrap();
        assert_eq!((d.from, d.to, d.label()), (2, 4, "scale-up"));
        assert!(d.reason.contains("queue depth 20"));
        let d = ap.evaluate(&deep, 4, 2).unwrap();
        assert_eq!(d.to, 6, "step again");
        assert!(ap.evaluate(&deep, 6, 2).is_none(), "ceiling holds");

        let d = ap.evaluate(&calm(), 6, 2).unwrap();
        assert_eq!((d.from, d.to, d.label()), (6, 4, "scale-down"));
        let d = ap.evaluate(&calm(), 4, 2).unwrap();
        assert_eq!(d.to, 2);
        assert!(ap.evaluate(&calm(), 2, 2).is_none(), "floor holds");
    }

    #[test]
    fn p99_pressure_alone_scales_up_and_the_dead_band_holds() {
        let mut ap = Autopilot::new(AutopilotPolicy {
            cooldown_rounds: 0,
            ..policy()
        });
        let slow = PressureReading {
            queue_depth: 0,
            worst_p99_us: Some(150_000),
        };
        let d = ap.evaluate(&slow, 2, 2).unwrap();
        assert_eq!(d.to, 4);
        assert!(d.reason.contains("p99"));
        // Between the bands: neither hot nor cold — hold.
        let tepid = PressureReading {
            queue_depth: 0,
            worst_p99_us: Some(75_000),
        };
        assert!(ap.evaluate(&tepid, 4, 2).is_none(), "dead band");
        // An empty window (no executed jobs) counts as cold.
        let idle = PressureReading {
            queue_depth: 0,
            worst_p99_us: None,
        };
        assert_eq!(ap.evaluate(&idle, 4, 2).unwrap().to, 2);
    }

    #[test]
    fn cooldown_holds_after_each_decision() {
        let mut ap = Autopilot::new(policy());
        let deep = PressureReading {
            queue_depth: 20,
            worst_p99_us: None,
        };
        assert!(ap.evaluate(&deep, 2, 2).is_some());
        assert!(ap.evaluate(&deep, 4, 2).is_none(), "cooldown 1");
        assert!(ap.evaluate(&deep, 4, 2).is_none(), "cooldown 2");
        assert!(ap.evaluate(&deep, 4, 2).is_some(), "cooldown elapsed");
    }

    #[test]
    fn pressure_window_is_the_delta_between_evaluations() {
        use duality_telemetry::{TenantStats, TenantTelemetry};

        let hist = |values: &[u64]| {
            let mut h = LatencySnapshot::default();
            for &us in values {
                h.record(us);
            }
            h
        };
        let snap_with = |total: LatencySnapshot| TelemetrySnapshot {
            spans: total.count,
            dropped: 0,
            shard_jobs: vec![total.count],
            phase_us: vec![],
            resident_bytes: 0,
            peak_resident_bytes: 0,
            evicted_bytes: 0,
            tenants: vec![TenantTelemetry {
                tenant: 9,
                name: None,
                stats: TenantStats {
                    completed: total.count,
                    total,
                    ..TenantStats::default()
                },
            }],
            events: vec![],
        };

        let mut ap = Autopilot::new(policy());
        // First window: slow jobs.
        let slow = snap_with(hist(&[200_000, 220_000]));
        let r = ap.read_pressure(&slow, 0);
        assert!(r.worst_p99_us.unwrap() >= 200_000);
        // Second window: the same cumulative histogram plus fast jobs —
        // the delta only sees the fast ones.
        let mut cumulative = hist(&[200_000, 220_000, 100, 120, 90]);
        cumulative.max_us = 220_000; // cumulative max carries over
        let r = ap.read_pressure(&snap_with(cumulative), 0);
        assert!(
            r.worst_p99_us.unwrap() < 1_000,
            "window p99 {:?} must reflect only new jobs",
            r.worst_p99_us
        );
        // Third window: nothing new executed.
        let r = ap.read_pressure(&snap_with(cumulative), 3);
        assert_eq!(r.worst_p99_us, None);
        assert_eq!(r.queue_depth, 3);
    }
}

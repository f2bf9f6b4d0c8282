//! Open-loop synthetic traffic for exercising the service.
//!
//! Arrivals follow a Poisson process (exponential inter-arrival times)
//! at a per-phase rate, laid out up front as absolute due times so the
//! offered rate does not drift under load; the generator never waits
//! for responses while submitting (open loop), so overload actually
//! overloads — queue depth, shedding and backpressure behave as they
//! would behind a real ingress. Phases compose steady load, bursts, deadline pressure and
//! fault injection (poison pills) into one scripted run, in the spirit
//! of the sweep engine's `FaultPlan`.

use crate::config::Priority;
use crate::error::ServeError;
use crate::server::{InferenceService, Request, Ticket};
use axsnn_core::batch::sample_seed;
use axsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// One scripted traffic phase.
#[derive(Debug, Clone)]
pub struct TrafficPhase {
    /// Label for reports.
    pub name: String,
    /// Mean Poisson arrival rate, requests per second.
    pub rate_hz: f64,
    /// Requests submitted in this phase.
    pub requests: usize,
    /// Deadline attached to each request, if any.
    pub deadline: Option<Duration>,
    /// Poison every Nth request (1-based) — each poisoned request
    /// panics the worker that executes it.
    pub poison_every: Option<usize>,
    /// Fraction of requests submitted at [`Priority::Low`].
    pub low_priority_share: f64,
}

impl TrafficPhase {
    /// Steady well-behaved load.
    pub fn steady(name: &str, rate_hz: f64, requests: usize) -> Self {
        TrafficPhase {
            name: name.into(),
            rate_hz,
            requests,
            deadline: None,
            poison_every: None,
            low_priority_share: 0.0,
        }
    }

    /// A burst: same shape, higher rate, partly low-priority so the
    /// shedding rung has something to shed.
    pub fn burst(name: &str, rate_hz: f64, requests: usize, low_priority_share: f64) -> Self {
        TrafficPhase {
            low_priority_share,
            ..TrafficPhase::steady(name, rate_hz, requests)
        }
    }

    /// Attaches a per-request deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Poisons every `n`th request.
    #[must_use]
    pub fn with_poison_every(mut self, n: usize) -> Self {
        self.poison_every = Some(n.max(1));
        self
    }
}

/// A scripted open-loop run: phases played back to back.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Phases, in order.
    pub phases: Vec<TrafficPhase>,
    /// Seed for arrival jitter, priority draws and per-request
    /// encoding seeds.
    pub seed: u64,
    /// How long the harvester waits on each outstanding ticket before
    /// declaring it hung (the zero-hangs invariant's detector).
    pub harvest_timeout: Duration,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            phases: Vec::new(),
            seed: 7,
            harvest_timeout: Duration::from_secs(10),
        }
    }
}

/// Outcome tally of one open-loop run. Every attempted submission is
/// accounted for in exactly one bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficReport {
    /// Submissions attempted.
    pub attempted: usize,
    /// Requests answered with a prediction.
    pub completed: usize,
    /// Rejected at admission by queue-full backpressure.
    pub rejected_full: usize,
    /// Shed for priority (at admission or dispatch).
    pub shed: usize,
    /// Dropped on an expired deadline before execution.
    pub expired: usize,
    /// Failed with a pinned worker panic.
    pub panicked: usize,
    /// Any other failure.
    pub other_failed: usize,
    /// Tickets unanswered within the harvest timeout. The service
    /// guarantees this stays 0.
    pub hung: usize,
    /// Wall-clock for the whole run (submission + harvest).
    pub elapsed_us: u64,
}

impl TrafficReport {
    /// Served predictions per wall-clock second.
    pub fn goodput_rps(&self) -> f64 {
        if self.elapsed_us == 0 {
            0.0
        } else {
            self.completed as f64 / (self.elapsed_us as f64 / 1e6)
        }
    }

    /// Fraction of attempted submissions that got a prediction.
    pub fn goodput_fraction(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.completed as f64 / self.attempted as f64
        }
    }

    /// Cross-check: every attempt landed in exactly one bucket.
    pub fn accounted(&self) -> bool {
        self.completed
            + self.rejected_full
            + self.shed
            + self.expired
            + self.panicked
            + self.other_failed
            + self.hung
            == self.attempted
    }
}

/// Exponential inter-arrival draw for a Poisson process at `rate_hz`.
fn exp_interval(rng: &mut StdRng, rate_hz: f64) -> Duration {
    let u: f64 = rng.gen::<f64>().clamp(f64::MIN_POSITIVE, 1.0 - 1e-12);
    Duration::from_secs_f64((-u.ln() / rate_hz).min(1.0))
}

/// One scheduled submission of an open-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Arrival {
    /// Due time, as an offset from the start of the run.
    due: Duration,
    /// Submitted at [`Priority::Low`].
    low_priority: bool,
}

/// The run's arrivals, one per request in phase order: each Poisson gap
/// is added to the previous due time, so the offsets are absolute and a
/// pure function of `config`. Per request the seeded stream yields the
/// gap (skipped for a non-positive or infinite rate), then the priority
/// draw.
fn arrival_schedule(config: &TrafficConfig) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut due = Duration::ZERO;
    let mut arrivals = Vec::new();
    for phase in &config.phases {
        for _ in 0..phase.requests {
            if phase.rate_hz.is_finite() && phase.rate_hz > 0.0 {
                due += exp_interval(&mut rng, phase.rate_hz);
            }
            arrivals.push(Arrival {
                due,
                low_priority: rng.gen::<f64>() < phase.low_priority_share,
            });
        }
    }
    arrivals
}

/// Plays `config`'s phases against `service`, cycling through `images`,
/// then harvests every outstanding ticket and tallies outcomes.
///
/// Submission is open-loop: each request is due at a fixed, seeded
/// offset from the start. The generator sleeps until it is due,
/// submits at once when behind schedule, and never blocks on a
/// response, so sleep overshoot and submit cost do not pile up into a
/// lower offered rate.
pub fn run_open_loop(
    service: &InferenceService,
    images: &[Tensor],
    config: &TrafficConfig,
) -> TrafficReport {
    let schedule = arrival_schedule(config);
    let started = Instant::now();
    let mut report = TrafficReport::default();
    let mut outstanding: Vec<Ticket> = Vec::new();
    let mut index = 0usize;
    for phase in &config.phases {
        for i in 0..phase.requests {
            let arrival = schedule[index];
            let due = started + arrival.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let image = images[index % images.len()].clone();
            let mut request = Request::new(image, sample_seed(config.seed, index));
            if arrival.low_priority {
                request = request.with_priority(Priority::Low);
            }
            if let Some(deadline) = phase.deadline {
                request = request.with_deadline(deadline);
            }
            if let Some(n) = phase.poison_every {
                if (i + 1) % n == 0 {
                    request = request.poisoned();
                }
            }
            report.attempted += 1;
            index += 1;
            match service.submit(request) {
                Ok(ticket) => outstanding.push(ticket),
                Err(ServeError::QueueFull { .. }) => report.rejected_full += 1,
                Err(ServeError::Shed { .. }) => report.shed += 1,
                Err(_) => report.other_failed += 1,
            }
        }
    }
    for ticket in outstanding {
        match ticket.wait_timeout(config.harvest_timeout) {
            None => report.hung += 1,
            Some(Ok(_response)) => report.completed += 1,
            Some(Err(ServeError::DeadlineExpired { .. })) => report.expired += 1,
            Some(Err(ServeError::WorkerPanicked { .. })) => report.panicked += 1,
            Some(Err(ServeError::Shed { .. })) => report.shed += 1,
            Some(Err(_)) => report.other_failed += 1,
        }
    }
    report.elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_interval_is_positive_and_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let d = exp_interval(&mut rng, 1000.0);
            assert!(d > Duration::ZERO);
            assert!(d <= Duration::from_secs(1));
        }
    }

    #[test]
    fn report_accounting() {
        let mut r = TrafficReport {
            attempted: 5,
            completed: 2,
            rejected_full: 1,
            shed: 1,
            expired: 1,
            ..TrafficReport::default()
        };
        assert!(r.accounted());
        assert!((r.goodput_fraction() - 0.4).abs() < 1e-12);
        r.hung = 1;
        assert!(!r.accounted());
    }

    #[test]
    fn phase_builders_compose() {
        let p = TrafficPhase::burst("b", 500.0, 40, 0.5)
            .with_deadline(Duration::from_millis(2))
            .with_poison_every(7);
        assert_eq!(p.low_priority_share, 0.5);
        assert_eq!(p.poison_every, Some(7));
        assert!(p.deadline.is_some());
    }

    fn config(seed: u64) -> TrafficConfig {
        TrafficConfig {
            phases: vec![
                TrafficPhase::steady("warm", 2_000.0, 30),
                TrafficPhase::burst("burst", 20_000.0, 60, 0.3),
                TrafficPhase::steady("flood", f64::INFINITY, 5),
                TrafficPhase::steady("cooldown", 500.0, 20),
            ],
            seed,
            ..TrafficConfig::default()
        }
    }

    #[test]
    fn schedule_is_absolute_monotone_and_seeded() {
        let cfg = config(21);
        let schedule = arrival_schedule(&cfg);
        // One arrival per request, phases in order.
        assert_eq!(schedule.len(), 30 + 60 + 5 + 20);
        assert!(schedule.windows(2).all(|w| w[0].due <= w[1].due));
        // The infinite-rate phase adds no gaps.
        assert!(schedule[90..95].iter().all(|a| a.due == schedule[89].due));
        // A pure function of the seed...
        assert_eq!(schedule, arrival_schedule(&cfg));
        assert_ne!(schedule, arrival_schedule(&config(22)));
        // ...drawn from the seeded stream gap-then-priority per request,
        // with each offset the running sum of the gaps.
        let mut rng = StdRng::seed_from_u64(21);
        let mut due = Duration::ZERO;
        let mut k = 0;
        for phase in &cfg.phases {
            for _ in 0..phase.requests {
                if phase.rate_hz.is_finite() {
                    due += exp_interval(&mut rng, phase.rate_hz);
                }
                let low_priority = rng.gen::<f64>() < phase.low_priority_share;
                assert_eq!(schedule[k], Arrival { due, low_priority });
                k += 1;
            }
        }
        assert!(schedule[..30].iter().all(|a| !a.low_priority));
        assert!(schedule[30..90].iter().any(|a| a.low_priority));
    }
}

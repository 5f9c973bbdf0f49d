//! Busy-wait poll schedules and the engine-side state of a polling rank.
//!
//! A rank that busy-waits (MPI_Wait without PIOMan, MPI_Probe, the
//! finalize drain, the agreement pass loop) runs one progress cycle per
//! *poll tick* and then sleeps for the tick's step. [`PollSchedule`] is the
//! one implementation of that step sequence: `fine_polls` ticks at the base
//! granularity, then ×1.5 growth per tick up to a cap (optionally a larger
//! cap once a wait has survived `bulk_after` polls).
//!
//! Ticks stay events — their timing is part of the simulated result — but
//! most of them find nothing to do. A rank therefore parks through
//! [`crate::RankCtx::poll`], handing the engine its schedule, an activity
//! flag and an optional timer deadline; the engine re-arms idle ticks
//! itself (see `engine.rs`, "Elided poll ticks") instead of handing the
//! token to the rank for a cycle that would change nothing.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use crate::time::{SimDuration, SimTime};

/// Deterministic poll/backoff step sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PollSchedule {
    step: SimDuration,
    polls: u32,
    fine_polls: u32,
    cap: SimDuration,
    /// `(polls, cap)`: past this many polls the step may grow to the
    /// larger cap.
    bulk: Option<(u32, SimDuration)>,
}

impl PollSchedule {
    /// `fine_polls` ticks of `gran`, then ×1.5 per tick up to `cap`.
    pub const fn new(gran: SimDuration, fine_polls: u32, cap: SimDuration) -> PollSchedule {
        PollSchedule {
            step: gran,
            polls: 0,
            fine_polls,
            cap,
            bulk: None,
        }
    }

    /// A constant step: every tick waits `step`.
    pub const fn fixed(step: SimDuration) -> PollSchedule {
        PollSchedule::new(step, u32::MAX, step)
    }

    /// Once more than `after` polls have passed, grow up to `cap` instead.
    pub const fn with_bulk(mut self, after: u32, cap: SimDuration) -> PollSchedule {
        self.bulk = Some((after, cap));
        self
    }

    /// Ticks taken so far.
    pub fn polls(&self) -> u32 {
        self.polls
    }

    /// The step of the next tick; advances the schedule by one tick.
    pub fn next_step(&mut self) -> SimDuration {
        let step = self.step;
        self.polls = self.polls.saturating_add(1);
        if self.polls > self.fine_polls {
            let cap = match self.bulk {
                Some((after, bulk_cap)) if self.polls > after => bulk_cap,
                _ => self.cap,
            };
            self.step = SimDuration::nanos((step.as_nanos() * 3 / 2).min(cap.as_nanos()));
        }
        step
    }
}

/// What a rank parked in [`crate::RankCtx::poll`] left with the engine.
pub(crate) struct PollPark {
    pub(crate) schedule: PollSchedule,
    /// Set by anything that may give the rank's next progress cycle work.
    pub(crate) active: Arc<AtomicBool>,
    /// First instant a timer makes the next cycle do work (`None`: no
    /// timer armed).
    pub(crate) deadline: Option<SimTime>,
    /// Ticks the engine ran on the rank's behalf since it parked.
    pub(crate) elided: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_never_grows() {
        let mut s = PollSchedule::fixed(SimDuration::nanos(500));
        for _ in 0..10_000 {
            assert_eq!(s.next_step(), SimDuration::nanos(500));
        }
        assert_eq!(s.polls(), 10_000);
    }

    #[test]
    fn grows_after_fine_polls_and_respects_both_caps() {
        let gran = SimDuration::nanos(50);
        let mut s = PollSchedule::new(gran, 3, SimDuration::nanos(100))
            .with_bulk(5, SimDuration::nanos(200));
        let steps: Vec<u64> = (0..8).map(|_| s.next_step().as_nanos()).collect();
        assert_eq!(steps, vec![50, 50, 50, 50, 75, 100, 150, 200]);
    }
}

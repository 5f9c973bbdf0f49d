//! The handle a rank program uses to interact with the simulation.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use crate::engine::{RankId, Report, ReportCell, Scheduler, SimCore, TornDown, WakeCell};
use crate::poll::{PollPark, PollSchedule};
use crate::time::{SimDuration, SimTime};

/// Per-rank simulation context, passed by value to the rank's program
/// closure. Not `Clone`: the token protocol requires a single blocking
/// entry point per rank.
pub struct RankCtx {
    core: Arc<SimCore>,
    rank: RankId,
    cell: Arc<WakeCell>,
    report: Arc<ReportCell>,
}

impl RankCtx {
    pub(crate) fn new(
        core: Arc<SimCore>,
        rank: RankId,
        cell: Arc<WakeCell>,
        report: Arc<ReportCell>,
    ) -> Self {
        RankCtx {
            core,
            rank,
            cell,
            report,
        }
    }

    /// This rank's identifier.
    #[inline]
    pub fn rank(&self) -> RankId {
        self.rank
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// A scheduler handle for posting events from rank code.
    pub fn scheduler(&self) -> Scheduler {
        Scheduler::new(Arc::clone(&self.core))
    }

    /// Advance this rank's local time by `d` — models computation (or any
    /// fixed software cost) taking `d` of CPU time. Other ranks and
    /// background events run in the meantime.
    pub fn advance(&self, d: SimDuration) {
        let sched = self.scheduler();
        sched.wake_rank_at(self.now() + d, self.rank);
        self.park();
    }

    /// Alias for [`RankCtx::advance`] that reads naturally in application
    /// kernels ("compute for 20 µs, then wait", §4.1.2).
    #[inline]
    pub fn compute(&self, d: SimDuration) {
        self.advance(d);
    }

    /// Give other same-instant events a chance to run, then resume.
    pub fn yield_now(&self) {
        self.advance(SimDuration::ZERO);
    }

    /// Sleep for the next tick of `schedule`, like
    /// `advance(schedule.next_step())`, then return to run a progress
    /// cycle. While `active` stays clear and `deadline` (if any) lies
    /// ahead, the engine runs the following ticks itself without waking
    /// this rank; `schedule` comes back advanced past them and the return
    /// value is how many there were.
    ///
    /// The caller must clear `active` before each progress cycle it runs,
    /// and everything that could give the next cycle work — an arrival,
    /// another rank's action, a timer — must set the flag or be covered by
    /// `deadline`. Elided ticks then stand exactly for cycles that would
    /// have changed nothing.
    pub fn poll(
        &self,
        schedule: &mut PollSchedule,
        active: &Arc<AtomicBool>,
        deadline: Option<SimTime>,
    ) -> u64 {
        let step = schedule.next_step();
        self.scheduler().wake_rank_at(self.now() + step, self.rank);
        self.park_with(Some(PollPark {
            schedule: *schedule,
            active: Arc::clone(active),
            deadline,
            elided: 0,
        }));
        match self.cell.take_resume() {
            Some((advanced, elided)) => {
                *schedule = advanced;
                elided
            }
            None => 0,
        }
    }

    /// Block until some event wakes this rank. Used by blocking primitives
    /// ([`crate::sem::SimSemaphore`]); the waker must have arranged for
    /// exactly one wake event targeting this rank.
    pub(crate) fn park(&self) {
        self.park_with(None);
    }

    fn park_with(&self, poll: Option<PollPark>) {
        self.report.send(Report::Parked(self.rank, poll));
        if self.cell.wait_go().is_err() {
            // The engine tore the simulation down (deadlock/panic path):
            // unwind this thread silently.
            std::panic::panic_any(TornDown);
        }
    }

    /// Wait for the initial token grant. Only called once, by the rank
    /// thread bootstrap.
    pub(crate) fn wait_go(&self) -> Result<(), ()> {
        self.cell.wait_go()
    }
}

//! The PIOMan server: the global polling authority of §3.3.1.
//!
//! "In order to fairly make progress both intra-node and inter-node
//! communication, it is necessary to centralize the detection of
//! communication completions … the whole software stack benefits from a
//! global view of both intra-node and inter-node communication flows."
//!
//! The server owns the registered [`LTask`]s and runs all of them on each
//! detection opportunity:
//!
//! * a **network kick** (NewMadeleine accepted a packet or a NIC finished a
//!   transfer) — reacted to after [`PiomConfig::net_sync`], the ≈2 µs
//!   "stronger synchronization … lists of requests protected from
//!   concurrent accesses, network drivers not thread-safe" cost of §4.1.2;
//! * a **shared-memory kick** (a Nemesis mailbox counter was raised) —
//!   after [`PiomConfig::shm_sync`] (≈450 ns);
//! * in [`DetectionMethod::TimerDriven`] mode, a periodic tick — the
//!   degraded path when no core is idle ("context switches, timer
//!   interrupts").

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::{Scheduler, SimDuration};

use crate::ltask::{LTask, LTaskFn};

/// Re-exported ltask function type (what the MPI glue registers).
pub type ProgressFn = LTaskFn;

/// How completions are detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectionMethod {
    /// An idle core polls continuously: every kick is reacted to after just
    /// the synchronization cost. This is the configuration the paper
    /// evaluates ("the submission of data is thus performed by idle cores
    /// when it is possible", §2.2.2) and the one that overlaps
    /// communication with computation.
    IdleCorePolling,
    /// No idle core: progress only happens on a periodic scheduler tick
    /// (context switches / timer interrupts), with this period.
    TimerDriven(SimDuration),
}

/// PIOMan tuning knobs, calibrated from §4.1.2.
#[derive(Clone, Copy, Debug)]
pub struct PiomConfig {
    /// Synchronization cost on the shared-memory detection path (~450 ns).
    pub shm_sync: SimDuration,
    /// Synchronization cost on the network detection path (~2 µs).
    pub net_sync: SimDuration,
    pub method: DetectionMethod,
}

impl Default for PiomConfig {
    fn default() -> Self {
        PiomConfig {
            shm_sync: SimDuration::nanos(450),
            net_sync: SimDuration::nanos(2_000),
            method: DetectionMethod::IdleCorePolling,
        }
    }
}

/// The per-process progress server.
pub struct PiomServer {
    cfg: PiomConfig,
    ltasks: Mutex<Vec<LTask>>,
    stopped: AtomicBool,
    timer_running: AtomicBool,
    /// An ltask pass is scheduled but has not run yet (idle-core mode).
    /// Kicks arriving while set are coalesced into that pass: it fires
    /// after their simulated instant (the pending pass was scheduled no
    /// more than one sync cost ago), so it observes their work — one poll
    /// pass servicing a burst of events, exactly what a real polling core
    /// does. Without this, every NIC event fans out into one scheduled
    /// pass per co-located rank and event counts grow with node width.
    pass_pending: AtomicBool,
    kicks: AtomicU64,
    /// Completed `run_ltasks` passes (the watchdog's progress signal).
    runs: AtomicU64,
    watchdog_running: AtomicBool,
    /// `runs` snapshot at the last watchdog inspection.
    watchdog_seen: AtomicU64,
    /// Stall detections: watchdog periods in which no ltask pass happened.
    rekicks: AtomicU64,
    /// Observability handle (installed by the stack glue after
    /// construction; defaults to the inert handle).
    rec: Mutex<obs::RankRec>,
}

impl PiomServer {
    pub fn new(cfg: PiomConfig) -> Arc<PiomServer> {
        Arc::new(PiomServer {
            cfg,
            ltasks: Mutex::new(Vec::new()),
            stopped: AtomicBool::new(false),
            timer_running: AtomicBool::new(false),
            pass_pending: AtomicBool::new(false),
            kicks: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            watchdog_running: AtomicBool::new(false),
            watchdog_seen: AtomicU64::new(0),
            rekicks: AtomicU64::new(0),
            rec: Mutex::new(obs::RankRec::off()),
        })
    }

    /// Install the observability handle this server stamps its events with
    /// (kicks, ltask passes, watchdog re-kicks).
    pub fn set_recorder(&self, rec: obs::RankRec) {
        *self.rec.lock() = rec;
    }

    pub fn config(&self) -> &PiomConfig {
        &self.cfg
    }

    /// Register a progress task. Tasks run in registration order.
    pub fn register(&self, task: LTask) {
        self.ltasks.lock().push(task);
    }

    /// Convenience: register a closure as an ltask.
    pub fn register_fn(&self, name: &str, f: ProgressFn) -> LTask {
        let task = LTask::new(name, f);
        self.register(task.clone());
        task
    }

    /// Total kicks received (diagnostics).
    pub fn kicks(&self) -> u64 {
        self.kicks.load(Ordering::Relaxed)
    }

    /// Watchdog stall detections: periods with no ltask pass that forced a
    /// re-kick (diagnostics).
    pub fn rekicks(&self) -> u64 {
        self.rekicks.load(Ordering::Relaxed)
    }

    /// Run every registered ltask now.
    pub fn run_ltasks(&self, sched: &Scheduler) {
        if self.stopped.load(Ordering::Acquire) {
            return;
        }
        self.runs.fetch_add(1, Ordering::Relaxed);
        // Clone out so ltasks may register further ltasks without deadlock.
        let tasks: Vec<LTask> = self.ltasks.lock().clone();
        {
            let rec = self.rec.lock();
            rec.engine(
                sched.now().0,
                obs::EngineEvent::PiomLtaskPass {
                    tasks: tasks.len() as u32,
                },
            );
            rec.inc("piom.ltask_passes", 1);
        }
        for t in &tasks {
            t.run(sched);
        }
    }

    /// A network event happened (NewMadeleine hook): react after the
    /// network synchronization cost — if an idle core is polling. In
    /// timer-driven mode the event waits for the next tick.
    pub fn kick_net(self: &Arc<Self>, sched: &Scheduler) {
        {
            let rec = self.rec.lock();
            rec.engine(sched.now().0, obs::EngineEvent::PiomKick { net: true });
            rec.inc("piom.kicks.net", 1);
        }
        self.kick(sched, self.cfg.net_sync);
    }

    /// A shared-memory mailbox was raised (Nemesis hook).
    pub fn kick_shm(self: &Arc<Self>, sched: &Scheduler) {
        {
            let rec = self.rec.lock();
            rec.engine(sched.now().0, obs::EngineEvent::PiomKick { net: false });
            rec.inc("piom.kicks.shm", 1);
        }
        self.kick(sched, self.cfg.shm_sync);
    }

    fn kick(self: &Arc<Self>, sched: &Scheduler, sync: SimDuration) {
        self.kicks.fetch_add(1, Ordering::Relaxed);
        match self.cfg.method {
            DetectionMethod::IdleCorePolling => {
                // Coalesce: if a pass is already on the calendar it will
                // fire after this kick's instant and see its work; a lone
                // kick still reacts after exactly the sync cost.
                if self.pass_pending.swap(true, Ordering::AcqRel) {
                    return;
                }
                let server = Arc::clone(self);
                sched.schedule_in(sync, move |s| {
                    // Clear before running: kicks raised *by* this pass
                    // (completions cascading into new submissions) must
                    // schedule a fresh pass rather than be swallowed.
                    server.pass_pending.store(false, Ordering::Release);
                    server.run_ltasks(s);
                });
            }
            DetectionMethod::TimerDriven(_) => {
                // The periodic tick will pick the event up.
            }
        }
    }

    /// Start the periodic tick (no-op for idle-core polling). Idempotent.
    pub fn start(self: &Arc<Self>, sched: &Scheduler) {
        if let DetectionMethod::TimerDriven(period) = self.cfg.method {
            if !self.timer_running.swap(true, Ordering::AcqRel) {
                self.tick(sched, period);
            }
        }
    }

    fn tick(self: &Arc<Self>, sched: &Scheduler, period: SimDuration) {
        if self.stopped.load(Ordering::Acquire) {
            return;
        }
        let server = Arc::clone(self);
        sched.schedule_in(period, move |s| {
            server.run_ltasks(s);
            server.tick(s, period);
        });
    }

    /// Start the stall watchdog: every `period`, if no ltask pass ran since
    /// the previous inspection (the kick chain died — e.g. a lost packet
    /// means no NIC event will ever fire the NewMadeleine hook again), run
    /// the ltasks anyway. This is what lets a blocked `wait()` recover under
    /// fault injection: the re-kicked ltasks drive `NmCore::schedule`, whose
    /// retransmission sweep puts the lost traffic back on the wire.
    /// Idempotent; ends when the server is stopped.
    pub fn enable_watchdog(self: &Arc<Self>, sched: &Scheduler, period: SimDuration) {
        assert!(period > SimDuration::ZERO, "watchdog needs a nonzero period");
        if !self.watchdog_running.swap(true, Ordering::AcqRel) {
            self.watchdog_seen
                .store(self.runs.load(Ordering::Relaxed), Ordering::Relaxed);
            self.watchdog_tick(sched, period);
        }
    }

    fn watchdog_tick(self: &Arc<Self>, sched: &Scheduler, period: SimDuration) {
        if self.stopped.load(Ordering::Acquire) {
            self.watchdog_running.store(false, Ordering::Release);
            return;
        }
        let server = Arc::clone(self);
        sched.schedule_in(period, move |s| {
            let runs = server.runs.load(Ordering::Relaxed);
            if server.watchdog_seen.swap(runs, Ordering::Relaxed) == runs
                && !server.stopped.load(Ordering::Acquire)
            {
                server.rekicks.fetch_add(1, Ordering::Relaxed);
                {
                    let rec = server.rec.lock();
                    rec.engine(s.now().0, obs::EngineEvent::PiomRekick);
                    rec.inc("piom.rekicks", 1);
                }
                server.run_ltasks(s);
                server.watchdog_seen
                    .store(server.runs.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            server.watchdog_tick(s, period);
        });
    }

    /// Stop all background activity (teardown) and release the ltasks,
    /// which may close over state that owns this server.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        self.ltasks.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PlMutex;
    use simnet::{SimBuilder, SimTime};

    fn counter_task(log: &Arc<PlMutex<Vec<SimTime>>>) -> ProgressFn {
        let log = Arc::clone(log);
        Arc::new(move |s: &Scheduler| log.lock().push(s.now()))
    }

    #[test]
    fn net_kick_reacts_after_sync_cost() {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let server = PiomServer::new(PiomConfig::default());
        let log = Arc::new(PlMutex::new(Vec::new()));
        server.register_fn("count", counter_task(&log));
        let s2 = Arc::clone(&server);
        sched.schedule_at(SimTime(1_000), move |s| s2.kick_net(s));
        sim.run().unwrap();
        assert_eq!(*log.lock(), vec![SimTime(3_000)]); // 1us + 2us sync
        assert_eq!(server.kicks(), 1);
    }

    #[test]
    fn shm_kick_uses_cheaper_sync() {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let server = PiomServer::new(PiomConfig::default());
        let log = Arc::new(PlMutex::new(Vec::new()));
        server.register_fn("count", counter_task(&log));
        let s2 = Arc::clone(&server);
        sched.schedule_at(SimTime::ZERO, move |s| s2.kick_shm(s));
        sim.run().unwrap();
        assert_eq!(*log.lock(), vec![SimTime(450)]);
    }

    #[test]
    fn all_ltasks_run_in_order() {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let server = PiomServer::new(PiomConfig::default());
        let order = Arc::new(PlMutex::new(Vec::new()));
        for name in ["a", "b", "c"] {
            let order = Arc::clone(&order);
            server.register_fn(name, Arc::new(move |_| order.lock().push(name)));
        }
        server.run_ltasks(&sched);
        assert_eq!(*order.lock(), vec!["a", "b", "c"]);
    }

    #[test]
    fn timer_mode_ignores_kicks_until_tick() {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let server = PiomServer::new(PiomConfig {
            method: DetectionMethod::TimerDriven(SimDuration::micros(10)),
            ..Default::default()
        });
        let log = Arc::new(PlMutex::new(Vec::new()));
        server.register_fn("count", counter_task(&log));
        server.start(&sched);
        let s2 = Arc::clone(&server);
        // Kick at 1us: must NOT trigger a run at 3us; first run is the
        // 10us tick.
        sched.schedule_at(SimTime(1_000), move |s| s2.kick_net(s));
        let s3 = Arc::clone(&server);
        sched.schedule_at(SimTime(25_000), move |_| s3.stop());
        sim.run().unwrap();
        let runs = log.lock();
        assert_eq!(runs.first(), Some(&SimTime(10_000)));
        assert!(runs.iter().all(|t| t.as_nanos() % 10_000 == 0));
    }

    #[test]
    fn stop_halts_timer_and_kicks() {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let server = PiomServer::new(PiomConfig::default());
        let log = Arc::new(PlMutex::new(Vec::new()));
        server.register_fn("count", counter_task(&log));
        server.stop();
        let s2 = Arc::clone(&server);
        sched.schedule_at(SimTime::ZERO, move |s| s2.kick_net(s));
        sim.run().unwrap();
        assert!(log.lock().is_empty(), "stopped server must not run ltasks");
    }

    #[test]
    fn watchdog_rekicks_when_kicks_stagnate() {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let server = PiomServer::new(PiomConfig::default());
        let log = Arc::new(PlMutex::new(Vec::new()));
        server.register_fn("count", counter_task(&log));
        // No kick ever arrives (all packets "lost"): only the watchdog can
        // run the ltasks.
        server.enable_watchdog(&sched, SimDuration::micros(10));
        let s2 = Arc::clone(&server);
        sched.schedule_at(SimTime(45_000), move |_| s2.stop());
        sim.run().unwrap();
        assert!(
            server.rekicks() >= 3,
            "stalled server must be re-kicked (got {})",
            server.rekicks()
        );
        assert!(!log.lock().is_empty());
    }

    #[test]
    fn watchdog_stays_quiet_while_kicks_flow() {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let server = PiomServer::new(PiomConfig::default());
        let log = Arc::new(PlMutex::new(Vec::new()));
        server.register_fn("count", counter_task(&log));
        server.enable_watchdog(&sched, SimDuration::micros(10));
        // A kick in every watchdog period: never stalled, never re-kicked.
        for i in 0..7u64 {
            let s2 = Arc::clone(&server);
            sched.schedule_at(SimTime(i * 5_000), move |s| s2.kick_net(s));
        }
        let s3 = Arc::clone(&server);
        sched.schedule_at(SimTime(38_000), move |_| s3.stop());
        sim.run().unwrap();
        assert_eq!(server.rekicks(), 0);
        assert_eq!(log.lock().len(), 7);
    }

    #[test]
    fn ltask_may_register_ltask_without_deadlock() {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let server = PiomServer::new(PiomConfig::default());
        let s2 = Arc::clone(&server);
        let hit = Arc::new(PlMutex::new(false));
        let h2 = Arc::clone(&hit);
        server.register_fn(
            "registrar",
            Arc::new(move |_s| {
                let h3 = Arc::clone(&h2);
                s2.register_fn("child", Arc::new(move |_| *h3.lock() = true));
            }),
        );
        server.run_ltasks(&sched); // registers child
        server.run_ltasks(&sched); // runs child
        assert!(*hit.lock());
    }
}

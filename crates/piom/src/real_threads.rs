//! A real-OS-thread background progress engine.
//!
//! The simulator models PIOMan's timing; this module demonstrates the same
//! architecture with actual concurrency: a dedicated progress thread (the
//! "idle core") repeatedly invokes a progress closure while application
//! threads compute, exactly the division of labour of §2.2.2 ("the
//! submission of data is performed by idle cores when it is possible,
//! reducing the application's threads' workload").
//!
//! Used by the `overlap_compute` example and by tests that validate the
//! engine against real `std::thread` concurrency.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A background thread driving a progress function until stopped.
pub struct BackgroundProgress {
    stop: Arc<AtomicBool>,
    iterations: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl BackgroundProgress {
    /// Spawn the progress thread. `progress` is called in a tight loop with
    /// `pause` between invocations (use `Duration::ZERO` for pure busy
    /// polling on a dedicated core).
    pub fn spawn(pause: Duration, mut progress: impl FnMut() + Send + 'static) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let iterations = Arc::new(AtomicU64::new(0));
        let stop2 = Arc::clone(&stop);
        let iters2 = Arc::clone(&iterations);
        let handle = std::thread::Builder::new()
            .name("piom-progress".into())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    progress();
                    iters2.fetch_add(1, Ordering::Relaxed);
                    if pause > Duration::ZERO {
                        std::thread::sleep(pause);
                    } else {
                        std::hint::spin_loop();
                    }
                }
            })
            .expect("failed to spawn progress thread");
        BackgroundProgress {
            stop,
            iterations,
            handle: Some(handle),
        }
    }

    /// Number of progress iterations completed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations.load(Ordering::Relaxed)
    }

    /// Stop and join the thread. Idempotent; also runs on drop.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for BackgroundProgress {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::queue::SegQueue;

    #[test]
    fn progress_runs_while_main_thread_computes() {
        let queue: Arc<SegQueue<u32>> = Arc::new(SegQueue::new());
        let q2 = Arc::clone(&queue);
        let drained = Arc::new(AtomicU64::new(0));
        let d2 = Arc::clone(&drained);
        let mut bg = BackgroundProgress::spawn(Duration::ZERO, move || {
            while q2.pop().is_some() {
                d2.fetch_add(1, Ordering::Relaxed);
            }
        });
        // "Application thread" produces work while "computing".
        for i in 0..10_000 {
            queue.push(i);
        }
        // Wait for the background thread to drain everything.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while drained.load(Ordering::Relaxed) < 10_000 {
            assert!(
                std::time::Instant::now() < deadline,
                "background progress stalled at {}",
                drained.load(Ordering::Relaxed)
            );
            std::thread::yield_now();
        }
        bg.stop();
        assert_eq!(drained.load(Ordering::Relaxed), 10_000);
        assert!(bg.iterations() > 0);
    }

    #[test]
    fn stop_is_idempotent_and_drop_safe() {
        let mut bg = BackgroundProgress::spawn(Duration::from_micros(10), || {});
        bg.stop();
        bg.stop();
        drop(bg); // must not hang or double-join
    }
}

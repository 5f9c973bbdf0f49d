//! Property-based tests of the lock-free cell queue against a reference
//! model, plus a heavier multi-producer stress test.

use std::sync::Arc;

use nemesis::{CellPool, NemQueue};
use proptest::prelude::*;

/// A scripted single-threaded interleaving of enqueues and dequeues must
/// behave exactly like a VecDeque.
#[derive(Clone, Debug)]
enum Op {
    Enqueue(u8),
    Dequeue,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..=255).prop_map(Op::Enqueue),
        Just(Op::Dequeue),
    ]
}

proptest! {
    #[test]
    fn queue_matches_vecdeque_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let (pool, mut handles) = CellPool::new(1, 256);
        let mut free: Vec<_> = handles.remove(0);
        let q = NemQueue::new();
        let mut model: std::collections::VecDeque<u8> = Default::default();
        for op in ops {
            match op {
                Op::Enqueue(v) => {
                    if let Some(mut h) = free.pop() {
                        h.fill(&[v]);
                        q.enqueue(h);
                        model.push_back(v);
                    }
                }
                Op::Dequeue => {
                    let got = q.dequeue(&pool);
                    let want = model.pop_front();
                    match (got, want) {
                        (Some(h), Some(v)) => {
                            prop_assert_eq!(h.payload(), &[v]);
                            free.push(h);
                        }
                        (None, None) => {}
                        (g, w) => prop_assert!(
                            false,
                            "divergence: queue {:?}, model {:?}",
                            g.map(|h| h.payload().to_vec()),
                            w
                        ),
                    }
                }
            }
        }
        // Drain both to the end.
        while let Some(h) = q.dequeue(&pool) {
            let v = model.pop_front().expect("model shorter than queue");
            prop_assert_eq!(h.payload(), &[v]);
            free.push(h);
        }
        prop_assert!(model.is_empty(), "queue shorter than model");
    }
}

/// `producers` threads push `per_producer` cells each through one shared
/// queue to a single consumer, out of private windows of `window` cells.
/// Cells travel back through per-producer free queues — also `NemQueue`s,
/// with the consumer as a producer and the owner as the sole dequeuer — so
/// window backpressure and recycling race the data queue throughout.
/// Asserts per-sender FIFO, intact payloads, and that every cell ends up
/// home in its owner's free queue.
fn heavy_stress(producers: usize, per_producer: usize, window: usize) {
    let (pool, handles) = CellPool::new(producers, window);
    let q = Arc::new(NemQueue::new());
    let free: Arc<Vec<NemQueue>> = Arc::new((0..producers).map(|_| NemQueue::new()).collect());
    for (r, hs) in handles.into_iter().enumerate() {
        for h in hs {
            free[r].enqueue(h);
        }
    }
    // A payload that is a function of (producer, seq) only.
    let payload = |p: usize, seq: u64| [p as u8, seq as u8, (seq >> 8) as u8];
    let workers: Vec<_> = (0..producers)
        .map(|p| {
            let (q, free, pool) = (Arc::clone(&q), Arc::clone(&free), Arc::clone(&pool));
            std::thread::spawn(move || {
                let mut sent = 0u64;
                while sent < per_producer as u64 {
                    if let Some(mut h) = free[p].dequeue(&pool) {
                        h.header.src_rank = p;
                        h.header.seq = sent;
                        h.fill(&payload(p, sent));
                        q.enqueue(h);
                        sent += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    let mut next = vec![0u64; producers];
    let mut received = 0usize;
    while received < producers * per_producer {
        if let Some(h) = q.dequeue(&pool) {
            let p = h.header.src_rank;
            assert_eq!(h.header.seq, next[p], "per-producer FIFO violated");
            assert_eq!(
                h.payload(),
                payload(p, next[p]),
                "payload corrupted in transit"
            );
            assert_eq!(h.origin, p, "cell recycled to the wrong window");
            next[p] += 1;
            received += 1;
            free[h.origin].enqueue(h);
        } else {
            std::hint::spin_loop();
        }
    }
    for w in workers {
        w.join().unwrap();
    }
    assert!(next.iter().all(|&n| n == per_producer as u64));
    assert!(q.dequeue(&pool).is_none());
    for (p, fq) in free.iter().enumerate() {
        let mut home = 0;
        while fq.dequeue(&pool).is_some() {
            home += 1;
        }
        assert_eq!(home, window, "producer {p} lost or gained cells");
    }
}

#[test]
fn four_producers_heavy_stress() {
    heavy_stress(4, 30_000, 128);
}

#[test]
fn sixteen_producers_heavy_stress() {
    // More producers than cores and a 4-cell window: producers stall on
    // recycling constantly, so the free queues see as much traffic as the
    // data queue.
    heavy_stress(16, 4_000, 4);
}

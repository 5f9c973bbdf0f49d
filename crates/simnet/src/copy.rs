//! Copy accounting and lineage-tracked payload buffers.
//!
//! The paper's §2.1.3 / Fig. 2 argument for bypassing CH3 is that the
//! nested path costs extra handshakes **and extra copies**. This module
//! makes the copy count a first-class measured quantity instead of an
//! asserted one:
//!
//! * [`CopyMeter`] — per-stack counters for every time payload bytes are
//!   memcpy'd, every fresh payload allocation, and every zero-copy
//!   slice/share taken. One meter is threaded through the whole stack
//!   (MPI ingress → CH3 → nmad → Nemesis cells → fabric), so a run's
//!   [`CopySnapshot`] is the ground truth for "how many copies did this
//!   configuration pay per message".
//! * [`NmBuf`] — the payload newtype carried on the data path. It wraps a
//!   refcounted [`Bytes`] view plus *lineage*: which layer originated the
//!   buffer ([`BufOrigin`]) and how many zero-copy shares/slices separate
//!   this handle from that origin (`generation`). Cloning an `NmBuf` is a
//!   refcount bump, never a memcpy, and is recorded on the attached meter
//!   as a slice-ref — so the counters distinguish "the payload crossed a
//!   layer" from "the payload was duplicated".
//! * [`NmLanding`] — a zeroed, writable receive buffer that a layer fills
//!   chunk by chunk and then [freezes](NmLanding::freeze) into an `NmBuf`.
//!
//! Payload storage of [`POOL_FLOOR`] bytes and more is recycled: the meter
//! owns a free list of power-of-two size classes, and storage goes back to
//! its class when the last view of it drops (DESIGN.md §16). Recycling
//! changes no count — a recycled buffer is still one recorded allocation.
//!
//! Determinism: the simulation is logically single-threaded (a single
//! execution token is handed between the engine and rank threads), so the
//! counters are incremented in a deterministic order and same-seed replays
//! produce bit-identical snapshots — including fault-injected runs, where
//! retransmissions and duplicate deliveries are themselves deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

/// Smallest payload whose storage the job recycles. Below it, malloc's
/// own bins already reuse freed chunks without a system call; above it,
/// glibc serves and returns storage with `mmap`/trim, so every message
/// would fault its pages in afresh.
pub const POOL_FLOOR: usize = 64 * 1024;

/// Which layer first materialized a payload allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufOrigin {
    /// Application buffer handed to `MPI_Send`/`MPI_Isend`.
    App,
    /// CH3 layer (packet codec, landing buffers).
    Ch3,
    /// NewMadeleine core (rendezvous reassembly, wire payloads).
    Nmad,
    /// Nemesis shared-memory channel (cell copy-out reassembly).
    Nemesis,
    /// Simulated fabric/NIC (fault-injected duplicates, test rigs).
    Fabric,
}

/// Immutable tally of a [`CopyMeter`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CopySnapshot {
    /// Total payload bytes that were physically memcpy'd.
    pub bytes_copied: u64,
    /// Number of distinct memcpy operations on payload bytes.
    pub memcpy_calls: u64,
    /// Number of fresh payload allocations.
    pub allocations: u64,
    /// Number of zero-copy shares/slices (refcount bumps) taken.
    pub slice_refs: u64,
}

impl CopySnapshot {
    /// Counter-wise difference (`self - earlier`), for bracketing a phase.
    pub fn since(&self, earlier: &CopySnapshot) -> CopySnapshot {
        CopySnapshot {
            bytes_copied: self.bytes_copied - earlier.bytes_copied,
            memcpy_calls: self.memcpy_calls - earlier.memcpy_calls,
            allocations: self.allocations - earlier.allocations,
            slice_refs: self.slice_refs - earlier.slice_refs,
        }
    }
}

impl std::fmt::Display for CopySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memcpy={} ({} B) alloc={} slice={}",
            self.memcpy_calls, self.bytes_copied, self.allocations, self.slice_refs
        )
    }
}

/// Copy/allocation/share counters for one stack instance.
///
/// Cheap enough to leave on in every run: four relaxed atomic adds on the
/// payload path. The atomics are only for `Sync`; the simulator's
/// token-passing execution model means increments happen in a
/// deterministic order, so snapshots are replay-stable.
#[derive(Debug, Default)]
pub struct CopyMeter {
    bytes_copied: AtomicU64,
    memcpy_calls: AtomicU64,
    allocations: AtomicU64,
    slice_refs: AtomicU64,
    /// The job's recycled payload storage. Views hold the pool too, so it
    /// outlives the meter until the last pooled payload drops.
    pool: Arc<PayloadPool>,
}

impl CopyMeter {
    pub fn new() -> Arc<CopyMeter> {
        Arc::new(CopyMeter::default())
    }

    /// Record one memcpy of `bytes` payload bytes.
    pub fn record_copy(&self, bytes: usize) {
        self.memcpy_calls.fetch_add(1, Ordering::Relaxed);
        self.bytes_copied.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record one fresh payload allocation.
    pub fn record_alloc(&self) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one zero-copy share/slice (refcount bump, no data movement).
    pub fn record_slice(&self) {
        self.slice_refs.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> CopySnapshot {
        CopySnapshot {
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
            memcpy_calls: self.memcpy_calls.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            slice_refs: self.slice_refs.load(Ordering::Relaxed),
        }
    }
}

/// Free storage of one power-of-two size class.
#[derive(Default)]
struct SizeClass {
    free: Vec<Vec<u8>>,
    /// Buffers of this class currently handed out.
    live: usize,
    /// Most buffers of this class ever handed out at once.
    high_water: usize,
}

impl std::fmt::Debug for SizeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "free={} live={} hwm={}",
            self.free.len(),
            self.live,
            self.high_water
        )
    }
}

/// Payload storage of [`POOL_FLOOR`] bytes and more, recycled per job.
/// Class `i` holds buffers with a capacity of `POOL_FLOOR << i` bytes. A
/// class never retains more buffers than its live high-water mark:
/// storage only enters the free list when a live buffer returns, and
/// `free + live` never exceeds `high_water`.
#[derive(Debug, Default)]
struct PayloadPool {
    classes: Mutex<Vec<SizeClass>>,
}

impl PayloadPool {
    fn class_of(cap: usize) -> usize {
        (cap / POOL_FLOOR).trailing_zeros() as usize
    }

    /// Storage with room for `len >= POOL_FLOOR` bytes: `len` zero bytes
    /// when `zeroed` is set, else empty for the caller to fill.
    fn take(self: &Arc<Self>, len: usize, zeroed: bool) -> PooledStorage {
        debug_assert!(len >= POOL_FLOOR);
        let cap = len.next_power_of_two();
        let class = Self::class_of(cap);
        let recycled = {
            let mut classes = self.classes.lock();
            if classes.len() <= class {
                classes.resize_with(class + 1, SizeClass::default);
            }
            let c = &mut classes[class];
            c.live += 1;
            c.high_water = c.high_water.max(c.live);
            c.free.pop()
        };
        // `with_capacity` allocates exactly `cap`, which names the class
        // the buffer returns to; filling within it never reallocates.
        let mut buf = recycled.unwrap_or_else(|| Vec::with_capacity(cap));
        buf.clear();
        if zeroed {
            buf.resize(len, 0);
        }
        PooledStorage {
            buf,
            pool: Arc::clone(self),
        }
    }

    fn give_back(&self, buf: Vec<u8>) {
        let mut classes = self.classes.lock();
        let c = &mut classes[Self::class_of(buf.capacity())];
        c.live -= 1;
        debug_assert!(c.free.len() + c.live < c.high_water);
        c.free.push(buf);
    }

    #[cfg(test)]
    fn retained(&self) -> Vec<(usize, usize)> {
        let classes = self.classes.lock();
        classes
            .iter()
            .map(|c| (c.free.len(), c.high_water))
            .collect()
    }
}

/// One pooled buffer; dropping it returns the storage to its class.
struct PooledStorage {
    buf: Vec<u8>,
    pool: Arc<PayloadPool>,
}

impl AsRef<[u8]> for PooledStorage {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for PooledStorage {
    fn drop(&mut self) {
        self.pool.give_back(std::mem::take(&mut self.buf));
    }
}

/// Backing store of an [`NmLanding`]: plain heap below the pool floor.
enum Landing {
    Heap(Vec<u8>),
    Pooled(PooledStorage),
}

/// A receive buffer under construction: zeroed storage of the final size,
/// filled chunk by chunk through `DerefMut` (each fill charged as a memcpy
/// where it happens), then [frozen](NmLanding::freeze) into an [`NmBuf`]
/// without a copy. Made by [`NmBuf::landing`].
pub struct NmLanding {
    storage: Landing,
    origin: BufOrigin,
    meter: Arc<CopyMeter>,
}

impl std::fmt::Debug for NmLanding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NmLanding({:?}, {} B)", self.origin, self.len())
    }
}

impl NmLanding {
    /// Hand the filled buffer on, zero-copy. The allocation was charged
    /// when the landing buffer was made.
    pub fn freeze(self) -> NmBuf {
        let data = match self.storage {
            Landing::Heap(v) => Bytes::from(v),
            Landing::Pooled(p) => Bytes::from_owner(p),
        };
        NmBuf {
            data,
            origin: self.origin,
            generation: 0,
            meter: Some(self.meter),
        }
    }
}

impl std::ops::Deref for NmLanding {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.storage {
            Landing::Heap(v) => v,
            Landing::Pooled(p) => &p.buf,
        }
    }
}

impl std::ops::DerefMut for NmLanding {
    fn deref_mut(&mut self) -> &mut [u8] {
        match &mut self.storage {
            Landing::Heap(v) => v,
            Landing::Pooled(p) => &mut p.buf,
        }
    }
}

/// The payload buffer carried across the stack's layer boundaries.
///
/// An `NmBuf` is a [`Bytes`] view (refcounted storage + start/end) plus
/// lineage metadata and an optional handle to the stack's [`CopyMeter`].
/// All duplication-shaped operations are explicit:
///
/// * [`NmBuf::share`] / `Clone` — refcount bump, recorded as a slice-ref.
/// * [`NmBuf::slice`] — zero-copy sub-view (aggregation, multirail
///   splitting, fragment cursors), recorded as a slice-ref.
/// * [`NmBuf::copy_out`] / [`NmBuf::copied_from_slice`] /
///   [`NmBuf::gathered`] — the only operations that move bytes, recorded
///   as memcpys.
///
/// The meter travels *with* the buffer, so layers that merely forward a
/// payload need no meter plumbing of their own, and a payload that
/// crosses a crate boundary keeps charging the same stack's counters.
#[derive(Debug)]
pub struct NmBuf {
    data: Bytes,
    origin: BufOrigin,
    /// Zero-copy hops (shares/slices) since the originating allocation.
    generation: u32,
    meter: Option<Arc<CopyMeter>>,
}

impl NmBuf {
    /// Wrap an already-owned `Bytes` without counting a new allocation
    /// (the storage existed before it entered the metered data path).
    pub fn from_bytes(data: Bytes, origin: BufOrigin) -> NmBuf {
        NmBuf {
            data,
            origin,
            generation: 0,
            meter: None,
        }
    }

    /// Wrap an owned `Bytes` and attach the stack meter, recording the
    /// ingress as an allocation-free adoption (no copy, no alloc).
    pub fn adopt(data: Bytes, origin: BufOrigin, meter: &Arc<CopyMeter>) -> NmBuf {
        NmBuf {
            data,
            origin,
            generation: 0,
            meter: Some(Arc::clone(meter)),
        }
    }

    /// Materialize a fresh owned buffer by copying `src` (the unavoidable
    /// user-slice → owned-storage ingress copy, cell copy-out…). Records
    /// one allocation and one memcpy.
    pub fn copied_from_slice(src: &[u8], origin: BufOrigin, meter: &Arc<CopyMeter>) -> NmBuf {
        NmBuf::gathered(&[src], origin, meter)
    }

    /// Materialize a fresh owned buffer holding `parts` back to back
    /// (codec output: header then payload). Records one allocation and
    /// one memcpy of the total length. Storage of [`POOL_FLOOR`] bytes or
    /// more is drawn from the meter's pool and written here in full.
    pub fn gathered(parts: &[&[u8]], origin: BufOrigin, meter: &Arc<CopyMeter>) -> NmBuf {
        let len = parts.iter().map(|p| p.len()).sum();
        meter.record_alloc();
        meter.record_copy(len);
        let data = if len < POOL_FLOOR {
            Bytes::from(parts.concat())
        } else {
            let mut storage = meter.pool.take(len, false);
            parts.iter().for_each(|p| storage.buf.extend_from_slice(p));
            Bytes::from_owner(storage)
        };
        NmBuf {
            data,
            origin,
            generation: 0,
            meter: Some(Arc::clone(meter)),
        }
    }

    /// A zeroed landing buffer of `len` bytes for a receive to fill
    /// (rendezvous and cell reassembly). Records one allocation; storage
    /// of [`POOL_FLOOR`] bytes or more comes from the meter's pool.
    pub fn landing(len: usize, origin: BufOrigin, meter: &Arc<CopyMeter>) -> NmLanding {
        meter.record_alloc();
        let storage = if len < POOL_FLOOR {
            Landing::Heap(vec![0u8; len])
        } else {
            Landing::Pooled(meter.pool.take(len, true))
        };
        NmLanding {
            storage,
            origin,
            meter: Arc::clone(meter),
        }
    }

    /// Attach (or replace) the stack meter on an existing buffer, e.g.
    /// when an unmetered test payload enters a metered core.
    pub fn with_meter(mut self, meter: &Arc<CopyMeter>) -> NmBuf {
        self.meter = Some(Arc::clone(meter));
        self
    }

    /// Zero-copy share of the whole buffer: refcount bump, generation
    /// bump, one slice-ref on the meter. This is what layer crossings and
    /// retransmit queues use instead of cloning payload bytes.
    pub fn share(&self) -> NmBuf {
        if let Some(m) = &self.meter {
            m.record_slice();
        }
        NmBuf {
            data: self.data.clone(), // Bytes clone = refcount bump, zero-copy by construction.
            origin: self.origin,
            generation: self.generation + 1,
            meter: self.meter.as_ref().map(Arc::clone),
        }
    }

    /// Zero-copy sub-view (aggregation segments, multirail split chunks,
    /// rendezvous fragment cursors).
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> NmBuf {
        if let Some(m) = &self.meter {
            m.record_slice();
        }
        NmBuf {
            data: self.data.slice(range),
            origin: self.origin,
            generation: self.generation + 1,
            meter: self.meter.as_ref().map(Arc::clone),
        }
    }

    /// Memcpy this buffer's contents into `dst` (cell fill, landing
    /// buffer gather). The one place egress copies are charged.
    pub fn copy_out(&self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.data);
        if let Some(m) = &self.meter {
            m.record_copy(self.data.len());
        }
    }

    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn origin(&self) -> BufOrigin {
        self.origin
    }

    #[inline]
    pub fn generation(&self) -> u32 {
        self.generation
    }

    #[inline]
    pub fn meter(&self) -> Option<&Arc<CopyMeter>> {
        self.meter.as_ref()
    }

    /// Borrow the underlying `Bytes` view.
    #[inline]
    pub fn bytes(&self) -> &Bytes {
        &self.data
    }

    /// Surrender the underlying `Bytes` view (e.g. handing a received
    /// payload to the user). Zero-copy; lineage ends here.
    #[inline]
    pub fn into_bytes(self) -> Bytes {
        self.data
    }

    /// One-line lineage summary for `debug_state()` dumps.
    pub fn lineage(&self) -> String {
        format!(
            "{:?}+{}g/{}B",
            self.origin,
            self.generation,
            self.data.len()
        )
    }
}

/// `Clone` is required by container types on the wire (duplicate-fault
/// delivery, retransmit queues). It is defined as [`NmBuf::share`]: a
/// metered refcount bump — cloning an `NmBuf` can never memcpy payload.
impl Clone for NmBuf {
    fn clone(&self) -> NmBuf {
        self.share()
    }
}

impl Default for NmBuf {
    fn default() -> NmBuf {
        NmBuf::from_bytes(Bytes::new(), BufOrigin::App)
    }
}

impl std::ops::Deref for NmBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for NmBuf {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Equality is over contents only — lineage is bookkeeping, not identity.
impl PartialEq for NmBuf {
    fn eq(&self, other: &NmBuf) -> bool {
        self.data == other.data
    }
}

impl Eq for NmBuf {}

impl From<Bytes> for NmBuf {
    fn from(data: Bytes) -> NmBuf {
        NmBuf::from_bytes(data, BufOrigin::App)
    }
}

impl From<Vec<u8>> for NmBuf {
    fn from(v: Vec<u8>) -> NmBuf {
        NmBuf::from_bytes(Bytes::from(v), BufOrigin::App)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_and_slice_are_zero_copy_and_metered() {
        let meter = CopyMeter::new();
        let buf = NmBuf::copied_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8], BufOrigin::App, &meter);
        let s0 = meter.snapshot();
        assert_eq!(
            s0,
            CopySnapshot {
                bytes_copied: 8,
                memcpy_calls: 1,
                allocations: 1,
                slice_refs: 0
            }
        );

        let half = buf.slice(0..4);
        let whole = buf.share();
        // Same backing storage: refcount bumps, no bytes moved.
        assert_eq!(half.bytes().storage_ptr(), buf.bytes().storage_ptr());
        assert_eq!(whole.bytes().storage_ptr(), buf.bytes().storage_ptr());
        assert_eq!(buf.bytes().ref_count(), Some(3));
        assert_eq!(whole.generation(), 1);

        let s1 = meter.snapshot().since(&s0);
        assert_eq!(s1.memcpy_calls, 0);
        assert_eq!(s1.allocations, 0);
        assert_eq!(s1.slice_refs, 2);
    }

    #[test]
    fn copy_out_charges_the_meter() {
        let meter = CopyMeter::new();
        let buf = NmBuf::adopt(Bytes::from(vec![9u8; 16]), BufOrigin::Nmad, &meter);
        let mut dst = [0u8; 16];
        buf.copy_out(&mut dst);
        assert_eq!(dst, [9u8; 16]);
        let s = meter.snapshot();
        assert_eq!((s.memcpy_calls, s.bytes_copied, s.allocations), (1, 16, 0));
    }

    #[test]
    fn lineage_reports_origin_and_generation() {
        let buf = NmBuf::from_bytes(Bytes::from(vec![0u8; 4]), BufOrigin::Ch3);
        let b2 = buf.share().share();
        assert_eq!(b2.origin(), BufOrigin::Ch3);
        assert_eq!(b2.lineage(), "Ch3+2g/4B");
    }

    const BIG: usize = POOL_FLOOR + 13;

    #[test]
    fn recycled_landing_storage_is_handed_out_zeroed() {
        let meter = CopyMeter::new();
        let mut land = NmBuf::landing(BIG, BufOrigin::Nmad, &meter);
        assert!(land.iter().all(|&b| b == 0));
        land.fill(0xEE);
        let first = land.freeze();
        let ptr = first.bytes().storage_ptr();
        drop(first);
        // An ingress copy reuses the storage and overwrites it entirely.
        let ingress = NmBuf::copied_from_slice(&[0x5A; BIG], BufOrigin::App, &meter);
        assert_eq!(ingress.bytes().storage_ptr(), ptr, "storage was recycled");
        assert!(ingress.iter().all(|&b| b == 0x5A));
        drop(ingress);
        let again = NmBuf::landing(BIG - 1, BufOrigin::Ch3, &meter);
        assert_eq!(again.as_ptr(), ptr, "storage was recycled again");
        assert_eq!(again.len(), BIG - 1);
        assert!(again.iter().all(|&b| b == 0), "no stale byte is observable");
        // Every buffer still counts as one allocation.
        let s = meter.snapshot();
        assert_eq!(
            (s.allocations, s.memcpy_calls, s.bytes_copied),
            (3, 1, BIG as u64)
        );
    }

    #[test]
    fn pooled_views_keep_bytes_semantics() {
        let meter = CopyMeter::new();
        let mut land = NmBuf::landing(BIG, BufOrigin::Nemesis, &meter);
        for (i, b) in land.iter_mut().enumerate() {
            *b = i as u8;
        }
        let buf = land.freeze();
        assert_eq!(buf.len(), BIG);
        assert_eq!(buf.origin(), BufOrigin::Nemesis);
        assert_eq!(buf.bytes().ref_count(), Some(1));
        let tail = buf.slice(BIG - 3..);
        let whole = buf.share();
        assert_eq!(tail.bytes().storage_ptr(), buf.bytes().storage_ptr());
        assert_eq!(buf.bytes().ref_count(), Some(3));
        let expect: Vec<u8> = (BIG - 3..BIG).map(|i| i as u8).collect();
        assert_eq!(tail.as_slice(), &expect[..]);
        let heap: Vec<u8> = (0..BIG).map(|i| i as u8).collect();
        assert_eq!(whole, NmBuf::from(heap), "equality is over contents");
        drop(buf);
        drop(whole);
        assert_eq!(tail.bytes().ref_count(), Some(1));
        let s = meter.snapshot();
        assert_eq!((s.allocations, s.memcpy_calls, s.slice_refs), (1, 0, 2));
    }

    #[test]
    fn a_class_retains_at_most_its_live_high_water() {
        let meter = CopyMeter::new();
        let three: Vec<NmBuf> = (0..3)
            .map(|_| NmBuf::copied_from_slice(&[1; BIG], BufOrigin::App, &meter))
            .collect();
        drop(three);
        assert_eq!(meter.pool.retained(), vec![(0, 0), (3, 3)]);
        // Sequential use recycles one buffer and adds nothing.
        for _ in 0..5 {
            let b = NmBuf::landing(BIG, BufOrigin::Nmad, &meter).freeze();
            drop(b);
        }
        assert_eq!(meter.pool.retained(), vec![(0, 0), (3, 3)]);
        // Four at once raises the mark by one; all four come back.
        let four: Vec<NmLanding> = (0..4)
            .map(|_| NmBuf::landing(BIG, BufOrigin::Nmad, &meter))
            .collect();
        assert_eq!(meter.pool.retained(), vec![(0, 0), (0, 4)]);
        drop(four);
        assert_eq!(meter.pool.retained(), vec![(0, 0), (4, 4)]);
        // Other classes keep their own marks; below the floor is heap.
        drop(NmBuf::landing(4 * POOL_FLOOR, BufOrigin::Nmad, &meter));
        drop(NmBuf::landing(POOL_FLOOR - 1, BufOrigin::Nmad, &meter));
        assert_eq!(meter.pool.retained(), vec![(0, 0), (4, 4), (1, 1)]);
    }

    #[test]
    fn pool_is_freed_after_the_meter_and_last_view_drop() {
        let meter = CopyMeter::new();
        let pool = Arc::downgrade(&meter.pool);
        let kept = NmBuf::landing(BIG, BufOrigin::Nmad, &meter).freeze();
        drop(NmBuf::copied_from_slice(&[7; BIG], BufOrigin::App, &meter));
        drop(meter);
        assert!(pool.upgrade().is_some(), "a live view keeps its pool");
        let view = kept.slice(1..);
        drop(kept);
        assert!(pool.upgrade().is_some());
        drop(view);
        assert!(pool.upgrade().is_none(), "pool and free storage freed");
    }
}

//! CH3 packets and the CH3 protocol engine.
//!
//! CH3 moves messages as typed packets: `Eager` for small messages, the
//! `Rts`/`Cts`/`Data` rendezvous for large ones (Fig. 2's outer
//! handshake). The engine is transport-agnostic: it receives inbound
//! packets and a `send` callback, and reports completions back to the
//! caller; the same engine therefore serves the Nemesis shared-memory
//! channel, the tailored baseline NICs, and the legacy NewMadeleine
//! netmod (where its rendezvous *nests* inside NewMadeleine's — the
//! pathology §2.1.3 describes).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use nmad::protocol::{self, Action, State, Verdict};
use parking_lot::Mutex;
use simnet::{BufOrigin, CopyMeter, NmBuf, NmLanding, Scheduler};

use crate::queues::{Ch3Queues, UnexMsg};
use crate::request::Req;

/// Modelled CH3 packet-header size on the wire.
pub const CH3_HEADER_BYTES: usize = 40;

/// A CH3 protocol packet. Payloads are [`NmBuf`] handles: cloning a packet
/// (retransmit queues, self-loops) bumps a refcount, it never copies the
/// payload bytes.
#[derive(Clone, Debug)]
pub enum Ch3Pkt {
    Eager { key: u64, data: NmBuf },
    Rts { key: u64, rdv_id: u64, len: usize },
    Cts { rdv_id: u64 },
    Data { rdv_id: u64, offset: usize, data: NmBuf },
    /// Per-fragment acknowledgement of an ACK-throttled rendezvous
    /// pipeline (Open MPI 1.2-era openib behaviour: the next fragment only
    /// leaves once the previous one is acknowledged).
    DataAck { rdv_id: u64 },
}

impl Ch3Pkt {
    /// Modelled wire size.
    pub fn wire_bytes(&self) -> usize {
        CH3_HEADER_BYTES
            + match self {
                Ch3Pkt::Eager { data, .. } => data.len(),
                Ch3Pkt::Rts { .. } => 16,
                Ch3Pkt::Cts { .. } => 8,
                Ch3Pkt::Data { data, .. } => 8 + data.len(),
                Ch3Pkt::DataAck { .. } => 8,
            }
    }

    /// Binary encoding — used where a transport can only carry opaque
    /// bytes (the legacy netmod path tunnels CH3 packets through
    /// NewMadeleine messages).
    ///
    /// This serialization is the *module-queue copy* of §2.1.3: the payload
    /// bytes are physically duplicated into the encoded frame. The copy is
    /// charged to the payload's [`CopyMeter`] so the copy-discipline tests
    /// can prove the bypass path skips it.
    pub fn encode(&self) -> NmBuf {
        let mut head = BytesMut::with_capacity(33);
        let data = match self {
            Ch3Pkt::Eager { key, data } => {
                head.put_u8(0);
                head.put_u64_le(*key);
                head.put_u64_le(data.len() as u64);
                Some(data)
            }
            Ch3Pkt::Rts { key, rdv_id, len } => {
                head.put_u8(1);
                head.put_u64_le(*key);
                head.put_u64_le(*rdv_id);
                head.put_u64_le(*len as u64);
                None
            }
            Ch3Pkt::Cts { rdv_id } => {
                head.put_u8(2);
                head.put_u64_le(*rdv_id);
                None
            }
            Ch3Pkt::Data {
                rdv_id,
                offset,
                data,
            } => {
                head.put_u8(3);
                head.put_u64_le(*rdv_id);
                head.put_u64_le(*offset as u64);
                head.put_u64_le(data.len() as u64);
                Some(data)
            }
            Ch3Pkt::DataAck { rdv_id } => {
                head.put_u8(4);
                head.put_u64_le(*rdv_id);
                None
            }
        };
        let body = data.map_or(&[][..], |d| d.as_slice());
        match data.and_then(NmBuf::meter) {
            // One fresh allocation plus a memcpy of the whole frame — the
            // tunnel's per-packet cost the bypass avoids.
            Some(m) => NmBuf::gathered(&[&head, body], BufOrigin::Ch3, m),
            None => NmBuf::from_bytes(Bytes::from([&head[..], body].concat()), BufOrigin::Ch3),
        }
    }

    /// Decode [`Ch3Pkt::encode`]'s output. The decoded payload is a
    /// zero-copy view into the encoded frame (a slice-ref, not a memcpy),
    /// and it inherits the frame's meter.
    ///
    /// # Panics
    /// Panics on malformed input — transports are trusted in-process.
    pub fn decode(raw: NmBuf) -> Ch3Pkt {
        use bytes::Buf;
        let meter = raw.meter().map(Arc::clone);
        let mut raw = raw.into_bytes();
        let payload = |rest: Bytes| match &meter {
            Some(m) => {
                m.record_slice();
                NmBuf::adopt(rest, BufOrigin::Ch3, m)
            }
            None => NmBuf::from_bytes(rest, BufOrigin::Ch3),
        };
        let variant = raw.get_u8();
        match variant {
            0 => {
                let key = raw.get_u64_le();
                let len = raw.get_u64_le() as usize;
                assert_eq!(raw.len(), len, "eager length mismatch");
                Ch3Pkt::Eager {
                    key,
                    data: payload(raw),
                }
            }
            1 => Ch3Pkt::Rts {
                key: raw.get_u64_le(),
                rdv_id: raw.get_u64_le(),
                len: raw.get_u64_le() as usize,
            },
            2 => Ch3Pkt::Cts {
                rdv_id: raw.get_u64_le(),
            },
            3 => {
                let rdv_id = raw.get_u64_le();
                let offset = raw.get_u64_le() as usize;
                let len = raw.get_u64_le() as usize;
                assert_eq!(raw.len(), len, "data length mismatch");
                Ch3Pkt::Data {
                    rdv_id,
                    offset,
                    data: payload(raw),
                }
            }
            4 => Ch3Pkt::DataAck {
                rdv_id: raw.get_u64_le(),
            },
            v => panic!("unknown CH3 packet variant {v}"),
        }
    }
}

/// Callback the engine uses to transmit a packet toward `dst`.
pub type SendFn<'a> = dyn FnMut(&Scheduler, usize, Ch3Pkt) + 'a;

/// A completion the engine reports to its caller.
#[derive(Debug)]
pub enum Ch3Event {
    RecvDone {
        req: Req,
        data: Bytes,
        src: usize,
        key: u64,
        /// Was the matched posted entry an ANY_SOURCE one?
        was_any: bool,
    },
    SendDone {
        req: Req,
    },
}

struct RdvOut {
    req: Req,
    dst: usize,
    data: NmBuf,
    /// Bytes already handed to the transport (ACK-throttled mode).
    cursor: usize,
    /// Protocol-table state of the outbound side. The inbound side needs
    /// no field: a live [`RdvIn`] entry *is* `RWaitData`, its absence is
    /// `Gone` (CH3 never retries, so there is no tombstone).
    state: State,
}

struct RdvIn {
    req: Req,
    src: usize,
    key: u64,
    was_any: bool,
    buf: NmLanding,
    received: usize,
}

struct EngineInner {
    rdv_out: HashMap<u64, RdvOut>,
    rdv_in: HashMap<(usize, u64), RdvIn>,
    next_rdv: u64,
}

/// The per-rank CH3 protocol engine.
pub struct Ch3Engine {
    /// The CH3 queue pair (shared with the any-source machinery).
    pub queues: Ch3Queues,
    inner: Mutex<EngineInner>,
    my_rank: usize,
    eager_threshold: usize,
    /// Rendezvous payload pipelining: chunk size (None = single DATA).
    rdv_chunk: Option<usize>,
    /// ACK-throttled pipeline: the next fragment only leaves after the
    /// receiver acknowledges the previous one (depth-1, the Open MPI
    /// 1.2-era openib behaviour — the source of its medium-size bandwidth
    /// dip, Fig. 4b).
    rdv_ack: bool,
    /// Copy accounting for the engine's own buffer work (rendezvous
    /// landing buffers, the receive-side reassembly memcpy). A private
    /// meter until the stack attaches the job's.
    meter: Arc<CopyMeter>,
    /// Observability handle: CH3 protocol counters (eager/RTS/CTS/DATA
    /// traffic). Inert — and allocation-free — unless the job armed
    /// `ObsConfig`.
    rec: obs::RankRec,
    /// Malformed or stray protocol packets tolerated and dropped (e.g. a
    /// duplicated DATA/CTS for a rendezvous that already finished —
    /// reachable with faults armed). A counter, not a crash: one bad
    /// frame must never take the rank down.
    protocol_errors: AtomicU64,
}

impl Ch3Engine {
    pub fn new(my_rank: usize, eager_threshold: usize, rdv_chunk: Option<usize>) -> Ch3Engine {
        Self::with_ack(my_rank, eager_threshold, rdv_chunk, false)
    }

    pub fn with_ack(
        my_rank: usize,
        eager_threshold: usize,
        rdv_chunk: Option<usize>,
        rdv_ack: bool,
    ) -> Ch3Engine {
        if let Some(c) = rdv_chunk {
            assert!(c > 0, "zero rendezvous chunk");
        }
        assert!(
            !rdv_ack || rdv_chunk.is_some(),
            "ACK throttling requires a chunk size"
        );
        Ch3Engine {
            queues: Ch3Queues::new(),
            inner: Mutex::new(EngineInner {
                rdv_out: HashMap::new(),
                rdv_in: HashMap::new(),
                next_rdv: 0,
            }),
            my_rank,
            eager_threshold,
            rdv_chunk,
            rdv_ack,
            meter: CopyMeter::new(),
            rec: obs::RankRec::off(),
            protocol_errors: AtomicU64::new(0),
        }
    }

    /// Stray/malformed packets dropped instead of crashing (diagnostics).
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors.load(Ordering::Relaxed)
    }

    fn note_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Attach the job-wide copy meter (builder style — the stack assembles
    /// engines before handing them to `ProcState`).
    pub fn with_copy_meter(mut self, meter: &Arc<CopyMeter>) -> Ch3Engine {
        self.meter = Arc::clone(meter);
        self
    }

    /// Attach the observability handle (builder style, like the meter).
    pub fn with_recorder(mut self, rec: obs::RankRec) -> Ch3Engine {
        self.rec = rec;
        self
    }

    pub fn eager_threshold(&self) -> usize {
        self.eager_threshold
    }

    /// Guard context for the shared protocol table. The CH3 engine is the
    /// *buffered* dialect (the send completes once the payload is handed
    /// to the transport), optionally ACK-throttled, never retried
    /// (transports are trusted in-process), and has no credit layer.
    fn pctx(&self, in_range: bool, last: bool) -> protocol::Ctx {
        protocol::Ctx {
            retry: false,
            ack_mode: self.rdv_ack,
            buffered: true,
            in_range,
            last,
            credit_fallback: false,
        }
    }

    /// Would the next fragment cut from `rdv` be the final one? Answers
    /// the `Last` guard of the throttled pipeline *before* the cursor
    /// moves.
    fn next_is_last(&self, rdv: &RdvOut) -> bool {
        match self.rdv_chunk {
            Some(chunk) => rdv.cursor + chunk >= rdv.data.len(),
            None => true,
        }
    }

    /// Send `data` to `dst` under `key`. Small messages are sent eagerly
    /// (buffered semantics: the send request completes immediately). Large
    /// messages start the CH3 rendezvous; the send completes once the CTS
    /// arrives and the payload is handed to the transport.
    ///
    /// `eager_limit` is per call because it depends on the destination's
    /// transport: the shared-memory channel takes any size eagerly (the
    /// cell queues fragment and flow-control), while network paths use the
    /// engine's configured threshold.
    ///
    /// Returns `true` if the send request `req` is already complete.
    #[allow(clippy::too_many_arguments)]
    pub fn send_msg(
        &self,
        sched: &Scheduler,
        send: &mut SendFn,
        req: Req,
        dst: usize,
        key: u64,
        data: NmBuf,
        eager_limit: usize,
    ) -> bool {
        if data.len() <= eager_limit {
            self.rec.inc("ch3.eager_tx", 1);
            self.rec.observe("ch3.eager.bytes", data.len() as u64);
            send(sched, dst, Ch3Pkt::Eager { key, data });
            true
        } else {
            // Table entry point: the CH3 engine has no credit layer, so
            // the size test alone forces the rendezvous path.
            let Verdict::Step { actions, next, .. } =
                protocol::step(State::Gone, protocol::Event::SendRdv, self.pctx(false, false))
            else {
                unreachable!("entry/size must be a table row");
            };
            debug_assert!(actions.contains(&Action::SendRts));
            let mut inner = self.inner.lock();
            let rdv_id = inner.next_rdv;
            inner.next_rdv += 1;
            let len = data.len();
            inner.rdv_out.insert(
                rdv_id,
                RdvOut {
                    req,
                    dst,
                    data,
                    cursor: 0,
                    state: next,
                },
            );
            drop(inner);
            self.rec.inc("ch3.rts_tx", 1);
            self.rec.observe("ch3.rdv.bytes", len as u64);
            send(sched, dst, Ch3Pkt::Rts { key, rdv_id, len });
            false
        }
    }

    /// Post a receive; consumes a matching unexpected message if present.
    /// Returns any immediate completion plus, for the pending case, the
    /// active flag of the posted entry.
    pub fn post_recv(
        &self,
        sched: &Scheduler,
        send: &mut SendFn,
        req: Req,
        src: Option<usize>,
        key: u64,
    ) -> (Option<Ch3Event>, Option<crate::queues::ActiveFlag>) {
        match self.queues.post(req, src, key) {
            Ok(flag) => (None, Some(flag)),
            Err(UnexMsg::Eager {
                src: s,
                key: k,
                data,
            }) => (
                Some(Ch3Event::RecvDone {
                    req,
                    // Lineage ends at the user-facing completion.
                    data: data.into_bytes(),
                    src: s,
                    key: k,
                    was_any: src.is_none(),
                }),
                None,
            ),
            Err(UnexMsg::Rts {
                src: s,
                key: k,
                rdv_id,
                len,
            }) => {
                self.begin_rdv_in(req, s, k, src.is_none(), rdv_id, len);
                send(sched, s, Ch3Pkt::Cts { rdv_id });
                (None, None)
            }
        }
    }

    fn begin_rdv_in(&self, req: Req, src: usize, key: u64, was_any: bool, rdv_id: u64, len: usize) {
        // Table entry point for the receive side; the live entry embodies
        // the `RWaitData` state the table hands back.
        let Verdict::Step { actions, next, .. } = protocol::step(
            State::Gone,
            protocol::Event::RtsMatched,
            self.pctx(false, false),
        ) else {
            unreachable!("entry/rts-matched must be a table row");
        };
        debug_assert!(actions.contains(&Action::AllocLanding));
        debug_assert!(actions.contains(&Action::SendCts));
        debug_assert_eq!(next, State::RWaitData);
        // The rendezvous landing buffer — one allocation, no copy yet.
        let buf = NmBuf::landing(len, BufOrigin::Ch3, &self.meter);
        let mut inner = self.inner.lock();
        let prev = inner.rdv_in.insert(
            (src, rdv_id),
            RdvIn {
                req,
                src,
                key,
                was_any,
                buf,
                received: 0,
            },
        );
        debug_assert!(prev.is_none(), "duplicate CH3 rendezvous {rdv_id}");
    }

    /// Feed one inbound packet through the protocol; completions (and any
    /// reply packets via `send`) come out.
    pub fn on_packet(
        &self,
        sched: &Scheduler,
        send: &mut SendFn,
        src: usize,
        pkt: Ch3Pkt,
        events: &mut Vec<Ch3Event>,
    ) {
        self.rec.inc(
            match &pkt {
                Ch3Pkt::Eager { .. } => "ch3.eager_rx",
                Ch3Pkt::Rts { .. } => "ch3.rts_rx",
                Ch3Pkt::Cts { .. } => "ch3.cts_rx",
                Ch3Pkt::Data { .. } => "ch3.data_rx",
                Ch3Pkt::DataAck { .. } => "ch3.data_ack_rx",
            },
            1,
        );
        match pkt {
            Ch3Pkt::Eager { key, data } => match self.queues.match_arrival(src, key) {
                Some(entry) => events.push(Ch3Event::RecvDone {
                    req: entry.req,
                    // Zero-copy: the completion hands out the same storage
                    // the transport delivered.
                    data: data.into_bytes(),
                    src,
                    key,
                    was_any: entry.src.is_none(),
                }),
                None => self.queues.store_unexpected(UnexMsg::Eager { src, key, data }),
            },
            Ch3Pkt::Rts { key, rdv_id, len } => match self.queues.match_arrival(src, key) {
                Some(entry) => {
                    self.begin_rdv_in(entry.req, src, key, entry.src.is_none(), rdv_id, len);
                    send(sched, src, Ch3Pkt::Cts { rdv_id });
                }
                None => self.queues.store_unexpected(UnexMsg::Rts {
                    src,
                    key,
                    rdv_id,
                    len,
                }),
            },
            Ch3Pkt::Cts { rdv_id } => {
                // Table rows: `cts/buffered` streams everything and
                // completes; `cts/throttled` opens the depth-1 fragment
                // pipeline; `cts/throttled-single-fragment` does both at
                // once. A CTS for an unknown rendezvous (already finished)
                // or a duplicated CTS mid-pipeline has no row — counted
                // and dropped. (The latter used to advance the fragment
                // cursor a second time and double-complete the send.)
                let inner = self.inner.lock();
                let (state, last) = match inner.rdv_out.get(&rdv_id) {
                    Some(rdv) => (rdv.state, self.next_is_last(rdv)),
                    None => (State::Gone, false),
                };
                match protocol::step(state, protocol::Event::CtsRx, self.pctx(false, last)) {
                    Verdict::Step { actions, next, .. } => {
                        self.apply_sender_step(inner, sched, send, rdv_id, actions, next, events);
                    }
                    Verdict::Ignore { .. } => {}
                    Verdict::Error => {
                        drop(inner);
                        self.note_protocol_error();
                    }
                }
            }
            Ch3Pkt::DataAck { rdv_id } => {
                // Table rows: `ack/next-fragment` keeps the depth-1
                // pipeline moving, `ack/final-fragment` sends the last cut
                // and completes. A stray/duplicated ack (entry gone, or an
                // engine that never throttles) has no row.
                let inner = self.inner.lock();
                let (state, last) = match inner.rdv_out.get(&rdv_id) {
                    Some(rdv) => (rdv.state, self.next_is_last(rdv)),
                    None => (State::Gone, false),
                };
                match protocol::step(state, protocol::Event::DataAckRx, self.pctx(false, last)) {
                    Verdict::Step { actions, next, .. } => {
                        self.apply_sender_step(inner, sched, send, rdv_id, actions, next, events);
                    }
                    Verdict::Ignore { .. } => {}
                    Verdict::Error => {
                        drop(inner);
                        self.note_protocol_error();
                    }
                }
            }
            Ch3Pkt::Data {
                rdv_id,
                offset,
                data,
            } => {
                // Table rows: `data/chunk` (plain reassembly),
                // `data/chunk-acked` (reassembly + request the next
                // fragment), `data/last` (complete; the last fragment
                // needs no ack — the sender finished with it). A chunk
                // for an unknown rendezvous (already finished: duplicated
                // final chunk, reachable with faults armed) or one past
                // the announced length (would corrupt the landing buffer)
                // has no row — counted and dropped. One lock scope for
                // the whole update: the old copy / unlock / re-lock /
                // `remove().unwrap()` sequence crashed on a duplicated
                // final chunk (the entry was gone by the second lock).
                let mut inner = self.inner.lock();
                let (state, in_range, last) = match inner.rdv_in.get(&(src, rdv_id)) {
                    Some(rdv) => {
                        let end = offset.checked_add(data.len());
                        let in_range = end.is_some_and(|e| e <= rdv.buf.len());
                        let last = in_range && rdv.received + data.len() == rdv.buf.len();
                        (State::RWaitData, in_range, last)
                    }
                    None => (State::Gone, false, false),
                };
                match protocol::step(state, protocol::Event::DataRx, self.pctx(in_range, last)) {
                    Verdict::Step { actions, next, .. } => {
                        let rdv = inner
                            .rdv_in
                            .get_mut(&(src, rdv_id))
                            .expect("the table only steps live entries");
                        let mut ack_dst = None;
                        for a in actions {
                            match a {
                                Action::CopyChunk => {
                                    // The one receive-side reassembly
                                    // memcpy of the CH3 rendezvous (charged
                                    // to the payload's meter).
                                    data.copy_out(&mut rdv.buf[offset..offset + data.len()]);
                                    rdv.received += data.len();
                                }
                                Action::SendDataAck => ack_dst = Some(rdv.src),
                                // The table completes via `next == Gone`
                                // below; CH3 has no receive-side timer.
                                Action::CompleteRecv | Action::BumpRecvTimer => {}
                                other => unreachable!("CH3 receiver step emitted {other:?}"),
                            }
                        }
                        let finished = (next == State::Gone).then(|| {
                            inner
                                .rdv_in
                                .remove(&(src, rdv_id))
                                .expect("entry held under the same lock")
                        });
                        drop(inner);
                        if let Some(dst) = ack_dst {
                            send(sched, dst, Ch3Pkt::DataAck { rdv_id });
                        }
                        if let Some(rdv) = finished {
                            events.push(Ch3Event::RecvDone {
                                req: rdv.req,
                                data: rdv.buf.freeze().into_bytes(),
                                src: rdv.src,
                                key: rdv.key,
                                was_any: rdv.was_any,
                            });
                        }
                    }
                    Verdict::Ignore { .. } => {}
                    Verdict::Error => {
                        drop(inner);
                        self.note_protocol_error();
                    }
                }
            }
        }
    }

    /// Realize one sender-side table step against the outbound entry:
    /// actions become packets and completions, and the entry is dropped
    /// when the table lands back in `Gone`.
    #[allow(clippy::too_many_arguments)]
    fn apply_sender_step(
        &self,
        mut inner: parking_lot::MutexGuard<'_, EngineInner>,
        sched: &Scheduler,
        send: &mut SendFn,
        rdv_id: u64,
        actions: &'static [Action],
        next: State,
        events: &mut Vec<Ch3Event>,
    ) {
        let mut pkts = Vec::new();
        let mut done = None;
        {
            let rdv = inner
                .rdv_out
                .get_mut(&rdv_id)
                .expect("the table only steps live entries");
            rdv.state = next;
            for a in actions {
                match a {
                    Action::SendAllData => {
                        // Buffered semantics: hand the whole payload to
                        // the transport now (chunked if configured).
                        let chunk = self.rdv_chunk.unwrap_or(rdv.data.len().max(1));
                        let mut off = 0;
                        while off < rdv.data.len() {
                            let end = (off + chunk).min(rdv.data.len());
                            pkts.push((
                                rdv.dst,
                                Ch3Pkt::Data {
                                    rdv_id,
                                    offset: off,
                                    data: rdv.data.slice(off..end),
                                },
                            ));
                            off = end;
                        }
                    }
                    Action::SendNextFragment => {
                        pkts.push(Self::next_fragment(
                            rdv,
                            rdv_id,
                            self.rdv_chunk.expect("ack mode requires chunking"),
                        ));
                    }
                    Action::CompleteSend => done = Some(rdv.req),
                    other => unreachable!("CH3 sender step emitted {other:?}"),
                }
            }
        }
        if next == State::Gone {
            inner.rdv_out.remove(&rdv_id);
        }
        drop(inner);
        for (dst, pkt) in pkts {
            send(sched, dst, pkt);
        }
        if let Some(req) = done {
            events.push(Ch3Event::SendDone { req });
        }
    }

    /// Cut the next fragment of an ACK-throttled rendezvous. Returns
    /// `(dst, packet)`; whether it was the last cut is the table's call
    /// (the `Last` guard), not this helper's.
    fn next_fragment(rdv: &mut RdvOut, rdv_id: u64, chunk: usize) -> (usize, Ch3Pkt) {
        let off = rdv.cursor;
        let end = (off + chunk).min(rdv.data.len());
        debug_assert!(off < end, "fragment past the payload end");
        rdv.cursor = end;
        (
            rdv.dst,
            Ch3Pkt::Data {
                rdv_id,
                offset: off,
                data: rdv.data.slice(off..end),
            },
        )
    }

    /// In-flight rendezvous count (diagnostics).
    pub fn rdv_in_flight(&self) -> usize {
        let inner = self.inner.lock();
        inner.rdv_out.len() + inner.rdv_in.len()
    }

    /// The rank this engine belongs to.
    pub fn rank(&self) -> usize {
        self.my_rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ReqKind, ReqPath, RequestTable};
    use simnet::SimBuilder;

    fn sched() -> Scheduler {
        SimBuilder::new().build().scheduler()
    }

    /// Wire two engines together with an in-memory packet queue and pump
    /// until quiescent.
    fn pump(
        s: &Scheduler,
        engines: &[&Ch3Engine],
        queue: &mut Vec<(usize, usize, Ch3Pkt)>,
        events: &mut Vec<(usize, Ch3Event)>,
    ) {
        while let Some((src, dst, pkt)) = queue.pop() {
            let mut replies: Vec<(usize, usize, Ch3Pkt)> = Vec::new();
            let mut evs = Vec::new();
            {
                let mut send = |_: &Scheduler, to: usize, p: Ch3Pkt| {
                    replies.push((dst, to, p));
                };
                engines[dst].on_packet(s, &mut send, src, pkt, &mut evs);
            }
            for e in evs {
                events.push((dst, e));
            }
            queue.extend(replies);
        }
    }

    #[test]
    fn codec_roundtrip() {
        let pkts = vec![
            Ch3Pkt::Eager {
                key: 7,
                data: NmBuf::from(Bytes::from_static(b"abc")),
            },
            Ch3Pkt::Rts {
                key: 9,
                rdv_id: 3,
                len: 1 << 20,
            },
            Ch3Pkt::Cts { rdv_id: 3 },
            Ch3Pkt::Data {
                rdv_id: 3,
                offset: 512,
                data: NmBuf::from(Bytes::from_static(b"payload")),
            },
        ];
        for p in pkts {
            let enc = p.encode();
            let dec = Ch3Pkt::decode(enc);
            match (&p, &dec) {
                (Ch3Pkt::Eager { key: a, data: d1 }, Ch3Pkt::Eager { key: b, data: d2 }) => {
                    assert_eq!(a, b);
                    assert_eq!(d1, d2);
                }
                (
                    Ch3Pkt::Rts {
                        key: a,
                        rdv_id: r1,
                        len: l1,
                    },
                    Ch3Pkt::Rts {
                        key: b,
                        rdv_id: r2,
                        len: l2,
                    },
                ) => {
                    assert_eq!((a, r1, l1), (b, r2, l2));
                }
                (Ch3Pkt::Cts { rdv_id: a }, Ch3Pkt::Cts { rdv_id: b }) => assert_eq!(a, b),
                (
                    Ch3Pkt::Data {
                        rdv_id: a,
                        offset: o1,
                        data: d1,
                    },
                    Ch3Pkt::Data {
                        rdv_id: b,
                        offset: o2,
                        data: d2,
                    },
                ) => {
                    assert_eq!((a, o1), (b, o2));
                    assert_eq!(d1, d2);
                }
                _ => panic!("variant changed in roundtrip"),
            }
        }
    }

    #[test]
    fn eager_send_completes_immediately() {
        let s = sched();
        let t = RequestTable::new();
        let e = Ch3Engine::new(0, 16 * 1024, None);
        let req = t.create(ReqKind::Send, ReqPath::Net);
        let mut sent = Vec::new();
        let mut send = |_: &Scheduler, dst: usize, p: Ch3Pkt| sent.push((dst, p));
        let done = e.send_msg(
            &s,
            &mut send,
            req,
            1,
            7,
            NmBuf::from(Bytes::from_static(b"small")),
            16 * 1024,
        );
        assert!(done);
        assert_eq!(sent.len(), 1);
        assert!(matches!(sent[0].1, Ch3Pkt::Eager { key: 7, .. }));
    }

    #[test]
    fn rendezvous_full_handshake() {
        let s = sched();
        let t = RequestTable::new();
        let e0 = Ch3Engine::new(0, 1024, None);
        let e1 = Ch3Engine::new(1, 1024, None);
        let sreq = t.create(ReqKind::Send, ReqPath::Net);
        let rreq = t.create(ReqKind::Recv, ReqPath::Net);
        let payload = NmBuf::from(vec![0x5A; 10_000]);

        let mut queue: Vec<(usize, usize, Ch3Pkt)> = Vec::new();
        let mut events = Vec::new();
        {
            let mut send0 = |_: &Scheduler, dst: usize, p: Ch3Pkt| queue.push((0, dst, p));
            assert!(!e0.send_msg(&s, &mut send0, sreq, 1, 7, payload.share(), 1024));
        }
        {
            let mut send1 = |_: &Scheduler, dst: usize, p: Ch3Pkt| queue.push((1, dst, p));
            let (ev, _flag) = e1.post_recv(&s, &mut send1, rreq, Some(0), 7);
            assert!(ev.is_none(), "nothing arrived yet");
        }
        pump(&s, &[&e0, &e1], &mut queue, &mut events);
        // Sender got SendDone, receiver got RecvDone with intact payload.
        let mut send_done = false;
        let mut recv_done = false;
        for (who, e) in events {
            match e {
                Ch3Event::SendDone { req } => {
                    assert_eq!((who, req), (0, sreq));
                    send_done = true;
                }
                Ch3Event::RecvDone { req, data, src, .. } => {
                    assert_eq!((who, req, src), (1, rreq, 0));
                    assert_eq!(&data[..], &payload[..]);
                    recv_done = true;
                }
            }
        }
        assert!(send_done && recv_done);
        assert_eq!(e0.rdv_in_flight(), 0);
        assert_eq!(e1.rdv_in_flight(), 0);
    }

    #[test]
    fn rendezvous_chunked_pipeline() {
        let s = sched();
        let t = RequestTable::new();
        // 4KB chunks.
        let e0 = Ch3Engine::new(0, 1024, Some(4096));
        let e1 = Ch3Engine::new(1, 1024, Some(4096));
        let sreq = t.create(ReqKind::Send, ReqPath::Net);
        let rreq = t.create(ReqKind::Recv, ReqPath::Net);
        let payload: Vec<u8> = (0..10_000).map(|i| (i % 256) as u8).collect();
        let mut queue = Vec::new();
        let mut events = Vec::new();
        let mut data_pkts = 0;
        {
            let mut send1 = |_: &Scheduler, dst: usize, p: Ch3Pkt| queue.push((1, dst, p));
            e1.post_recv(&s, &mut send1, rreq, Some(0), 7);
        }
        {
            let mut send0 = |_: &Scheduler, dst: usize, p: Ch3Pkt| queue.push((0, dst, p));
            e0.send_msg(
                &s,
                &mut send0,
                sreq,
                1,
                7,
                NmBuf::from(Bytes::copy_from_slice(&payload)),
                1024,
            );
        }
        // Manual pump to count DATA packets.
        while let Some((src, dst, pkt)) = queue.pop() {
            if matches!(pkt, Ch3Pkt::Data { .. }) {
                data_pkts += 1;
            }
            let engines = [&e0, &e1];
            let mut replies = Vec::new();
            let mut evs = Vec::new();
            {
                let mut send =
                    |_: &Scheduler, to: usize, p: Ch3Pkt| replies.push((dst, to, p));
                engines[dst].on_packet(&s, &mut send, src, pkt, &mut evs);
            }
            events.extend(evs);
            queue.extend(replies);
        }
        assert_eq!(data_pkts, 3, "10000 bytes in 4096-byte chunks");
        let got = events
            .into_iter()
            .find_map(|e| match e {
                Ch3Event::RecvDone { data, .. } => Some(data),
                _ => None,
            })
            .expect("recv completes");
        assert_eq!(&got[..], &payload[..]);
    }

    /// Regression: a duplicated final DATA chunk (the "dup'd FIN" of a
    /// fault-armed transport) used to hit `rdv_in.remove().unwrap()` on an
    /// entry the first copy already removed, crashing the rank. It must be
    /// a counted protocol error instead — and the same goes for a
    /// duplicated CTS replayed at the sender after the rendezvous is done.
    #[test]
    fn duplicated_final_data_is_counted_not_a_crash() {
        let s = sched();
        let t = RequestTable::new();
        let e0 = Ch3Engine::new(0, 1024, None);
        let e1 = Ch3Engine::new(1, 1024, None);
        let sreq = t.create(ReqKind::Send, ReqPath::Net);
        let rreq = t.create(ReqKind::Recv, ReqPath::Net);
        let payload = NmBuf::from(vec![0x7E; 5_000]);

        let mut queue: Vec<(usize, usize, Ch3Pkt)> = Vec::new();
        let mut events = Vec::new();
        {
            let mut send1 = |_: &Scheduler, dst: usize, p: Ch3Pkt| queue.push((1, dst, p));
            e1.post_recv(&s, &mut send1, rreq, Some(0), 7);
        }
        {
            let mut send0 = |_: &Scheduler, dst: usize, p: Ch3Pkt| queue.push((0, dst, p));
            e0.send_msg(&s, &mut send0, sreq, 1, 7, payload.share(), 1024);
        }
        // Pump by hand, duplicating every DATA and CTS frame — the lossy
        // transport's replay, concentrated on the packets that used to
        // kill the receiver (DATA after completion) and the sender (CTS
        // after the payload left).
        let engines = [&e0, &e1];
        while let Some((src, dst, pkt)) = queue.pop() {
            let dup = matches!(pkt, Ch3Pkt::Data { .. } | Ch3Pkt::Cts { .. })
                .then(|| pkt.clone());
            let mut replies = Vec::new();
            let mut evs = Vec::new();
            {
                let mut send =
                    |_: &Scheduler, to: usize, p: Ch3Pkt| replies.push((dst, to, p));
                engines[dst].on_packet(&s, &mut send, src, pkt, &mut evs);
                if let Some(p) = dup {
                    engines[dst].on_packet(&s, &mut send, src, p, &mut evs);
                }
            }
            events.extend(evs);
            queue.extend(replies);
        }
        // The transfer still completed exactly once, byte-exact…
        let recvs: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Ch3Event::RecvDone { data, .. } => Some(data),
                _ => None,
            })
            .collect();
        assert_eq!(recvs.len(), 1, "exactly one receive completion");
        assert_eq!(&recvs[0][..], &payload[..]);
        // …and the duplicates were tallied, not fatal: the replayed final
        // DATA at the receiver, the replayed CTS at the sender.
        assert!(e1.protocol_errors() >= 1, "dup final DATA counted");
        assert!(e0.protocol_errors() >= 1, "dup CTS counted");
        assert_eq!(e0.rdv_in_flight(), 0);
        assert_eq!(e1.rdv_in_flight(), 0);
    }

    /// An out-of-bounds DATA chunk (offset past the announced length) is
    /// dropped and counted, never written.
    #[test]
    fn out_of_bounds_data_chunk_is_dropped() {
        let s = sched();
        let t = RequestTable::new();
        let e1 = Ch3Engine::new(1, 64, None);
        let rreq = t.create(ReqKind::Recv, ReqPath::Net);
        let mut queue: Vec<(usize, usize, Ch3Pkt)> = Vec::new();
        let mut events = Vec::new();
        {
            let mut send1 = |_: &Scheduler, dst: usize, p: Ch3Pkt| queue.push((1, dst, p));
            e1.post_recv(&s, &mut send1, rreq, Some(0), 7);
            e1.on_packet(
                &s,
                &mut |_: &Scheduler, _: usize, _: Ch3Pkt| {},
                0,
                Ch3Pkt::Rts {
                    key: 7,
                    rdv_id: 0,
                    len: 100,
                },
                &mut events,
            );
            e1.on_packet(
                &s,
                &mut |_: &Scheduler, _: usize, _: Ch3Pkt| {},
                0,
                Ch3Pkt::Data {
                    rdv_id: 0,
                    offset: 90,
                    data: NmBuf::from(vec![0xFF; 50]),
                },
                &mut events,
            );
        }
        assert!(events.is_empty(), "no completion from the bad chunk");
        assert_eq!(e1.protocol_errors(), 1);
        assert_eq!(e1.rdv_in_flight(), 1, "the rendezvous stays live");
    }

    #[test]
    fn unexpected_rts_matched_by_late_any_source_post() {
        let s = sched();
        let t = RequestTable::new();
        let e1 = Ch3Engine::new(1, 64, None);
        let rreq = t.create(ReqKind::RecvAnySource, ReqPath::Unknown);
        let mut out = Vec::new();
        let mut events = Vec::new();
        {
            let mut send = |_: &Scheduler, dst: usize, p: Ch3Pkt| out.push((dst, p));
            e1.on_packet(
                &s,
                &mut send,
                0,
                Ch3Pkt::Rts {
                    key: 7,
                    rdv_id: 0,
                    len: 100,
                },
                &mut events,
            );
        }
        assert!(out.is_empty(), "no CTS before a receive is posted");
        assert_eq!(e1.queues.unexpected_len(), 1);
        {
            let mut send = |_: &Scheduler, dst: usize, p: Ch3Pkt| out.push((dst, p));
            let (ev, flag) = e1.post_recv(&s, &mut send, rreq, None, 7);
            assert!(ev.is_none());
            assert!(flag.is_none(), "matched immediately, no posted entry");
        }
        assert_eq!(out.len(), 1, "CTS sent on match");
        assert!(matches!(out[0].1, Ch3Pkt::Cts { rdv_id: 0 }));
    }
}

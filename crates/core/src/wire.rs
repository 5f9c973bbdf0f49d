//! NewMadeleine's wire packet format.
//!
//! Every fabric transfer carries one [`NmWire`]. The header fields are kept
//! as struct members (the simulation shares an address space) but their
//! modelled wire size — [`WIRE_HEADER_BYTES`] per packet plus
//! [`AGG_SUBHEADER_BYTES`] per aggregated fragment — is charged to the NIC,
//! so aggregation trades per-packet latency against extra header bytes the
//! way the real library does.

use simnet::NmBuf;

/// Modelled size of the packet header on the wire.
pub const WIRE_HEADER_BYTES: usize = 32;

/// Modelled per-fragment subheader inside an aggregate packet.
pub const AGG_SUBHEADER_BYTES: usize = 16;

/// One eager fragment inside an aggregate packet.
#[derive(Clone, Debug)]
pub struct EagerFrag {
    pub tag: u64,
    pub seq: u64,
    pub data: NmBuf,
}

/// Payload variants of a wire packet.
#[derive(Clone, Debug)]
pub enum WirePayload {
    /// A whole small message.
    Eager { tag: u64, seq: u64, data: NmBuf },
    /// Several small messages to the same gate coalesced into one NIC
    /// transfer by the aggregation strategy.
    Aggregate(Vec<EagerFrag>),
    /// Rendezvous request-to-send: announces a large message.
    Rts {
        tag: u64,
        seq: u64,
        rdv_id: u64,
        len: usize,
    },
    /// Rendezvous clear-to-send: the receiver is ready for `rdv_id`.
    Cts { rdv_id: u64 },
    /// A chunk of rendezvous data (multirail transfers produce several,
    /// one per rail, with distinct offsets).
    Data {
        rdv_id: u64,
        offset: usize,
        data: NmBuf,
    },
    /// Retry mode only — cumulative acknowledgement for one (src, tag)
    /// envelope flow: every sequence number below `next` has arrived.
    /// With flow control armed, `credits` piggybacks eager credit returns
    /// earned on this gate (0 when flow control is off or nothing is
    /// owed); it rides in header padding, so the wire size is unchanged.
    Ack { tag: u64, next: u64, credits: u32 },
    /// Flow control only — standalone eager credit return for one gate,
    /// sent on the express channel when no ack is going that way anyway.
    Credit { credits: u32 },
    /// Retry mode only — the receiver finished assembling `rdv_id`; the
    /// sender may release the payload and complete the send.
    RdvFin { rdv_id: u64 },
    /// Rail-health probe: a tiny packet sent on a `Probing` rail to test
    /// whether the link came back. `rail` names the probed rail so the
    /// answer can be pinned to the same wire.
    Probe { rail: usize, seq: u64 },
    /// Answer to a [`WirePayload::Probe`], echoed on the probed rail.
    ProbeAck { rail: usize, seq: u64 },
    /// Communicator-recovery poison (DESIGN.md §13): the sender has
    /// revoked communicator epoch `epoch`. Sticky and idempotent like a
    /// death verdict — the first receipt quiesces the epoch's pending
    /// operations with counted errors and re-broadcasts; replays are
    /// counted no-ops.
    Revoke { epoch: u32 },
}

impl WirePayload {
    /// Duplicate this payload without copying payload bytes: data-bearing
    /// variants share their [`NmBuf`] (a metered refcount bump), control
    /// variants are plain field copies. Retransmission queues use this so
    /// keeping a packet around for replay never clones the payload.
    pub fn share(&self) -> WirePayload {
        // The derived clone copies header fields and clones each `NmBuf`,
        // which is exactly `NmBuf::share`.
        self.clone()
    }
}

/// A packet as it crosses the fabric.
#[derive(Clone, Debug)]
pub struct NmWire {
    /// Sender's global rank (identifies the gate at the receiver).
    pub src_rank: usize,
    /// Receiver's global rank (the node sink demultiplexes on this).
    pub dst_rank: usize,
    pub payload: WirePayload,
    /// End-to-end checksum over ranks, payload header fields and payload
    /// bytes, computed by [`NmWire::new`] at the sender and verified at
    /// delivery ([`NmWire::crc_ok`]). Its wire cost is part of
    /// [`WIRE_HEADER_BYTES`].
    pub crc: u64,
}

impl NmWire {
    /// Build a packet and seal it with the end-to-end checksum.
    pub fn new(src_rank: usize, dst_rank: usize, payload: WirePayload) -> NmWire {
        let crc = compute_crc(src_rank, dst_rank, &payload);
        NmWire {
            src_rank,
            dst_rank,
            payload,
            crc,
        }
    }

    /// Verify the checksum against the packet's current content. `false`
    /// means the wire corrupted the frame: the receiver must discard it
    /// exactly like a dropped packet (the retry layer will retransmit).
    pub fn crc_ok(&self) -> bool {
        self.crc == compute_crc(self.src_rank, self.dst_rank, &self.payload)
    }

    /// Total modelled wire size: header + payload bytes.
    pub fn wire_bytes(&self) -> usize {
        WIRE_HEADER_BYTES
            + match &self.payload {
                WirePayload::Eager { data, .. } => data.len(),
                WirePayload::Aggregate(frags) => frags
                    .iter()
                    .map(|f| AGG_SUBHEADER_BYTES + f.data.len())
                    .sum(),
                WirePayload::Rts { .. } => 16,
                WirePayload::Cts { .. } => 8,
                WirePayload::Data { data, .. } => 8 + data.len(),
                WirePayload::Ack { .. } => 16,
                WirePayload::Credit { .. } => 8,
                WirePayload::RdvFin { .. } => 8,
                WirePayload::Probe { .. } => 16,
                WirePayload::ProbeAck { .. } => 16,
                WirePayload::Revoke { .. } => 8,
            }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Bytes per block of the lane-parallel fold: one 8-byte word per lane.
const BLOCK: usize = 32;

/// Incremental FNV-1a over 64-bit words. Header fields go in one word at
/// a time; payload bytes go through [`WireCrc::bytes`], which splits the
/// serial multiply chain into four independent lanes so a megabyte seals
/// at memory speed instead of at multiply latency (DESIGN.md §16).
struct WireCrc(u64);

impl WireCrc {
    fn new() -> WireCrc {
        WireCrc(FNV_OFFSET)
    }

    fn word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
    }

    /// Fold a byte string: its length, then 32-byte blocks across four
    /// FNV-1a lanes (word `i` of each block into lane `i`, each lane seeded
    /// apart so words cannot trade lanes unnoticed), the lanes in order,
    /// then the leftover whole words and the zero-padded tail.
    fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        let blocks = b.chunks_exact(BLOCK);
        let rest = blocks.remainder();
        if b.len() >= BLOCK {
            let mut lanes = [1, 2, 3, 4].map(|i| FNV_OFFSET ^ i);
            for block in blocks {
                for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                    *lane =
                        (*lane ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(FNV_PRIME);
                }
            }
            lanes.into_iter().for_each(|lane| self.word(lane));
        }
        for w in rest.chunks(8) {
            let mut word = [0u8; 8];
            word[..w.len()].copy_from_slice(w);
            self.word(u64::from_le_bytes(word));
        }
    }
}

fn compute_crc(src_rank: usize, dst_rank: usize, payload: &WirePayload) -> u64 {
    let mut h = WireCrc::new();
    h.word(src_rank as u64);
    h.word(dst_rank as u64);
    match payload {
        WirePayload::Eager { tag, seq, data } => {
            h.word(1);
            h.word(*tag);
            h.word(*seq);
            h.bytes(data.as_slice());
        }
        WirePayload::Aggregate(frags) => {
            h.word(2);
            h.word(frags.len() as u64);
            for f in frags {
                h.word(f.tag);
                h.word(f.seq);
                h.bytes(f.data.as_slice());
            }
        }
        WirePayload::Rts { tag, seq, rdv_id, len } => {
            h.word(3);
            h.word(*tag);
            h.word(*seq);
            h.word(*rdv_id);
            h.word(*len as u64);
        }
        WirePayload::Cts { rdv_id } => {
            h.word(4);
            h.word(*rdv_id);
        }
        WirePayload::Data { rdv_id, offset, data } => {
            h.word(5);
            h.word(*rdv_id);
            h.word(*offset as u64);
            h.bytes(data.as_slice());
        }
        WirePayload::Ack { tag, next, credits } => {
            h.word(6);
            h.word(*tag);
            h.word(*next);
            h.word(*credits as u64);
        }
        WirePayload::Credit { credits } => {
            h.word(10);
            h.word(*credits as u64);
        }
        WirePayload::RdvFin { rdv_id } => {
            h.word(7);
            h.word(*rdv_id);
        }
        WirePayload::Probe { rail, seq } => {
            h.word(8);
            h.word(*rail as u64);
            h.word(*seq);
        }
        WirePayload::ProbeAck { rail, seq } => {
            h.word(9);
            h.word(*rail as u64);
            h.word(*seq);
        }
        WirePayload::Revoke { epoch } => {
            h.word(11);
            h.word(*epoch as u64);
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_wire_size_is_header_plus_payload() {
        let w = NmWire::new(
            0,
            1,
            WirePayload::Eager {
                tag: 1,
                seq: 0,
                data: NmBuf::from(vec![0u8; 100]),
            },
        );
        assert_eq!(w.wire_bytes(), WIRE_HEADER_BYTES + 100);
    }

    #[test]
    fn aggregate_charges_subheaders() {
        let frag = |n: usize| EagerFrag {
            tag: 0,
            seq: 0,
            data: NmBuf::from(vec![0u8; n]),
        };
        let w = NmWire::new(0, 1, WirePayload::Aggregate(vec![frag(10), frag(20)]));
        assert_eq!(
            w.wire_bytes(),
            WIRE_HEADER_BYTES + 2 * AGG_SUBHEADER_BYTES + 30
        );
    }

    #[test]
    fn control_packets_are_small() {
        let rts = NmWire::new(
            0,
            1,
            WirePayload::Rts {
                tag: 0,
                seq: 0,
                rdv_id: 1,
                len: 1 << 20,
            },
        );
        let cts = NmWire::new(1, 0, WirePayload::Cts { rdv_id: 1 });
        let probe = NmWire::new(0, 1, WirePayload::Probe { rail: 1, seq: 3 });
        let credit = NmWire::new(1, 0, WirePayload::Credit { credits: 4 });
        assert!(rts.wire_bytes() <= 64);
        assert!(cts.wire_bytes() <= 64);
        assert!(probe.wire_bytes() <= 64);
        assert!(credit.wire_bytes() <= 64);
    }

    #[test]
    fn crc_seals_header_and_payload() {
        let mk = |byte: u8| {
            NmWire::new(
                0,
                1,
                WirePayload::Eager {
                    tag: 7,
                    seq: 3,
                    data: NmBuf::from(vec![byte; 1000]),
                },
            )
        };
        let w = mk(0xAB);
        assert!(w.crc_ok());
        // Any header or payload change breaks the seal.
        let mut tampered = w.clone();
        tampered.src_rank = 2;
        assert!(!tampered.crc_ok());
        assert_ne!(mk(0xAB).crc, mk(0xAC).crc, "payload bytes are covered");
        // The simulated corruption model flips the stored CRC rather than
        // mutating shared payload bytes; that too must fail verification.
        let mut flipped = w;
        flipped.crc ^= 1;
        assert!(!flipped.crc_ok());
    }

    #[test]
    fn crc_distinguishes_variants_and_fields() {
        let a = NmWire::new(0, 1, WirePayload::Cts { rdv_id: 9 });
        let b = NmWire::new(0, 1, WirePayload::RdvFin { rdv_id: 9 });
        assert_ne!(a.crc, b.crc, "same fields, different variant");
        let c = NmWire::new(0, 1, WirePayload::Probe { rail: 0, seq: 1 });
        let d = NmWire::new(0, 1, WirePayload::ProbeAck { rail: 0, seq: 1 });
        assert_ne!(c.crc, d.crc);
        // The revoke poison is sealed and variant-distinct too.
        let r1 = NmWire::new(0, 1, WirePayload::Revoke { epoch: 1 });
        let r2 = NmWire::new(0, 1, WirePayload::Revoke { epoch: 2 });
        assert_ne!(r1.crc, r2.crc, "epoch field is covered");
        assert!(r1.wire_bytes() <= 64, "revoke rides the express lane");
        // The piggybacked credit count is sealed too.
        let e = NmWire::new(0, 1, WirePayload::Ack { tag: 1, next: 2, credits: 0 });
        let f = NmWire::new(0, 1, WirePayload::Ack { tag: 1, next: 2, credits: 3 });
        assert_ne!(e.crc, f.crc, "credit field is covered");
        // share() preserves the payload identity, so the CRC still holds.
        let shared = NmWire {
            payload: a.payload.share(),
            ..a
        };
        assert!(shared.crc_ok());
    }

    /// 1 KiB + 13 B: 32 whole blocks across the four lanes, one leftover
    /// whole word and a 5-byte tail.
    const PROBE_LEN: usize = 1024 + 13;

    fn probe_bytes() -> Vec<u8> {
        (0..PROBE_LEN).map(|i| (i * 31 + 7) as u8).collect()
    }

    fn data_seal(bytes: &[u8], rdv_id: u64, offset: usize) -> u64 {
        let data = NmBuf::from(bytes.to_vec());
        NmWire::new(
            3,
            4,
            WirePayload::Data {
                rdv_id,
                offset,
                data,
            },
        )
        .crc
    }

    #[test]
    fn seal_detects_every_single_byte_change() {
        let base = probe_bytes();
        let sealed = data_seal(&base, 1, 0);
        for i in 0..PROBE_LEN {
            for flip in [0x01, 0x80, 0xFF] {
                let mut b = base.clone();
                b[i] ^= flip;
                assert_ne!(
                    data_seal(&b, 1, 0),
                    sealed,
                    "byte {i} ^ {flip:#x} went unseen"
                );
            }
        }
    }

    #[test]
    fn seal_detects_words_swapped_across_lanes() {
        let base = probe_bytes();
        let sealed = data_seal(&base, 1, 0);
        // Block 5: word 0 (lane 0) with word 2 (lane 2), and word 1 with
        // word 3, plus the leftover word with the last block's lane 3.
        for (a, b) in [(160, 176), (168, 184), (1024, 1016)] {
            let mut swapped = base.clone();
            let (wa, wb) = (swapped[a..a + 8].to_vec(), swapped[b..b + 8].to_vec());
            assert_ne!(wa, wb);
            swapped[a..a + 8].copy_from_slice(&wb);
            swapped[b..b + 8].copy_from_slice(&wa);
            assert_ne!(
                data_seal(&swapped, 1, 0),
                sealed,
                "words at {a} and {b} swapped"
            );
        }
    }

    #[test]
    fn seal_covers_length_and_placement() {
        let base = probe_bytes();
        let sealed = data_seal(&base, 1, 0);
        let mut longer = base.clone();
        longer.push(0);
        assert_ne!(data_seal(&longer, 1, 0), sealed, "an appended zero byte");
        assert_ne!(
            data_seal(&base[..1024], 1, 0),
            data_seal(&base[..1023], 1, 0)
        );
        assert_ne!(
            data_seal(&base, 1, 8),
            sealed,
            "same bytes at another offset"
        );
        assert_ne!(
            data_seal(&base, 2, 0),
            sealed,
            "same bytes for another rendezvous"
        );
        // The seal is recomputed over the bytes at delivery.
        let w = NmWire::new(
            3,
            4,
            WirePayload::Data {
                rdv_id: 1,
                offset: 0,
                data: NmBuf::from(base),
            },
        );
        assert!(w.crc_ok());
    }

    #[test]
    fn seal_covers_aggregate_fragment_boundaries() {
        let base = probe_bytes();
        let agg = |cut: usize| {
            let frag = |seq: u64, bytes: &[u8]| EagerFrag {
                tag: 9,
                seq,
                data: NmBuf::from(bytes.to_vec()),
            };
            NmWire::new(
                0,
                1,
                WirePayload::Aggregate(vec![frag(0, &base[..cut]), frag(1, &base[cut..])]),
            )
        };
        let sealed = agg(500);
        assert!(sealed.crc_ok());
        for cut in [499, 501, 512, 0] {
            assert_ne!(agg(cut).crc, sealed.crc, "boundary moved from 500 to {cut}");
        }
    }
}

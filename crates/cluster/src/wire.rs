//! Wire protocol between cooperative peers, and the framing both of the
//! system's protocols share.
//!
//! A hand-rolled, length-prefixed binary framing over [`bytes`] — no external
//! serialisation dependency. Every frame, peer or client (`fc_gateway::proto`
//! encodes its requests and replies with [`write_frame`] / [`split_frame`]
//! too), is
//!
//! ```text
//! [u32 LE: payload length][u32 LE: CRC-32 of payload][u8: message tag][payload…]
//! ```
//!
//! The frame checksum rejects link-level corruption: any single flipped byte
//! lands in the length, the CRC, or the CRC-covered body, so a tampered
//! frame decodes to an error (or stays incomplete) — never to a *different*
//! valid message. A page leaves a node in one shape, the [`ResyncEntry`]
//! `(lpn, version, crc, data)`, whose CRC its writer computed once
//! ([`resync_entry`]) and which travels with the page — through the peer's
//! memory, a migration, a recovery replay — to whoever applies it, who
//! checks it with [`intact`] first. That second layer survives what the
//! frame checksum cannot see: links that pass `Message` values without
//! re-framing (the in-memory arm of [`Link`](crate::Link) and the fault
//! injector's corruption hook) and bytes that rot at rest.
//!
//! Every replicated page is checksummed at least three times (write stamp,
//! frame encode, receive verify — six over a TCP link with a TCP client), so
//! [`crc32`] sits on the data plane's critical path. On x86_64 it folds by
//! carry-less multiplication when the CPU has `pclmulqdq` and `sse4.1`, and
//! otherwise (short inputs, tails, every other target) walks slicing-by-8
//! tables; the values are the same IEEE CRC-32 either way, so the wire
//! format does not depend on which machine framed it. That dispatch holds
//! this module's one `unsafe` block: the call into code compiled for CPU
//! features the block's caller has just detected.
//!
//! The message set implements Figure 3's arrows: write replication with
//! acks, NACKs and credit grants, discards after local flushes, heartbeats
//! (Section III.D), and the recovery handshake (RCT fetch → entries →
//! purge), whose fetch also serves scrub repair when it names the pages it
//! wants. Rejoining after a failure sends no frames: a solo node holds only
//! pages that are already durable.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Maximum frame payload accepted by either protocol's decoder (16 MiB):
/// protects against corrupted length prefixes.
pub const MAX_FRAME: usize = 16 << 20;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), dependency-free: carry-less multiply where the CPU has
// it, slicing-by-8 tables everywhere else
// ---------------------------------------------------------------------------

/// Slicing-by-8 lookup tables: `CRC32_TABLES[0]` is the classic byte-at-a-
/// time table; `CRC32_TABLES[k][b]` folds byte `b` positioned `k` bytes
/// ahead of the CRC register, letting the loop consume 8 bytes per step.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Advance the raw (uninverted) CRC register `c` over `data`, 8 bytes per
/// table step: the whole of [`crc32`] on targets without carry-less
/// multiply, and its short-input and tail path everywhere.
fn crc32_table(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 by carry-less multiplication (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", the bit-reflected
/// variant): the message is a polynomial over GF(2), and a 128-bit lane can
/// be moved `d` bits ahead of where it stands by multiplying its two halves
/// with `x^(d±32) mod P` — two `pclmulqdq` per 16 bytes instead of sixteen
/// table lookups.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    // Constants for P = 0x1_04C1_1DB7, each bit-reflected over 33 bits (the
    // reflected multiply leaves its product one bit low).
    /// `x^(512+32) mod P`, `x^(512-32) mod P`: fold a lane 64 bytes ahead.
    const FOLD_64B: (i64, i64) = (0x1_5444_2BD4, 0x1_C6E4_1596);
    /// `x^(128+32) mod P`, `x^(128-32) mod P`: fold a lane 16 bytes ahead.
    const FOLD_16B: (i64, i64) = (0x1_7519_97D0, 0x0_CCAA_009E);
    /// `x^64 mod P`: the 96 → 64 bit step of the final reduction.
    const FOLD_4B: i64 = 0x1_63CD_6124;
    /// `P` and `μ = ⌊x^64 / P⌋` for the Barrett reduction to 32 bits.
    const POLY_MU: (i64, i64) = (0x1_DB71_0641, 0x1_F701_1641);

    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(b: &[u8]) -> __m128i {
        let lo = i64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
        let hi = i64::from_le_bytes(b[8..16].try_into().expect("8 bytes"));
        _mm_set_epi64x(hi, lo)
    }

    /// `lane` moved ahead by the distance `keys` encode, combined with the
    /// data `next` it lands on.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(lane, keys, 0x00);
        let hi = _mm_clmulepi64_si128(lane, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Advance the raw CRC register `c` over `data`, whose length the caller
    /// keeps a multiple of 16 and at least 64 (a shorter or ragged slice is
    /// not unsound — the slicing below is checked — just wrong: trailing
    /// bytes would be left out).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32_clmul(c: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));
        let (first, rest) = data.split_at(64);
        // Four independent lanes hide the multiply's latency. The register
        // enters as the message's first four bytes, as in the table form.
        let mut x = [
            _mm_xor_si128(load(first), _mm_cvtsi32_si128(c as i32)),
            load(&first[16..]),
            load(&first[32..]),
            load(&first[48..]),
        ];
        let k64 = _mm_set_epi64x(FOLD_64B.1, FOLD_64B.0);
        let mut blocks = rest.chunks_exact(64);
        for b in &mut blocks {
            x[0] = fold(x[0], load(b), k64);
            x[1] = fold(x[1], load(&b[16..]), k64);
            x[2] = fold(x[2], load(&b[32..]), k64);
            x[3] = fold(x[3], load(&b[48..]), k64);
        }
        // Four lanes into one, then the remaining 16-byte blocks.
        let k16 = _mm_set_epi64x(FOLD_16B.1, FOLD_16B.0);
        let mut acc = fold(x[0], x[1], k16);
        acc = fold(acc, x[2], k16);
        acc = fold(acc, x[3], k16);
        for b in blocks.remainder().chunks_exact(16) {
            acc = fold(acc, load(b), k16);
        }
        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(_mm_clmulepi64_si128(acc, k16, 0x10), _mm_srli_si128(acc, 8));
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, FOLD_4B), 0x00),
            _mm_srli_si128(acc, 4),
        );
        // Barrett: 64 → 32 bits without a division.
        let pm = _mm_set_epi64x(POLY_MU.1, POLY_MU.0);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pm, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pm, 0x00);
        _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32
    }
}

/// CRC-32 (IEEE) of `data` — the checksum used for both frame integrity and
/// per-page payload integrity. On x86_64 with `pclmulqdq` and `sse4.1`
/// (detected at run time) inputs of 64 bytes and more are folded 64 bytes per
/// step by carry-less multiplication; the slicing-by-8 tables serve shorter
/// inputs, the sub-16-byte tail, and every other target. Both compute the
/// same function.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut rest = data;
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 64
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        let (head, tail) = data.split_at(data.len() & !15);
        // SAFETY: `crc32_clmul` is safe Rust compiled for `pclmulqdq` and
        // `sse4.1`; calling it is unsafe only because a CPU without them
        // would fault on its instructions, and both were just detected on
        // the CPU this runs on. It reads `head` through checked slicing.
        c = unsafe { clmul::crc32_clmul(c, head) };
        rest = tail;
    }
    !crc32_table(c, rest)
}

// ---------------------------------------------------------------------------
// Framing, shared with the client protocol
// ---------------------------------------------------------------------------

/// Decoder errors, for either protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Frame advertised more than [`MAX_FRAME`] bytes.
    FrameTooLarge(usize),
    /// Unknown message tag or enum discriminant.
    BadTag(u8),
    /// Payload ended before the message was complete.
    Truncated,
    /// Frame checksum mismatch: the bytes were damaged in flight.
    Checksum {
        /// CRC the frame header claimed.
        expected: u32,
        /// CRC of the bytes actually received.
        found: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            FrameError::BadTag(t) => write!(f, "unknown message tag {t}"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::Checksum { expected, found } => {
                write!(
                    f,
                    "frame checksum mismatch: header {expected:#10x}, body {found:#10x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A message type with a wire codec: what a TCP [`Link`](crate::Link)
/// encodes on send and decodes on receive. [`Message`] implements it with
/// [`encode`] / [`decode`], the client protocol's `Request` and `Reply`
/// with theirs.
pub trait Frame: Sized {
    /// Append `self`, framed, to `out`.
    fn encode(&self, out: &mut BytesMut);

    /// Take one frame off the front of `buf`; `Ok(None)` until a whole
    /// frame is there.
    fn decode(buf: &mut BytesMut) -> Result<Option<Self>, FrameError>;
}

/// Append one frame to `out`: `body` writes the tag and payload, then the
/// length and CRC slots in front of it are filled in. `payload` is the
/// body's variable part, so the buffer is sized once (40 bytes cover the
/// header, the tag and the widest fixed part): a 32-page frame is one
/// allocation, not a dozen doublings with a copy each.
pub fn write_frame(out: &mut BytesMut, payload: usize, body: impl FnOnce(&mut BytesMut)) {
    out.reserve(40 + payload);
    let len_pos = out.len();
    out.put_u32_le(0); // length
    out.put_u32_le(0); // CRC-32 of the body
    body(out);
    let body_start = len_pos + 8;
    let body_len = (out.len() - body_start) as u32;
    let body_crc = crc32(&out[body_start..]);
    out[len_pos..len_pos + 4].copy_from_slice(&body_len.to_le_bytes());
    out[len_pos + 4..body_start].copy_from_slice(&body_crc.to_le_bytes());
}

/// Split one frame off the front of `buf` and return its body (tag and
/// payload) once the CRC checks. `Ok(None)` while more bytes are needed;
/// consumed bytes are removed.
pub fn split_frame(buf: &mut BytesMut) -> Result<Option<Bytes>, FrameError> {
    if buf.len() < 8 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::FrameTooLarge(len));
    }
    if buf.len() < 8 + len {
        return Ok(None);
    }
    let expected = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    buf.advance(8);
    let body = buf.split_to(len).freeze();
    let found = crc32(&body);
    if found != expected {
        return Err(FrameError::Checksum { expected, found });
    }
    Ok(Some(body))
}

/// A body parser's bounds check: [`FrameError::Truncated`] unless `n` more
/// bytes remain.
pub fn need(body: &Bytes, n: usize) -> Result<(), FrameError> {
    if body.remaining() < n {
        Err(FrameError::Truncated)
    } else {
        Ok(())
    }
}

/// Why a replication message was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NackReason {
    /// Payload checksum mismatch — the bytes were damaged in flight; the
    /// sender should resend.
    Corrupt,
    /// The remote buffer is out of credits (full); the sender should write
    /// through locally instead of queueing.
    NoCredit,
}

impl NackReason {
    fn to_u8(self) -> u8 {
        match self {
            NackReason::Corrupt => 0,
            NackReason::NoCredit => 1,
        }
    }

    fn from_u8(b: u8) -> Result<Self, FrameError> {
        match b {
            0 => Ok(NackReason::Corrupt),
            1 => Ok(NackReason::NoCredit),
            other => Err(FrameError::BadTag(other)),
        }
    }

    /// Static label used in obs events.
    pub fn name(self) -> &'static str {
        match self {
            NackReason::Corrupt => "corrupt",
            NackReason::NoCredit => "no_credit",
        }
    }
}

/// A page as it leaves a node — in a [`Message::WriteReplBatch`], a
/// [`Message::RctEntries`] reply, a migration export or
/// `Node::export_remote`: `(lpn, version, payload crc, data)`. The CRC is
/// the writer's, computed once by [`resync_entry`] and carried, never
/// recomputed from bytes that may have rotted on the way.
pub type ResyncEntry = (u64, u64, u32, Bytes);

/// Build a [`ResyncEntry`] with its payload CRC computed.
pub fn resync_entry(lpn: u64, version: u64, data: Bytes) -> ResyncEntry {
    let crc = crc32(&data);
    (lpn, version, crc, data)
}

/// Whether `data` still matches `crc`, the CRC its writer computed: the one
/// check a page from elsewhere passes before it is applied (a replication
/// batch, a migration import, a recovery replay, a scrub repair, an
/// imported remote buffer), and the one scrub runs over its own buffer.
pub fn intact(crc: u32, data: &[u8]) -> bool {
    crc32(data) == crc
}

/// How many of `entries` fail [`intact`]: a replication batch's damage,
/// counted before the receiver takes its lock (CRCs are pure CPU, as on
/// the send side).
pub fn damaged(entries: &[ResyncEntry]) -> u64 {
    entries.iter().filter(|e| !intact(e.2, &e.3)).count() as u64
}

/// Protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// The owner flushed these pages to its SSD; the peer drops its copies.
    Discard {
        /// Sender-local sequence number, so the receiver can dedup and
        /// detect reordering.
        seq: u64,
        /// `(lpn, version)` of each flushed page. The version bounds the
        /// discard: the peer only drops its copy if it is not newer, so a
        /// Discard delayed past a fresher replication of the same page
        /// cannot delete the only surviving copy of an acknowledged write.
        pages: Vec<(u64, u64)>,
    },
    /// Liveness beat.
    Heartbeat {
        /// Sender's node id.
        from: u8,
        /// Sender's monotonic clock, milliseconds.
        at_millis: u64,
        /// Remote-buffer credits the sender currently advertises, so an
        /// out-of-credit peer learns about freed space even with no
        /// replication traffic flowing.
        credits: u32,
    },
    /// Ask the peer for pages it holds for this node: the whole RCT — a
    /// rebooted owner's recovery (§III.D) — or, for a scrub repair, the
    /// pages named.
    RctFetch {
        /// Request id, echoed by the reply.
        id: u64,
        /// The lpns wanted; empty asks for every page held.
        lpns: Vec<u64>,
    },
    /// Reply to [`Message::RctFetch`]: the pages asked for that the peer
    /// holds, in the order asked — or, for an empty `lpns`, every page
    /// held, sorted by lpn — each with its writer's CRC.
    RctEntries {
        /// The request's id.
        id: u64,
        /// The pages.
        entries: Vec<ResyncEntry>,
    },
    /// Owner finished recovery; peer clears its remote buffer.
    Purge,
    /// Acknowledge a [`Message::Purge`].
    PurgeAck,
    /// Replicate a batch of dirty pages into the peer's remote buffer in
    /// one frame. Batches live in their own contiguous sequence space
    /// (`1, 2, 3, …` per epoch) so the receiver can acknowledge
    /// cumulatively with [`Message::ReplAckBatch`].
    WriteReplBatch {
        /// Pipeline epoch. Bumped by the sender whenever it abandons
        /// un-acked in-flight state (solo entry, restart); a frame with a
        /// higher epoch resets the receiver's cumulative tracker.
        epoch: u32,
        /// Batch sequence number, contiguous from 1 within `epoch`.
        seq: u64,
        /// The pages, each carrying its own payload CRC. May be empty: an emptied batch retransmission
        /// still advances the cumulative ack past a refused sequence.
        entries: Vec<ResyncEntry>,
    },
    /// Cumulative acknowledgement of [`Message::WriteReplBatch`] frames:
    /// every batch with `seq <= up_to` in `epoch` has been applied.
    ReplAckBatch {
        /// Epoch the ack belongs to; stale-epoch acks are ignored.
        epoch: u32,
        /// Highest contiguously applied batch sequence (0 = none yet).
        up_to: u64,
        /// Remote-buffer credits the receiver still advertises.
        credits: u32,
    },
    /// Refuse one [`Message::WriteReplBatch`] (the cumulative ack cannot
    /// advance past it until the sender retransmits or empties it).
    ReplNackBatch {
        /// Epoch of the refused batch.
        epoch: u32,
        /// The refused batch's sequence number.
        seq: u64,
        /// Why it was refused.
        reason: NackReason,
    },
}

// Tags 1 and 2 belonged to the retired per-page WriteRepl / ReplAck frames,
// 9–11 to the retired ReplNack / ResyncBatch / ResyncAck resync stream, 5
// and 6 to the first recovery fetch and snapshot (no request id, no page
// CRC), 12 and 13 to the single-page scrub fetch and its reply; they stay
// unassigned so an old sender is refused, not misparsed.
const TAG_DISCARD: u8 = 3;
const TAG_HEARTBEAT: u8 = 4;
const TAG_PURGE: u8 = 7;
const TAG_PURGE_ACK: u8 = 8;
const TAG_WRITE_REPL_BATCH: u8 = 14;
const TAG_REPL_ACK_BATCH: u8 = 15;
const TAG_REPL_NACK_BATCH: u8 = 16;
const TAG_RCT_FETCH: u8 = 17;
const TAG_RCT_ENTRIES: u8 = 18;

/// Append `entries` as `[u32 count]` then `(lpn, version, crc, len, data)`
/// each — the one page layout on the wire.
fn put_entries(out: &mut BytesMut, entries: &[ResyncEntry]) {
    out.put_u32_le(entries.len() as u32);
    for (lpn, ver, crc, data) in entries {
        out.put_u64_le(*lpn);
        out.put_u64_le(*ver);
        out.put_u32_le(*crc);
        out.put_u32_le(data.len() as u32);
        out.put_slice(data);
    }
}

/// Parse what [`put_entries`] wrote.
fn get_entries(body: &mut Bytes) -> Result<Vec<ResyncEntry>, FrameError> {
    need(body, 4)?;
    let n = body.get_u32_le() as usize;
    let mut entries = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        need(body, 8 + 8 + 4 + 4)?;
        let lpn = body.get_u64_le();
        let ver = body.get_u64_le();
        let crc = body.get_u32_le();
        let dl = body.get_u32_le() as usize;
        need(body, dl)?;
        entries.push((lpn, ver, crc, body.split_to(dl)));
    }
    Ok(entries)
}

/// Append one framed message to `out`.
pub fn encode(msg: &Message, out: &mut BytesMut) {
    let payload = match msg {
        Message::Discard { pages, .. } => 16 * pages.len(),
        Message::RctFetch { lpns, .. } => 8 * lpns.len(),
        Message::WriteReplBatch { entries, .. } | Message::RctEntries { entries, .. } => {
            entries.iter().map(|e| 24 + e.3.len()).sum()
        }
        _ => 0,
    };
    write_frame(out, payload, |out| match msg {
        Message::Discard { seq, pages } => {
            out.put_u8(TAG_DISCARD);
            out.put_u64_le(*seq);
            out.put_u32_le(pages.len() as u32);
            for (lpn, ver) in pages {
                out.put_u64_le(*lpn);
                out.put_u64_le(*ver);
            }
        }
        Message::Heartbeat {
            from,
            at_millis,
            credits,
        } => {
            out.put_u8(TAG_HEARTBEAT);
            out.put_u8(*from);
            out.put_u64_le(*at_millis);
            out.put_u32_le(*credits);
        }
        Message::RctFetch { id, lpns } => {
            out.put_u8(TAG_RCT_FETCH);
            out.put_u64_le(*id);
            out.put_u32_le(lpns.len() as u32);
            for lpn in lpns {
                out.put_u64_le(*lpn);
            }
        }
        Message::RctEntries { id, entries } => {
            out.put_u8(TAG_RCT_ENTRIES);
            out.put_u64_le(*id);
            put_entries(out, entries);
        }
        Message::Purge => out.put_u8(TAG_PURGE),
        Message::PurgeAck => out.put_u8(TAG_PURGE_ACK),
        Message::WriteReplBatch {
            epoch,
            seq,
            entries,
        } => {
            out.put_u8(TAG_WRITE_REPL_BATCH);
            out.put_u32_le(*epoch);
            out.put_u64_le(*seq);
            put_entries(out, entries);
        }
        Message::ReplAckBatch {
            epoch,
            up_to,
            credits,
        } => {
            out.put_u8(TAG_REPL_ACK_BATCH);
            out.put_u32_le(*epoch);
            out.put_u64_le(*up_to);
            out.put_u32_le(*credits);
        }
        Message::ReplNackBatch { epoch, seq, reason } => {
            out.put_u8(TAG_REPL_NACK_BATCH);
            out.put_u32_le(*epoch);
            out.put_u64_le(*seq);
            out.put_u8(reason.to_u8());
        }
    });
}

/// Try to decode one framed message from the front of `buf`. Returns
/// `Ok(None)` when more bytes are needed; consumed bytes are removed.
pub fn decode(buf: &mut BytesMut) -> Result<Option<Message>, FrameError> {
    let Some(mut body) = split_frame(buf)? else {
        return Ok(None);
    };
    parse_body(&mut body).map(Some)
}

impl Frame for Message {
    fn encode(&self, out: &mut BytesMut) {
        encode(self, out);
    }

    fn decode(buf: &mut BytesMut) -> Result<Option<Message>, FrameError> {
        decode(buf)
    }
}

fn parse_body(body: &mut Bytes) -> Result<Message, FrameError> {
    need(body, 1)?;
    let tag = body.get_u8();
    let msg = match tag {
        TAG_DISCARD => {
            need(body, 8 + 4)?;
            let seq = body.get_u64_le();
            let n = body.get_u32_le() as usize;
            need(body, n * 16)?;
            let pages = (0..n)
                .map(|_| (body.get_u64_le(), body.get_u64_le()))
                .collect();
            Message::Discard { seq, pages }
        }
        TAG_HEARTBEAT => {
            need(body, 1 + 8 + 4)?;
            Message::Heartbeat {
                from: body.get_u8(),
                at_millis: body.get_u64_le(),
                credits: body.get_u32_le(),
            }
        }
        TAG_RCT_FETCH => {
            need(body, 8 + 4)?;
            let id = body.get_u64_le();
            let n = body.get_u32_le() as usize;
            need(body, n * 8)?;
            let lpns = (0..n).map(|_| body.get_u64_le()).collect();
            Message::RctFetch { id, lpns }
        }
        TAG_RCT_ENTRIES => {
            need(body, 8)?;
            let id = body.get_u64_le();
            let entries = get_entries(body)?;
            Message::RctEntries { id, entries }
        }
        TAG_PURGE => Message::Purge,
        TAG_PURGE_ACK => Message::PurgeAck,
        TAG_WRITE_REPL_BATCH => {
            need(body, 4 + 8)?;
            Message::WriteReplBatch {
                epoch: body.get_u32_le(),
                seq: body.get_u64_le(),
                entries: get_entries(body)?,
            }
        }
        TAG_REPL_ACK_BATCH => {
            need(body, 4 + 8 + 4)?;
            Message::ReplAckBatch {
                epoch: body.get_u32_le(),
                up_to: body.get_u64_le(),
                credits: body.get_u32_le(),
            }
        }
        TAG_REPL_NACK_BATCH => {
            need(body, 4 + 8 + 1)?;
            Message::ReplNackBatch {
                epoch: body.get_u32_le(),
                seq: body.get_u64_le(),
                reason: NackReason::from_u8(body.get_u8())?,
            }
        }
        other => return Err(FrameError::BadTag(other)),
    };
    Ok(msg)
}

impl Message {
    /// Data-plane sequence number of this message, if it carries one.
    /// `Discard` and `WriteReplBatch` are the data plane (they mutate the
    /// peer's remote buffer); everything else is control traffic. Note that
    /// `WriteReplBatch` sequences live in their own per-epoch space,
    /// disjoint from the `Discard` counter.
    pub fn data_seq(&self) -> Option<u64> {
        match self {
            Message::Discard { seq, .. } | Message::WriteReplBatch { seq, .. } => Some(*seq),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Receive-side sequence tracking
// ---------------------------------------------------------------------------

/// Classification of an incoming sequence number by [`SeqTracker::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqStatus {
    /// First sighting, in order (above everything seen so far).
    New,
    /// First sighting, but a higher sequence number already arrived — the
    /// network reordered delivery. The message is still safe to apply
    /// (page versions guard against stale overwrites).
    NewOutOfOrder,
    /// Already seen (retransmission or network duplication) — or so far
    /// behind the high-water mark it must be presumed seen. Skip it.
    Duplicate,
}

/// Tracks data-plane sequence numbers on the receive side so duplicated and
/// reordered deliveries are detected. Exact within a sliding window of
/// [`SeqTracker::WINDOW`] below the high-water mark; anything older is
/// conservatively treated as a duplicate (a sender would have retried or
/// write-through-ed such a message aeons ago).
#[derive(Debug, Clone, Default)]
pub struct SeqTracker {
    highest: u64,
    seen: std::collections::BTreeSet<u64>,
}

impl SeqTracker {
    /// Sliding-window width: sequence numbers more than this far below the
    /// high-water mark are presumed already seen.
    pub const WINDOW: u64 = 4096;

    /// Fresh tracker: nothing observed.
    pub fn new() -> Self {
        SeqTracker::default()
    }

    /// Classify `seq` and record it. Sequence numbers start at 1; 0 never
    /// appears on the wire.
    pub fn observe(&mut self, seq: u64) -> SeqStatus {
        let floor = self.highest.saturating_sub(Self::WINDOW);
        if seq <= floor && self.highest > 0 {
            return SeqStatus::Duplicate;
        }
        if !self.seen.insert(seq) {
            return SeqStatus::Duplicate;
        }
        if seq > self.highest {
            self.highest = seq;
            // Prune entries that fell out of the window.
            let floor = self.highest.saturating_sub(Self::WINDOW);
            while let Some(&lo) = self.seen.iter().next() {
                if lo > floor {
                    break;
                }
                self.seen.remove(&lo);
            }
            SeqStatus::New
        } else {
            SeqStatus::NewOutOfOrder
        }
    }

    /// Highest sequence number observed so far (0 = none).
    pub fn highest(&self) -> u64 {
        self.highest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) {
        let mut buf = BytesMut::new();
        encode(&msg, &mut buf);
        let decoded = decode(&mut buf).unwrap().expect("complete frame");
        assert_eq!(decoded, msg);
        assert!(buf.is_empty(), "no leftover bytes");
    }

    #[test]
    fn all_messages_round_trip() {
        round_trip(Message::Discard {
            seq: 43,
            pages: vec![(1, 10), (2, 11), (3, 12), (1 << 40, 1 << 50)],
        });
        round_trip(Message::Heartbeat {
            from: 1,
            at_millis: 123_456,
            credits: 64,
        });
        round_trip(Message::RctFetch {
            id: 7,
            lpns: vec![],
        });
        round_trip(Message::RctFetch {
            id: 8,
            lpns: vec![12, 1 << 40],
        });
        round_trip(Message::RctEntries {
            id: 7,
            entries: vec![
                resync_entry(1, 1, Bytes::from_static(b"a")),
                resync_entry(9, 4, Bytes::from_static(b"")),
            ],
        });
        round_trip(Message::Purge);
        round_trip(Message::PurgeAck);
        round_trip(Message::WriteReplBatch {
            epoch: 3,
            seq: 88,
            entries: vec![
                resync_entry(4, 20, Bytes::from_static(b"batched-page")),
                resync_entry(9, 21, Bytes::new()),
            ],
        });
        round_trip(Message::WriteReplBatch {
            epoch: 0,
            seq: 1,
            entries: vec![],
        });
        round_trip(Message::ReplAckBatch {
            epoch: 3,
            up_to: 88,
            credits: 12,
        });
        round_trip(Message::ReplNackBatch {
            epoch: 3,
            seq: 89,
            reason: NackReason::NoCredit,
        });
        round_trip(Message::ReplNackBatch {
            epoch: 3,
            seq: 90,
            reason: NackReason::Corrupt,
        });
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // Long enough for the 64-byte folding loop.
        assert_eq!(crc32(&[0u8; 512]), 0xB2AA_7578);
        assert_eq!(crc32(&[0xFFu8; 4096]), 0xF154_670A);
    }

    /// The definition: one bit at a time, no tables, no folding.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            }
        }
        !c
    }

    #[test]
    fn crc32_fast_paths_equal_the_bitwise_definition() {
        // Deterministic noise; +16 so every start offset has the longest
        // length behind it.
        let mut rng = fc_simkit::DetRng::new(18);
        let noise: Vec<u8> = (0..16_391 + 16).map(|_| rng.below(256) as u8).collect();
        let check = |data: &[u8], what: &str| {
            let want = crc32_bitwise(data);
            assert_eq!(crc32(data), want, "crc32 (dispatching) on {what}");
            // The table path by itself, so the fallback is covered on a
            // machine where `crc32` folds by carry-less multiply.
            assert_eq!(!crc32_table(!0, data), want, "table path on {what}");
        };
        // Every length across the 64-byte entry threshold, the 16-byte
        // lane tail and several 64-byte steps, at every alignment the
        // loads can meet.
        for start in 0..16 {
            for len in 0..=1100 {
                check(
                    &noise[start..start + len],
                    &format!("start {start} len {len}"),
                );
            }
        }
        // Page and frame sizes: 4 KiB, 16 KiB, a 32-page frame body.
        for len in [4096, 16_384, 16_391] {
            for start in [0, 1, 7] {
                check(
                    &noise[start..start + len],
                    &format!("start {start} len {len}"),
                );
            }
        }
    }

    /// One frame around a 37-byte body, and the body.
    fn framed_body() -> (BytesMut, Bytes) {
        let body = Bytes::from((0..37u8).collect::<Vec<u8>>());
        let mut frame = BytesMut::new();
        write_frame(&mut frame, body.len(), |out| out.put_slice(&body));
        (frame, body)
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let (full, body) = framed_body();
        assert_eq!(full.len(), 8 + body.len());
        // Every strict prefix is incomplete, not an error, and consumes
        // nothing.
        for cut in 0..full.len() {
            let mut partial = BytesMut::from(&full[..cut]);
            assert_eq!(split_frame(&mut partial), Ok(None), "cut at {cut}");
            assert_eq!(partial.len(), cut);
        }
        let mut whole = full.clone();
        assert_eq!(split_frame(&mut whole), Ok(Some(body)));
        assert!(whole.is_empty());
    }

    #[test]
    fn any_single_flipped_byte_is_rejected_or_incomplete() {
        // A flip in the CRC or the body is a checksum error; one in the
        // length an oversize or an incomplete frame. Never a body handed out.
        let (full, _) = framed_body();
        for i in 0..full.len() {
            let mut tampered = full.clone();
            tampered[i] ^= 0x40;
            let got = split_frame(&mut tampered);
            if i >= 4 {
                assert!(
                    matches!(got, Err(FrameError::Checksum { .. })),
                    "flip at byte {i}: {got:?}"
                );
            } else {
                assert!(!matches!(got, Ok(Some(_))), "flip at byte {i}: {got:?}");
            }
        }
    }

    #[test]
    fn multiple_frames_decode_in_order() {
        let mut buf = BytesMut::new();
        encode(&Message::Purge, &mut buf);
        encode(&Message::PurgeAck, &mut buf);
        let fetch = Message::RctFetch {
            id: 1,
            lpns: vec![3],
        };
        encode(&fetch, &mut buf);
        assert_eq!(decode(&mut buf).unwrap(), Some(Message::Purge));
        assert_eq!(decode(&mut buf).unwrap(), Some(Message::PurgeAck));
        assert_eq!(decode(&mut buf).unwrap(), Some(fetch));
        assert_eq!(decode(&mut buf).unwrap(), None);
    }

    #[test]
    fn oversized_frame_is_rejected() {
        // Refused on the header alone, before the body could arrive.
        let mut buf = BytesMut::new();
        buf.put_u32_le((MAX_FRAME + 1) as u32);
        buf.put_u32_le(0); // checksum slot
        assert_eq!(
            split_frame(&mut buf),
            Err(FrameError::FrameTooLarge(MAX_FRAME + 1))
        );
    }

    #[test]
    fn bad_tag_is_rejected() {
        let mut buf = BytesMut::new();
        let body = [99u8];
        buf.put_u32_le(1);
        buf.put_u32_le(crc32(&body));
        buf.put_slice(&body);
        assert_eq!(decode(&mut buf), Err(FrameError::BadTag(99)));
    }

    #[test]
    fn retired_tags_are_refused_not_misparsed() {
        // 1–2 were WriteRepl / ReplAck, 9–11 ReplNack / ResyncBatch /
        // ResyncAck, 5–6 the id-less recovery fetch and CRC-less snapshot,
        // 12–13 the single-page scrub fetch and reply. A well-framed body
        // from an old sender — here shaped like the old ResyncAck / ReplNack
        // / single-page fetch payloads — must not decode.
        for tag in [1u8, 2, 5, 6, 9, 10, 11, 12, 13] {
            let mut body = BytesMut::new();
            body.put_u8(tag);
            body.put_u64_le(77);
            body.put_u8(0);
            let mut buf = BytesMut::new();
            buf.put_u32_le(body.len() as u32);
            buf.put_u32_le(crc32(&body));
            buf.put_slice(&body);
            assert_eq!(decode(&mut buf), Err(FrameError::BadTag(tag)), "tag {tag}");
        }
    }

    #[test]
    fn truncated_body_is_rejected() {
        // A frame claiming to be a ReplAckBatch but with a 3-byte body; the
        // frame checksum is valid, so the failure is the body parse.
        let mut buf = BytesMut::new();
        let mut body = BytesMut::new();
        body.put_u8(TAG_REPL_ACK_BATCH);
        body.put_u16_le(7);
        buf.put_u32_le(body.len() as u32);
        buf.put_u32_le(crc32(&body));
        buf.put_slice(&body);
        assert_eq!(decode(&mut buf), Err(FrameError::Truncated));
    }

    #[test]
    fn payload_crc_travels_with_the_page() {
        // The writer's CRC survives the codec unchanged, so a page whose
        // bytes changed after it was stamped fails `intact` wherever it
        // lands (this models a transport that hands over Message values
        // without re-framing, and rot at rest).
        let good = resync_entry(1, 1, Bytes::from_static(b"x"));
        let mut bad = resync_entry(2, 2, Bytes::from_static(b"y"));
        bad.3 = Bytes::from_static(b"z");
        let sent = Message::RctEntries {
            id: 3,
            entries: vec![good, bad],
        };
        let mut buf = BytesMut::new();
        encode(&sent, &mut buf);
        let Some(Message::RctEntries { entries, .. }) = decode(&mut buf).unwrap() else {
            panic!("not an RctEntries");
        };
        let ok: Vec<bool> = entries.iter().map(|e| intact(e.2, &e.3)).collect();
        assert_eq!(ok, [true, false]);
    }

    #[test]
    fn seq_tracker_in_order_stream() {
        let mut t = SeqTracker::new();
        for s in 1..=100u64 {
            assert_eq!(t.observe(s), SeqStatus::New, "seq {s}");
        }
        assert_eq!(t.highest(), 100);
    }

    #[test]
    fn seq_tracker_flags_duplicates_and_reorders() {
        let mut t = SeqTracker::new();
        assert_eq!(t.observe(1), SeqStatus::New);
        assert_eq!(t.observe(3), SeqStatus::New);
        assert_eq!(t.observe(2), SeqStatus::NewOutOfOrder);
        assert_eq!(t.observe(2), SeqStatus::Duplicate);
        assert_eq!(t.observe(3), SeqStatus::Duplicate);
        assert_eq!(t.observe(4), SeqStatus::New);
        assert_eq!(t.highest(), 4);
    }

    #[test]
    fn seq_tracker_presumes_ancient_seqs_seen() {
        let mut t = SeqTracker::new();
        let high = SeqTracker::WINDOW + 50;
        assert_eq!(t.observe(high), SeqStatus::New);
        // Inside the window: genuinely new, just very late.
        assert_eq!(
            t.observe(high - SeqTracker::WINDOW + 1),
            SeqStatus::NewOutOfOrder
        );
        // At or below the floor: presumed duplicate.
        assert_eq!(t.observe(high - SeqTracker::WINDOW), SeqStatus::Duplicate);
        assert_eq!(t.observe(1), SeqStatus::Duplicate);
    }

    #[test]
    fn data_seq_covers_exactly_the_data_plane() {
        assert_eq!(
            Message::Discard {
                seq: 4,
                pages: vec![]
            }
            .data_seq(),
            Some(4)
        );
        assert_eq!(
            Message::WriteReplBatch {
                epoch: 2,
                seq: 8,
                entries: vec![]
            }
            .data_seq(),
            Some(8)
        );
        assert_eq!(
            Message::ReplAckBatch {
                epoch: 1,
                up_to: 9,
                credits: 0
            }
            .data_seq(),
            None
        );
        assert_eq!(
            Message::ReplNackBatch {
                epoch: 1,
                seq: 9,
                reason: NackReason::Corrupt
            }
            .data_seq(),
            None
        );
        assert_eq!(
            Message::Heartbeat {
                from: 0,
                at_millis: 0,
                credits: 0,
            }
            .data_seq(),
            None
        );
        assert_eq!(
            Message::RctFetch {
                id: 1,
                lpns: vec![]
            }
            .data_seq(),
            None
        );
    }

    #[test]
    fn empty_payloads_are_fine() {
        round_trip(Message::WriteReplBatch {
            epoch: 0,
            seq: 0,
            entries: vec![resync_entry(0, 0, Bytes::new())],
        });
        round_trip(Message::Discard {
            seq: 0,
            pages: vec![],
        });
        round_trip(Message::RctEntries {
            id: 0,
            entries: vec![],
        });
    }
}

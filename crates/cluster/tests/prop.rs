//! Property-based tests for the wire protocol.
//!
//! Three properties the protocol layer must have: encode∘decode is the
//! identity for any message (including across fragmented delivery), the
//! decoder never panics on arbitrary bytes, and receive-side sequence
//! tracking classifies any delivery schedule correctly.

use bytes::{Bytes, BytesMut};
use fc_cluster::{decode, encode, resync_entry, Message, NackReason, SeqStatus, SeqTracker};
use proptest::prelude::*;

fn message_strategy() -> impl Strategy<Value = Message> {
    let data = prop::collection::vec(any::<u8>(), 0..256).prop_map(Bytes::from);
    prop_oneof![
        (
            any::<u64>(),
            prop::collection::vec((any::<u64>(), any::<u64>(), data.clone()), 0..16)
        )
            .prop_map(|(seq, raw)| Message::WriteReplBatch {
                epoch: seq as u32,
                seq,
                entries: raw
                    .into_iter()
                    .map(|(l, v, d)| resync_entry(l, v, d))
                    .collect(),
            }),
        (any::<u64>(), any::<u32>()).prop_map(|(up_to, credits)| Message::ReplAckBatch {
            epoch: credits,
            up_to,
            credits,
        }),
        (any::<u64>(), prop::bool::ANY).prop_map(|(seq, corrupt)| Message::ReplNackBatch {
            epoch: seq as u32,
            seq,
            reason: if corrupt {
                NackReason::Corrupt
            } else {
                NackReason::NoCredit
            },
        }),
        (
            any::<u64>(),
            prop::collection::vec((any::<u64>(), any::<u64>()), 0..64)
        )
            .prop_map(|(seq, pages)| Message::Discard { seq, pages }),
        (any::<u8>(), any::<u64>(), any::<u32>()).prop_map(|(from, at_millis, credits)| {
            Message::Heartbeat {
                from,
                at_millis,
                credits,
            }
        }),
        (any::<u64>(), prop::collection::vec(any::<u64>(), 0..16))
            .prop_map(|(id, lpns)| Message::RctFetch { id, lpns }),
        (
            any::<u64>(),
            prop::collection::vec((any::<u64>(), any::<u64>(), data), 0..16)
        )
            .prop_map(|(id, pages)| Message::RctEntries {
                id,
                entries: pages
                    .into_iter()
                    .map(|(lpn, version, data)| resync_entry(lpn, version, data))
                    .collect(),
            }),
        Just(Message::Purge),
        Just(Message::PurgeAck),
    ]
}

proptest! {
    #[test]
    fn any_message_round_trips(msg in message_strategy()) {
        let mut buf = BytesMut::new();
        encode(&msg, &mut buf);
        let decoded = decode(&mut buf).unwrap();
        prop_assert_eq!(decoded, Some(msg));
        prop_assert!(buf.is_empty());
    }

    /// A stream of messages survives arbitrary fragmentation boundaries.
    #[test]
    fn fragmented_streams_decode_in_order(
        msgs in prop::collection::vec(message_strategy(), 1..12),
        cuts in prop::collection::vec(1usize..64, 0..32),
    ) {
        let mut wire = BytesMut::new();
        for m in &msgs {
            encode(m, &mut wire);
        }
        let wire = wire.freeze();
        // Feed the wire bytes chunk by chunk with arbitrary chunk sizes.
        let mut acc = BytesMut::new();
        let mut decoded = Vec::new();
        let mut pos = 0usize;
        let mut cut_iter = cuts.iter().copied().chain(std::iter::repeat(17));
        while pos < wire.len() {
            let n = cut_iter.next().unwrap().min(wire.len() - pos);
            acc.extend_from_slice(&wire[pos..pos + n]);
            pos += n;
            while let Some(m) = decode(&mut acc).unwrap() {
                decoded.push(m);
            }
        }
        prop_assert_eq!(decoded, msgs);
    }

    /// End-to-end integrity: flipping ANY single byte of an encoded frame
    /// must prevent it from decoding as a valid message. Either the frame
    /// CRC rejects it, or (for a flip in the length prefix that enlarges the
    /// frame) the decoder keeps waiting for bytes that never come — but a
    /// damaged frame is never delivered.
    #[test]
    fn any_single_flipped_byte_is_rejected(
        msg in message_strategy(),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut wire = BytesMut::new();
        encode(&msg, &mut wire);
        // Every frame is at least 9 bytes (len + crc + tag), so the modulo
        // is well-defined and covers every byte position.
        let pos = (pos_seed % wire.len() as u64) as usize;
        wire[pos] ^= flip;
        if let Ok(Some(m)) = decode(&mut wire) {
            prop_assert!(false, "damaged frame decoded as {m:?}");
        }
    }

    /// The decoder never panics on garbage; it either waits for more bytes,
    /// yields a message, or reports a structured error.
    #[test]
    fn decoder_total_on_garbage(noise in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut buf = BytesMut::from(&noise[..]);
        // Drive to quiescence: stop on error, empty, or starvation.
        for _ in 0..noise.len() + 1 {
            match decode(&mut buf) {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// SeqTracker agrees with a naive seen-set reference model for any
    /// delivery schedule (duplication + reordering in any mix), as long as
    /// the stream stays inside the exactness window.
    #[test]
    fn seq_tracker_matches_reference_model(
        stream in prop::collection::vec(1u64..=128, 1..256),
    ) {
        let mut tracker = SeqTracker::new();
        let mut seen = std::collections::HashSet::new();
        let mut highest = 0u64;
        for &s in &stream {
            let expected = if seen.contains(&s) {
                SeqStatus::Duplicate
            } else if s > highest {
                SeqStatus::New
            } else {
                SeqStatus::NewOutOfOrder
            };
            prop_assert_eq!(tracker.observe(s), expected);
            seen.insert(s);
            highest = highest.max(s);
            // The high-water mark is exactly the max seq seen (sequence
            // numbers ratchet monotonically, never rewind).
            prop_assert_eq!(tracker.highest(), highest);
        }
    }

    /// A strictly increasing stream — what a loss-free FIFO link delivers —
    /// is classified `New` at every step, regardless of starting point and
    /// step sizes.
    #[test]
    fn monotone_streams_are_always_new(
        start in 1u64..1_000_000,
        steps in prop::collection::vec(1u64..50, 1..128),
    ) {
        let mut tracker = SeqTracker::new();
        let mut s = start;
        for step in steps {
            prop_assert_eq!(tracker.observe(s), SeqStatus::New);
            prop_assert_eq!(tracker.highest(), s);
            s += step;
        }
    }
}

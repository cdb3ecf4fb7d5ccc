//! What every page of a client's window must read back as.

use bytes::Bytes;

use crate::workloads::PAGE_BYTES;

/// Sequence tag of pages written by the prefill.
pub const PREFILL_SEQ: u64 = 0;
const ABSENT: u64 = u64::MAX;

/// Page payload, a function of (client, lpn, seq): a page that reads back
/// with another client's, another address's or an older write's bytes
/// cannot compare equal.
pub fn payload(client: u32, lpn: u64, seq: u64) -> Bytes {
    let mut v = Vec::with_capacity(PAGE_BYTES);
    v.extend_from_slice(&u64::from(client).to_le_bytes());
    v.extend_from_slice(&lpn.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    // One xorshift word per step: the filler must stay far cheaper than
    // the system it is fed to.
    let mut x = (u64::from(client) << 56 ^ lpn.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seq << 20) | 1;
    while v.len() < PAGE_BYTES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.extend_from_slice(&x.to_le_bytes());
    }
    Bytes::from(v)
}

/// Reading a page back costs the node about 30 µs and the big windows hold
/// 130 000, so one repeat reads back a slice: of the pages it wrote or
/// trimmed, those in every [`TOUCHED_SLICES`]-th block (a different third
/// each repeat, so a run's six repeats cover every block twice); of the
/// rest, every [`UNTOUCHED_STRIDE`]-th page.
pub const TOUCHED_SLICES: u64 = 3;
pub const UNTOUCHED_STRIDE: u64 = 64;

/// Last acknowledged write per page of one client's window.
pub struct Oracle {
    client: u32,
    base: u64,
    seqs: Vec<u64>,
    /// Written or trimmed since the oracle was made.
    touched: Vec<bool>,
}

impl Oracle {
    /// A window starting at `base`; `prefilled` windows start out holding
    /// the prefill's payloads, others start empty.
    pub fn new(client: u32, base: u64, pages: u64, prefilled: bool) -> Oracle {
        let start = if prefilled { PREFILL_SEQ } else { ABSENT };
        Oracle {
            client,
            base,
            seqs: vec![start; pages as usize],
            touched: vec![false; pages as usize],
        }
    }

    pub fn base(&self) -> u64 {
        self.base
    }

    /// An acknowledged write of `pages` pages at `lpn`, tagged `seq`.
    pub fn wrote(&mut self, lpn: u64, pages: u32, seq: u64) {
        let at = (lpn - self.base) as usize;
        self.seqs[at..at + pages as usize].fill(seq);
        self.touched[at..at + pages as usize].fill(true);
    }

    /// An acknowledged trim.
    pub fn trimmed(&mut self, lpn: u64, pages: u32) {
        self.wrote(lpn, pages, ABSENT);
    }

    /// The pages the final read-back of repeat number `repeat` reads, as
    /// `(lpn, pages)` runs of at most `block` consecutive pages.
    pub fn read_back_runs(&self, block: u32, repeat: u64) -> Vec<(u64, u32)> {
        let mut runs: Vec<(u64, u32)> = Vec::new();
        for (i, &touched) in self.touched.iter().enumerate() {
            let i = i as u64;
            let in_slice = (i / u64::from(block) + repeat).is_multiple_of(TOUCHED_SLICES);
            let read = (touched && in_slice) || i.is_multiple_of(UNTOUCHED_STRIDE);
            if !read {
                continue;
            }
            let lpn = self.base + i;
            match runs.last_mut() {
                Some((start, n)) if *start + u64::from(*n) == lpn && *n < block => *n += 1,
                _ => runs.push((lpn, 1)),
            }
        }
        runs
    }

    /// Does `got` equal what `lpn` must hold?
    pub fn matches(&self, lpn: u64, got: Option<&[u8]>) -> bool {
        match (self.seqs[(lpn - self.base) as usize], got) {
            (ABSENT, None) => true,
            (ABSENT, Some(_)) | (_, None) => false,
            (seq, Some(bytes)) => payload(self.client, lpn, seq)[..] == *bytes,
        }
    }

    /// Pages of a read reply starting at `lpn` that do not match.
    pub fn mismatches(&self, lpn: u64, got: &[Option<Bytes>]) -> u64 {
        got.iter()
            .enumerate()
            .filter(|(i, page)| !self.matches(lpn + *i as u64, page.as_deref()))
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_a_function_of_client_lpn_and_seq() {
        let p = payload(1, 2, 3);
        assert_eq!(p.len(), PAGE_BYTES);
        assert_eq!(p, payload(1, 2, 3));
        for other in [payload(0, 2, 3), payload(1, 3, 3), payload(1, 2, 4)] {
            assert_ne!(p, other);
            assert_ne!(p[24..], other[24..], "the filler differs too");
        }
    }

    #[test]
    fn oracle_tracks_last_write_and_trim() {
        let mut o = Oracle::new(1, 100, 10, false);
        assert!(o.matches(100, None));
        assert!(!o.matches(100, Some(&payload(1, 100, 1))));

        o.wrote(102, 3, 7);
        assert!(o.matches(103, Some(&payload(1, 103, 7))));
        assert!(!o.matches(103, None), "an acked page must not be lost");
        assert!(!o.matches(103, Some(&payload(1, 103, 6))), "stale");
        assert!(!o.matches(103, Some(&payload(0, 103, 7))), "wrong client");
        assert!(o.matches(105, None), "one past the write");

        o.wrote(103, 1, 9);
        assert!(o.matches(103, Some(&payload(1, 103, 9))));
        o.trimmed(102, 2);
        assert!(o.matches(103, None));
        assert!(!o.matches(103, Some(&payload(1, 103, 9))), "resurrected");
        assert!(o.matches(104, Some(&payload(1, 104, 7))));

        let reply = [
            None,
            None,
            Some(payload(1, 104, 7)),
            Some(payload(1, 105, 7)),
        ];
        assert_eq!(o.mismatches(102, &reply), 1);
    }

    #[test]
    fn read_back_covers_a_slice_of_touched_blocks_and_a_stride_of_the_rest() {
        // 4-page blocks; window of 200 pages starting at lpn 1000.
        let mut o = Oracle::new(0, 1000, 200, true);
        let sampled: Vec<(u64, u32)> = (0..200)
            .step_by(UNTOUCHED_STRIDE as usize)
            .map(|i| (1000 + i, 1))
            .collect();
        assert_eq!(o.read_back_runs(4, 0), sampled, "nothing touched yet");

        o.wrote(1002, 9, 1); // window pages 2..=10: blocks 0, 1, 2
        o.trimmed(1195, 1); // block 48
                            // Repeat 0 takes blocks 0, 3, .. 48; repeat 1 blocks 2, 5, ..; repeat 2 blocks 1, 4, ..
        assert_eq!(
            o.read_back_runs(4, 0),
            vec![
                (1000, 1),
                (1002, 2),
                (1064, 1),
                (1128, 1),
                (1192, 1),
                (1195, 1)
            ]
        );
        assert_eq!(
            o.read_back_runs(4, 1),
            vec![(1000, 1), (1008, 3), (1064, 1), (1128, 1), (1192, 1)]
        );
        assert_eq!(
            o.read_back_runs(4, 2),
            vec![(1000, 1), (1004, 4), (1064, 1), (1128, 1), (1192, 1)]
        );
        // Every touched page is in exactly one of three consecutive repeats.
        let touched_reads: u32 = (0..3)
            .flat_map(|r| o.read_back_runs(4, r))
            .map(|(_, n)| n)
            .sum();
        assert_eq!(
            touched_reads,
            10 + 3 * 4,
            "10 touched, once; 4 samples, each time"
        );
    }

    #[test]
    fn prefilled_windows_start_with_the_prefill_payload() {
        let o = Oracle::new(0, 0, 4, true);
        assert!(o.matches(3, Some(&payload(0, 3, PREFILL_SEQ))));
        assert!(!o.matches(3, None));
    }
}

//! The Internet checksum (RFC 1071) and incremental updates (RFC 1624).
//!
//! Used by IP (header), ICMP (whole message), UDP and TCP (pseudo-header +
//! payload; UDP's may be disabled, which is exactly the application-
//! specific optimization §1.1 motivates for audio/video). The forwarding
//! extension (§5.2) uses the incremental form to fix up checksums after
//! rewriting addresses without rescanning the payload.

use plexus_sim::nic::{ones_complement_fold, ones_complement_sum};

use crate::mbuf::Mbuf;

/// Accumulates the one's-complement sum incrementally.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checksum {
    /// Exact integer sum of the 16-bit words fed so far; an odd trailing
    /// byte is already in it as the high half of its word.
    sum: u64,
    /// True if an odd number of bytes has been fed, so the next chunk's
    /// first byte is the low half of a word already begun.
    odd: bool,
}

impl Checksum {
    /// Starts an empty sum.
    pub fn new() -> Checksum {
        Checksum::default()
    }

    /// Starts from an already-accumulated (unfolded) partial sum — how a
    /// NIC with checksum offload resumes the pseudo-header partial the
    /// stack handed down in the packet header.
    pub fn with_partial(sum: u32) -> Checksum {
        Checksum {
            sum: u64::from(sum),
            ..Checksum::default()
        }
    }

    /// The unfolded partial sum accumulated so far (only meaningful while
    /// no odd byte is pending). Sums beyond 32 bits fold with end-around
    /// carry, which preserves the checksum.
    pub fn partial(&self) -> u32 {
        debug_assert!(!self.odd, "partial taken mid-byte");
        let mut sum = self.sum;
        while sum >> 32 != 0 {
            sum = (sum & 0xFFFF_FFFF) + (sum >> 32);
        }
        sum as u32
    }

    /// Feeds bytes into the sum, handling odd-length chunks across calls.
    pub fn add(&mut self, mut bytes: &[u8]) -> &mut Self {
        if self.odd {
            let Some((&low, rest)) = bytes.split_first() else {
                return self;
            };
            self.sum += u64::from(low);
            bytes = rest;
        }
        self.sum += ones_complement_sum(bytes);
        self.odd = bytes.len() % 2 == 1;
        self
    }

    /// Feeds a big-endian `u16`.
    pub fn add_u16(&mut self, v: u16) -> &mut Self {
        self.add(&v.to_be_bytes())
    }

    /// Feeds a big-endian `u32`.
    pub fn add_u32(&mut self, v: u32) -> &mut Self {
        self.add(&v.to_be_bytes())
    }

    /// Folds and complements, producing the wire checksum value.
    pub fn finish(&self) -> u16 {
        !ones_complement_fold(self.sum)
    }
}

/// One-shot checksum of a contiguous buffer.
pub fn checksum(bytes: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add(bytes);
    c.finish()
}

/// Checksum of an mbuf chain's payload (segment boundaries may fall on odd
/// offsets; the accumulator handles that).
pub fn checksum_mbuf(m: &Mbuf) -> u16 {
    let mut c = Checksum::new();
    for seg in m.segments() {
        c.add(seg);
    }
    c.finish()
}

/// Checksum of the tail of an mbuf chain starting at byte offset `from`,
/// seeded with an unfolded partial sum (the pseudo-header). This is the
/// gather a checksum-offload NIC performs while DMAing the chain: segment
/// boundaries may fall anywhere, including on odd offsets.
pub fn checksum_mbuf_from(m: &Mbuf, from: usize, partial: u32) -> u16 {
    let mut c = Checksum::with_partial(partial);
    let mut skip = from;
    for seg in m.segments() {
        if skip >= seg.len() {
            skip -= seg.len();
            continue;
        }
        c.add(&seg[skip..]);
        skip = 0;
    }
    c.finish()
}

/// Verifies a buffer whose checksum field is *included*: the sum over
/// everything must be zero.
pub fn verify(bytes: &[u8]) -> bool {
    checksum(bytes) == 0
}

/// Verifies a transport segment (header + payload, checksum field
/// included) against its pseudo-header partial sum: valid iff the seeded
/// sum folds to zero. This is what receivers — and the offload
/// equivalence tests — check on frames whose checksum the NIC filled.
pub fn verify_checksum(region: &[u8], pseudo: u32) -> bool {
    let mut c = Checksum::with_partial(pseudo);
    c.add(region);
    c.finish() == 0
}

/// A transmit checksum deferred to the NIC: the stack leaves the field
/// zero and stamps this descriptor in the packet header; the adapter
/// computes the Internet checksum over the tail of the frame during the
/// DMA gather and patches the field on the way out.
///
/// Offsets count from the packet *end*, so the link/network headers that
/// lower layers prepend after the request is stamped never invalidate
/// them (nothing on the transmit path appends trailing bytes).
///
/// This is the simulator's [`plexus_sim::nic::TxCsum`] under the name the
/// protocol stack uses — one descriptor type travels from the transport
/// layer down through the driver API to the adapter.
pub use plexus_sim::nic::TxCsum as CsumOffload;

/// Computes a deferred checksum over `m` (the full frame as it will be
/// serialized) exactly as the offloading NIC does during the DMA gather —
/// but walking the mbuf chain in place, for tests and host-side
/// verification, rather than over the gathered wire image.
pub fn compute_offload(req: &CsumOffload, m: &Mbuf) -> u16 {
    let total = m.total_len();
    debug_assert!(req.start_from_end <= total && req.field_from_end + 2 <= total);
    let v = checksum_mbuf_from(m, total - req.start_from_end, req.pseudo);
    if v == 0 && req.zero_to_ones {
        0xFFFF
    } else {
        v
    }
}

/// RFC 1624 incremental update: given the old checksum and a 16-bit field
/// change `old -> new`, returns the new checksum without rescanning.
pub fn incremental_update(check: u16, old: u16, new: u16) -> u16 {
    // HC' = ~(~HC + ~m + m') (RFC 1624 eqn. 3).
    let mut sum = (!check as u32) + (!old as u32) + new as u32;
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rfc1071_worked_example() {
        // RFC 1071 §3 example data.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0xddf2, checksum = ~0xddf2 = 0x220d.
        assert_eq!(checksum(&data), 0x220d);
    }

    #[test]
    fn checksum_of_message_including_its_checksum_is_zero() {
        let mut data = vec![0x45u8, 0x00, 0x00, 0x1c, 0xab, 0xcd, 0x00, 0x00];
        let c = checksum(&data);
        data.extend_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 1;
        assert!(!verify(&data), "corruption must be detected");
    }

    #[test]
    fn odd_length_handled() {
        let data = [1u8, 2, 3];
        // 0x0102 + 0x0300 = 0x0402 -> ~ = 0xfbfd.
        assert_eq!(checksum(&data), 0xfbfd);
    }

    #[test]
    fn chunked_feeding_matches_one_shot() {
        let data: Vec<u8> = (0..=254).collect();
        for split in [1usize, 2, 7, 128, 253] {
            let mut c = Checksum::new();
            c.add(&data[..split]).add(&data[split..]);
            assert_eq!(c.finish(), checksum(&data), "split at {split}");
        }
    }

    #[test]
    fn mbuf_chain_matches_linearized() {
        let data: Vec<u8> = (0u16..5001).map(|x| (x * 7) as u8).collect();
        let m = Mbuf::from_payload(13, &data);
        assert!(m.segment_count() > 1);
        assert_eq!(checksum_mbuf(&m), checksum(&data));
    }

    #[test]
    fn seeded_chain_tail_matches_contiguous() {
        let data: Vec<u8> = (0u16..4097).map(|x| (x * 13) as u8).collect();
        let m = Mbuf::from_payload(9, &data);
        assert!(m.segment_count() > 1);
        for from in [0usize, 1, 7, 2048, 4000] {
            let mut want = Checksum::with_partial(0x1234);
            want.add(&data[from..]);
            assert_eq!(
                checksum_mbuf_from(&m, from, 0x1234),
                want.finish(),
                "from {from}"
            );
        }
    }

    #[test]
    fn offload_compute_matches_software_and_verifies() {
        // A fake transport segment: 8-byte header (checksum at offset 6)
        // plus an odd-length payload, behind 34 bytes of lower headers.
        let mut pkt = vec![0u8; 34];
        let mut seg = vec![0x11u8, 0x22, 0x00, 0x29, 0x00, 0x00, 0x00, 0x00];
        seg.extend((0u16..33).map(|x| (x * 3) as u8));
        let pseudo = {
            let mut c = Checksum::new();
            c.add_u32(0x0a000001).add_u32(0x0a000002).add_u16(17);
            c.add_u16(seg.len() as u16);
            c.partial()
        };
        // Software pass over pseudo + segment (field zeroed).
        let mut sw = Checksum::with_partial(pseudo);
        sw.add(&seg);
        let want = sw.finish();
        pkt.extend_from_slice(&seg);
        let m = Mbuf::from_payload(0, &pkt);
        let req = CsumOffload {
            start_from_end: seg.len(),
            field_from_end: seg.len() - 6,
            pseudo,
            zero_to_ones: true,
        };
        assert_eq!(compute_offload(&req, &m), want);
        // Patch the field like the NIC does; the result must verify.
        let field = pkt.len() - req.field_from_end;
        pkt[field..field + 2].copy_from_slice(&want.to_be_bytes());
        assert!(verify_checksum(&pkt[pkt.len() - seg.len()..], pseudo));
        pkt[field] ^= 0x40;
        assert!(!verify_checksum(&pkt[pkt.len() - seg.len()..], pseudo));
    }

    /// Oracle for the word-at-a-time sum, two bytes per step: the exact
    /// unfolded sum of `partial` and the chunks' big-endian words, an odd
    /// byte carried into the next chunk.
    fn byte_pair_sum(partial: u32, chunks: &[&[u8]]) -> u64 {
        let mut sum = u64::from(partial);
        let mut pending = None;
        for &b in chunks.iter().flat_map(|c| c.iter()) {
            match pending.take() {
                Some(hi) => sum += u64::from(u16::from_be_bytes([hi, b])),
                None => pending = Some(b),
            }
        }
        if let Some(hi) = pending {
            sum += u64::from(u16::from_be_bytes([hi, 0]));
        }
        sum
    }

    fn oracle_checksum(sum: u64) -> u16 {
        let mut sum = sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn wide_sum_matches_the_byte_pair_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..3000),
            cuts in proptest::collection::vec(any::<Index>(), 0..6),
            partial in any::<u32>(),
        ) {
            let mut points: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
            points.push(data.len());
            points.sort_unstable();
            let mut chunks = Vec::new();
            let mut prev = 0;
            for p in points {
                chunks.push(&data[prev..p]);
                prev = p;
            }
            let want = byte_pair_sum(partial, &chunks);
            let mut c = Checksum::with_partial(partial);
            for chunk in &chunks {
                c.add(chunk);
            }
            prop_assert_eq!(c.finish(), oracle_checksum(want));
            if data.len() % 2 == 0 && want <= u64::from(u32::MAX) {
                prop_assert_eq!(u64::from(c.partial()), want, "partial is exact");
            }
            let req = CsumOffload {
                start_from_end: data.len(),
                field_from_end: 0,
                pseudo: partial,
                zero_to_ones: false,
            };
            prop_assert_eq!(req.compute_over(&data), oracle_checksum(want));
        }
    }

    #[test]
    fn wide_sum_flushes_its_lanes_before_they_carry() {
        // All-ones words are the worst case for the 32-bit lanes; this run
        // crosses two lane flushes and ends on an odd byte.
        let data = vec![0xFFu8; 2 * (8 << 15) + 13];
        let mut c = Checksum::new();
        c.add(&data);
        assert_eq!(c.finish(), oracle_checksum(byte_pair_sum(0, &[&data])));
        assert_eq!(
            plexus_sim::nic::ones_complement_sum(&data),
            byte_pair_sum(0, &[&data])
        );
    }

    #[test]
    fn incremental_update_matches_recompute() {
        let mut data = vec![0u8; 20];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i * 31) as u8;
        }
        let old_field = u16::from_be_bytes([data[4], data[5]]);
        let old_check = checksum(&data);
        let new_field: u16 = 0xBEEF;
        data[4..6].copy_from_slice(&new_field.to_be_bytes());
        let recomputed = checksum(&data);
        assert_eq!(
            incremental_update(old_check, old_field, new_field),
            recomputed
        );
    }
}

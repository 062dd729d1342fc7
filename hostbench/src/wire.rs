//! Seeded input generation and raw frame building/parsing.
//!
//! The workloads hand the simulator only what is generated here: whole
//! wire frames, TCP write chunks and port numbers, all derived from the
//! workload seed. The seed changes the traffic's content, never its
//! volume.

use std::net::Ipv4Addr;

use plexus_net::ether::MacAddr;
use plexus_net::ip::{encapsulate as ip_encapsulate, proto, IpHeader};
use plexus_net::mbuf::Mbuf;
use plexus_net::udp::{self, UdpConfig};

/// Ethernet + IPv4 + UDP header bytes in front of a UDP payload.
pub const UDP_PAYLOAD_OFF: usize = 14 + 20 + 8;

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted so the workloads' streams differ.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Fills `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// One side of a UDP exchange.
#[derive(Clone, Copy, Debug)]
pub struct Endpoint {
    /// Link-layer address.
    pub mac: MacAddr,
    /// Host address.
    pub ip: Ipv4Addr,
    /// UDP port.
    pub port: u16,
}

/// A complete Ethernet + IPv4 + UDP frame carrying `payload`, with a
/// real UDP checksum.
pub fn udp_frame(src: Endpoint, dst: Endpoint, payload: &[u8]) -> Vec<u8> {
    let dgram = udp::encapsulate(
        src.ip,
        dst.ip,
        src.port,
        dst.port,
        UdpConfig::default(),
        Mbuf::from_payload(64, payload),
    );
    let mut frame = ip_encapsulate(&IpHeader::simple(src.ip, dst.ip, proto::UDP, 1), dgram);
    let eth = frame.prepend(14);
    eth[0..6].copy_from_slice(&dst.mac.0);
    eth[6..12].copy_from_slice(&src.mac.0);
    eth[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
    frame.to_vec()
}

/// A UDP frame as the benchmark's raw sinks see it.
#[derive(Debug, PartialEq, Eq)]
pub struct UdpView<'a> {
    /// Destination MAC.
    pub dst_mac: [u8; 6],
    /// UDP source port.
    pub src_port: u16,
    /// UDP payload (bounded by the UDP length field).
    pub payload: &'a [u8],
}

/// Parses an Ethernet + option-less IPv4 + UDP frame; `None` for
/// anything else.
pub fn parse_udp(frame: &[u8]) -> Option<UdpView<'_>> {
    if frame.len() < UDP_PAYLOAD_OFF
        || frame[12..14] != [0x08, 0x00]
        || frame[14] != 0x45
        || frame[23] != proto::UDP
    {
        return None;
    }
    let udp_len = usize::from(u16::from_be_bytes([frame[38], frame[39]]));
    let end = (14 + 20 + udp_len).min(frame.len());
    if udp_len < 8 || end < UDP_PAYLOAD_OFF {
        return None;
    }
    Some(UdpView {
        dst_mac: frame[0..6].try_into().expect("six bytes"),
        src_port: u16::from_be_bytes([frame[34], frame[35]]),
        payload: &frame[UDP_PAYLOAD_OFF..end],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_the_parser() {
        let a = Endpoint {
            mac: MacAddr::local(1),
            ip: Ipv4Addr::new(10, 0, 0, 1),
            port: 2000,
        };
        let b = Endpoint {
            mac: MacAddr::local(2),
            ip: Ipv4Addr::new(10, 0, 0, 2),
            port: 7,
        };
        let frame = udp_frame(a, b, b"0123456789");
        let v = parse_udp(&frame).expect("a UDP frame");
        assert_eq!(v.dst_mac, b.mac.0);
        assert_eq!(v.src_port, 2000);
        assert_eq!(v.payload, b"0123456789");
    }

    #[test]
    fn rng_is_seeded_and_shuffle_permutes() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let mut v: Vec<u32> = (0..100).collect();
        a.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert!((0..1000).all(|_| a.below(10) < 10));
    }
}

//! TCP: segments, the connection state machine, sliding window, slow
//! start/congestion avoidance, and retransmission.
//!
//! The paper's TCP is commercial vendor code shared by both systems
//! (§4.2); what matters for the reproduction is that Plexus and the
//! baseline run the *same* transport logic, differing only in OS structure.
//! This module is that shared logic, written as a pure state machine: a
//! [`Tcb`] consumes segments/app calls/timer pokes and emits [`Actions`] —
//! segments to transmit, data delivered, timers to (re)arm — with no
//! dependency on the simulator, which makes it exhaustively testable.
//!
//! Time is a bare `u64` of nanoseconds supplied by the caller.

use std::collections::{BTreeMap, VecDeque};
use std::net::Ipv4Addr;

use plexus_kernel::view::{be16, be32, put_be16, put_be32};

use crate::checksum::{Checksum, CsumOffload};
use crate::ip::proto;
use crate::mbuf::{Mbuf, LEADING_SPACE};

/// TCP header length (no options on the wire after the SYN's MSS option is
/// folded into [`Tcb::mss`]; we keep headers fixed-size for simplicity).
pub const TCP_HDR_LEN: usize = 20;

/// Default maximum segment size (Ethernet-friendly).
pub const DEFAULT_MSS: usize = 1460;

/// Default receive window.
pub const DEFAULT_WINDOW: u16 = 65535;

/// TCP header flags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpFlags {
    /// No more data from sender.
    pub fin: bool,
    /// Synchronize sequence numbers.
    pub syn: bool,
    /// Reset the connection.
    pub rst: bool,
    /// Acknowledgment field significant.
    pub ack: bool,
}

impl TcpFlags {
    /// Just SYN.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        fin: false,
        rst: false,
        ack: false,
    };
    /// Just ACK.
    pub const ACK: TcpFlags = TcpFlags {
        ack: true,
        syn: false,
        fin: false,
        rst: false,
    };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
    };
    /// FIN+ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        fin: true,
        ack: true,
        syn: false,
        rst: false,
    };
    /// RST.
    pub const RST: TcpFlags = TcpFlags {
        rst: true,
        syn: false,
        fin: false,
        ack: false,
    };

    fn to_wire(self) -> u8 {
        (self.fin as u8)
            | ((self.syn as u8) << 1)
            | ((self.rst as u8) << 2)
            | ((self.ack as u8) << 4)
    }

    fn from_wire(b: u8) -> TcpFlags {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

/// A TCP segment in parsed form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// MSS option (present on SYN segments).
    pub mss: Option<u16>,
    /// Payload.
    pub payload: Vec<u8>,
}

impl TcpSegment {
    /// Serializes with a pseudo-header checksum for `src`→`dst`.
    pub fn to_bytes(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        self.to_mbuf(src, dst, false).to_vec()
    }

    /// Serializes straight into an mbuf with [`LEADING_SPACE`] spare bytes
    /// ahead of the TCP header for lower-layer encapsulation; see
    /// [`TcpSegment::encode`].
    pub fn to_mbuf(&self, src: Ipv4Addr, dst: Ipv4Addr, csum_offload: bool) -> Mbuf {
        self.encode(self.seq, self.flags, &self.payload, src, dst, csum_offload)
    }

    /// The segment writer: this segment's ports, ack, window and (on a SYN)
    /// MSS option, with the given sequence number, flags and payload. The
    /// payload is copied once, into the mbuf, so a segmentation-offload
    /// split encodes each wire chunk straight from a slice of the
    /// super-segment. A SYN carrying an MSS value emits the kind-2 option
    /// (RFC 793 §3.1).
    ///
    /// The checksum streams over the mbuf chain in place, or, with
    /// `csum_offload`, is deferred to a NIC that advertises checksum
    /// offload: the field stays zero and a [`CsumOffload`] descriptor
    /// (pseudo-header partial included) is stamped in the packet header
    /// for the adapter to fill during the DMA gather. Unlike UDP, a
    /// computed zero stays zero on the wire.
    pub fn encode(
        &self,
        seq: u32,
        flags: TcpFlags,
        payload: &[u8],
        src: Ipv4Addr,
        dst: Ipv4Addr,
        csum_offload: bool,
    ) -> Mbuf {
        let mss = self.mss.filter(|_| flags.syn);
        let hdr_len = TCP_HDR_LEN + if mss.is_some() { 4 } else { 0 };
        let len = hdr_len + payload.len();
        let mut m = Mbuf::from_payload(LEADING_SPACE + hdr_len, payload);
        let b = m.prepend(hdr_len);
        put_be16(b, 0, self.src_port);
        put_be16(b, 2, self.dst_port);
        put_be32(b, 4, seq);
        put_be32(b, 8, self.ack);
        b[12] = ((hdr_len / 4) as u8) << 4;
        b[13] = flags.to_wire();
        put_be16(b, 14, self.window);
        if let Some(mss) = mss {
            b[TCP_HDR_LEN] = 2; // Kind: MSS.
            b[TCP_HDR_LEN + 1] = 4; // Length.
            put_be16(b, TCP_HDR_LEN + 2, mss);
        }
        m.stamp_pkthdr();
        let mut c = Checksum::new();
        c.add(&src.octets())
            .add(&dst.octets())
            .add_u16(proto::TCP as u16)
            .add_u16(len as u16);
        if csum_offload {
            m.pkthdr_mut().csum = Some(CsumOffload {
                start_from_end: len,
                field_from_end: len - 16,
                pseudo: c.partial(),
                zero_to_ones: false,
            });
        } else {
            for seg in m.segments() {
                c.add(seg);
            }
            m.write_at(16, &c.finish().to_be_bytes());
        }
        m
    }

    /// Parses a segment straight from an mbuf chain and verifies its
    /// checksum: the sum streams over the chain's segments, the header is
    /// read with [`Mbuf::read_at`] and the payload is copied out once.
    /// `None` on malformed/corrupt input.
    pub fn parse(src: Ipv4Addr, dst: Ipv4Addr, m: &Mbuf) -> Option<TcpSegment> {
        let len = m.total_len();
        // The data offset is 4 bits of 32-bit words: at most 60 bytes.
        let mut hdr = [0u8; 60];
        if !m.read_at(0, &mut hdr[..TCP_HDR_LEN]) {
            return None;
        }
        let data_off = ((hdr[12] >> 4) as usize) * 4;
        if data_off < TCP_HDR_LEN || data_off > len {
            return None;
        }
        let hdr = &mut hdr[..data_off];
        m.read_at(TCP_HDR_LEN, &mut hdr[TCP_HDR_LEN..]);
        let mut c = Checksum::new();
        c.add(&src.octets())
            .add(&dst.octets())
            .add_u16(proto::TCP as u16)
            .add_u16(len as u16);
        for seg in m.segments() {
            c.add(seg);
        }
        if c.finish() != 0 {
            return None;
        }
        // Walk the options area for an MSS option (kind 2).
        let mut mss = None;
        let mut i = TCP_HDR_LEN;
        while i < data_off {
            match hdr[i] {
                0 => break,  // End of options.
                1 => i += 1, // NOP.
                2 if i + 4 <= data_off && hdr[i + 1] == 4 => {
                    mss = Some(be16(hdr, i + 2));
                    i += 4;
                }
                _ => {
                    let l = *hdr.get(i + 1)? as usize;
                    if l < 2 {
                        return None;
                    }
                    i += l;
                }
            }
        }
        let mut payload = Vec::new();
        m.copy_into(data_off, len - data_off, &mut payload);
        Some(TcpSegment {
            src_port: be16(hdr, 0),
            dst_port: be16(hdr, 2),
            seq: be32(hdr, 4),
            ack: be32(hdr, 8),
            flags: TcpFlags::from_wire(hdr[13]),
            window: be16(hdr, 14),
            mss,
            payload,
        })
    }

    /// Sequence space this segment occupies (payload + SYN/FIN).
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + self.flags.syn as u32 + self.flags.fin as u32
    }
}

/// Modular sequence comparison: `a < b`.
pub fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// Modular sequence comparison: `a <= b`.
pub fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// Connection states (RFC 793).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Passive open.
    Listen,
    /// Active open sent SYN.
    SynSent,
    /// SYN received, SYN+ACK sent.
    SynRcvd,
    /// Data transfer.
    Established,
    /// Active close, FIN sent.
    FinWait1,
    /// Our FIN acked, waiting for peer's.
    FinWait2,
    /// Peer closed, we may still send.
    CloseWait,
    /// Simultaneous close.
    Closing,
    /// Passive close, FIN sent.
    LastAck,
    /// Draining old duplicates.
    TimeWait,
}

/// What a [`Tcb`] wants done after processing an input.
#[derive(Debug, Default)]
pub struct Actions {
    /// Segments to transmit, in order.
    pub segments: Vec<TcpSegment>,
    /// The connection just reached `Established`.
    pub connected: bool,
    /// New in-order data is available via [`Tcb::take_received`].
    pub data_available: bool,
    /// The connection fully closed (reached `Closed`).
    pub closed: bool,
    /// The connection was reset by the peer.
    pub reset: bool,
    /// The peer finished sending (its FIN was consumed); no more data will
    /// arrive. The application may close its side in response.
    pub peer_fin: bool,
}

impl Actions {
    fn merge(&mut self, other: Actions) {
        self.segments.extend(other.segments);
        self.connected |= other.connected;
        self.data_available |= other.data_available;
        self.closed |= other.closed;
        self.reset |= other.reset;
        self.peer_fin |= other.peer_fin;
    }
}

const INITIAL_RTO_NS: u64 = 1_000_000_000;
const MAX_RTO_NS: u64 = 64_000_000_000;
/// 2×MSL for TIME_WAIT (shortened from 2×30 s to keep simulations brisk;
/// still far longer than any segment lifetime in the simulated networks).
const TIME_WAIT_NS: u64 = 1_000_000_000;

/// A TCP control block: one connection endpoint.
pub struct Tcb {
    state: TcpState,
    local: (Ipv4Addr, u16),
    remote: Option<(Ipv4Addr, u16)>,

    // Send sequence space.
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    snd_wnd: u32,
    /// Unacked + unsent bytes, as a ring so an ACK drains in O(acked);
    /// `send_buf[0]` is sequence `snd_una` (+1 while our SYN is unacked).
    send_buf: VecDeque<u8>,
    fin_pending: bool,
    fin_seq: Option<u32>,

    // Receive sequence space.
    rcv_nxt: u32,
    rcv_wnd: u16,
    /// Stream offset of `rcv_nxt`: payload bytes received in order.
    rcv_off: u64,
    recv_ready: Vec<u8>,
    /// Out-of-order payloads keyed by stream offset, which, unlike the raw
    /// sequence number, keeps its order across the 2^32 wrap.
    ooo: BTreeMap<u64, Vec<u8>>,
    peer_fin_seq: Option<u32>,

    // Congestion control.
    /// Congestion window, bytes.
    pub cwnd: usize,
    /// Slow-start threshold, bytes.
    pub ssthresh: usize,
    /// Maximum segment size.
    pub mss: usize,
    /// Segmentation-offload factor: the TCB emits super-segments of up to
    /// `mss * gso_segs` bytes and relies on a lower layer (the TCP manager
    /// driving a TSO-capable NIC) to split them into wire-MSS chunks. 1
    /// disables the optimization; the wire never carries more than `mss`
    /// bytes per segment either way.
    gso_segs: usize,
    dup_acks: u32,

    // Retransmission.
    rto_ns: u64,
    srtt_ns: Option<u64>,
    rttvar_ns: u64,
    rtt_sample: Option<(u32, u64)>,
    timer_deadline: Option<u64>,
    time_wait_deadline: Option<u64>,
    /// Retransmitted segments (statistics; drives the bench reports).
    pub retransmits: u64,
}

impl Tcb {
    fn new(local: (Ipv4Addr, u16), iss: u32) -> Tcb {
        Tcb {
            state: TcpState::Closed,
            local,
            remote: None,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: DEFAULT_WINDOW as u32,
            send_buf: VecDeque::new(),
            fin_pending: false,
            fin_seq: None,
            rcv_nxt: 0,
            rcv_wnd: DEFAULT_WINDOW,
            rcv_off: 0,
            recv_ready: Vec::new(),
            ooo: BTreeMap::new(),
            peer_fin_seq: None,
            cwnd: 2 * DEFAULT_MSS,
            ssthresh: 64 * 1024,
            mss: DEFAULT_MSS,
            gso_segs: 1,
            dup_acks: 0,
            rto_ns: INITIAL_RTO_NS,
            srtt_ns: None,
            rttvar_ns: 0,
            rtt_sample: None,
            timer_deadline: None,
            time_wait_deadline: None,
            retransmits: 0,
        }
    }

    /// Passive open: waits for a SYN.
    pub fn listen(local: (Ipv4Addr, u16), iss: u32) -> Tcb {
        let mut t = Tcb::new(local, iss);
        t.state = TcpState::Listen;
        t
    }

    /// Active open: returns the TCB and the SYN to transmit.
    pub fn connect(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        iss: u32,
        now_ns: u64,
    ) -> (Tcb, Actions) {
        let mut t = Tcb::new(local, iss);
        t.remote = Some(remote);
        t.state = TcpState::SynSent;
        t.snd_nxt = iss.wrapping_add(1);
        let seg = t.make_segment(iss, TcpFlags::SYN, Vec::new());
        t.arm_timer(now_ns);
        let mut a = Actions::default();
        a.segments.push(seg);
        (t, a)
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Local address/port.
    pub fn local(&self) -> (Ipv4Addr, u16) {
        self.local
    }

    /// Remote address/port, once known.
    pub fn remote(&self) -> Option<(Ipv4Addr, u16)> {
        self.remote
    }

    /// Bytes buffered but not yet acknowledged (or not yet sent).
    pub fn unacked_len(&self) -> usize {
        self.send_buf.len()
    }

    /// The next instant [`Tcb::on_timer`] should be called, if any.
    pub fn next_timeout(&self) -> Option<u64> {
        match (self.timer_deadline, self.time_wait_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Drains data received in order.
    pub fn take_received(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.recv_ready)
    }

    fn make_segment(&self, seq: u32, flags: TcpFlags, payload: Vec<u8>) -> TcpSegment {
        TcpSegment {
            src_port: self.local.1,
            dst_port: self.remote.map(|r| r.1).unwrap_or(0),
            seq,
            ack: if flags.ack { self.rcv_nxt } else { 0 },
            flags,
            window: self.advertised_window(),
            mss: if flags.syn {
                Some(self.mss as u16)
            } else {
                None
            },
            payload,
        }
    }

    /// The window we advertise: buffer capacity minus data the application
    /// has not yet drained with [`Tcb::take_received`]. A non-draining
    /// receiver closes the window and flow-controls the sender.
    fn advertised_window(&self) -> u16 {
        (self.rcv_wnd as usize).saturating_sub(self.recv_ready.len()) as u16
    }

    fn arm_timer(&mut self, now_ns: u64) {
        self.timer_deadline = Some(now_ns + self.rto_ns);
    }

    fn cancel_timer(&mut self) {
        self.timer_deadline = None;
    }

    /// Offset of `snd_una` into `send_buf` sequence space: while our SYN is
    /// unacked, sequence `snd_una` is the SYN itself, not data.
    fn syn_in_flight(&self) -> bool {
        matches!(self.state, TcpState::SynSent | TcpState::SynRcvd)
    }

    /// Enables TSO/GSO-style segmentation: output is chunked at
    /// `mss * segs` instead of `mss`, amortizing per-segment protocol
    /// processing. The layer below must split super-segments back to wire
    /// MSS before transmission (see the TCP manager). `segs` is clamped to
    /// at least 1.
    pub fn set_gso_segs(&mut self, segs: usize) {
        self.gso_segs = segs.max(1);
    }

    /// Current segmentation-offload factor (1 = disabled).
    pub fn gso_segs(&self) -> usize {
        self.gso_segs
    }

    /// Largest payload a single emitted segment may carry: the wire MSS
    /// scaled by the GSO factor.
    fn chunk_cap(&self) -> usize {
        self.mss * self.gso_segs
    }

    /// Queues application data; emits whatever the windows allow.
    pub fn send(&mut self, data: &[u8], now_ns: u64) -> Actions {
        assert!(
            matches!(
                self.state,
                TcpState::Established | TcpState::CloseWait | TcpState::SynSent | TcpState::SynRcvd
            ),
            "send in state {:?}",
            self.state
        );
        self.send_buf.extend(data);
        self.pump_output(now_ns)
    }

    /// Begins an orderly close; a FIN goes out once the send buffer drains.
    pub fn close(&mut self, now_ns: u64) -> Actions {
        let mut a = Actions::default();
        match self.state {
            TcpState::Closed | TcpState::Listen => {
                self.state = TcpState::Closed;
                a.closed = true;
                return a;
            }
            TcpState::Established => self.state = TcpState::FinWait1,
            TcpState::CloseWait => self.state = TcpState::LastAck,
            TcpState::SynSent => {
                self.state = TcpState::Closed;
                a.closed = true;
                return a;
            }
            _ => return a,
        }
        self.fin_pending = true;
        a.merge(self.pump_output(now_ns));
        a
    }

    /// Emits as much queued data (and a pending FIN) as the congestion and
    /// peer windows allow.
    fn pump_output(&mut self, now_ns: u64) -> Actions {
        let mut a = Actions::default();
        if self.syn_in_flight() {
            return a; // Nothing but the SYN until the handshake completes.
        }
        let wnd = self.snd_wnd.min(self.cwnd as u32);
        loop {
            let in_flight = self.snd_nxt.wrapping_sub(self.snd_una);
            let sent_off = in_flight as usize; // Bytes of send_buf already in flight.
            let remaining = self.send_buf.len().saturating_sub(sent_off);
            let room = wnd.saturating_sub(in_flight) as usize;
            let chunk = remaining.min(room).min(self.chunk_cap());
            if chunk == 0 {
                break;
            }
            let payload = self.send_bytes(sent_off, chunk);
            let seg = self.make_segment(self.snd_nxt, TcpFlags::ACK, payload);
            if self.rtt_sample.is_none() {
                self.rtt_sample = Some((self.snd_nxt, now_ns));
            }
            self.snd_nxt = self.snd_nxt.wrapping_add(chunk as u32);
            a.segments.push(seg);
        }
        // FIN once everything queued has been handed to the network.
        let all_sent = self.snd_nxt.wrapping_sub(self.snd_una) as usize >= self.send_buf.len();
        if self.fin_pending && all_sent && self.fin_seq.is_none() {
            let seg = self.make_segment(self.snd_nxt, TcpFlags::FIN_ACK, Vec::new());
            self.fin_seq = Some(self.snd_nxt);
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            a.segments.push(seg);
        }
        if !a.segments.is_empty() && self.timer_deadline.is_none() {
            self.arm_timer(now_ns);
        }
        // Window closed with data waiting and nothing outstanding: keep a
        // persist timer running.
        let in_flight = self.snd_nxt.wrapping_sub(self.snd_una);
        if in_flight == 0
            && !self.send_buf.is_empty()
            && self.snd_wnd.min(self.cwnd as u32) == 0
            && self.timer_deadline.is_none()
        {
            self.arm_timer(now_ns);
        }
        a
    }

    /// Handles a retransmission or TIME_WAIT timer having (possibly)
    /// expired. Call with the current time whenever [`Tcb::next_timeout`]
    /// passes.
    pub fn on_timer(&mut self, now_ns: u64) -> Actions {
        let mut a = Actions::default();
        if let Some(tw) = self.time_wait_deadline {
            if now_ns >= tw {
                self.time_wait_deadline = None;
                self.state = TcpState::Closed;
                a.closed = true;
                return a;
            }
        }
        let Some(deadline) = self.timer_deadline else {
            return a;
        };
        if now_ns < deadline {
            return a;
        }
        // Zero-window persist: nothing in flight but data queued and the
        // peer advertised no room — probe with one byte so the window
        // update cannot be lost forever (RFC 1122 §4.2.2.17).
        let flight = self.snd_nxt.wrapping_sub(self.snd_una) as usize;
        if flight == 0 && !self.syn_in_flight() {
            if !self.send_buf.is_empty() && self.snd_wnd == 0 {
                let probe = self.make_segment(self.snd_una, TcpFlags::ACK, self.send_bytes(0, 1));
                self.snd_nxt = self.snd_una.wrapping_add(1);
                self.rto_ns = (self.rto_ns * 2).min(MAX_RTO_NS);
                a.segments.push(probe);
                self.arm_timer(now_ns);
                return a;
            }
            self.cancel_timer();
            return a;
        }
        self.ssthresh = (flight / 2).max(2 * self.mss);
        self.cwnd = self.mss;
        self.dup_acks = 0;
        self.rto_ns = (self.rto_ns * 2).min(MAX_RTO_NS);
        self.rtt_sample = None; // Karn's algorithm: no samples on rexmit.
        self.retransmits += 1;
        a.segments.push(self.retransmit_head());
        self.arm_timer(now_ns);
        a
    }

    /// Builds the oldest outstanding segment for retransmission.
    fn retransmit_head(&self) -> TcpSegment {
        match self.state {
            TcpState::SynSent => self.make_segment(self.iss, TcpFlags::SYN, Vec::new()),
            TcpState::SynRcvd => self.make_segment(self.iss, TcpFlags::SYN_ACK, Vec::new()),
            _ => {
                if let Some(fin_seq) = self.fin_seq {
                    if self.snd_una == fin_seq {
                        return self.make_segment(fin_seq, TcpFlags::FIN_ACK, Vec::new());
                    }
                }
                let chunk = self
                    .send_buf
                    .len()
                    .min(self.chunk_cap())
                    .min(self.snd_nxt.wrapping_sub(self.snd_una) as usize);
                self.make_segment(self.snd_una, TcpFlags::ACK, self.send_bytes(0, chunk))
            }
        }
    }

    /// Copies `len` bytes of the send ring, starting `off` bytes past
    /// `snd_una`, into a fresh payload.
    fn send_bytes(&self, off: usize, len: usize) -> Vec<u8> {
        let (front, back) = self.send_buf.as_slices();
        let end = off + len;
        let mut out = Vec::with_capacity(len);
        if off < front.len() {
            out.extend_from_slice(&front[off..end.min(front.len())]);
        }
        if end > front.len() {
            out.extend_from_slice(&back[off.saturating_sub(front.len())..end - front.len()]);
        }
        out
    }

    /// Processes an incoming segment addressed to this connection.
    pub fn on_segment(&mut self, seg: &TcpSegment, peer: (Ipv4Addr, u16), now_ns: u64) -> Actions {
        let mut a = Actions::default();
        if seg.flags.rst {
            if self.state != TcpState::Listen && self.state != TcpState::Closed {
                self.state = TcpState::Closed;
                self.cancel_timer();
                self.send_buf = VecDeque::new();
                a.reset = true;
                a.closed = true;
            }
            return a;
        }
        match self.state {
            TcpState::Closed => {
                a.segments.push(self.reset_for(seg));
            }
            TcpState::Listen => {
                if seg.flags.syn {
                    self.remote = Some(peer);
                    if let Some(peer_mss) = seg.mss {
                        self.mss = self.mss.min(peer_mss as usize);
                    }
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.snd_nxt = self.iss.wrapping_add(1);
                    self.snd_wnd = seg.window as u32;
                    self.state = TcpState::SynRcvd;
                    a.segments
                        .push(self.make_segment(self.iss, TcpFlags::SYN_ACK, Vec::new()));
                    self.arm_timer(now_ns);
                }
            }
            TcpState::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == self.snd_nxt {
                    if let Some(peer_mss) = seg.mss {
                        self.mss = self.mss.min(peer_mss as usize);
                    }
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.snd_una = seg.ack;
                    self.snd_wnd = seg.window as u32;
                    self.state = TcpState::Established;
                    self.cancel_timer();
                    self.rto_ns = INITIAL_RTO_NS;
                    a.connected = true;
                    a.segments
                        .push(self.make_segment(self.snd_nxt, TcpFlags::ACK, Vec::new()));
                    a.merge(self.pump_output(now_ns));
                }
            }
            _ => {
                a.merge(self.on_synchronized_segment(seg, now_ns));
            }
        }
        a
    }

    fn reset_for(&self, seg: &TcpSegment) -> TcpSegment {
        TcpSegment {
            src_port: self.local.1,
            dst_port: seg.src_port,
            seq: seg.ack,
            ack: seg.seq.wrapping_add(seg.seq_len()),
            flags: TcpFlags::RST,
            window: 0,
            mss: None,
            payload: Vec::new(),
        }
    }

    fn on_synchronized_segment(&mut self, seg: &TcpSegment, now_ns: u64) -> Actions {
        let mut a = Actions::default();

        // --- ACK processing -------------------------------------------------
        if seg.flags.ack {
            let ack = seg.ack;
            if seq_lt(self.snd_una, ack) && seq_le(ack, self.snd_nxt) {
                // New data acknowledged.
                let mut acked = ack.wrapping_sub(self.snd_una) as usize;
                if self.state == TcpState::SynRcvd {
                    // Our SYN consumed one sequence number.
                    acked = acked.saturating_sub(1);
                    self.state = TcpState::Established;
                    self.rto_ns = INITIAL_RTO_NS;
                    a.connected = true;
                }
                if self.fin_seq.is_some_and(|fin_seq| seq_lt(fin_seq, ack)) {
                    // Our FIN is acked, and with it every byte before it.
                    // Nothing follows a FIN: give the ring's capacity back.
                    self.send_buf = VecDeque::new();
                    a.merge(self.on_fin_acked());
                } else {
                    self.send_buf.drain(..acked.min(self.send_buf.len()));
                }
                self.snd_una = ack;
                self.dup_acks = 0;
                // RTT sampling (Karn-compliant: sample only set on fresh data).
                if let Some((sample_seq, sent_at)) = self.rtt_sample {
                    if seq_lt(sample_seq, ack) {
                        self.update_rtt(now_ns.saturating_sub(sent_at));
                        self.rtt_sample = None;
                    }
                }
                // Congestion window growth.
                if self.cwnd < self.ssthresh {
                    self.cwnd += self.mss; // Slow start.
                } else {
                    self.cwnd += (self.mss * self.mss / self.cwnd).max(1); // AIMD.
                }
                if self.snd_una == self.snd_nxt {
                    self.cancel_timer(); // Everything acked.
                } else {
                    self.arm_timer(now_ns); // Restart for remaining flight.
                }
            } else if ack == self.snd_una
                && self.snd_nxt != self.snd_una
                && seg.payload.is_empty()
                && !seg.flags.fin
            {
                // Duplicate ACK; three trigger fast retransmit.
                self.dup_acks += 1;
                if self.dup_acks == 3 {
                    let flight = self.snd_nxt.wrapping_sub(self.snd_una) as usize;
                    self.ssthresh = (flight / 2).max(2 * self.mss);
                    self.cwnd = self.ssthresh;
                    self.retransmits += 1;
                    a.segments.push(self.retransmit_head());
                    self.arm_timer(now_ns);
                }
            }
            self.snd_wnd = seg.window as u32;
        }

        // --- Payload processing ---------------------------------------------
        let had_payload_or_fin = !seg.payload.is_empty() || seg.flags.fin;
        if !seg.payload.is_empty() {
            self.ingest_payload(seg.seq, &seg.payload);
            if !self.recv_ready.is_empty() {
                a.data_available = true;
            }
        }
        if seg.flags.fin {
            let fin_seq = seg.seq.wrapping_add(seg.payload.len() as u32);
            self.peer_fin_seq = Some(fin_seq);
        }
        // Consume the peer's FIN only when all data before it has arrived.
        if let Some(fin_seq) = self.peer_fin_seq {
            if fin_seq == self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                self.peer_fin_seq = None;
                a.merge(self.on_peer_fin(now_ns));
            }
        }
        if had_payload_or_fin {
            // Acknowledge (immediate ACK; no delayed-ACK timer in the model).
            a.segments
                .push(self.make_segment(self.snd_nxt, TcpFlags::ACK, Vec::new()));
        }

        // Window may have opened: push more data.
        a.merge(self.pump_output(now_ns));
        a
    }

    fn ingest_payload(&mut self, seq: u32, payload: &[u8]) {
        // Stash, then drain everything now contiguous.
        if seq_le(seq, self.rcv_nxt) {
            self.accept_in_order(payload, self.rcv_nxt.wrapping_sub(seq) as usize);
        } else {
            let off = self.rcv_off + u64::from(seq.wrapping_sub(self.rcv_nxt));
            self.ooo.insert(off, payload.to_vec());
        }
        while let Some(entry) = self.ooo.first_entry() {
            let Some(skip) = self.rcv_off.checked_sub(*entry.key()) else {
                break;
            };
            let data = entry.remove();
            self.accept_in_order(&data, skip as usize);
        }
    }

    /// Delivers `data` past its first `skip` bytes, which were already
    /// received.
    fn accept_in_order(&mut self, data: &[u8], skip: usize) {
        if skip < data.len() {
            let n = data.len() - skip;
            self.recv_ready.extend_from_slice(&data[skip..]);
            self.rcv_nxt = self.rcv_nxt.wrapping_add(n as u32);
            self.rcv_off += n as u64;
        }
    }

    fn on_fin_acked(&mut self) -> Actions {
        let mut a = Actions::default();
        match self.state {
            TcpState::FinWait1 => self.state = TcpState::FinWait2,
            TcpState::Closing => {
                self.state = TcpState::TimeWait;
                self.time_wait_deadline = Some(u64::MAX); // Set on next timer call.
            }
            TcpState::LastAck => {
                self.state = TcpState::Closed;
                self.cancel_timer();
                a.closed = true;
            }
            _ => {}
        }
        a
    }

    fn on_peer_fin(&mut self, now_ns: u64) -> Actions {
        let mut a = Actions::default();
        match self.state {
            TcpState::Established => self.state = TcpState::CloseWait,
            TcpState::FinWait1 => self.state = TcpState::Closing,
            TcpState::FinWait2 => {
                self.state = TcpState::TimeWait;
                self.cancel_timer();
                self.time_wait_deadline = Some(now_ns + TIME_WAIT_NS);
            }
            _ => {}
        }
        a.peer_fin = true;
        a.data_available = !self.recv_ready.is_empty();
        a
    }

    fn update_rtt(&mut self, sample_ns: u64) {
        // Jacobson/Karels.
        match self.srtt_ns {
            None => {
                self.srtt_ns = Some(sample_ns);
                self.rttvar_ns = sample_ns / 2;
            }
            Some(srtt) => {
                let err = sample_ns.abs_diff(srtt);
                self.rttvar_ns = (3 * self.rttvar_ns + err) / 4;
                self.srtt_ns = Some((7 * srtt + sample_ns) / 8);
            }
        }
        let srtt = self.srtt_ns.expect("just set");
        self.rto_ns = (srtt + 4 * self.rttvar_ns).clamp(200_000_000, MAX_RTO_NS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::compute_offload;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 1, 0, last)
    }

    const A: u16 = 4001;
    const B: u16 = 80;

    /// Pipes actions between two TCBs until neither produces output.
    /// Returns the number of segments exchanged. `drop_nth` drops the n-th
    /// segment (0-based) crossing the wire, once.
    fn exchange(a: &mut Tcb, b: &mut Tcb, mut now: u64, drop_nth: Option<usize>) -> (usize, u64) {
        let mut to_b: Vec<TcpSegment> = Vec::new();
        let mut to_a: Vec<TcpSegment> = Vec::new();
        let mut count = 0usize;
        let mut dropped = false;
        loop {
            let mut progressed = false;
            for seg in std::mem::take(&mut to_b) {
                progressed = true;
                if Some(count) == drop_nth && !dropped {
                    dropped = true;
                    count += 1;
                    continue;
                }
                count += 1;
                let acts = b.on_segment(&seg, (ip(1), A), now);
                to_a.extend(acts.segments);
            }
            for seg in std::mem::take(&mut to_a) {
                progressed = true;
                if Some(count) == drop_nth && !dropped {
                    dropped = true;
                    count += 1;
                    continue;
                }
                count += 1;
                let acts = a.on_segment(&seg, (ip(2), B), now);
                to_b.extend(acts.segments);
            }
            if !progressed {
                // Fire any due timers to recover from drops.
                let mut fired = false;
                for is_a in [true, false] {
                    let t: &mut Tcb = if is_a { &mut *a } else { &mut *b };
                    if let Some(dl) = t.next_timeout() {
                        now = now.max(dl);
                        let acts = t.on_timer(now);
                        if !acts.segments.is_empty() {
                            fired = true;
                            if is_a {
                                to_b.extend(acts.segments);
                            } else {
                                to_a.extend(acts.segments);
                            }
                        }
                    }
                }
                if !fired && to_a.is_empty() && to_b.is_empty() {
                    break;
                }
            }
        }
        (count, now)
    }

    fn established_pair() -> (Tcb, Tcb) {
        established_pair_from(100)
    }

    fn established_pair_from(client_iss: u32) -> (Tcb, Tcb) {
        let mut server = Tcb::listen((ip(2), B), 9000);
        let (mut client, syn) = Tcb::connect((ip(1), A), (ip(2), B), client_iss, 0);
        let mut to_server = syn.segments;
        let mut to_client: Vec<TcpSegment> = Vec::new();
        while !to_server.is_empty() || !to_client.is_empty() {
            for seg in std::mem::take(&mut to_server) {
                to_client.extend(server.on_segment(&seg, (ip(1), A), 0).segments);
            }
            for seg in std::mem::take(&mut to_client) {
                to_server.extend(client.on_segment(&seg, (ip(2), B), 0).segments);
            }
        }
        assert_eq!(client.state(), TcpState::Established);
        assert_eq!(server.state(), TcpState::Established);
        (client, server)
    }

    #[test]
    fn three_way_handshake() {
        let mut server = Tcb::listen((ip(2), B), 9000);
        let (mut client, mut acts) = Tcb::connect((ip(1), A), (ip(2), B), 100, 0);
        assert_eq!(client.state(), TcpState::SynSent);
        let syn = acts.segments.pop().expect("SYN emitted");
        assert_eq!(syn.flags, TcpFlags::SYN);
        assert_eq!(syn.seq, 100);

        let acts = server.on_segment(&syn, (ip(1), A), 10);
        assert_eq!(server.state(), TcpState::SynRcvd);
        let synack = &acts.segments[0];
        assert_eq!(synack.flags, TcpFlags::SYN_ACK);
        assert_eq!(synack.ack, 101);

        let acts = client.on_segment(synack, (ip(2), B), 20);
        assert!(acts.connected);
        assert_eq!(client.state(), TcpState::Established);
        let ack = &acts.segments[0];
        assert_eq!(ack.flags, TcpFlags::ACK);

        let acts = server.on_segment(ack, (ip(1), A), 30);
        assert!(acts.connected);
        assert_eq!(server.state(), TcpState::Established);
    }

    #[test]
    fn segment_wire_round_trip_and_checksum() {
        let seg = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 0xDEADBEEF,
            ack: 0x01020304,
            flags: TcpFlags::FIN_ACK,
            window: 4096,
            mss: None,
            payload: b"payload bytes".to_vec(),
        };
        let bytes = seg.to_bytes(ip(1), ip(2));
        let parsed = TcpSegment::parse(ip(1), ip(2), &Mbuf::from_wire(&bytes)).expect("valid");
        assert_eq!(parsed, seg);
        // Corruption rejected.
        let mut bad = bytes.clone();
        bad[25] ^= 1;
        assert!(TcpSegment::parse(ip(1), ip(2), &Mbuf::from_wire(&bad)).is_none());
        // Wrong pseudo-header (spoofed address) rejected.
        assert!(TcpSegment::parse(ip(7), ip(2), &Mbuf::from_wire(&bytes)).is_none());
    }

    #[test]
    fn parse_reads_a_segment_spread_over_the_chain() {
        // A header split across mbuf segments, a payload spanning several
        // clusters, and an odd-length split feeding the checksum.
        let seg = TcpSegment {
            src_port: 7,
            dst_port: 9,
            seq: 0x1000,
            ack: 0x2000,
            flags: TcpFlags::SYN,
            window: 8192,
            mss: Some(1460),
            payload: (0u16..5001).map(|x| (x * 11) as u8).collect(),
        };
        let bytes = seg.to_bytes(ip(1), ip(2));
        for split in [1usize, 13, 23, 24, 2049] {
            let mut m = Mbuf::from_wire(&bytes[..split]);
            m.append(Mbuf::from_wire(&bytes[split..]));
            assert_eq!(
                TcpSegment::parse(ip(1), ip(2), &m).expect("valid"),
                seg,
                "split at {split}"
            );
        }
        assert!(TcpSegment::parse(ip(1), ip(2), &Mbuf::from_wire(&bytes[..19])).is_none());
    }

    #[test]
    fn to_mbuf_matches_to_bytes_exactly() {
        for mss in [None, Some(1460u16)] {
            let seg = TcpSegment {
                src_port: 7,
                dst_port: 9,
                seq: 0x1000,
                ack: 0x2000,
                flags: if mss.is_some() {
                    TcpFlags::SYN
                } else {
                    TcpFlags::FIN_ACK
                },
                window: 8192,
                mss,
                payload: (0..200u8).collect(),
            };
            let bytes = seg.to_bytes(ip(1), ip(2));
            let m = seg.to_mbuf(ip(1), ip(2), false);
            assert_eq!(m.to_vec(), bytes, "mss={mss:?}");
            // The leading space really is there for lower layers.
            let mut m2 = seg.to_mbuf(ip(1), ip(2), false);
            m2.prepend(LEADING_SPACE);
            // And the wire form still parses + verifies.
            assert_eq!(TcpSegment::parse(ip(1), ip(2), &m).expect("valid"), seg);
        }
    }

    #[test]
    fn offloaded_checksum_matches_the_software_pass_byte_for_byte() {
        let seg = TcpSegment {
            src_port: 7,
            dst_port: 9,
            seq: 0x1000,
            ack: 0x2000,
            flags: TcpFlags::ACK,
            window: 8192,
            mss: None,
            payload: (0u16..777).map(|x| (x * 5) as u8).collect(),
        };
        let sw = seg.to_mbuf(ip(1), ip(2), false);
        let mut hw = seg.to_mbuf(ip(1), ip(2), true);
        let req = hw.pkthdr().unwrap().csum.expect("offload stamped");
        let mut wire = hw.to_vec();
        assert_eq!(&wire[16..18], &[0, 0], "field deferred to the NIC");
        let v = compute_offload(&req, &hw);
        let field = wire.len() - req.field_from_end;
        wire[field..field + 2].copy_from_slice(&v.to_be_bytes());
        assert_eq!(wire, sw.to_vec(), "NIC-filled frame identical to software");
        // And it parses + verifies as a received segment.
        hw.write_at(16, &v.to_be_bytes());
        assert_eq!(TcpSegment::parse(ip(1), ip(2), &hw).expect("valid"), seg);
    }

    #[test]
    fn gso_emits_super_segments_that_partial_acks_still_cover() {
        let (mut client, mut server) = established_pair();
        client.set_gso_segs(4);
        client.cwnd = 64 * 1024;
        let data: Vec<u8> = (0u32..10_000).map(|x| (x * 3) as u8).collect();
        let acts = client.send(&data, 1000);
        assert!(
            acts.segments.iter().any(|s| s.payload.len() > client.mss),
            "GSO emits super-segments beyond one MSS"
        );
        for s in &acts.segments {
            assert!(s.payload.len() <= client.mss * 4, "bounded by mss*gso_segs");
        }
        // The receiver still reassembles the full stream when a lower
        // layer resegments each super-segment at wire MSS.
        let mut got = Vec::new();
        for s in &acts.segments {
            let mut off = 0;
            while off < s.payload.len() {
                let take = (s.payload.len() - off).min(client.mss);
                let wire_seg = TcpSegment {
                    seq: s.seq.wrapping_add(off as u32),
                    payload: s.payload[off..off + take].to_vec(),
                    ..s.clone()
                };
                let a = server.on_segment(&wire_seg, (ip(1), client.local().1), 2000);
                got.extend(server.take_received());
                for ack in &a.segments {
                    client.on_segment(ack, (ip(2), server.local().1), 3000);
                }
                off += take;
            }
        }
        assert_eq!(got, data, "stream intact across resegmentation");
        assert_eq!(client.unacked_len(), 0, "everything acknowledged");
    }

    #[test]
    fn data_flows_and_is_acked() {
        let (mut client, mut server) = established_pair();
        let data = vec![0xABu8; 5000];
        let acts = client.send(&data, 1000);
        assert!(acts.segments.len() >= 2, "5000 B > one MSS");
        let mut got = Vec::new();
        let mut to_client = Vec::new();
        for seg in &acts.segments {
            let sa = server.on_segment(seg, (ip(1), A), 1100);
            if sa.data_available {
                got.extend(server.take_received());
            }
            to_client.extend(sa.segments);
        }
        for seg in &to_client {
            client.on_segment(seg, (ip(2), B), 1200);
        }
        // Window may have limited the first flight; keep pumping.
        let (_, _) = exchange(&mut client, &mut server, 1300, None);
        got.extend(server.take_received());
        assert_eq!(got, data);
        assert_eq!(client.unacked_len(), 0, "all data acked");
        assert_eq!(client.next_timeout(), None, "timer cancelled");
    }

    #[test]
    fn lost_data_segment_is_retransmitted() {
        let (mut client, mut server) = established_pair();
        let data: Vec<u8> = (0u16..6000).map(|x| x as u8).collect();
        let acts = client.send(&data, 0);
        let mut pending = acts.segments;
        // Drop the first data segment.
        pending.remove(0);
        let mut to_client = Vec::new();
        for seg in &pending {
            to_client.extend(server.on_segment(seg, (ip(1), A), 10).segments);
        }
        for seg in &to_client {
            client.on_segment(seg, (ip(2), B), 20);
        }
        let before = client.retransmits;
        exchange(&mut client, &mut server, 30, None);
        assert!(client.retransmits > before, "a retransmission happened");
        let mut got = server.take_received();
        // Some data may still be buffered out-of-order until rexmit lands.
        exchange(&mut client, &mut server, 1_000_000, None);
        got.extend(server.take_received());
        assert_eq!(got, data);
    }

    #[test]
    fn out_of_order_segments_reassemble() {
        let (mut client, mut server) = established_pair();
        let data: Vec<u8> = (0u16..4000).map(|x| (x * 7) as u8).collect();
        let acts = client.send(&data, 0);
        let mut segs = acts.segments;
        segs.reverse();
        let mut acks = Vec::new();
        for seg in &segs {
            acks.extend(server.on_segment(seg, (ip(1), A), 10).segments);
        }
        for seg in &acks {
            client.on_segment(seg, (ip(2), B), 20);
        }
        exchange(&mut client, &mut server, 30, None);
        let mut got = server.take_received();
        exchange(&mut client, &mut server, 40, None);
        got.extend(server.take_received());
        assert_eq!(got, data);
    }

    #[test]
    fn duplicate_acks_trigger_fast_retransmit() {
        let (mut client, mut server) = established_pair();
        // Inflate cwnd so four segments go out at once.
        client.cwnd = 64 * 1024;
        let data = vec![1u8; DEFAULT_MSS * 4];
        let acts = client.send(&data, 0);
        assert_eq!(acts.segments.len(), 4);
        // Deliver segments 1..4, skipping 0: three dup ACKs result.
        let mut dup_acks = Vec::new();
        for seg in &acts.segments[1..] {
            dup_acks.extend(server.on_segment(seg, (ip(1), A), 10).segments);
        }
        assert_eq!(dup_acks.len(), 3);
        let before = client.retransmits;
        let mut rexmit = Vec::new();
        for ack in &dup_acks {
            rexmit.extend(client.on_segment(ack, (ip(2), B), 20).segments);
        }
        assert_eq!(client.retransmits, before + 1, "fast retransmit fired");
        assert!(rexmit.iter().any(|s| s.seq == dup_acks[0].ack));
    }

    #[test]
    fn slow_start_grows_cwnd_exponentially() {
        let (mut client, mut server) = established_pair();
        let start_cwnd = client.cwnd;
        let data = vec![0u8; 64 * 1024];
        let acts = client.send(&data, 0);
        let mut to_client = Vec::new();
        for seg in &acts.segments {
            to_client.extend(server.on_segment(seg, (ip(1), A), 10).segments);
        }
        let acks = to_client.len();
        for seg in &to_client {
            client.on_segment(seg, (ip(2), B), 20);
        }
        assert!(acks >= 1);
        assert_eq!(
            client.cwnd,
            start_cwnd + acks * client.mss,
            "one MSS per ACK during slow start"
        );
        exchange(&mut client, &mut server, 30, None);
    }

    #[test]
    fn rto_collapses_cwnd() {
        let (mut client, mut _server) = established_pair();
        client.cwnd = 32 * 1024;
        let acts = client.send(&vec![0u8; 8 * 1024], 0);
        assert!(!acts.segments.is_empty());
        let deadline = client.next_timeout().expect("rexmit timer armed");
        let acts = client.on_timer(deadline);
        assert_eq!(acts.segments.len(), 1, "retransmit the head segment");
        assert_eq!(client.cwnd, client.mss, "multiplicative decrease");
        assert!(client.ssthresh >= 2 * client.mss);
    }

    #[test]
    fn orderly_close_walks_the_states() {
        let (mut client, mut server) = established_pair();
        let acts = client.close(0);
        assert_eq!(client.state(), TcpState::FinWait1);
        let fin = &acts.segments[0];
        assert!(fin.flags.fin);

        let sa = server.on_segment(fin, (ip(1), A), 10);
        assert_eq!(server.state(), TcpState::CloseWait);
        for seg in &sa.segments {
            client.on_segment(seg, (ip(2), B), 20);
        }
        assert_eq!(client.state(), TcpState::FinWait2);

        let sa = server.close(30);
        assert_eq!(server.state(), TcpState::LastAck);
        let mut last_ack = Vec::new();
        for seg in &sa.segments {
            last_ack.extend(client.on_segment(seg, (ip(2), B), 40).segments);
        }
        assert_eq!(client.state(), TcpState::TimeWait);
        let final_acts: Vec<Actions> = last_ack
            .iter()
            .map(|seg| server.on_segment(seg, (ip(1), A), 50))
            .collect();
        assert_eq!(server.state(), TcpState::Closed);
        assert!(final_acts.iter().any(|a| a.closed));

        // TIME_WAIT expires back to CLOSED.
        let dl = client.next_timeout().expect("time-wait timer");
        let acts = client.on_timer(dl);
        assert!(acts.closed);
        assert_eq!(client.state(), TcpState::Closed);
    }

    #[test]
    fn data_before_fin_is_delivered_despite_reordering() {
        let (mut client, mut server) = established_pair();
        let data = b"last words".to_vec();
        let mut segs = client.send(&data, 0).segments;
        segs.extend(client.close(0).segments);
        assert!(segs.iter().any(|s| s.flags.fin));
        segs.reverse(); // FIN arrives before the data.
        for seg in &segs {
            server.on_segment(seg, (ip(1), A), 10);
        }
        assert_eq!(server.take_received(), data);
        assert_eq!(server.state(), TcpState::CloseWait, "FIN consumed in order");
    }

    #[test]
    fn peer_reset_tears_down() {
        let (mut client, _server) = established_pair();
        let rst = TcpSegment {
            src_port: B,
            dst_port: A,
            seq: 0,
            ack: 0,
            flags: TcpFlags::RST,
            window: 0,
            mss: None,
            payload: Vec::new(),
        };
        let acts = client.on_segment(&rst, (ip(2), B), 0);
        assert!(acts.reset);
        assert!(acts.closed);
        assert_eq!(client.state(), TcpState::Closed);
    }

    #[test]
    fn segment_to_closed_port_elicits_rst() {
        let mut closed = Tcb::new((ip(2), 9999), 1);
        let seg = TcpSegment {
            src_port: A,
            dst_port: 9999,
            seq: 55,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 100,
            mss: None,
            payload: Vec::new(),
        };
        let acts = closed.on_segment(&seg, (ip(1), A), 0);
        assert_eq!(acts.segments.len(), 1);
        assert!(acts.segments[0].flags.rst);
        assert_eq!(acts.segments[0].ack, 56);
    }

    #[test]
    fn receiver_window_throttles_sender() {
        let (mut client, _server) = established_pair();
        client.cwnd = 1 << 20;
        client.snd_wnd = 2000; // Peer advertised a tiny window.
        let acts = client.send(&vec![0u8; 10_000], 0);
        let sent: usize = acts.segments.iter().map(|s| s.payload.len()).sum();
        assert!(
            sent <= 2000,
            "must respect the advertised window, sent {sent}"
        );
    }

    #[test]
    fn lost_syn_is_retransmitted() {
        let (mut client, mut acts) = Tcb::connect((ip(1), A), (ip(2), B), 100, 0);
        let _lost_syn = acts.segments.pop();
        let dl = client.next_timeout().expect("handshake timer");
        let acts = client.on_timer(dl);
        assert_eq!(acts.segments.len(), 1);
        assert_eq!(acts.segments[0].flags, TcpFlags::SYN);
        assert_eq!(client.retransmits, 1);
    }

    #[test]
    fn bulk_transfer_with_loss_completes() {
        let (mut client, mut server) = established_pair();
        let data: Vec<u8> = (0u32..40_000).map(|x| (x % 251) as u8).collect();
        let first = client.send(&data, 0);
        let mut to_server = first.segments;
        // Feed initial burst with the 2nd segment dropped, then run the
        // exchange loop (which fires timers) until quiescent.
        if to_server.len() > 1 {
            to_server.remove(1);
        }
        let mut to_client = Vec::new();
        for seg in &to_server {
            let sa = server.on_segment(seg, (ip(1), A), 10);
            to_client.extend(sa.segments);
        }
        for seg in &to_client {
            client.on_segment(seg, (ip(2), B), 20);
        }
        exchange(&mut client, &mut server, 30, None);
        let got = server.take_received();
        assert_eq!(got.len(), data.len());
        assert_eq!(got, data);
    }

    #[test]
    fn seq_arithmetic_wraps() {
        assert!(seq_lt(u32::MAX, 0));
        assert!(seq_lt(u32::MAX - 5, 5));
        assert!(!seq_lt(5, u32::MAX));
        assert!(seq_le(7, 7));
    }

    /// An ACK from the client's peer covering the first `acked` bytes of
    /// the client's stream and advertising `window`.
    fn peer_ack(client: &Tcb, acked: usize, window: u16) -> TcpSegment {
        TcpSegment {
            src_port: B,
            dst_port: A,
            seq: client.rcv_nxt,
            ack: client.iss.wrapping_add(1 + acked as u32),
            flags: TcpFlags::ACK,
            window,
            mss: None,
            payload: Vec::new(),
        }
    }

    /// Asserts that every data segment carries exactly the slice of
    /// `stream` its sequence number names.
    fn assert_payloads_match(segs: &[TcpSegment], stream: &[u8], client: &Tcb) {
        for s in segs.iter().filter(|s| !s.payload.is_empty()) {
            let off = s.seq.wrapping_sub(client.iss.wrapping_add(1)) as usize;
            assert_eq!(
                s.payload,
                stream[off..off + s.payload.len()],
                "seq {}",
                s.seq
            );
        }
    }

    /// A client whose send ring has wrapped: the 500 oldest unacked bytes
    /// sit at the end of the ring's storage and the 3,000 bytes appended
    /// after them at its start. With `window` 0 the 500 bytes are unsent
    /// and the peer's window is closed; otherwise they and the appended
    /// bytes are in flight. Returns the stream offset of the oldest byte.
    fn wrapped_client(gso: usize, stream: &[u8], window: u16) -> (Tcb, usize) {
        let (mut client, _server) = established_pair();
        client.set_gso_segs(gso);
        client.cwnd = 1 << 20;
        client.snd_wnd = 0;
        client.send(&stream[..10_000], 0);
        // Fill the ring to its capacity, so the next append cannot grow it.
        let cap = client.send_buf.capacity();
        client.send(&stream[10_000..cap], 0);
        let opened = peer_ack(&client, 0, (cap - 500) as u16);
        client.on_segment(&opened, (ip(2), B), 10);
        client.on_segment(&peer_ack(&client, cap - 500, window), (ip(2), B), 20);
        client.send(&stream[cap..cap + 3_000], 30);
        let (front, back) = client.send_buf.as_slices();
        assert_eq!((front.len(), back.len()), (500, 3_000), "ring wrapped");
        (client, cap - 500)
    }

    #[test]
    fn appends_after_a_partial_ack_wrap_the_ring_and_payloads_match_the_stream() {
        let stream: Vec<u8> = (0u32..60_000).map(|x| (x * 7 + x / 256) as u8).collect();
        for gso in [1, 8] {
            let (mut client, mut server) = established_pair();
            client.set_gso_segs(gso);
            client.cwnd = 1 << 20;
            let mut queued = 10_000;
            let mut to_server = client.send(&stream[..queued], 0).segments;
            // The peer acknowledges part of the first flight; appending
            // exactly the ring's free room then wraps its tail.
            let ack = peer_ack(&client, 4_000, DEFAULT_WINDOW);
            to_server.extend(client.on_segment(&ack, (ip(2), B), 10).segments);
            let room = client.send_buf.capacity() - client.send_buf.len();
            to_server.extend(client.send(&stream[queued..queued + room], 20).segments);
            queued += room;
            assert!(
                !client.send_buf.as_slices().1.is_empty(),
                "gso {gso}: ring wrapped"
            );
            to_server.extend(client.send(&stream[queued..], 30).segments);
            let mut got = Vec::new();
            while !to_server.is_empty() {
                assert_payloads_match(&to_server, &stream, &client);
                let mut acks = Vec::new();
                for seg in std::mem::take(&mut to_server) {
                    acks.extend(server.on_segment(&seg, (ip(1), A), 40).segments);
                    got.extend(server.take_received());
                }
                for ack in &acks {
                    to_server.extend(client.on_segment(ack, (ip(2), B), 50).segments);
                }
            }
            assert!(got == stream, "gso {gso}: the peer received the stream");
            assert_eq!(client.unacked_len(), 0);
        }
    }

    #[test]
    fn retransmission_reads_across_the_ring_wrap() {
        let stream: Vec<u8> = (0u32..80_000).map(|x| (x * 13 + x / 300) as u8).collect();
        for gso in [1, 8] {
            let (mut client, oldest) = wrapped_client(gso, &stream, DEFAULT_WINDOW);
            let dl = client.next_timeout().expect("retransmission timer armed");
            let acts = client.on_timer(dl);
            assert_eq!(client.retransmits, 1);
            let head = &acts.segments[0];
            let len = (client.mss * gso).min(3_500);
            assert_eq!(head.seq, client.snd_una);
            assert_eq!(head.payload, stream[oldest..oldest + len], "gso {gso}");
        }
    }

    #[test]
    fn zero_window_probe_reads_across_the_ring_wrap() {
        let stream: Vec<u8> = (0u32..80_000).map(|x| (x * 17 + x / 300) as u8).collect();
        let (mut client, oldest) = wrapped_client(1, &stream, 0);
        let dl = client.next_timeout().expect("persist timer armed");
        let probe = client.on_timer(dl).segments;
        assert_eq!(probe.len(), 1);
        assert_eq!(probe[0].payload, [stream[oldest]]);
        // The probe's ACK reopens the window: the rest flows from both
        // halves of the ring.
        let ack = peer_ack(&client, oldest + 1, DEFAULT_WINDOW);
        let rest = client.on_segment(&ack, (ip(2), B), dl + 1).segments;
        assert_payloads_match(&rest, &stream, &client);
        let sent: usize = rest.iter().map(|s| s.payload.len()).sum();
        assert_eq!(sent, 3_499);
    }

    #[test]
    fn unacked_len_tracks_partial_acks() {
        let (mut client, _server) = established_pair();
        client.cwnd = 1 << 20;
        client.snd_wnd = 4_000;
        client.send(&[3u8; 10_000], 0);
        // Queued but unsent bytes count as well as unacknowledged ones.
        assert_eq!(client.unacked_len(), 10_000);
        for (acked, left) in [(1_000, 9_000), (4_000, 6_000), (4_001, 5_999), (10_000, 0)] {
            let ack = peer_ack(&client, acked, 8_000);
            client.on_segment(&ack, (ip(2), B), 10);
            assert_eq!(client.unacked_len(), left, "after {acked} acked");
        }
    }

    #[test]
    fn send_ring_is_released_once_the_fin_is_acked_or_the_peer_resets() {
        let (mut client, mut server) = established_pair();
        client.send(&vec![5u8; 50_000], 0);
        exchange(&mut client, &mut server, 10, None);
        assert_eq!(client.unacked_len(), 0);
        assert!(client.send_buf.capacity() > 0, "drained, still allocated");
        client.close(20);
        exchange(&mut client, &mut server, 30, None);
        assert_eq!(client.state(), TcpState::FinWait2);
        assert_eq!(client.send_buf.capacity(), 0, "FIN acked: ring released");

        let (mut client, _server) = established_pair();
        client.send(&vec![5u8; 50_000], 0);
        let mut rst = peer_ack(&client, 0, 0);
        rst.flags = TcpFlags::RST;
        assert!(client.on_segment(&rst, (ip(2), B), 10).reset);
        assert_eq!(client.send_buf.capacity(), 0, "reset: ring released");
    }

    #[test]
    fn out_of_order_segments_reassemble_across_the_sequence_wrap() {
        let (mut client, mut server) = established_pair_from(u32::MAX - 2_000);
        client.cwnd = 1 << 20;
        let data: Vec<u8> = (0u16..4_000).map(|x| (x * 5 + x / 256) as u8).collect();
        let segs = client.send(&data, 0).segments;
        assert_eq!(segs.len(), 3);
        assert!(
            seq_lt(segs[1].seq, 0) && !seq_lt(segs[2].seq, 0),
            "straddles 2^32"
        );
        // The post-wrap segment arrives first, then the pre-wrap one behind
        // the hole, then the hole: all of it reassembles at once, with no
        // retransmission timer needed.
        for seg in [&segs[2], &segs[1], &segs[0]] {
            server.on_segment(seg, (ip(1), A), 10);
        }
        assert_eq!(server.take_received(), data);
    }

    /// Regression guard for a send buffer drained from the front by
    /// memmove, which costs O(n²) in the bytes queued at once: 64 MiB in
    /// one write must cross two loopback TCBs, delivered exactly once,
    /// within a wall-clock ceiling.
    #[test]
    fn sixty_four_mib_in_one_write_is_delivered_once_in_linear_time() {
        const LEN: usize = 64 << 20;
        let mut stream = Vec::with_capacity(LEN);
        for word in 0..(LEN / 4) as u32 {
            stream.extend_from_slice(&word.to_le_bytes());
        }
        let (mut client, mut server) = established_pair();
        let start = std::time::Instant::now();
        let mut to_server = client.send(&stream, 0).segments;
        let mut delivered = 0;
        while !to_server.is_empty() {
            let mut acks = Vec::new();
            for seg in std::mem::take(&mut to_server) {
                acks.extend(server.on_segment(&seg, (ip(1), A), 0).segments);
                let got = server.take_received();
                assert!(
                    got == stream[delivered..delivered + got.len()],
                    "at {delivered}"
                );
                delivered += got.len();
            }
            for ack in &acks {
                to_server.extend(client.on_segment(ack, (ip(2), B), 0).segments);
            }
        }
        let elapsed = start.elapsed();
        assert_eq!(delivered, LEN, "every byte delivered");
        assert_eq!(client.unacked_len(), 0);
        assert!(elapsed < LINEAR_CEILING, "took {elapsed:?}");
    }

    /// On a 2-core VM in the debug profile the ring moves the 64 MiB in
    /// about 0.16 s; a front-drained `Vec` memmoves ~1.4 TB and takes
    /// about 90 s. The ceiling sits 60× above the first and 9× below the
    /// second.
    const LINEAR_CEILING: std::time::Duration = std::time::Duration::from_secs(10);
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 9, 0, last)
    }

    #[test]
    fn mss_option_round_trips_on_the_wire() {
        let seg = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 10,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 100,
            mss: Some(536),
            payload: Vec::new(),
        };
        let bytes = seg.to_bytes(ip(1), ip(2));
        assert_eq!(bytes.len(), TCP_HDR_LEN + 4, "SYN carries a 4-byte option");
        let parsed = TcpSegment::parse(ip(1), ip(2), &Mbuf::from_wire(&bytes)).expect("valid");
        assert_eq!(parsed.mss, Some(536));
        assert_eq!(parsed, seg);
    }

    #[test]
    fn handshake_negotiates_the_smaller_mss() {
        let mut server = Tcb::listen((ip(2), 80), 9000);
        server.mss = 536; // E.g. a SLIP-attached peer.
        let (mut client, acts) = Tcb::connect((ip(1), 4000), (ip(2), 80), 100, 0);
        assert_eq!(client.mss, DEFAULT_MSS);
        let syn = &acts.segments[0];
        assert_eq!(syn.mss, Some(DEFAULT_MSS as u16));
        let sa = server.on_segment(syn, (ip(1), 4000), 0);
        assert_eq!(server.mss, 536, "server keeps its smaller MSS");
        let synack = &sa.segments[0];
        assert_eq!(synack.mss, Some(536));
        client.on_segment(synack, (ip(2), 80), 0);
        assert_eq!(client.mss, 536, "client adopts the peer's smaller MSS");
        // Data now segments at the negotiated size.
        client.cwnd = 1 << 20;
        client.snd_wnd = 1 << 16;
        let acts = client.send(&vec![0u8; 2000], 0);
        assert!(acts.segments.iter().all(|s| s.payload.len() <= 536));
    }

    #[test]
    fn receiver_window_shrinks_until_app_drains() {
        let mut server = Tcb::listen((ip(2), 80), 9000);
        let (mut client, acts) = Tcb::connect((ip(1), 4000), (ip(2), 80), 100, 0);
        let sa = server.on_segment(&acts.segments[0], (ip(1), 4000), 0);
        let ca = client.on_segment(&sa.segments[0], (ip(2), 80), 0);
        for seg in &ca.segments {
            server.on_segment(seg, (ip(1), 4000), 0);
        }
        // Client sends 10 KB; the server app never reads.
        client.snd_wnd = 1 << 16;
        client.cwnd = 1 << 20;
        let acts = client.send(&vec![7u8; 10_000], 0);
        let mut last_window = DEFAULT_WINDOW;
        for seg in &acts.segments {
            let sa = server.on_segment(seg, (ip(1), 4000), 0);
            if let Some(ack) = sa.segments.last() {
                last_window = ack.window;
            }
        }
        assert_eq!(
            last_window as usize,
            DEFAULT_WINDOW as usize - 10_000,
            "window reflects undrained data"
        );
        // Draining reopens it on the next segment's ACK.
        let drained = server.take_received();
        assert_eq!(drained.len(), 10_000);
    }

    #[test]
    fn zero_window_is_probed_until_it_reopens() {
        let (mut client, _srv) = {
            // Build an established pair quickly.
            let mut server = Tcb::listen((ip(2), 80), 9000);
            let (mut client, acts) = Tcb::connect((ip(1), 4000), (ip(2), 80), 100, 0);
            let sa = server.on_segment(&acts.segments[0], (ip(1), 4000), 0);
            let ca = client.on_segment(&sa.segments[0], (ip(2), 80), 0);
            for seg in &ca.segments {
                server.on_segment(seg, (ip(1), 4000), 0);
            }
            (client, server)
        };
        // Peer advertises a zero window.
        client.snd_wnd = 0;
        let acts = client.send(b"blocked data", 0);
        assert!(acts.segments.is_empty(), "no room: nothing may be sent");
        let dl = client.next_timeout().expect("persist timer armed");
        let acts = client.on_timer(dl);
        assert_eq!(acts.segments.len(), 1, "one-byte window probe");
        assert_eq!(acts.segments[0].payload.len(), 1);
        // The probe's ACK reopens the window; data then flows.
        let window_update = TcpSegment {
            src_port: 80,
            dst_port: 4000,
            seq: client.rcv_nxt,
            ack: client.snd_nxt,
            flags: TcpFlags::ACK,
            window: 4096,
            mss: None,
            payload: Vec::new(),
        };
        let acts = client.on_segment(&window_update, (ip(2), 80), dl + 1);
        let sent: usize = acts.segments.iter().map(|s| s.payload.len()).sum();
        assert_eq!(sent, b"blocked data".len() - 1, "remaining bytes flow");
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 11, 0, last)
    }

    fn established_pair() -> (Tcb, Tcb) {
        let mut server = Tcb::listen((ip(2), 80), 9000);
        let (mut client, acts) = Tcb::connect((ip(1), 4000), (ip(2), 80), 100, 0);
        let sa = server.on_segment(&acts.segments[0], (ip(1), 4000), 0);
        let ca = client.on_segment(&sa.segments[0], (ip(2), 80), 0);
        for seg in &ca.segments {
            server.on_segment(seg, (ip(1), 4000), 0);
        }
        (client, server)
    }

    #[test]
    fn simultaneous_close_reaches_closed_on_both_sides() {
        let (mut a, mut b) = established_pair();
        // Both sides close before seeing the other's FIN.
        let fa = a.close(0);
        let fb = b.close(0);
        assert_eq!(a.state(), TcpState::FinWait1);
        assert_eq!(b.state(), TcpState::FinWait1);
        // Cross-deliver the FINs.
        let ra: Vec<_> = fb
            .segments
            .iter()
            .flat_map(|s| a.on_segment(s, (ip(2), 80), 10).segments)
            .collect();
        let rb: Vec<_> = fa
            .segments
            .iter()
            .flat_map(|s| b.on_segment(s, (ip(1), 4000), 10).segments)
            .collect();
        assert_eq!(a.state(), TcpState::Closing);
        assert_eq!(b.state(), TcpState::Closing);
        // Cross-deliver the ACKs of the FINs.
        for s in &ra {
            b.on_segment(s, (ip(1), 4000), 20);
        }
        for s in &rb {
            a.on_segment(s, (ip(2), 80), 20);
        }
        assert_eq!(a.state(), TcpState::TimeWait);
        assert_eq!(b.state(), TcpState::TimeWait);
        // TIME_WAIT expires to CLOSED.
        let da = a.next_timeout().expect("time-wait timer");
        assert!(a.on_timer(da).closed);
        let db = b.next_timeout().expect("time-wait timer");
        assert!(b.on_timer(db).closed);
    }

    #[test]
    fn rst_during_handshake_aborts_the_client() {
        let (mut client, _syn) = Tcb::connect((ip(1), 4000), (ip(2), 80), 100, 0);
        let rst = TcpSegment {
            src_port: 80,
            dst_port: 4000,
            seq: 0,
            ack: 101,
            flags: TcpFlags::RST,
            window: 0,
            mss: None,
            payload: Vec::new(),
        };
        let acts = client.on_segment(&rst, (ip(2), 80), 10);
        assert!(acts.reset && acts.closed);
        assert_eq!(client.state(), TcpState::Closed);
        assert_eq!(client.next_timeout(), None, "handshake timer cancelled");
    }

    #[test]
    fn rto_backs_off_exponentially() {
        let (mut client, _server) = established_pair();
        client.send(&[1u8; 100], 0);
        let d1 = client.next_timeout().expect("armed");
        let a1 = client.on_timer(d1);
        assert_eq!(a1.segments.len(), 1);
        let d2 = client.next_timeout().expect("re-armed");
        let gap1 = d2 - d1;
        let a2 = client.on_timer(d2);
        assert_eq!(a2.segments.len(), 1);
        let d3 = client.next_timeout().expect("re-armed again");
        let gap2 = d3 - d2;
        assert_eq!(gap2, gap1 * 2, "doubling backoff");
        assert_eq!(client.retransmits, 2);
    }

    #[test]
    fn stale_acks_are_ignored() {
        let (mut client, mut server) = established_pair();
        let acts = client.send(&[9u8; 100], 0);
        let acks: Vec<_> = acts
            .segments
            .iter()
            .flat_map(|s| server.on_segment(s, (ip(1), 4000), 10).segments)
            .collect();
        for a in &acks {
            client.on_segment(a, (ip(2), 80), 20);
        }
        assert_eq!(client.unacked_len(), 0);
        // Replay an old ACK: must not disturb anything.
        let before_cwnd = client.cwnd;
        let mut stale = acks[0].clone();
        stale.ack = stale.ack.wrapping_sub(50); // Older than snd_una.
        let out = client.on_segment(&stale, (ip(2), 80), 30);
        assert!(out.segments.is_empty());
        assert_eq!(client.cwnd, before_cwnd);
        assert_eq!(client.state(), TcpState::Established);
    }

    #[test]
    fn duplicate_data_is_not_delivered_twice() {
        let (mut client, mut server) = established_pair();
        let acts = client.send(b"once only", 0);
        let seg = &acts.segments[0];
        server.on_segment(seg, (ip(1), 4000), 10);
        let first = server.take_received();
        assert_eq!(first, b"once only");
        // The same segment again (a spurious retransmission).
        server.on_segment(seg, (ip(1), 4000), 20);
        assert!(server.take_received().is_empty(), "no double delivery");
    }
}

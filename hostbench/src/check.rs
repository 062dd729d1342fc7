//! Output checks. A workload iteration whose outputs fail any of these
//! counts into `failed_frac`.

use std::rc::Rc;

use plexus_trace::journey::Journeys;
use plexus_trace::json;

use crate::wire::UDP_PAYLOAD_OFF;

/// Checks that every offered datagram is echoed exactly once, from the
/// port it was sent to, with an identical payload. Send times are
/// `k * gap_ns` and lead every payload, so an echo's timestamp names the
/// frame it answers.
pub struct EchoChecker {
    offered: Rc<Vec<Vec<u8>>>,
    gap_ns: u64,
    seen: Vec<bool>,
    error: Option<String>,
}

impl EchoChecker {
    /// A checker expecting an echo of every frame in `offered`.
    pub fn new(offered: Rc<Vec<Vec<u8>>>, gap_ns: u64) -> EchoChecker {
        let seen = vec![false; offered.len()];
        EchoChecker {
            offered,
            gap_ns,
            seen,
            error: None,
        }
    }

    fn fail(&mut self, msg: String) {
        self.error.get_or_insert(msg);
    }

    /// Scores one echo received from `src_port`.
    pub fn on_echo(&mut self, src_port: u16, payload: &[u8]) {
        let Some(ts) = payload.get(..8) else {
            return self.fail(format!(
                "echo of {} bytes holds no timestamp",
                payload.len()
            ));
        };
        let ts = u64::from_be_bytes(ts.try_into().expect("eight bytes"));
        let k = (ts / self.gap_ns) as usize;
        if ts % self.gap_ns != 0 || k >= self.offered.len() {
            return self.fail(format!("echo timestamp {ts} names no datagram"));
        }
        if self.seen[k] {
            return self.fail(format!("datagram {k} echoed twice"));
        }
        self.seen[k] = true;
        let frame = &self.offered[k];
        let dst_port = u16::from_be_bytes([frame[36], frame[37]]);
        if dst_port != src_port {
            return self.fail(format!(
                "datagram {k} sent to port {dst_port} echoed from {src_port}"
            ));
        }
        let sent = &frame[UDP_PAYLOAD_OFF..];
        if sent != payload {
            self.fail(format!(
                "datagram {k}: echoed payload differs ({} vs {} bytes)",
                payload.len(),
                sent.len()
            ));
        }
    }

    /// Scores a frame the generator received that is not a UDP echo.
    pub fn on_stray(&mut self) {
        self.fail(String::from(
            "generator received a frame that is not a UDP echo",
        ));
    }

    /// The verdict once the run is over.
    pub fn finish(&self) -> Result<(), String> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        match self.seen.iter().position(|s| !s) {
            Some(k) => Err(format!(
                "datagram {k} never echoed ({} of {} missing)",
                self.seen.iter().filter(|s| !**s).count(),
                self.seen.len()
            )),
            None => Ok(()),
        }
    }
}

/// Checks a TCP byte stream against the seeded pattern: in order,
/// exactly once, byte for byte.
pub struct StreamChecker {
    pattern: Rc<Vec<u8>>,
    received: usize,
    error: Option<String>,
}

impl StreamChecker {
    /// A checker expecting exactly `pattern`.
    pub fn new(pattern: Rc<Vec<u8>>) -> StreamChecker {
        StreamChecker {
            pattern,
            received: 0,
            error: None,
        }
    }

    /// Scores the next in-order chunk delivered to the application.
    pub fn on_data(&mut self, data: &[u8]) {
        let at = self.received;
        self.received += data.len();
        if self.error.is_some() {
            return;
        }
        let Some(want) = self.pattern.get(at..at + data.len()) else {
            self.error = Some(format!(
                "stream overran: {} bytes delivered, {} sent",
                self.received,
                self.pattern.len()
            ));
            return;
        };
        if let Some(i) = want.iter().zip(data).position(|(a, b)| a != b) {
            self.error = Some(format!("stream byte {} differs from the pattern", at + i));
        }
    }

    /// Bytes delivered so far.
    pub fn received(&self) -> usize {
        self.received
    }

    /// The verdict once the run is over.
    pub fn finish(&self) -> Result<(), String> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        if self.received != self.pattern.len() {
            return Err(format!(
                "stream incomplete: {} of {} bytes",
                self.received,
                self.pattern.len()
            ));
        }
        Ok(())
    }
}

/// The live tier's timeline JSON must be byte-identical to the post-hoc
/// fold's.
pub fn timelines_identical(live: &str, posthoc: &str) -> Result<(), String> {
    if live == posthoc {
        return Ok(());
    }
    let at = live
        .bytes()
        .zip(posthoc.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(live.len().min(posthoc.len()));
    Err(format!(
        "live timeline differs from timeline::build at byte {at} ({} vs {} bytes)",
        live.len(),
        posthoc.len()
    ))
}

/// Every journey's segments telescope to its end-to-end time exactly.
pub fn journeys_telescope(js: &Journeys) -> Result<(), String> {
    if js.journeys.is_empty() {
        return Err(String::from("no journeys reconstructed"));
    }
    for j in &js.journeys {
        let sum: u64 = j.segments.iter().map(|s| s.ns).sum();
        if sum != j.end_to_end_ns || j.end_to_end_ns != j.end_ns - j.start_ns {
            return Err(format!(
                "journey {}: segments sum to {sum} ns, end-to-end is {} ns",
                j.journey, j.end_to_end_ns
            ));
        }
    }
    Ok(())
}

/// Every exported document parses with `trace::json`.
pub fn documents_parse(docs: &[(&str, &str)]) -> Result<(), String> {
    for (name, doc) in docs {
        json::parse(doc).map_err(|e| format!("{name} does not parse: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use plexus_net::ether::MacAddr;

    use super::*;
    use crate::wire::{udp_frame, Endpoint};

    /// Four frames to ports 5000..5004, sent at 0, 100, 200 and 300 ns.
    fn offered() -> Rc<Vec<Vec<u8>>> {
        let end = |port| Endpoint {
            mac: MacAddr::local(1),
            ip: Ipv4Addr::new(10, 0, 0, 1),
            port,
        };
        Rc::new(
            (0..4u16)
                .map(|k| {
                    let mut payload = (u64::from(k) * 100).to_be_bytes().to_vec();
                    payload.extend_from_slice(&[k as u8; 5]);
                    udp_frame(end(2000), end(5000 + k), &payload)
                })
                .collect(),
        )
    }

    /// `(port, payload)` of each offered frame, as its echo would carry.
    fn echoes(offered: &[Vec<u8>]) -> Vec<(u16, Vec<u8>)> {
        offered
            .iter()
            .map(|f| {
                (
                    u16::from_be_bytes([f[36], f[37]]),
                    f[UDP_PAYLOAD_OFF..].to_vec(),
                )
            })
            .collect()
    }

    #[test]
    fn echo_checker_accepts_exact_echoes_and_rejects_corruption() {
        let sent = offered();
        let echoes = echoes(&sent);
        let mut ok = EchoChecker::new(sent.clone(), 100);
        for (port, p) in echoes.iter().rev() {
            ok.on_echo(*port, p);
        }
        assert_eq!(ok.finish(), Ok(()));

        let mut corrupt = EchoChecker::new(sent.clone(), 100);
        for (k, (port, p)) in echoes.iter().enumerate() {
            let mut p = p.clone();
            if k == 2 {
                p[10] ^= 1;
            }
            corrupt.on_echo(*port, &p);
        }
        assert!(corrupt.finish().unwrap_err().contains("payload differs"));

        let mut twice = EchoChecker::new(sent.clone(), 100);
        for (port, p) in echoes.iter().chain(&echoes[..1]) {
            twice.on_echo(*port, p);
        }
        assert!(twice.finish().unwrap_err().contains("twice"));

        let mut missing = EchoChecker::new(sent.clone(), 100);
        for (port, p) in &echoes[1..] {
            missing.on_echo(*port, p);
        }
        assert!(missing.finish().unwrap_err().contains("never echoed"));

        let mut wrong_port = EchoChecker::new(sent.clone(), 100);
        for (port, p) in &echoes {
            wrong_port.on_echo(port ^ 1, p);
        }
        assert!(wrong_port.finish().unwrap_err().contains("echoed from"));
    }

    #[test]
    fn stream_checker_rejects_corruption_loss_and_duplication() {
        let pattern: Rc<Vec<u8>> = Rc::new((0..1000u32).map(|i| (i * 7) as u8).collect());
        let mut ok = StreamChecker::new(pattern.clone());
        for chunk in pattern.chunks(97) {
            ok.on_data(chunk);
        }
        assert_eq!(ok.finish(), Ok(()));

        let mut corrupt = StreamChecker::new(pattern.clone());
        let mut bad = pattern.to_vec();
        bad[512] ^= 0x80;
        corrupt.on_data(&bad);
        assert!(corrupt.finish().unwrap_err().contains("byte 512"));

        let mut short = StreamChecker::new(pattern.clone());
        short.on_data(&pattern[..999]);
        assert!(short.finish().unwrap_err().contains("incomplete"));

        let mut dup = StreamChecker::new(pattern.clone());
        dup.on_data(&pattern[..100]);
        dup.on_data(&pattern[50..]);
        assert!(dup.finish().is_err(), "a replayed range shifts the stream");
    }

    #[test]
    fn timeline_check_rejects_a_changed_byte() {
        let doc = "{\"windows\": [{\"index\": 0, \"arrivals\": 12}]}";
        assert_eq!(timelines_identical(doc, doc), Ok(()));
        let corrupt = doc.replace("12", "13");
        let err = timelines_identical(doc, &corrupt).unwrap_err();
        assert!(err.contains("byte 39"), "{err}");
        assert!(documents_parse(&[("timeline", doc)]).is_ok());
        assert!(documents_parse(&[("timeline", &doc[..20])]).is_err());
    }
}

//! Figure 6's experiment: video-server CPU utilization vs. client streams.
//!
//! The server streams 30 frame/s video over the T3 to N clients
//! (N = 1..30). 15 streams saturate the 45 Mb/s link; the claim is that at
//! saturation SPIN/Plexus "consumes only half as much of the processor" as
//! DIGITAL UNIX, because the in-kernel extension moves frames from disk to
//! network without user/kernel copies or per-send traps.

use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_apps::video::{video_extension_spec, DunixVideoServer, PlexusVideoServer, VideoConfig};
use plexus_baseline::MonolithicStack;
use plexus_core::{PlexusStack, StackConfig};
use plexus_net::ether::MacAddr;
use plexus_sim::disk::Disk;
use plexus_sim::nic::NicProfile;
use plexus_sim::time::{SimDuration, SimTime};
use plexus_sim::World;

/// Which server implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VideoSystem {
    /// The in-kernel Plexus extension (SPIN).
    Spin,
    /// The user-level socket server (DIGITAL UNIX).
    Dunix,
}

impl VideoSystem {
    /// Label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            VideoSystem::Spin => "SPIN",
            VideoSystem::Dunix => "DIGITAL UNIX",
        }
    }
}

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 1, last)
}

/// One Figure 6 sample point.
#[derive(Clone, Copy, Debug)]
pub struct VideoSample {
    /// Number of client streams.
    pub streams: usize,
    /// Server CPU utilization over the measurement window (0..=1).
    pub utilization: f64,
    /// Network offered load as a fraction of the T3 line rate.
    pub offered_load: f64,
    /// Fraction of frame-datagram fragments that actually made the wire
    /// (the rest were shed at the bounded transmit ring — the server
    /// "failing to meet its deadline" once the link saturates).
    pub delivered_fraction: f64,
}

/// Runs the video server for `seconds` of simulated time with `streams`
/// clients and returns the server's CPU utilization.
pub fn video_server_utilization(
    system: VideoSystem,
    streams: usize,
    config: VideoConfig,
    seconds: u64,
) -> VideoSample {
    video_server_utilization_traced(system, streams, config, seconds, None)
}

/// [`video_server_utilization`] with a flight recorder attached to every
/// CPU, NIC, and the engine, so `plexus-replay profile` can attribute the
/// server's cycles per layer and domain.
pub fn video_server_utilization_traced(
    system: VideoSystem,
    streams: usize,
    config: VideoConfig,
    seconds: u64,
    recorder: Option<&Rc<plexus_trace::Recorder>>,
) -> VideoSample {
    let mut world = World::new();
    let server_machine = world.add_machine("video-server");
    server_machine.set_disk(Disk::video_era());
    let mut machines = vec![server_machine.clone()];
    let mut addrs = Vec::new();
    for i in 0..streams {
        let m = world.add_machine(&format!("client-{i}"));
        addrs.push(ip(10 + i as u8));
        machines.push(m);
    }
    let refs: Vec<&Rc<plexus_sim::Machine>> = machines.iter().collect();
    world.connect(
        &refs,
        NicProfile::dec_t3(),
        SimDuration::from_micros(2),
        false,
    );
    if let Some(rec) = recorder {
        world.install_recorder(rec);
    }

    // Client sinks: the monolithic stack absorbs the frames; no process is
    // blocked, so datagrams land in the socket backlog at no extra cost —
    // we are measuring the *server's* CPU, as the paper does.
    for (i, addr) in addrs.iter().enumerate() {
        let m = &machines[i + 1];
        let sink = MonolithicStack::attach(m, &m.nic(0), *addr, MacAddr::local(100 + i as u8));
        sink.seed_arp(ip(1), MacAddr::local(1));
        std::mem::forget(sink);
    }

    let until = SimTime::ZERO + SimDuration::from_secs(seconds);
    let busy0 = server_machine.cpu().busy();
    match system {
        VideoSystem::Spin => {
            let stack = PlexusStack::attach(
                &server_machine,
                &server_machine.nic(0),
                StackConfig::interrupt(ip(1), MacAddr::local(1)),
            );
            for (i, addr) in addrs.iter().enumerate() {
                stack.seed_arp(*addr, MacAddr::local(100 + i as u8));
            }
            let ext = stack
                .link_extension(&video_extension_spec("video-server"))
                .expect("video extension links");
            let _server = PlexusVideoServer::start(
                &stack,
                &ext,
                world.engine_mut(),
                addrs.clone(),
                config,
                until,
            )
            .expect("server starts");
            world.run_for(SimDuration::from_secs(seconds));
        }
        VideoSystem::Dunix => {
            let stack = MonolithicStack::attach(
                &server_machine,
                &server_machine.nic(0),
                ip(1),
                MacAddr::local(1),
            );
            for (i, addr) in addrs.iter().enumerate() {
                stack.seed_arp(*addr, MacAddr::local(100 + i as u8));
            }
            let _server =
                DunixVideoServer::start(&stack, world.engine_mut(), addrs.clone(), config, until)
                    .expect("server starts");
            world.run_for(SimDuration::from_secs(seconds));
        }
    }
    let utilization = server_machine
        .cpu()
        .utilization(busy0, SimDuration::from_secs(seconds));
    let stream_bps = config.frame_bytes as f64 * 8.0 * config.fps as f64;
    let offered_load = stream_bps * streams as f64 / NicProfile::dec_t3().bits_per_sec as f64;
    let nic_stats = server_machine.nic(0).stats();
    let attempted = nic_stats.tx_frames + nic_stats.tx_ring_drops;
    let delivered_fraction = if attempted == 0 {
        1.0
    } else {
        nic_stats.tx_frames as f64 / attempted as f64
    };
    VideoSample {
        streams,
        utilization,
        offered_load,
        delivered_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_streams_saturate_the_t3() {
        let cfg = VideoConfig::default();
        let s = video_server_utilization(VideoSystem::Spin, 15, cfg, 1);
        assert!(
            (0.9..1.15).contains(&s.offered_load),
            "15 streams should offer ~line rate: {}",
            s.offered_load
        );
    }

    #[test]
    fn spin_uses_about_half_the_cpu_of_dunix_at_saturation() {
        let cfg = VideoConfig::default();
        let spin = video_server_utilization(VideoSystem::Spin, 15, cfg, 1);
        let dunix = video_server_utilization(VideoSystem::Dunix, 15, cfg, 1);
        let ratio = dunix.utilization / spin.utilization;
        assert!(
            (1.6..3.0).contains(&ratio),
            "paper: DUNIX ~2x SPIN at 15 streams; got spin={:.3} dunix={:.3} ratio={ratio:.2}",
            spin.utilization,
            dunix.utilization
        );
    }

    #[test]
    fn utilization_grows_with_stream_count() {
        let cfg = VideoConfig::default();
        let five = video_server_utilization(VideoSystem::Spin, 5, cfg, 1);
        let fifteen = video_server_utilization(VideoSystem::Spin, 15, cfg, 1);
        assert!(fifteen.utilization > five.utilization * 2.0);
    }
}

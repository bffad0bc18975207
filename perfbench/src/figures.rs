//! Reference figures for README.md: checker cost by stream length and
//! publication cost by table occupancy (`perfbench --figures`).

use crate::model::{self, Ipv4Model};
use crate::util::Rng;
use netdebug::{Checker, Expectation, Generator, NetDebug, StreamSpec};
use netdebug_hw::{Backend, Device};
use netdebug_p4::corpus;
use std::time::Instant;

fn router(seed: u64) -> (Device, Ipv4Model) {
    let mut dev =
        Device::deploy_source(&Backend::reference(), corpus::IPV4_FORWARD).expect("deploy");
    let (routes, rules) = Ipv4Model::random(&mut Rng::new(seed, 9), 0);
    for r in &rules {
        r.install(&mut dev).expect("catch-all route");
    }
    (dev, routes)
}

/// Print both tables.
pub fn print(seed: u64) {
    println!("stream frames | session ns/frame | checker ns/frame");
    for len in [1024u64, 4096, 16384, 65536] {
        let (dev, _) = router(seed);
        let spec = StreamSpec::simple(
            1,
            model::udp_frame(2, 0x0A00_0001, 0x0A01_0203, 1, 2),
            len,
            Expectation::Forward { port: None },
        );
        let mut nd = NetDebug::new(dev.clone());
        let start = Instant::now();
        nd.run_session(std::slice::from_ref(&spec));
        let session = start.elapsed().as_secs_f64();

        let mut dev = dev;
        let frames = Generator::new().build_batch(&spec, 0, len, 0, 0);
        let pkts: Vec<(u16, &[u8])> = frames.iter().map(|p| (0, &p.data[..])).collect();
        let mut out = Vec::with_capacity(frames.len());
        dev.inject_batch_at(&pkts, &vec![0; pkts.len()], |_, p| out.push(p))
            .expect("matched lengths");
        let mut checker = Checker::new();
        checker.open_stream(1, spec.expect, len);
        let start = Instant::now();
        for (seq, p) in out.iter().enumerate() {
            checker.observe_processed(1, seq as u64, p);
        }
        let check = start.elapsed().as_secs_f64();
        println!(
            "{len:>13} | {:>16.0} | {:>16.0}",
            session * 1e9 / len as f64,
            check * 1e9 / len as f64
        );
    }

    println!("\ntable entries | publication us (mean of 128 installs)");
    let (mut dev, mut routes) = router(seed);
    let mut rng = Rng::new(seed, 10);
    for bucket in 0..7 {
        let mut total = 0.0;
        for _ in 0..128 {
            let rule = routes.add_fresh(&mut rng);
            let start = Instant::now();
            rule.install(&mut dev).expect("fits the table");
            total += start.elapsed().as_secs_f64();
        }
        println!(
            "{:>6}..{:<6} | {:>8.1}",
            bucket * 128 + 1,
            (bucket + 1) * 128 + 1,
            total * 1e6 / 128.0
        );
    }
}

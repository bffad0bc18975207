//! Verdicts computed by the benchmark itself, apart from the program.
//!
//! Each model holds the rules the benchmark installed and decides a
//! frame's fate by reading the bytes it built: no P4, no compiled
//! tables. Workload checks compare the program's outputs with these.

use crate::util::{Rng, Rule};
use netdebug::FieldSweep;
use netdebug_p4::ir::IrPattern;
use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use std::collections::HashMap;

/// Front-panel ports of the default board.
pub const PORTS: u16 = 4;

/// What the device should do with one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Sent out of one port.
    Tx(u16),
    /// Sent out of every port but the ingress.
    Flood,
    /// Dropped inside the device.
    Drop,
}

/// The frame the generator builds for `seq`: sweeps add
/// `step * (seq mod 256)` to their byte, wrapping.
pub fn frame_at(template: &[u8], sweeps: &[FieldSweep], seq: u64) -> Vec<u8> {
    let mut f = template.to_vec();
    for s in sweeps {
        if s.offset < f.len() {
            f[s.offset] = f[s.offset].wrapping_add(s.step.wrapping_mul(seq as u8));
        }
    }
    f
}

fn be32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

fn ip(a: u32) -> Ipv4Address {
    let b = a.to_be_bytes();
    Ipv4Address::new(b[0], b[1], b[2], b[3])
}

fn mac(m: u64) -> EthernetAddress {
    let b = m.to_be_bytes();
    EthernetAddress::new(b[2], b[3], b[4], b[5], b[6], b[7])
}

/// An Ethernet/IPv4/UDP frame.
pub fn udp_frame(dst_mac: u64, src: u32, dst: u32, sport: u16, dport: u16) -> Vec<u8> {
    PacketBuilder::ethernet(mac(0x0200_0000_0001), mac(dst_mac))
        .ipv4(ip(src), ip(dst))
        .udp(sport, dport)
        .payload(b"netdebug-bench")
        .build()
}

/// Byte offsets inside [`udp_frame`].
pub mod off {
    /// IPv4 version/IHL byte.
    pub const VERSION: usize = 14;
    /// IPv4 TTL.
    pub const TTL: usize = 22;
    /// IPv4 protocol.
    pub const PROTO: usize = 23;
    /// IPv4 source address.
    pub const SRC: usize = 26;
    /// IPv4 destination address.
    pub const DST: usize = 30;
    /// UDP destination port.
    pub const DPORT: usize = 36;
}

/// Rewrite the IPv4 version to 5, which the parser must reject.
pub fn malform(frame: &mut [u8]) {
    frame[off::VERSION] = 0x55;
}

fn is_ipv4(f: &[u8]) -> bool {
    f.len() >= 34 && f[12] == 0x08 && f[13] == 0x00
}

/// `ipv4_forward`: longest-prefix routes over the destination address.
#[derive(Debug, Clone, Default)]
pub struct Ipv4Model {
    /// (prefix, length, egress port).
    pub routes: Vec<(u32, u8, u16)>,
}

impl Ipv4Model {
    /// `count` distinct random routes inside 10.0.0.0/8 plus the 10/8
    /// catch-all, as the model's own table and as rules.
    pub fn random(rng: &mut Rng, count: usize) -> (Self, Vec<Rule>) {
        let mut m = Ipv4Model::default();
        m.add((0x0A00_0000, 8, rng.below(u64::from(PORTS)) as u16));
        while m.routes.len() < count + 1 {
            let len = rng.range(12, 29) as u8;
            let prefix = (0x0A00_0000 | (rng.next() as u32 & 0x00FF_FFFF)) & mask(len);
            if m.routes.iter().any(|&(p, l, _)| p == prefix && l == len) {
                continue;
            }
            m.add((prefix, len, rng.below(u64::from(PORTS)) as u16));
        }
        let rules = m.routes.iter().map(|&r| Self::rule(r)).collect();
        (m, rules)
    }

    /// Hold one more route inside 10/8, distinct from those held, and
    /// return its rule.
    pub fn add_fresh(&mut self, rng: &mut Rng) -> Rule {
        loop {
            let len = rng.range(16, 29) as u8;
            let prefix = (0x0A00_0000 | (rng.next() as u32 & 0x00FF_FFFF)) & mask(len);
            if !self.routes.iter().any(|&(p, l, _)| p == prefix && l == len) {
                let route = (prefix, len, rng.below(u64::from(PORTS)) as u16);
                self.add(route);
                return Self::rule(route);
            }
        }
    }

    /// The `ipv4_lpm` entry for a (prefix, length, port) route.
    pub fn rule((prefix, len, port): (u32, u8, u16)) -> Rule {
        let dmac = 0x0200_0000_0000 | u128::from(prefix >> 8);
        Rule::lpm(
            "ipv4_lpm",
            prefix,
            len,
            "ipv4_forward",
            vec![dmac, u128::from(port)],
        )
    }

    fn add(&mut self, route: (u32, u8, u16)) {
        self.routes.push(route);
    }

    /// Longest matching prefix's port.
    pub fn lookup(&self, dst: u32) -> Option<u16> {
        self.routes
            .iter()
            .filter(|&&(p, l, _)| dst & mask(l) == p)
            .max_by_key(|&&(_, l, _)| l)
            .map(|&(_, _, port)| port)
    }

    /// Fate of `f`; `reject_ignored` models the SDNet 2018 parser, which
    /// lets a frame the parser rejects continue through the pipeline.
    pub fn fate(&self, f: &[u8], reject_ignored: bool) -> Fate {
        if !is_ipv4(f) {
            return Fate::Drop;
        }
        if f[off::VERSION] >> 4 != 4 && !reject_ignored {
            return Fate::Drop;
        }
        if f[off::TTL] == 0 {
            return Fate::Drop;
        }
        match self.lookup(be32(&f[off::DST..])) {
            Some(port) => Fate::Tx(port),
            None => Fate::Drop,
        }
    }
}

fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    }
}

/// `l2_switch`: exact destination MAC, flood on a miss.
#[derive(Debug, Clone, Default)]
pub struct L2Model {
    /// Destination MAC → egress port.
    pub macs: HashMap<u64, u16>,
}

impl L2Model {
    /// `count` random MACs of the form 02:00:00:00:xx:yy.
    pub fn random(rng: &mut Rng, count: usize) -> (Self, Vec<Rule>) {
        let mut m = L2Model::default();
        let mut rules = Vec::new();
        while m.macs.len() < count {
            let mac = 0x0200_0000_0000 | (rng.next() & 0xFFFF);
            if m.macs.contains_key(&mac) {
                continue;
            }
            let port = rng.below(u64::from(PORTS)) as u16;
            m.macs.insert(mac, port);
            rules.push(Rule {
                table: "dmac",
                patterns: vec![IrPattern::Value(u128::from(mac))],
                action: "forward",
                args: vec![u128::from(port)],
                priority: 0,
            });
        }
        (m, rules)
    }

    /// Fate of `f`.
    pub fn fate(&self, f: &[u8]) -> Fate {
        let mut b = [0u8; 8];
        b[2..].copy_from_slice(&f[..6]);
        match self.macs.get(&u64::from_be_bytes(b)) {
            Some(&port) => Fate::Tx(port),
            None => Fate::Flood,
        }
    }
}

/// One ternary ACL rule: (value, mask) per key.
#[derive(Debug, Clone, Copy)]
pub struct AclRule {
    src: (u32, u32),
    dst: (u32, u32),
    proto: (u8, u8),
    dport: (u16, u16),
    priority: i32,
    /// `Some(port)` allows to that port; `None` drops.
    allow: Option<u16>,
}

impl AclRule {
    fn matches(&self, src: u32, dst: u32, proto: u8, dport: u16) -> bool {
        src & self.src.1 == self.src.0
            && dst & self.dst.1 == self.dst.0
            && proto & self.proto.1 == self.proto.0
            && dport & self.dport.1 == self.dport.0
    }
}

/// `acl_firewall`: highest-priority ternary match over
/// (src, dst, protocol, destination port); default drop.
#[derive(Debug, Clone, Default)]
pub struct AclModel {
    /// Installed rules.
    pub rules: Vec<AclRule>,
}

impl AclModel {
    /// `count` random rules with distinct priorities, about one in four
    /// a drop rule.
    pub fn random(rng: &mut Rng, count: usize) -> (Self, Vec<Rule>) {
        let mut m = AclModel::default();
        let mut rules = Vec::new();
        for i in 0..count {
            let src_len = [0u8, 8, 16, 24][rng.below(4) as usize];
            let dst_len = [8u8, 16, 24][rng.below(3) as usize];
            let src = (0x0A00_0000 | (rng.next() as u32 & 0x00FF_FFFF)) & mask(src_len);
            let dst = (0xC0A8_0000 | (rng.next() as u32 & 0xFFFF)) & mask(dst_len);
            let proto = if rng.below(2) == 0 {
                (17, 0xFF)
            } else {
                (0, 0)
            };
            let dport = if rng.below(2) == 0 {
                (rng.range(1, 1024) as u16, 0xFFFF)
            } else {
                ((rng.next() as u16) & 0xFF00, 0xFF00)
            };
            let allow = (rng.below(4) != 0).then(|| rng.below(u64::from(PORTS)) as u16);
            let r = AclRule {
                src: (src, mask(src_len)),
                dst: (dst, mask(dst_len)),
                proto,
                dport,
                priority: 10 + i as i32,
                allow,
            };
            let pat = |v: u128, m: u128| {
                if m == 0 {
                    IrPattern::Any
                } else {
                    IrPattern::Mask { value: v, mask: m }
                }
            };
            rules.push(Rule {
                table: "acl",
                patterns: vec![
                    pat(u128::from(r.src.0), u128::from(r.src.1)),
                    pat(u128::from(r.dst.0), u128::from(r.dst.1)),
                    pat(u128::from(r.proto.0), u128::from(r.proto.1)),
                    pat(u128::from(r.dport.0), u128::from(r.dport.1)),
                ],
                action: if allow.is_some() { "allow" } else { "drop" },
                args: allow.map(|p| vec![u128::from(p)]).unwrap_or_default(),
                priority: r.priority,
            });
            m.rules.push(r);
        }
        (m, rules)
    }

    /// A UDP 5-tuple inside rule `i`'s match space.
    pub fn tuple_in(&self, i: usize, rng: &mut Rng) -> (u32, u32, u16) {
        let r = &self.rules[i];
        let src = r.src.0 | (0x0A00_0000 | (rng.next() as u32 & 0x00FF_FFFF)) & !r.src.1;
        let dst = r.dst.0 | (0xC0A8_0000 | (rng.next() as u32 & 0xFFFF)) & !r.dst.1;
        let dport = r.dport.0 | (rng.next() as u16) & !r.dport.1;
        (src, dst, dport)
    }

    /// Fate of `f`.
    pub fn fate(&self, f: &[u8]) -> Fate {
        if !is_ipv4(f) {
            return Fate::Drop;
        }
        let proto = f[off::PROTO];
        if proto != 6 && proto != 17 {
            return Fate::Drop;
        }
        let src = be32(&f[off::SRC..]);
        let dst = be32(&f[off::DST..]);
        let dport = u16::from_be_bytes([f[off::DPORT], f[off::DPORT + 1]]);
        self.rules
            .iter()
            .filter(|r| r.matches(src, dst, proto, dport))
            .max_by_key(|r| r.priority)
            .and_then(|r| r.allow)
            .map_or(Fate::Drop, Fate::Tx)
    }
}

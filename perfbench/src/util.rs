//! Seeded randomness, quantiles and the rule shape shared by the
//! workloads.

use netdebug_dataplane::{ControlError, Dataplane};
use netdebug_hw::Device;
use netdebug_p4::ir::IrPattern;

/// splitmix64: small, seedable and identical on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that each
    /// workload part draws its own sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }
}

/// The `q`-quantile (0..=1) of `v` by linear interpolation; 0 for none.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// One table entry, installable on a [`Device`] (through its driver
/// path) or on a bare [`Dataplane`].
#[derive(Debug, Clone)]
pub struct Rule {
    /// Table name.
    pub table: &'static str,
    /// One pattern per key.
    pub patterns: Vec<IrPattern>,
    /// Bound action.
    pub action: &'static str,
    /// Action arguments.
    pub args: Vec<u128>,
    /// Priority (higher wins; prefix length for LPM).
    pub priority: i32,
}

impl Rule {
    /// An LPM entry on a 32-bit key, as `Device::install_lpm` builds it.
    pub fn lpm(
        table: &'static str,
        prefix: u32,
        len: u8,
        action: &'static str,
        args: Vec<u128>,
    ) -> Self {
        Rule {
            table,
            patterns: vec![netdebug_dataplane::lpm_pattern(
                u128::from(prefix),
                u16::from(len),
                32,
            )],
            action,
            args,
            priority: i32::from(len),
        }
    }

    /// Install on a device through its driver path.
    pub fn install(&self, device: &mut Device) -> Result<(), ControlError> {
        device.install(
            self.table,
            self.patterns.clone(),
            self.action,
            self.args.clone(),
            self.priority,
        )
    }

    /// Install on a bare data plane.
    pub fn install_dataplane(&self, dp: &mut Dataplane) -> Result<(), ControlError> {
        dp.install(
            self.table,
            self.patterns.clone(),
            self.action,
            self.args.clone(),
            self.priority,
        )
    }

    /// The same entry as a churn operation.
    pub fn churn_op(&self) -> netdebug::ChurnOp {
        netdebug::ChurnOp::Install {
            table: self.table.to_string(),
            patterns: self.patterns.clone(),
            action: self.action.to_string(),
            args: self.args.clone(),
            priority: self.priority,
        }
    }
}

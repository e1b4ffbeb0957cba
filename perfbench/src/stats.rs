//! The benchmark's own arithmetic: order statistics, the flow-model error
//! definitions, output digests, and the `/proc` and reference-file
//! parsers. Pure functions, so the self-tests below need no simulation.

/// Quantile `q` in `[0, 1]` of `xs`, interpolating linearly between the
/// two closest ranks (the "linear" method of NumPy and of Python's
/// `statistics.quantiles(..., method="inclusive")`). `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Relative error of the flow engine against the packet engine on one
/// scenario: `|flow / packet - 1|`.
pub fn flow_err(flow_bw: f64, packet_bw: f64) -> f64 {
    (flow_bw / packet_bw - 1.0).abs()
}

/// Worst and mean [`flow_err`] over `(flow, packet)` bandwidth pairs.
pub fn flow_err_max_mean(pairs: &[(f64, f64)]) -> Option<(f64, f64)> {
    if pairs.is_empty() {
        return None;
    }
    let errs: Vec<f64> = pairs.iter().map(|&(f, p)| flow_err(f, p)).collect();
    let max = errs.iter().copied().fold(0.0, f64::max);
    Some((max, errs.iter().sum::<f64>() / errs.len() as f64))
}

/// FNV-1a over a stream of 64-bit words: the digest of a workload's
/// simulated outputs (`finish_ps` and `bw_fraction` bits per run).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold in one simulation's outputs.
    pub fn run(&mut self, finish_ps: u64, bw_fraction: f64) {
        self.word(finish_ps);
        self.word(bw_fraction.to_bits());
    }
}

/// Peak resident set size in MiB from the text of `/proc/<pid>/status`
/// (its `VmHWM:` line, which the kernel gives in kB).
pub fn parse_vmhwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kb / 1024.0),
        _ => None,
    }
}

/// The integer after `"key":` in the first object that follows
/// `"section":` in a JSON document. Enough to read the committed
/// `BENCH_sim.json` reference without a JSON dependency.
pub fn json_u64_in(doc: &str, section: &str, key: &str) -> Option<u64> {
    let at = doc.find(&format!("\"{section}\""))?;
    let rest = &doc[at..];
    let k = rest.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = rest[k..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn median(xs: &[f64]) -> Option<f64> {
        quantile(xs, 0.5)
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(11.0));
        assert_eq!(quantile(&xs, 0.9), Some(10.0));
        // Between ranks: 0.25 * 3 = 0.75 of the way from 10 to 20.
        let q = quantile(&[20.0, 10.0, 40.0, 30.0], 0.25).unwrap();
        assert!((q - 17.5).abs() < 1e-12, "{q}");
    }

    #[test]
    fn flow_err_is_symmetric_in_sign_and_averages_pairs() {
        assert!((flow_err(0.5, 1.0) - 0.5).abs() < 1e-12);
        assert!((flow_err(1.5, 1.0) - 0.5).abs() < 1e-12);
        assert_eq!(flow_err(0.3, 0.3), 0.0);
        let (max, mean) = flow_err_max_mean(&[(0.71, 0.988), (1.0, 1.0), (0.112, 0.45)]).unwrap();
        let e1 = 1.0 - 0.71 / 0.988;
        let e3 = 1.0 - 0.112 / 0.45;
        assert!((max - e3).abs() < 1e-12);
        assert!((mean - (e1 + e3) / 3.0).abs() < 1e-12);
        assert_eq!(flow_err_max_mean(&[]), None);
    }

    #[test]
    fn digest_depends_on_every_bit_and_on_order() {
        let mut a = Digest::default();
        a.run(32_534_621, 0.25);
        let mut b = Digest::default();
        b.run(32_534_621, f64::from_bits(0.25f64.to_bits() ^ 1));
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.run(1, 0.5);
        c.run(2, 0.5);
        let mut d = Digest::default();
        d.run(2, 0.5);
        d.run(1, 0.5);
        assert_ne!(c, d);
    }

    #[test]
    fn vmhwm_parses_kilobytes() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  40000 kB\nVmHWM:\t   31744 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vmhwm_mib(status), Some(31.0));
        assert_eq!(parse_vmhwm_mib("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(parse_vmhwm_mib("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn reads_integers_from_the_named_section() {
        let doc = r#"{"a": {"sim_ps": 5}, "flow_scale": {"flow": {"wall_s": 1.5, "sim_ps": 32534621},
            "rate_recomputes": 1310, "rate_recomputes_full": 64}}"#;
        assert_eq!(json_u64_in(doc, "flow_scale", "sim_ps"), Some(32_534_621));
        assert_eq!(
            json_u64_in(doc, "flow_scale", "rate_recomputes"),
            Some(1310)
        );
        assert_eq!(
            json_u64_in(doc, "flow_scale", "rate_recomputes_full"),
            Some(64)
        );
        assert_eq!(json_u64_in(doc, "a", "sim_ps"), Some(5));
        assert_eq!(json_u64_in(doc, "flow_scale", "missing"), None);
        assert_eq!(json_u64_in(doc, "nope", "sim_ps"), None);
    }
}

//! Metric names and units, the correctness ledger, and the output: a
//! human-readable table on stderr and one JSON object as the last line
//! of stdout.

use crate::clock::Reading;
use crate::stats::{self, Digest};
use hammingmesh::topologies::TopologyChoice;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ref_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("ok_share", "ratio"),
    ("flow_err_max", "ratio"),
    ("flow_err_mean", "ratio"),
];

/// hxserve specs of the quick suite, in run order.
pub const SPECS: [&str; 6] = [
    "fig10_midrun",
    "fig10_routed",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
];

/// Cluster lifetimes of the quick suite (`in_situ` sums the three loads
/// run with in-situ failure handling).
pub const CLUSTER_RUNS: [&str; 4] = ["light", "medium", "heavy", "in_situ"];

/// Per-layer metrics, reported by every workload's traced run (0 where a
/// workload does not reach the layer).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("hxnet.build_s", "s"),
        ("hxnet.candidates_calls", "count"),
        ("hxnet.candidates_ns", "ns"),
        ("hxnet.waypoint_options_calls", "count"),
        ("hxsim.flow.run_s", "s"),
        ("hxsim.flow.epochs", "count"),
        ("hxsim.flow.rate_recomputes", "count"),
        ("hxsim.flow.full_refill_share", "ratio"),
        ("hxsim.flow.rate_touched_flows", "count"),
        ("hxsim.flow.rate_changed_flows", "count"),
        ("hxsim.flow.useful_refill_share", "ratio"),
        ("hxsim.flow.ns_per_touched_flow", "ns"),
        ("hxsim.flow.flows_rerouted", "count"),
        ("hxsim.packet.run_s", "s"),
        ("hxsim.packet.events", "count"),
        ("hxsim.packet.events_per_s", "1/s"),
        ("hxsim.packet.packets_forwarded", "count"),
        ("hxsim.packet.packet_stalls", "count"),
        ("hxsim.packet.retransmits", "count"),
        ("app.callbacks", "count"),
        ("app.callback_s", "s"),
        ("hxserve.parse_s", "s"),
        ("hxserve.cell_ms.p50", "ms"),
        ("hxserve.cell_ms.p90", "ms"),
        ("hxserve.pool_busy_share", "ratio"),
        ("hxserve.warm_s", "s"),
        ("hxserve.warm_hit_share", "ratio"),
        ("hxserve.warm_us_per_cell", "us"),
        ("hxcluster.sim_invocations", "count"),
        ("hxcluster.resims", "count"),
        ("hxcluster.defrag_passes", "count"),
        ("hxalloc.fig8_s", "s"),
        ("trace_overhead", "ratio"),
        ("process.peak_rss_mb", "MiB"),
        ("host.wall_s", "s"),
        ("host.ref_ms", "ms"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    let topologies = TopologyChoice::all().map(TopologyChoice::spec_name);
    for t in topologies {
        for e in ["flow", "packet"] {
            v.push((format!("model.bw_fraction.{t}.{e}"), "ratio"));
        }
    }
    for e in ["flow", "packet"] {
        for t in topologies {
            v.push((format!("hxsim.{e}.run_s.{t}"), "s"));
        }
    }
    for s in SPECS {
        v.push((format!("hxserve.cold_s.{s}"), "s"));
    }
    for c in CLUSTER_RUNS {
        v.push((format!("hxcluster.run_s.{c}"), "s"));
    }
    v
}

/// Reference digests of each workload's simulated outputs, from this
/// code: `any_seed` covers the outputs no seed reaches and must match at
/// every seed, `seed_1` covers all outputs at seed 1. A change that moves
/// simulated outputs on purpose re-records them from the `digest` lines a
/// run prints on stderr.
const DIGESTS: &str = include_str!("../digests.json");

/// Digests of one pass's simulated outputs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outputs {
    /// The outputs no seed reaches.
    pub any_seed: Digest,
    /// Every output.
    pub all: Digest,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    /// Samples the value summarizes (1 for a single measurement or count).
    pub n: usize,
}

/// Everything a run reports: metrics, operations attempted and failed,
/// and the messages of failed checks.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics
            .insert(name.to_string(), Metric { value, n: 1 });
    }

    /// Record quantile `q` of `samples`, with their count.
    pub fn set_quantile(&mut self, name: &str, samples: &[f64], q: f64) {
        if let Some(value) = stats::quantile(samples, q) {
            let n = samples.len();
            self.metrics.insert(name.to_string(), Metric { value, n });
        }
    }

    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        self.set_quantile(name, samples, 0.5);
    }

    /// Record the time of a workload's passes: `ref_wall_s` at the
    /// reference host speed, `host.wall_s` as the host measured it, and
    /// `host.ref_ms`, the clock's median reference sample over the run.
    pub fn set_walls(&mut self, passes: &[Reading], clock_samples: &[f64]) {
        let ref_s: Vec<f64> = passes.iter().map(|r| r.ref_s).collect();
        let raw_s: Vec<f64> = passes.iter().map(|r| r.raw_s).collect();
        self.set_median("ref_wall_s", &ref_s);
        self.set_median("host.wall_s", &raw_s);
        let ms: Vec<f64> = clock_samples.iter().map(|s| s * 1e3).collect();
        self.set_median("host.ref_ms", &ms);
        eprintln!(
            "passes: ref_wall_s {ref_s:.4?}, host wall_s {raw_s:.4?}, median reference {:.4} ms",
            stats::quantile(&ms, 0.5).unwrap_or(0.0)
        );
    }

    /// Record `flow_err_max` and `flow_err_mean` over `(flow, packet)`
    /// bandwidth pairs.
    pub fn set_flow_err(&mut self, workload: &str, pairs: &[(f64, f64)]) {
        match stats::flow_err_max_mean(pairs) {
            Some((max, mean)) => {
                self.set("flow_err_max", max);
                self.set("flow_err_mean", mean);
            }
            None => self.check(false, || format!("{workload}: no flow/packet pairs")),
        }
    }

    /// Check the output digests of a run's passes against each other and
    /// against the committed references in `digests.json`.
    pub fn check_digests(&mut self, workload: &str, seed: u64, passes: &[Outputs]) {
        let Some(&first) = passes.first() else {
            return self.check(false, || format!("{workload}: no pass ran"));
        };
        eprintln!(
            "digest {workload}: any_seed {}, seed {seed} {}",
            first.any_seed.0, first.all.0
        );
        self.check(passes.iter().all(|p| *p == first), || {
            format!("{workload}: output digests differ between passes: {passes:?}")
        });
        let mut against = |key: &str, got: Digest| {
            let want = stats::json_u64_in(DIGESTS, workload, key);
            self.check(want == Some(got.0), || {
                format!(
                    "{workload}: output digest {key} is {}, digests.json has {want:?}",
                    got.0
                )
            });
        };
        against("any_seed", first.any_seed);
        if seed == 1 {
            against("seed_1", first.all);
        }
    }

    /// Count one operation (an engine run, an hxserve cell, a cluster
    /// lifetime); `problems` lists the checks it failed.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.failures.push(format!("{what}: {p}"));
            }
        }
    }

    /// A check over a whole workload (digest repeat, cache behaviour). A
    /// failure counts as one more failed operation.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(msg());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Print every metric of `names` on stderr, then the result line on
    /// stdout. A name the workload did not set is reported as 0 (a layer
    /// it does not reach).
    pub fn emit(&self, workload: &str, trace: bool, names: &[(String, &'static str)]) {
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed.min(self.attempted.max(1))
        );
        eprintln!(
            "\n{workload} ({}):",
            if trace { "traced" } else { "untraced" }
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let (value, n) = self.metrics.get(name).map_or((0.0, 0), |m| (m.value, m.n));
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            eprintln!("  {name:<40} {value:>16.6} {unit:<6} n={n}");
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        json.push_str("}}");
        for f in &self.failures {
            eprintln!("  FAILED CHECK: {f}");
        }
        println!("{json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_reference_digests() {
        for w in ["a2a_hx4_16k", "a2a_256_both", "quick_suite"] {
            for key in ["any_seed", "seed_1"] {
                assert!(stats::json_u64_in(DIGESTS, w, key).is_some(), "{w} {key}");
            }
        }
    }

    #[test]
    fn a_digest_that_differs_from_the_reference_fails_the_run() {
        let mut rep = Report::default();
        rep.check_digests("quick_suite", 2, &[Outputs::default()]);
        assert!(!rep.correct());
        assert_eq!(rep.failed, 1);
    }
}

//! `quick_suite`: the quick-scale figures through their public entry
//! points. The six committed `hxserve` specs run cold into a fresh cache
//! directory and then warm from it; `cluster_sweep`'s three loads run
//! frozen and in situ through `ClusterSim`; and `fig8_utilization` runs
//! at `perf_smoke`'s size. The seed drives `Overrides::seed` (failure
//! draws, permutations) and the fig8 seed.

use crate::clock::{HostClock, Reading, Stopwatch};
use crate::report::{Outputs, Report, CLUSTER_RUNS, SPECS};
use crate::span::Tracer;
use crate::stats;
use hammingmesh::hxalloc::experiments::{fig8_strategies, fig8_utilization};
use hammingmesh::hxalloc::workload::JobSizeDistribution;
use hammingmesh::hxcluster::{ClusterConfig, ClusterReport, ClusterSim};
use hammingmesh::hxnet::hammingmesh::HxMeshParams;
use hammingmesh::hxsim::EngineKind;
use hammingmesh::hxtelemetry::collect;
use hxserve::{render, CellKind, CellOutput, CellRow, ExecOptions, Overrides, Plan, Scenario};
use rayon::prelude::*;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

const SOURCES: [&str; 6] = [
    include_str!("../../specs/fig10_midrun.toml"),
    include_str!("../../specs/fig10_routed.toml"),
    include_str!("../../specs/fig11.toml"),
    include_str!("../../specs/fig12.toml"),
    include_str!("../../specs/fig13.toml"),
    include_str!("../../specs/fig14.toml"),
];

/// Warm passes at each of the three points of a pass.
const WARM_REPS: usize = 3;
const MS: u64 = 1_000_000_000;
/// `cluster_sweep`'s load points: mean interarrival gaps.
const LOADS: [(&str, u64); 3] = [("light", 40 * MS), ("medium", 12 * MS), ("heavy", 5 * MS)];
const CLUSTER_JOBS: usize = 40;
const FIG8_TRACES: usize = 4000;

/// A per-run cache directory inside the working directory, removed on
/// drop.
struct CacheDir(PathBuf);

impl CacheDir {
    fn fresh(tag: &str) -> std::io::Result<CacheDir> {
        let dir =
            Path::new(".bench_tmp").join(format!("hxserve-cache-{}-{tag}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(CacheDir(dir))
    }
}

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the parent.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn parse_all(seed: u64) -> Result<Vec<Plan>, String> {
    let ov = Overrides {
        seed: Some(seed),
        ..Overrides::default()
    };
    SOURCES
        .iter()
        .zip(SPECS)
        .map(|(src, name)| {
            Scenario::parse(src)
                .map(|s| s.resolve(&ov))
                .map_err(|e| format!("{name}: {e}"))
        })
        .collect()
}

/// Bit-exact fingerprint of a row's simulated output.
fn row_bits(row: &CellRow) -> (String, u64, Vec<u64>) {
    let out = match &row.output {
        CellOutput::Bandwidth(b) => vec![b.bw_fraction.to_bits(), b.time_ps, u64::from(b.clean)],
        CellOutput::Distribution(d) => d.iter().map(|x| x.to_bits()).collect(),
    };
    (row.spec.descriptor(), row.failure_set_id, out)
}

/// The output of one spec's pass: rendered figure text and row bits.
struct SpecOut {
    rendered: String,
    bits: Vec<(String, u64, Vec<u64>)>,
    rows: Vec<CellRow>,
    hits: usize,
}

/// Run one plan through `hxserve`'s executor, counting each cell as an
/// operation; `on_row` runs on this thread after each row. A panic inside
/// the executor fails every cell of the plan.
fn run_plan(
    rep: &mut Report,
    name: &str,
    plan: &Plan,
    opts: &ExecOptions,
    on_row: &mut dyn FnMut(),
) -> Option<SpecOut> {
    match catch_unwind(AssertUnwindSafe(|| {
        hxserve::run_with(plan, opts, |_| on_row())
    })) {
        Ok(res) => {
            for row in &res.rows {
                let mut problems = Vec::new();
                match &row.output {
                    CellOutput::Bandwidth(b) if !b.clean => problems.push("not clean".into()),
                    CellOutput::Bandwidth(b) if b.bw_fraction.is_nan() || b.bw_fraction <= 0.0 => {
                        problems.push(format!("bandwidth fraction {}", b.bw_fraction))
                    }
                    CellOutput::Distribution(d) if d.len() != row.net.ranks => {
                        problems.push(format!("{} of {} ranks received", d.len(), row.net.ranks))
                    }
                    _ => {}
                }
                rep.op(&format!("{name} cell {}", row.spec.index), problems);
            }
            if res.rows.len() != plan.cells.len() {
                rep.check(false, || {
                    format!(
                        "{name}: {} rows for {} cells",
                        res.rows.len(),
                        plan.cells.len()
                    )
                });
            }
            Some(SpecOut {
                rendered: render::render(plan, &res.rows),
                bits: res.rows.iter().map(row_bits).collect(),
                hits: res.cache_hits,
                rows: res.rows,
            })
        }
        Err(_) => {
            for cell in &plan.cells {
                rep.op(
                    &format!("{name} cell {}", cell.index),
                    vec!["executor panicked".into()],
                );
            }
            None
        }
    }
}

/// Whether the seed reaches a cell: it draws the permutations and the
/// failed cables; every other cell runs its engine under the default seed.
fn seeded(kind: &CellKind) -> bool {
    match kind {
        CellKind::Permutation { .. } => true,
        CellKind::FailedAlltoall { failures, .. } | CellKind::MidrunAlltoall { failures, .. } => {
            *failures > 0
        }
        CellKind::Alltoall | CellKind::Allreduce { .. } => false,
    }
}

/// Flow-vs-packet pairs from the suite's twin cells that no seed moves:
/// the failure specs' 0-cable cells, which run on both engines.
fn pristine_pairs(outs: &[Option<SpecOut>]) -> Vec<(f64, f64)> {
    let mut pairs = Vec::new();
    for out in outs.iter().flatten() {
        for f in &out.rows {
            let pristine = matches!(
                f.spec.kind,
                CellKind::FailedAlltoall { failures: 0, .. }
                    | CellKind::MidrunAlltoall { failures: 0, .. }
            );
            if !pristine || f.spec.engine != EngineKind::Flow {
                continue;
            }
            let twin = out.rows.iter().find(|p| {
                p.spec.engine == EngineKind::Packet
                    && p.spec.kind == f.spec.kind
                    && p.spec.topology == f.spec.topology
            });
            if let (
                CellOutput::Bandwidth(fb),
                Some(CellRow {
                    output: CellOutput::Bandwidth(pb),
                    ..
                }),
            ) = (&f.output, twin)
            {
                pairs.push((fb.bw_fraction, pb.bw_fraction));
            }
        }
    }
    pairs
}

/// A cluster lifetime at one load. It keeps `ClusterConfig::quick`'s
/// seed: drawn from the workload seed, the job mix changed the cluster
/// sweep's host time by 1.5x between two of three seeds.
fn cluster_config(gap: u64, in_situ: bool) -> ClusterConfig {
    let mesh = HxMeshParams::square(2, 8);
    let boards = mesh.x * mesh.y;
    ClusterConfig {
        mesh,
        num_jobs: CLUSTER_JOBS,
        mean_interarrival_ps: gap,
        size_dist: JobSizeDistribution {
            max_boards: boards / 2,
            ..JobSizeDistribution::for_cluster(boards)
        },
        engine: EngineKind::Flow,
        in_situ_failures: in_situ,
        ..ClusterConfig::quick()
    }
}

/// Warm passes: every spec again, served from the cold pass's cache.
#[derive(Default)]
struct Warm {
    /// Host time of each warm pass over all specs.
    secs: Vec<f64>,
    cells: usize,
    hits: usize,
}

impl Warm {
    fn passes(
        &mut self,
        rep: &mut Report,
        tr: &mut Tracer,
        plans: &[Plan],
        cold: &[Option<SpecOut>],
        opts: &ExecOptions,
    ) {
        tr.span("hxserve.warm", |tr| {
            for _ in 0..WARM_REPS {
                let t = Instant::now();
                for ((plan, name), cold) in plans.iter().zip(SPECS).zip(cold) {
                    let Some(out) = tr.span(&format!("hxserve.warm/{name}"), |_| {
                        run_plan(rep, name, plan, opts, &mut || {})
                    }) else {
                        continue;
                    };
                    self.cells += out.bits.len();
                    self.hits += out.hits;
                    rep.check(out.hits == out.bits.len(), || {
                        format!(
                            "{name}: {} of {} cells hit on the warm pass",
                            out.hits,
                            out.bits.len()
                        )
                    });
                    if let Some(c) = cold {
                        rep.check(c.bits == out.bits && c.rendered == out.rendered, || {
                            format!("{name}: warm rows differ from cold rows")
                        });
                    }
                }
                self.secs.push(t.elapsed().as_secs_f64());
            }
        });
    }
}

/// Measurements of one pass.
struct Pass {
    wall: Reading,
    warm: Warm,
    cold_s: Vec<f64>,
    cold_total_s: f64,
    cluster: Vec<(String, f64, ClusterReport)>,
    fig8_s: f64,
    pairs: Vec<(f64, f64)>,
    /// Cold rows' output bits, cluster makespans and fig8 samples.
    digest: Outputs,
}

/// One pass. `between` runs after each cold spec and at each of the three
/// warm-pass points; the pass's time leaves it out.
fn pass(
    rep: &mut Report,
    tr: &mut Tracer,
    clock: &mut HostClock,
    plans: &[Plan],
    seed: u64,
    tag: &str,
    between: &mut dyn FnMut(&mut HostClock),
) -> Pass {
    let mut wall = Stopwatch::start(clock);
    // Each section's time goes to stderr: host and rescaled.
    let mut pause = |clock: &mut HostClock, wall: &mut Stopwatch, section: &str| {
        let before = wall.total;
        wall.pause(clock);
        let d = wall.total - before;
        eprintln!(
            "  {section:<20} host {:>8.3} s  ref {:>8.3} s",
            d.raw_s, d.ref_s
        );
        between(clock);
        wall.resume(clock);
    };
    // Without a writable cache directory nothing below can be measured.
    let cache = CacheDir::fresh(tag).unwrap_or_else(|e| {
        eprintln!("perfbench: cannot create the hxserve cache directory: {e}");
        std::process::exit(1)
    });
    let opts = ExecOptions {
        cache_dir: Some(cache.0.clone()),
    };

    let mut cold_s = Vec::new();
    let cold: Vec<Option<SpecOut>> = tr.span("hxserve.cold", |tr| {
        plans
            .iter()
            .zip(SPECS)
            .map(|(plan, name)| {
                let t = Instant::now();
                // Between two chunks of cells the pool is idle: the clock
                // may sample there.
                let out = tr.span(&format!("hxserve.cold/{name}"), |_| {
                    run_plan(rep, name, plan, &opts, &mut || clock.poll())
                });
                cold_s.push(t.elapsed().as_secs_f64());
                if let Some(o) = &out {
                    rep.check(o.hits == 0, || {
                        format!("{name}: {} cache hits on the cold pass", o.hits)
                    });
                }
                pause(clock, &mut wall, &format!("cold/{name}"));
                out
            })
            .collect()
    });
    let cold_total_s = cold_s.iter().sum();

    // Warm passes are spread over the rest of the pass, so that a stretch
    // of slow I/O or memory reclaim right after the cold pass cannot set
    // their median.
    let mut warm = Warm::default();
    warm.passes(rep, tr, plans, &cold, &opts);
    pause(clock, &mut wall, "warm");

    let configs: Vec<(String, ClusterConfig)> = [false, true]
        .into_iter()
        .flat_map(|in_situ| {
            LOADS.iter().map(move |&(load, gap)| {
                let label = if in_situ {
                    format!("{load}.in_situ")
                } else {
                    load.to_string()
                };
                (label, cluster_config(gap, in_situ))
            })
        })
        .collect();
    let cluster: Vec<(String, f64, ClusterReport)> = tr.span("hxcluster", |tr| {
        let timed: Vec<(String, Instant, Instant, ClusterReport)> = configs
            .into_par_iter()
            .map(|(label, cfg)| {
                let t = Instant::now();
                let report = ClusterSim::new(cfg).run();
                (label, t, Instant::now(), report)
            })
            .collect();
        timed
            .into_iter()
            .enumerate()
            .map(|(i, (label, t, end, report))| {
                tr.record(&format!("hxcluster.run/{label}"), t, end, i + 1);
                (label, (end - t).as_secs_f64(), report)
            })
            .collect()
    });
    for (label, _, report) in &cluster {
        let mut problems = Vec::new();
        if report.jobs.len() != CLUSTER_JOBS {
            problems.push(format!(
                "{} job records for {CLUSTER_JOBS} jobs",
                report.jobs.len()
            ));
        }
        if report
            .jobs
            .iter()
            .any(|j| !j.rejected && j.finish_ps < j.start_ps)
        {
            problems.push("a job finished before it started".into());
        }
        rep.op(&format!("hxcluster {label}"), problems);
    }

    warm.passes(rep, tr, plans, &cold, &opts);
    pause(clock, &mut wall, "cluster+warm");

    let t8 = Instant::now();
    let fig8 = tr.span("hxalloc.fig8", |_| {
        fig8_utilization(16, 16, FIG8_TRACES, fig8_strategies()[5], seed)
    });
    let fig8_s = t8.elapsed().as_secs_f64();
    let bad = fig8
        .samples
        .iter()
        .filter(|u| !(0.0..=1.0).contains(*u))
        .count();
    rep.check(fig8.samples.len() == FIG8_TRACES && bad == 0, || {
        format!("fig8: {} samples, {bad} outside [0, 1]", fig8.samples.len())
    });

    warm.passes(rep, tr, plans, &cold, &opts);
    pause(clock, &mut wall, "fig8+warm");
    drop(cache);

    let mut digest = Outputs::default();
    for out in cold.iter().flatten() {
        for (row, (_, fsid, bits)) in out.rows.iter().zip(&out.bits) {
            let fold = |d: &mut stats::Digest| {
                d.word(*fsid);
                bits.iter().for_each(|&b| d.word(b));
            };
            if !seeded(&row.spec.kind) {
                fold(&mut digest.any_seed);
            }
            fold(&mut digest.all);
        }
    }
    for (_, _, report) in &cluster {
        digest.all.word(report.makespan_ps);
    }
    fig8.samples
        .iter()
        .for_each(|u| digest.all.word(u.to_bits()));

    wall.pause(clock);
    Pass {
        wall: wall.total,
        warm,
        cold_s,
        cold_total_s,
        cluster,
        fig8_s,
        pairs: pristine_pairs(&cold),
        digest,
    }
}

/// Each cell alone, as a one-cell plan on a 1-thread pool with no cache:
/// the per-cell cost distribution, in ms.
fn cell_times_ms(plans: &[Plan], threads: usize) -> Vec<f64> {
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let mut ms = Vec::new();
    for plan in plans {
        for cell in &plan.cells {
            let one = Plan {
                cells: vec![cell.clone()],
                ..plan.clone()
            };
            let t = Instant::now();
            let _ = catch_unwind(AssertUnwindSafe(|| {
                hxserve::run(&one, &ExecOptions::default())
            }));
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    ms
}

pub fn run(
    rep: &mut Report,
    tr: &mut Tracer,
    clock: &mut HostClock,
    seed: u64,
    seconds: f64,
    threads: usize,
) {
    // An untraced run samples its set-up after each cold spec and at the
    // three warm-pass points as well; a traced run only before the first
    // pass.
    let points = if tr.on() { 1 } else { 1 + SPECS.len() + 3 };
    let mut setups = crate::alltoall::SetupSampler::new(points);
    let mut parsed = Ok(Vec::new());
    setups.sample(clock, || {
        parsed = tr.span("setup/hxserve.parse", |_| parse_all(seed))
    });
    let plans = match parsed {
        Ok(p) => p,
        Err(e) => return rep.check(false, || format!("spec parse: {e}")),
    };
    rep.set_median("hxserve.parse_s", &setups.samples);

    let passes: Vec<Pass> = if tr.on() {
        let mut off = Tracer::new(false);
        let untraced = pass(rep, &mut off, clock, &plans, seed, "untraced", &mut |_| {});
        collect::reset();
        collect::set_metrics_enabled(true);
        let traced = tr.span("pass", |tr| {
            pass(rep, tr, clock, &plans, seed, "traced", &mut |_| {})
        });
        let changed = collect::counter_total("rate_changed_flows");
        let rerouted = collect::counter_total("flow_reroutes");
        let stalls = collect::counter_total("packet_stalls");
        let retransmits = collect::counter_total("packet_retransmits");
        let cells_ms = tr.span("hxserve.cells_1thread", |_| cell_times_ms(&plans, threads));
        collect::set_metrics_enabled(false);

        rep.set("trace_overhead", traced.wall.raw_s / untraced.wall.raw_s);
        rep.set("hxsim.flow.rate_changed_flows", changed as f64);
        rep.set("hxsim.flow.flows_rerouted", rerouted as f64);
        rep.set("hxsim.packet.packet_stalls", stalls as f64);
        rep.set("hxsim.packet.retransmits", retransmits as f64);
        for (name, s) in SPECS.iter().zip(&traced.cold_s) {
            rep.set(&format!("hxserve.cold_s.{name}"), *s);
        }
        rep.set_quantile("hxserve.cell_ms.p50", &cells_ms, 0.5);
        rep.set_quantile("hxserve.cell_ms.p90", &cells_ms, 0.9);
        let busy_s: f64 = cells_ms.iter().sum::<f64>() / 1e3;
        rep.set(
            "hxserve.pool_busy_share",
            busy_s / (threads as f64 * traced.cold_total_s),
        );
        rep.set(
            "hxserve.warm_hit_share",
            traced.warm.hits as f64 / traced.warm.cells.max(1) as f64,
        );
        rep.set_median("hxserve.warm_s", &traced.warm.secs);
        rep.set(
            "hxserve.warm_us_per_cell",
            traced.warm.secs.iter().sum::<f64>() * 1e6 / traced.warm.cells.max(1) as f64,
        );
        let sum = |f: &dyn Fn(&ClusterReport) -> u32| -> f64 {
            traced.cluster.iter().map(|(_, _, r)| f64::from(f(r))).sum()
        };
        rep.set("hxcluster.sim_invocations", sum(&|r| r.sim_invocations));
        rep.set("hxcluster.resims", sum(&|r| r.resims));
        rep.set("hxcluster.defrag_passes", sum(&|r| r.defrag_passes));
        for c in CLUSTER_RUNS {
            let s: f64 = traced
                .cluster
                .iter()
                .filter(|(label, _, _)| match c {
                    "in_situ" => label.ends_with(".in_situ"),
                    load => label == load,
                })
                .map(|(_, s, _)| s)
                .sum();
            rep.set(&format!("hxcluster.run_s.{c}"), s);
        }
        rep.set("hxalloc.fig8_s", traced.fig8_s);
        vec![untraced, traced]
    } else {
        let mut n = 0;
        let mut more_setups =
            |clock: &mut HostClock| setups.sample(clock, || drop(black_box(parse_all(seed))));
        crate::alltoall::passes(seconds, || {
            n += 1;
            let p = pass(
                rep,
                tr,
                clock,
                &plans,
                seed,
                &n.to_string(),
                &mut more_setups,
            );
            let wall = p.wall.raw_s;
            (p, wall)
        })
    };

    rep.set_median("setup_s", &setups.samples);
    let walls: Vec<Reading> = passes.iter().map(|p| p.wall).collect();
    // In a traced run only the untraced pass is an end-to-end sample.
    let timed = if tr.on() { &walls[..1] } else { &walls[..] };
    rep.set_walls(timed, &clock.samples);
    rep.set_flow_err("quick_suite", &passes[0].pairs);
    let digests: Vec<Outputs> = passes.iter().map(|p| p.digest).collect();
    rep.check_digests("quick_suite", seed, &digests);
    eprintln!(
        "quick_suite: {} passes, {} pristine flow/packet pairs",
        passes.len(),
        passes[0].pairs.len()
    );
}

//! The two engine workloads: `a2a_hx4_16k` (the flow solver at 16,384
//! endpoints) and `a2a_256_both` (every topology on both engines at 256
//! endpoints). Both drive `hxsim` directly on networks built by
//! `TopologyChoice::build_scaled`, with the paper's fixed balanced-shift
//! traffic; the seed only reaches `SimConfig::seed`, the packet engine's
//! tie-break.

use crate::clock::{HostClock, Reading};
use crate::report::{Outputs, Report};
use crate::span::Tracer;
use crate::stats;
use crate::wrap::{count_router, CountingApp, RouterCounts, TickingApp};
use hammingmesh::hxcollect::model::alltoall_bw_fraction;
use hammingmesh::hxnet::Network;
use hammingmesh::hxsim::apps::Alltoall;
use hammingmesh::hxsim::{simulate, EngineKind, SimConfig, SimStats};
use hammingmesh::hxtelemetry::collect;
use hammingmesh::topologies::TopologyChoice;
use std::hint::black_box;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// One alltoall recipe: the traffic every run of a workload offers.
#[derive(Clone, Copy, Debug)]
pub struct Recipe {
    pub endpoints: usize,
    pub bytes: u64,
    pub window: u32,
    /// Balanced-shift iterations; `endpoints - 1` is the full alltoall.
    pub shifts: u32,
}

impl Recipe {
    fn app(self) -> Alltoall {
        Alltoall::with_shifts(self.endpoints, self.bytes, self.window, self.shifts)
    }

    fn messages(self) -> u64 {
        self.endpoints as u64 * u64::from(self.shifts)
    }
}

/// `a2a_hx4_16k`: the `flow_scale` scenario of `perf_smoke`.
pub const HX4_16K: Recipe = Recipe {
    endpoints: 16384,
    bytes: 64 << 10,
    window: 1,
    shifts: 8,
};

/// `a2a_256_both`: a full 32 KiB alltoall at 256 endpoints.
pub const FULL_256: Recipe = Recipe {
    endpoints: 256,
    bytes: 32 << 10,
    window: 2,
    shifts: 255,
};

/// One engine run's outputs and host time.
pub struct RunOut {
    pub topo: TopologyChoice,
    pub engine: EngineKind,
    pub stats: SimStats,
    pub bw_fraction: f64,
    pub wall: Reading,
    pub app_callbacks: u64,
    pub app_ns: u64,
}

/// Run `recipe` on `net` and check that it delivered every byte offered.
/// An untraced run lets the clock sample the host between callbacks.
#[allow(clippy::too_many_arguments)]
fn run(
    rep: &mut Report,
    tr: &mut Tracer,
    clock: &mut HostClock,
    topo: TopologyChoice,
    net: &Network,
    engine: EngineKind,
    recipe: Recipe,
    seed: u64,
) -> RunOut {
    let mut app = recipe.app();
    let cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let name = format!("hxsim.{engine}.run/{}", topo.spec_name());
    let t0 = clock.now();
    let (stats, app_callbacks, app_ns) = tr.span(&name, |tr| {
        if tr.on() {
            let mut counted = CountingApp::new(&mut app);
            let stats = simulate(net, cfg, engine, &mut counted);
            (stats, counted.callbacks, counted.ns)
        } else {
            let mut ticking = TickingApp {
                inner: &mut app,
                clock: &mut *clock,
            };
            (simulate(net, cfg, engine, &mut ticking), 0, 0)
        }
    });
    let wall = clock.now() - t0;
    let per_rank = app.bytes_per_rank();
    let bw_fraction =
        alltoall_bw_fraction(per_rank, stats.finish_ps, net.injection_bytes_per_ps(0));

    let mut problems = Vec::new();
    if !stats.clean() {
        problems.push(format!(
            "not clean (timed_out {}, undelivered {}, error {:?})",
            stats.timed_out, stats.undelivered_messages, stats.error
        ));
    }
    let offered = per_rank * recipe.endpoints as u64;
    if stats.bytes_delivered != offered {
        problems.push(format!(
            "delivered {} of {offered} bytes",
            stats.bytes_delivered
        ));
    }
    if stats.messages_delivered != recipe.messages() {
        problems.push(format!(
            "delivered {} of {} messages",
            stats.messages_delivered,
            recipe.messages()
        ));
    }
    if app.done_ranks as usize != recipe.endpoints {
        problems.push(format!(
            "{} of {} ranks finished",
            app.done_ranks, recipe.endpoints
        ));
    }
    if !(bw_fraction > 0.0 && bw_fraction.is_finite()) {
        problems.push(format!("bandwidth fraction {bw_fraction}"));
    }
    rep.op(
        &format!("{name} ({} endpoints)", recipe.endpoints),
        problems,
    );
    RunOut {
        topo,
        engine,
        stats,
        bw_fraction,
        wall,
        app_callbacks,
        app_ns,
    }
}

/// Build each topology, constructing the traffic and both engines on it
/// as a run would. Returns the networks; adds the topology-build time to
/// `build_s`.
fn setup(tr: &mut Tracer, w: &Spec<'_>, build_s: &mut Vec<f64>) -> Vec<Network> {
    let mut build = 0.0;
    let built = tr.span("setup", |tr| {
        let mut built = Vec::new();
        for &t in w.topos {
            let tb = Instant::now();
            let net = tr.span("hxnet.build", |_| t.build_scaled(w.recipe.endpoints));
            build += tb.elapsed().as_secs_f64();
            tr.span("hxsim.construct", |_| {
                let app = black_box(w.recipe.app());
                for &e in w.engines {
                    let cfg = SimConfig::default();
                    match e {
                        EngineKind::Flow => {
                            drop(black_box(hammingmesh::hxsim::FlowEngine::new(&net, cfg)))
                        }
                        EngineKind::Packet => {
                            drop(black_box(hammingmesh::hxsim::Engine::new(&net, cfg)))
                        }
                    }
                }
                drop(app);
            });
            built.push(net);
        }
        built
    });
    build_s.push(build);
    built
}

/// Host time a run spends repeating its workload's set-up.
const SETUP_BUDGET_S: f64 = 1.0;

/// Repetitions of a workload's set-up, spread over its run: an equal share
/// of [`SETUP_BUDGET_S`] before the first simulation and at each of a few
/// points between simulations. `setup_s` is their median. Spread out, the
/// repetitions sample the host over the whole run, as `ref_wall_s` does,
/// and not only the first second of a fresh process, whose set-ups run
/// slower than later ones.
pub struct SetupSampler {
    share_s: f64,
    /// Time of each repetition, rescaled to the reference host speed by
    /// the clock's latest sample.
    pub samples: Vec<f64>,
}

impl SetupSampler {
    pub fn new(points: usize) -> Self {
        SetupSampler {
            share_s: SETUP_BUDGET_S / points.max(1) as f64,
            samples: Vec::new(),
        }
    }

    /// Call `f` until this point's share of the budget has gone, at least
    /// once, timing each call.
    pub fn sample(&mut self, clock: &mut HostClock, mut f: impl FnMut()) {
        clock.now();
        let t0 = Instant::now();
        loop {
            let t = Instant::now();
            f();
            self.samples.push(clock.rescale(t.elapsed().as_secs_f64()));
            if t0.elapsed().as_secs_f64() >= self.share_s {
                return;
            }
        }
    }
}

/// Passes of a workload: one, and another while the last pass's duration
/// still fits in the `seconds` budget.
pub fn passes<T>(seconds: f64, mut pass: impl FnMut() -> (T, f64)) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    loop {
        let (p, wall) = pass();
        out.push(p);
        if t0.elapsed().as_secs_f64() + wall > seconds {
            return out;
        }
    }
}

fn digest(runs: &[RunOut]) -> Outputs {
    let mut d = Outputs::default();
    for r in runs {
        // The flow engine reads no seed.
        if r.engine == EngineKind::Flow {
            d.any_seed.run(r.stats.finish_ps, r.bw_fraction);
        }
        d.all.run(r.stats.finish_ps, r.bw_fraction);
    }
    d
}

/// Per-layer numbers of one traced pass.
fn layer_metrics(rep: &mut Report, runs: &[RunOut], counts: &RouterCounts) {
    let sum = |e: EngineKind, f: &dyn Fn(&RunOut) -> f64| -> f64 {
        runs.iter().filter(|r| r.engine == e).map(f).sum()
    };
    let (flow, packet) = (EngineKind::Flow, EngineKind::Packet);
    let calls = counts.candidates_calls.load(Relaxed);
    rep.set("hxnet.candidates_calls", calls as f64);
    rep.set(
        "hxnet.candidates_ns",
        counts.candidates_ns.load(Relaxed) as f64 / (calls.max(1)) as f64,
    );
    rep.set(
        "hxnet.waypoint_options_calls",
        counts.waypoint_options_calls.load(Relaxed) as f64,
    );

    let flow_s = sum(flow, &|r| r.wall.raw_s);
    let recomputes = sum(flow, &|r| r.stats.rate_recomputes as f64);
    let touched = sum(flow, &|r| r.stats.rate_touched_flows as f64);
    let changed = collect::counter_total("rate_changed_flows") as f64;
    rep.set("hxsim.flow.run_s", flow_s);
    rep.set("hxsim.flow.epochs", sum(flow, &|r| r.stats.events as f64));
    rep.set("hxsim.flow.rate_recomputes", recomputes);
    rep.set(
        "hxsim.flow.full_refill_share",
        sum(flow, &|r| r.stats.rate_recomputes_full as f64) / recomputes.max(1.0),
    );
    rep.set("hxsim.flow.rate_touched_flows", touched);
    rep.set("hxsim.flow.rate_changed_flows", changed);
    rep.set("hxsim.flow.useful_refill_share", changed / touched.max(1.0));
    rep.set(
        "hxsim.flow.ns_per_touched_flow",
        flow_s * 1e9 / touched.max(1.0),
    );
    rep.set(
        "hxsim.flow.flows_rerouted",
        sum(flow, &|r| r.stats.flows_rerouted as f64),
    );

    let packet_s = sum(packet, &|r| r.wall.raw_s);
    let events = sum(packet, &|r| r.stats.events as f64);
    rep.set("hxsim.packet.run_s", packet_s);
    rep.set("hxsim.packet.events", events);
    rep.set(
        "hxsim.packet.events_per_s",
        if packet_s > 0.0 {
            events / packet_s
        } else {
            0.0
        },
    );
    rep.set(
        "hxsim.packet.packets_forwarded",
        sum(packet, &|r| r.stats.packets_forwarded as f64),
    );
    rep.set(
        "hxsim.packet.packet_stalls",
        collect::counter_total("packet_stalls") as f64,
    );
    rep.set(
        "hxsim.packet.retransmits",
        sum(packet, &|r| r.stats.packet_retransmits as f64),
    );

    rep.set(
        "app.callbacks",
        runs.iter().map(|r| r.app_callbacks as f64).sum(),
    );
    rep.set(
        "app.callback_s",
        runs.iter().map(|r| r.app_ns as f64).sum::<f64>() / 1e9,
    );
    for r in runs {
        let t = r.topo.spec_name();
        rep.set(&format!("hxsim.{}.run_s.{t}", r.engine), r.wall.raw_s);
        rep.set(
            &format!("model.bw_fraction.{t}.{}", r.engine),
            r.bw_fraction,
        );
    }
}

/// What differs between the two engine workloads.
struct Spec<'a> {
    name: &'static str,
    topos: &'a [TopologyChoice],
    recipe: Recipe,
    engines: &'static [EngineKind],
}

/// Set-up sampling points of an untraced run: before the first simulation
/// and after each topology's runs, plus `extra`. A traced run samples only
/// before the first simulation, which keeps its trace clean.
fn setup_points(tr: &Tracer, w: &Spec<'_>, extra: usize) -> usize {
    if tr.on() {
        1
    } else {
        1 + w.topos.len() + extra
    }
}

fn run_workload(
    rep: &mut Report,
    tr: &mut Tracer,
    clock: &mut HostClock,
    w: &Spec<'_>,
    seed: u64,
    seconds: f64,
    setups: &mut SetupSampler,
) -> Vec<RunOut> {
    let mut build_s = Vec::new();
    let mut nets = Vec::new();
    setups.sample(clock, || nets = setup(tr, w, &mut build_s));
    rep.set_median("hxnet.build_s", &build_s);

    let mut digests: Vec<Outputs> = Vec::new();
    let mut first: Vec<RunOut> = Vec::new();
    // `between` runs after each topology's runs; the pass's time is that
    // of its engine runs.
    let one_pass = |rep: &mut Report,
                    tr: &mut Tracer,
                    clock: &mut HostClock,
                    nets: &[Network],
                    between: &mut dyn FnMut(&mut HostClock)|
     -> (Vec<RunOut>, Reading) {
        let mut wall = Reading::default();
        let runs = tr.span("pass", |tr| {
            let mut runs = Vec::new();
            for (&t, net) in w.topos.iter().zip(nets) {
                for &e in w.engines {
                    let r = run(rep, tr, clock, t, net, e, w.recipe, seed);
                    wall += r.wall;
                    runs.push(r);
                }
                between(clock);
            }
            runs
        });
        (runs, wall)
    };

    let walls = if tr.on() {
        // One untraced pass, for the trace overhead, then one traced pass
        // with the counting wrappers installed and registry metrics on.
        let mut off = Tracer::new(false);
        let (runs, untraced) = one_pass(rep, &mut off, clock, &nets, &mut |_| {});
        digests.push(digest(&runs));
        first = runs;
        let counts = Arc::new(RouterCounts::default());
        let nets: Vec<Network> = nets.into_iter().map(|n| count_router(n, &counts)).collect();
        collect::reset();
        collect::set_metrics_enabled(true);
        let (runs, traced) = one_pass(rep, tr, clock, &nets, &mut |_| {});
        collect::set_metrics_enabled(false);
        digests.push(digest(&runs));
        layer_metrics(rep, &runs, &counts);
        rep.set("trace_overhead", traced.raw_s / untraced.raw_s);
        vec![untraced]
    } else {
        let mut more_setups = |clock: &mut HostClock| {
            setups.sample(clock, || {
                drop(setup(&mut Tracer::new(false), w, &mut Vec::new()))
            });
        };
        passes(seconds, || {
            let (runs, wall) = one_pass(rep, tr, clock, &nets, &mut more_setups);
            digests.push(digest(&runs));
            if first.is_empty() {
                first = runs;
            }
            (wall, wall.raw_s)
        })
    };
    rep.set_walls(&walls, &clock.samples);
    rep.check_digests(w.name, seed, &digests);
    first
}

const BENCH_SIM: &str = include_str!("../../BENCH_sim.json");

/// `a2a_hx4_16k`. Its flow error comes from the same recipe at 64 and 256
/// endpoints, where the packet engine is affordable.
pub fn hx4_16k(rep: &mut Report, tr: &mut Tracer, clock: &mut HostClock, seed: u64, seconds: f64) {
    let w = Spec {
        name: "a2a_hx4_16k",
        topos: &[TopologyChoice::Hx4Mesh],
        recipe: HX4_16K,
        engines: &[EngineKind::Flow],
    };
    // Two more set-up points, after the flow-error runs at each size.
    let mut setups = SetupSampler::new(setup_points(tr, &w, 2));
    let runs = run_workload(rep, tr, clock, &w, seed, seconds, &mut setups);
    let s = &runs[0].stats;
    for (key, got) in [
        ("sim_ps", s.finish_ps),
        ("rate_recomputes", s.rate_recomputes),
        ("rate_recomputes_full", s.rate_recomputes_full),
        ("rate_recomputes_component", s.rate_recomputes_component),
        ("rate_touched_flows", s.rate_touched_flows),
    ] {
        let want = stats::json_u64_in(BENCH_SIM, "flow_scale", key);
        rep.check(want == Some(got), || {
            format!("a2a_hx4_16k: {key} = {got}, BENCH_sim.json flow_scale has {want:?}")
        });
    }
    if !tr.on() {
        // The packet engine is the reference only where it is affordable,
        // so the flow error is measured on the same recipe at 64 and 256
        // endpoints, under the engines' default seed: a fixed number.
        let mut off = Tracer::new(false);
        let seed = SimConfig::default().seed;
        let mut pairs = Vec::new();
        for endpoints in [64, 256] {
            let recipe = Recipe {
                endpoints,
                ..HX4_16K
            };
            let net = TopologyChoice::Hx4Mesh.build_scaled(endpoints);
            let [flow, packet] = [EngineKind::Flow, EngineKind::Packet].map(|e| {
                run(
                    rep,
                    &mut off,
                    clock,
                    TopologyChoice::Hx4Mesh,
                    &net,
                    e,
                    recipe,
                    seed,
                )
                .bw_fraction
            });
            pairs.push((flow, packet));
            setups.sample(clock, || drop(setup(&mut off, &w, &mut Vec::new())));
        }
        rep.set_flow_err("a2a_hx4_16k", &pairs);
    }
    rep.set_median("setup_s", &setups.samples);
}

/// `a2a_256_both`.
pub fn all_256(rep: &mut Report, tr: &mut Tracer, clock: &mut HostClock, seed: u64, seconds: f64) {
    let topos = TopologyChoice::all();
    let w = Spec {
        name: "a2a_256_both",
        topos: &topos,
        recipe: FULL_256,
        engines: &[EngineKind::Flow, EngineKind::Packet],
    };
    let mut setups = SetupSampler::new(setup_points(tr, &w, 0));
    let runs = run_workload(rep, tr, clock, &w, seed, seconds, &mut setups);
    rep.set_median("setup_s", &setups.samples);
    // Each topology's runs are adjacent, flow first.
    let pairs: Vec<(f64, f64)> = runs
        .chunks_exact(2)
        .map(|p| (p[0].bw_fraction, p[1].bw_fraction))
        .collect();
    rep.set_flow_err("a2a_256_both", &pairs);
    for r in &runs {
        eprintln!(
            "  {:<12} {:<6} bw_fraction {:.4}  {:.3}s",
            r.topo.spec_name(),
            r.engine,
            r.bw_fraction,
            r.wall.raw_s
        );
    }
}

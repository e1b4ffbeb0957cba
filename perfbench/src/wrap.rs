//! Counting wrappers the traced run installs around two public extension
//! points: the network's [`Router`] (called per hop by the packet engine
//! and per message by the flow engine) and the traffic [`Application`].
//! Untraced runs never install them; they install [`TickingApp`], which
//! lets the host clock sample inside a long simulation.

use crate::clock::HostClock;
use hammingmesh::hxnet::route::{Hop, LoadProbe};
use hammingmesh::hxnet::{Network, NodeId, Router, Topology};
use hammingmesh::hxsim::{Application, Ctx, MsgInfo};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Router call counts, shared between the wrapper and the report. The
/// counters publish no other data, so relaxed ordering suffices.
#[derive(Debug, Default)]
pub struct RouterCounts {
    pub candidates_calls: AtomicU64,
    pub candidates_ns: AtomicU64,
    pub waypoint_options_calls: AtomicU64,
}

struct CountingRouter {
    inner: Box<dyn Router>,
    counts: Arc<RouterCounts>,
}

impl Router for CountingRouter {
    fn num_vcs(&self) -> u8 {
        self.inner.num_vcs()
    }

    fn candidates(
        &self,
        topo: &Topology,
        node: NodeId,
        vc: u8,
        target: NodeId,
        out: &mut Vec<Hop>,
    ) {
        let t0 = Instant::now();
        self.inner.candidates(topo, node, vc, target, out);
        let ns = t0.elapsed().as_nanos() as u64;
        self.counts.candidates_calls.fetch_add(1, Relaxed);
        self.counts.candidates_ns.fetch_add(ns, Relaxed);
    }

    fn select_waypoint(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        probe: &dyn LoadProbe,
        rng: &mut dyn rand::RngCore,
    ) -> Option<NodeId> {
        self.inner.select_waypoint(topo, src, dst, probe, rng)
    }

    fn waypoint_reached(&self, topo: &Topology, node: NodeId, waypoint: NodeId) -> bool {
        self.inner.waypoint_reached(topo, node, waypoint)
    }

    fn waypoint_options(&self, topo: &Topology, src: NodeId, dst: NodeId, out: &mut Vec<NodeId>) {
        self.counts.waypoint_options_calls.fetch_add(1, Relaxed);
        self.inner.waypoint_options(topo, src, dst, out);
    }
}

/// Install a counting wrapper as `net`'s router.
pub fn count_router(net: Network, counts: &Arc<RouterCounts>) -> Network {
    Network {
        router: Box::new(CountingRouter {
            inner: net.router,
            counts: Arc::clone(counts),
        }),
        ..net
    }
}

/// Counts and times every callback into the wrapped application.
pub struct CountingApp<'a> {
    pub inner: &'a mut dyn Application,
    pub callbacks: u64,
    pub ns: u64,
}

impl<'a> CountingApp<'a> {
    pub fn new(inner: &'a mut dyn Application) -> Self {
        CountingApp {
            inner,
            callbacks: 0,
            ns: 0,
        }
    }

    fn timed(&mut self, f: impl FnOnce(&mut dyn Application)) {
        let t0 = Instant::now();
        f(&mut *self.inner);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.callbacks += 1;
    }
}

impl Application for CountingApp<'_> {
    fn start(&mut self, ctx: &mut Ctx) {
        self.timed(|a| a.start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx, info: MsgInfo) {
        self.timed(|a| a.on_message(ctx, info));
    }

    fn on_send_complete(&mut self, ctx: &mut Ctx, info: MsgInfo) {
        self.timed(|a| a.on_send_complete(ctx, info));
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx, rank: u32, tag: u64) {
        self.timed(|a| a.on_compute_done(ctx, rank, tag));
    }
}

/// Forwards every callback, then lets the clock take a sample if one is
/// due: the clock's samples fall inside a simulation's run, not only
/// between runs.
pub struct TickingApp<'a> {
    pub inner: &'a mut dyn Application,
    pub clock: &'a mut HostClock,
}

impl Application for TickingApp<'_> {
    fn start(&mut self, ctx: &mut Ctx) {
        self.inner.start(ctx);
        self.clock.tick();
    }

    fn on_message(&mut self, ctx: &mut Ctx, info: MsgInfo) {
        self.inner.on_message(ctx, info);
        self.clock.tick();
    }

    fn on_send_complete(&mut self, ctx: &mut Ctx, info: MsgInfo) {
        self.inner.on_send_complete(ctx, info);
        self.clock.tick();
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx, rank: u32, tag: u64) {
        self.inner.on_compute_done(ctx, rank, tag);
        self.clock.tick();
    }
}

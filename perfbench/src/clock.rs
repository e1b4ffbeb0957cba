//! Host time rescaled to a reference host speed.
//!
//! The benchmark runs on a few cores of a shared host, whose speed drifts
//! by 20-40% for stretches of seconds to minutes as other tenants load
//! the shared caches and memory. A run of 45 s cannot average that out,
//! so its raw host time spreads by about as much from run to run. The
//! clock therefore times a fixed piece of reference work, independent of
//! the simulators, at every section boundary and, where the work offers a
//! place (a simulation callback, an `hxserve` row), every [`PERIOD`]. It
//! rescales each stretch of work between two samples by
//! `NOMINAL_S / (mean of the reference times at its two ends)`. A stretch
//! that ran slow because the host was slow is counted at the speed the
//! reference saw; a stretch that ran slow because the program did more
//! work is not, as the reference does not change with the program.
//!
//! The reference runs on as many threads as the workload, so that a
//! sample sees every core the work ran on. The samples' own time is left
//! out of both the raw and the rescaled time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::ops::Sub;
use std::time::{Duration, Instant};

/// Entries of the reference walk's table: 8 MiB, past the per-core L2 and
/// inside the shared L3, where the simulators' working sets live.
const TABLE: usize = 1 << 21;
/// Sizes of the four parts of one timing, each about 1 ms on the host
/// the benchmark was built on: a dependent walk through the table, a sort,
/// a binary-heap event queue and hash-map updates, the simulators' staple
/// operations.
const STEPS: usize = 1 << 13;
const KEYS: usize = 1 << 15;
const EVENTS: usize = 1 << 14;
const UPDATES: usize = 1 << 15;
/// Timings per sample; the sample is their median.
const REPEATS: usize = 3;
/// Longest stretch of work between two samples, where the work offers a
/// place to take one ([`HostClock::tick`]).
pub const PERIOD: Duration = Duration::from_secs(1);
/// A sample taken less than this after the last one would time no work:
/// [`HostClock::now`] skips it.
const MIN_GAP: Duration = Duration::from_micros(200);
/// Reference time on a quiet host, for one walker and for two at once:
/// the unit of the rescaled time, set so that rescaled and host time
/// agree there (medians of the samples on a 2-vCPU Intel Xeon guest in
/// its fast stretches). Two walkers contend for the shared cache.
const NOMINAL_S: [f64; 2] = [0.0037, 0.0041];
/// `tick` calls between two looks at the time.
const TICK_EVERY: u32 = 256;

/// Raw and rescaled seconds since the clock started, samples left out.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Reading {
    pub raw_s: f64,
    pub ref_s: f64,
}

impl Sub for Reading {
    type Output = Reading;
    fn sub(self, o: Reading) -> Reading {
        Reading {
            raw_s: self.raw_s - o.raw_s,
            ref_s: self.ref_s - o.ref_s,
        }
    }
}

impl std::ops::AddAssign for Reading {
    fn add_assign(&mut self, o: Reading) {
        self.raw_s += o.raw_s;
        self.ref_s += o.ref_s;
    }
}

/// `seg_s` of work between two reference samples, at the reference speed:
/// scaled by the nominal reference time over the mean of the two samples.
fn at_reference_speed(seg_s: f64, nominal_s: f64, ref_before_s: f64, ref_after_s: f64) -> f64 {
    seg_s * nominal_s / ((ref_before_s + ref_after_s) / 2.0)
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference's hash map: hashed with fixed keys, so that every run
/// times the same probes, and never iterated.
#[allow(clippy::disallowed_types)]
type Counts = std::collections::HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// One thread's share of the reference work. Its buffers are allocated
/// once, at their full size, so that a timing allocates nothing.
struct Walker {
    /// Where the walk goes on from: each timing visits fresh entries, so
    /// the walk cycles through the whole table and cannot settle in L2.
    at: u32,
    keys: Vec<u64>,
    events: BinaryHeap<Reverse<u64>>,
    counts: Counts,
}

impl Walker {
    fn new(at: u32) -> Walker {
        Walker {
            at,
            keys: vec![0; KEYS],
            events: BinaryHeap::with_capacity(EVENTS),
            counts: Counts::with_capacity_and_hasher(UPDATES, Default::default()),
        }
    }

    /// The reference work: the median of [`REPEATS`] timings.
    fn time(&mut self, next: &[u32]) -> f64 {
        let mut t = [0.0; REPEATS];
        for slot in &mut t {
            let t0 = Instant::now();
            let mut at = self.at;
            for _ in 0..STEPS {
                at = next[at as usize];
            }
            self.at = at;
            let mut x = 0x2545_f491_4f6c_dd1d;
            for k in &mut self.keys {
                *k = xorshift(&mut x);
            }
            self.keys.sort_unstable();
            // Two events in, one out, then drain: a simulator's queue.
            for i in 0..EVENTS {
                self.events.push(Reverse(xorshift(&mut x) >> 20));
                if i % 2 == 1 {
                    black_box(self.events.pop());
                }
            }
            while let Some(e) = self.events.pop() {
                black_box(e);
            }
            self.counts.clear();
            for _ in 0..UPDATES {
                *self
                    .counts
                    .entry(xorshift(&mut x) % UPDATES as u64)
                    .or_insert(0) += 1;
            }
            black_box((&self.keys, &self.counts));
            *slot = t0.elapsed().as_secs_f64();
        }
        t.sort_by(f64::total_cmp);
        t[REPEATS / 2]
    }
}

pub struct HostClock {
    /// One cycle through the whole table (Sattolo's shuffle), shared by
    /// the walkers.
    next: Vec<u32>,
    /// One per thread the workload runs on, so that a sample sees every
    /// core the work ran on.
    walkers: Vec<Walker>,
    nominal_s: f64,
    /// End of the last sample.
    mark: Instant,
    last_ref_s: f64,
    total: Reading,
    /// Every sample's reference time, in seconds.
    pub samples: Vec<f64>,
    calls: u32,
}

impl HostClock {
    /// A clock for work on `threads` threads.
    pub fn new(threads: usize) -> HostClock {
        let mut next: Vec<u32> = (0..TABLE as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15;
        for i in (1..TABLE).rev() {
            next.swap(i, (xorshift(&mut x) % i as u64) as usize);
        }
        let walkers = (0..threads.max(1))
            .map(|i| Walker::new(next[i * TABLE / threads.max(1)]))
            .collect();
        let mut c = HostClock {
            nominal_s: NOMINAL_S[threads.clamp(1, 2) - 1],
            next,
            walkers,
            mark: Instant::now(),
            last_ref_s: 0.0,
            total: Reading::default(),
            samples: Vec::new(),
            calls: 0,
        };
        // The first timings warm the caches.
        for _ in 0..64 {
            c.reference();
        }
        c.last_ref_s = c.reference();
        c.mark = Instant::now();
        c
    }

    /// One sample of the reference work: every walker's timing, at once on
    /// threads of their own, and their mean.
    fn reference(&mut self) -> f64 {
        let next = &self.next;
        let (first, rest) = self.walkers.split_first_mut().expect("one walker");
        let sum = std::thread::scope(|s| {
            let helpers: Vec<_> = rest
                .iter_mut()
                .map(|w| s.spawn(move || w.time(next)))
                .collect();
            let own = first.time(next);
            own + helpers
                .into_iter()
                .map(|h| h.join().expect("reference walker panicked"))
                .sum::<f64>()
        });
        sum / self.walkers.len() as f64
    }

    /// Take a sample, closing the stretch of work since the last one.
    pub fn now(&mut self) -> Reading {
        let seg = self.mark.elapsed();
        if seg < MIN_GAP {
            return self.total;
        }
        let seg = seg.as_secs_f64();
        let r = self.reference();
        self.total += Reading {
            raw_s: seg,
            ref_s: at_reference_speed(seg, self.nominal_s, self.last_ref_s, r),
        };
        self.last_ref_s = r;
        self.samples.push(r);
        self.calls = 0;
        self.mark = Instant::now();
        self.total
    }

    /// Cheap enough to call from a simulation callback: takes a sample
    /// once [`PERIOD`] has passed since the last one, looking at the time
    /// every [`TICK_EVERY`] calls.
    pub fn tick(&mut self) {
        self.calls += 1;
        if self.calls >= TICK_EVERY {
            self.calls = 0;
            self.poll();
        }
    }

    /// Take a sample if [`PERIOD`] has passed since the last one.
    pub fn poll(&mut self) {
        if self.mark.elapsed() >= PERIOD {
            self.now();
        }
    }

    /// `raw_s` of work done just now, at the reference speed.
    pub fn rescale(&self, raw_s: f64) -> f64 {
        at_reference_speed(raw_s, self.nominal_s, self.last_ref_s, self.last_ref_s)
    }
}

/// Time of a section with pauses left out.
pub struct Stopwatch {
    since: Reading,
    pub total: Reading,
}

impl Stopwatch {
    pub fn start(clock: &mut HostClock) -> Stopwatch {
        Stopwatch {
            since: clock.now(),
            total: Reading::default(),
        }
    }

    pub fn pause(&mut self, clock: &mut HostClock) {
        self.total += clock.now() - self.since;
    }

    pub fn resume(&mut self, clock: &mut HostClock) {
        self.since = clock.now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_rescaled_by_the_reference_at_both_ends() {
        // At nominal speed the time stays; a host at half speed (reference
        // twice as long) counts work at half its host time.
        let n = 0.004;
        assert_eq!(at_reference_speed(3.0, n, n, n), 3.0);
        assert_eq!(at_reference_speed(3.0, n, 2.0 * n, 2.0 * n), 1.5);
        // A stretch across a change of speed takes the mean of its ends.
        let mixed = at_reference_speed(3.0, n, n, 3.0 * n);
        assert!((mixed - 1.5).abs() < 1e-12);
    }

    #[test]
    fn samples_are_left_out_of_the_time() {
        let mut clock = HostClock::new(2);
        let a = clock.now();
        let t = Instant::now();
        // Back to back: no work to time, so no sample either.
        assert_eq!(clock.now(), a);
        let n = clock.samples.len();
        std::thread::sleep(Duration::from_millis(5));
        clock.now();
        std::thread::sleep(Duration::from_millis(5));
        let c = clock.now();
        let wall = t.elapsed().as_secs_f64();
        assert_eq!(clock.samples.len(), n + 2);
        // The reading covers both sleeps but neither sample, each of which
        // took at least twice its median timing.
        let spent = (c - a).raw_s;
        let sampled = 2.0 * clock.samples[n..].iter().sum::<f64>();
        assert!(spent >= 0.010, "{spent}");
        assert!(spent + sampled <= wall, "{spent} + {sampled} > {wall}");
    }
}

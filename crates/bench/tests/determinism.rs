//! Thread-count determinism suite for the parallel sweep drivers.
//!
//! The vendored rayon thread pool promises **index-ordered collection**:
//! the results of a parallel sweep are byte-identical to sequential
//! execution at any thread count. These tests hold the headline drivers
//! to that promise end to end — each binary runs under
//! `RAYON_NUM_THREADS=1` and `=4` and the captured stdout (and CSV file,
//! where the binary writes one) must match byte for byte. Wall-clock
//! chatter goes to stderr, which is deliberately not compared.
//!
//! The binaries that run the flow engine's max-min solver run as a
//! [`Matrix`] instead: each point (thread count, solver scope) runs once
//! with every artifact switched on, and the tests compare stdout, CSV,
//! metrics and trace across the points.
//!
//! Panic propagation through the pool (a worker panic must fail the
//! caller, with every input item dropped exactly once) is pinned by the
//! shim's own tests in `vendor/rayon`.

use hxtelemetry::validate_chrome_trace;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Everything one run of a binary leaves behind: stdout, plus the CSV and
/// telemetry artifacts when the run was asked to write them.
struct Artifacts {
    stdout: Vec<u8>,
    csv: Option<String>,
    metrics: Option<String>,
    trace: Option<String>,
}

/// Run `exe` with `args` under the given thread count; `csv` adds
/// `--csv`, `telemetry` adds `--metrics-out` and `--trace-out`.
fn run(exe: &str, args: &[&str], threads: u32, csv: bool, telemetry: bool) -> Artifacts {
    // Tests run concurrently in one process: number every run's files.
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let stem = std::env::temp_dir().join(format!(
        "hx_det_{}_{}_{}",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed),
        std::path::Path::new(exe)
            .file_name()
            .unwrap()
            .to_string_lossy()
    ));
    let path = |ext: &str| stem.with_extension(ext).to_str().unwrap().to_string();
    let mut cmd = Command::new(exe);
    cmd.args(args).env("RAYON_NUM_THREADS", threads.to_string());
    if csv {
        cmd.args(["--csv", &path("csv")]);
    }
    if telemetry {
        cmd.args(["--metrics-out", &path("metrics.json")]);
        cmd.args(["--trace-out", &path("trace.json")]);
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} {args:?} with {threads} thread(s) exited with {:?}\n--- stderr ---\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr),
    );
    let read = |on: bool, ext: &str| {
        on.then(|| {
            let body = std::fs::read_to_string(path(ext))
                .unwrap_or_else(|e| panic!("{exe}: {ext} artifact not written: {e}"));
            std::fs::remove_file(path(ext)).ok();
            body
        })
    };
    Artifacts {
        stdout: out.stdout,
        csv: read(csv, "csv"),
        metrics: read(telemetry, "metrics.json"),
        trace: read(telemetry, "trace.json"),
    }
}

/// Assert two runs printed the same stdout and wrote the same CSV.
fn assert_same_output(
    exe: &str,
    (a_label, a): (&str, &Artifacts),
    (b_label, b): (&str, &Artifacts),
) {
    assert!(
        a.stdout == b.stdout,
        "{exe}: stdout differs between {a_label} and {b_label}\n--- {a_label} ---\n{}\n--- {b_label} ---\n{}",
        String::from_utf8_lossy(&a.stdout),
        String::from_utf8_lossy(&b.stdout),
    );
    assert_eq!(
        a.csv, b.csv,
        "{exe}: CSV differs between {a_label} and {b_label}"
    );
    // Guard against trivially-empty comparisons.
    assert!(!a.stdout.is_empty(), "{exe} printed nothing");
}

/// Assert a binary produces byte-identical stdout (and CSV) at 1 vs 4
/// threads.
fn assert_thread_count_invariant(exe: &str, args: &[&str], csv: bool) {
    let one = run(exe, args, 1, csv, false);
    let four = run(exe, args, 4, csv, false);
    assert_same_output(exe, ("1 thread", &one), ("4 threads", &four));
}

/// The determinism matrix of a binary that runs the flow engine's
/// max-min solver: one run per point — incremental solver at 1 and at 4
/// threads, full solver at 4 threads — each writing stdout,
/// `--metrics-out`, `--trace-out` (and `--csv` where the binary has
/// one). A binary's matrix runs once and is shared by its tests, each of
/// which checks one property of it.
struct Matrix {
    exe: &'static str,
    inc1: Artifacts,
    inc4: Artifacts,
    full4: Artifacts,
}

impl Matrix {
    fn run(exe: &'static str, args: &[&str], csv: bool) -> Self {
        let with_rates = |rates| [args, &["--rates", rates]].concat();
        let (inc, full) = (with_rates("incremental"), with_rates("full"));
        // The points are independent processes: run them side by side.
        std::thread::scope(|s| {
            let inc4 = s.spawn(|| run(exe, &inc, 4, csv, true));
            let full4 = s.spawn(|| run(exe, &full, 4, csv, true));
            let inc1 = run(exe, &inc, 1, csv, true);
            Matrix {
                exe,
                inc1,
                inc4: inc4.join().expect("4-thread run panicked"),
                full4: full4.join().expect("--rates full run panicked"),
            }
        })
    }

    /// Stdout and CSV are byte-identical at 1 and 4 threads.
    fn assert_thread_count_invariant(&self) {
        assert_same_output(
            self.exe,
            ("1 thread", &self.inc1),
            ("4 threads", &self.inc4),
        );
    }

    /// Stdout and CSV are byte-identical under `--rates incremental` and
    /// `--rates full`: the differential suite's bitwise-equivalence claim
    /// held end to end.
    fn assert_rate_solver_invariant(&self) {
        assert_same_output(
            self.exe,
            ("--rates incremental", &self.inc1),
            ("--rates full", &self.full4),
        );
    }

    /// The metrics and trace artifacts are byte-identical across both
    /// thread counts and both solver scopes, the trace parses as Chrome
    /// trace-event JSON with events in it, and the metrics hold counters.
    fn assert_telemetry_invariant(&self) {
        let exe = self.exe;
        for (label, other) in [("4 threads", &self.inc4), ("--rates full", &self.full4)] {
            assert!(
                self.inc1.metrics == other.metrics,
                "{exe}: metrics artifact differs between 1 thread --rates incremental and {label}"
            );
            assert!(
                self.inc1.trace == other.trace,
                "{exe}: trace artifact differs between 1 thread --rates incremental and {label}"
            );
        }
        let trace = self.inc1.trace.as_deref().unwrap_or_default();
        let events = validate_chrome_trace(trace).unwrap_or_else(|e| {
            panic!("{exe}: trace artifact is not valid Chrome trace JSON: {e}")
        });
        assert!(events > 0, "{exe}: trace artifact holds no events");
        let metrics = self.inc1.metrics.as_deref().unwrap_or_default();
        assert!(
            metrics.contains("\"counters\""),
            "{exe}: metrics artifact holds no registry"
        );
    }
}

fn fig10_midrun() -> &'static Matrix {
    static M: OnceLock<Matrix> = OnceLock::new();
    M.get_or_init(|| Matrix::run(env!("CARGO_BIN_EXE_fig10_midrun"), &[], true))
}

fn fig11() -> &'static Matrix {
    static M: OnceLock<Matrix> = OnceLock::new();
    M.get_or_init(|| Matrix::run(env!("CARGO_BIN_EXE_fig11_alltoall"), &[], false))
}

fn fig13() -> &'static Matrix {
    static M: OnceLock<Matrix> = OnceLock::new();
    M.get_or_init(|| Matrix::run(env!("CARGO_BIN_EXE_fig13_allreduce"), &[], false))
}

fn cluster_sweep() -> &'static Matrix {
    static M: OnceLock<Matrix> = OnceLock::new();
    M.get_or_init(|| {
        Matrix::run(
            env!("CARGO_BIN_EXE_cluster_sweep"),
            &["--traces", "8", "--seed", "12648430"],
            true,
        )
    })
}

/// Fig. 8's Monte-Carlo utilization sweep: the `into_par_iter` trace loop
/// in `hxalloc::experiments` must aggregate identically at any thread
/// count (the printed table is all that binary emits on stdout).
#[test]
fn fig8_utilization_is_thread_count_invariant() {
    assert_thread_count_invariant(
        env!("CARGO_BIN_EXE_fig8_utilization"),
        &["--traces", "40"],
        false,
    );
}

/// The routed cable-failure sweep: every (topology, failures, engine,
/// draw) cell simulates independently on the pool; the table and the
/// per-draw CSV reassemble in grid order.
#[test]
fn fig10_routed_is_thread_count_invariant() {
    assert_thread_count_invariant(
        env!("CARGO_BIN_EXE_fig10_failures"),
        &["--mode", "routed", "--traces", "2", "--engine", "flow"],
        true,
    );
}

/// The frozen-vs-mid-flight failure comparison: every cell runs a
/// mid-run [`FailureSchedule`] through one of the engines (flow re-route
/// and re-rate, packet drop and retransmit), and the whole recovery
/// machinery must still collect in grid order at any thread count. The
/// rate-solver leg extends the differential suite's bitwise claim to the
/// mid-run epoch path: re-rating flows around in-run link events with the
/// O(affected) incremental solver must not change a byte of the table or
/// the per-draw CSV relative to the full solver.
#[test]
fn fig10_midrun_is_thread_and_rate_solver_invariant() {
    fig10_midrun().assert_thread_count_invariant();
    fig10_midrun().assert_rate_solver_invariant();
}

/// The same for fig10_midrun's fail/repair/reroute/retransmit counters
/// and trace events.
#[test]
fn fig10_midrun_telemetry_artifacts_are_thread_and_solver_invariant() {
    fig10_midrun().assert_telemetry_invariant();
}

/// Fig. 12's permutation distribution: one seeded permutation run per
/// topology in parallel; the percentile rows (and the float sums behind
/// the mean column) must not depend on completion order.
#[test]
fn fig12_permutation_is_thread_count_invariant() {
    assert_thread_count_invariant(
        env!("CARGO_BIN_EXE_fig12_permutation"),
        &["--seed", "3735928559"],
        false,
    );
}

/// Fig. 11's (topology x message-size) alltoall grid: independent cells
/// on the pool, table reassembled in grid order. No CSV on this binary —
/// the printed table is the entire artifact.
#[test]
fn fig11_alltoall_is_thread_count_invariant() {
    fig11().assert_thread_count_invariant();
}

/// The incremental max-min solver through the whole binary:
/// switching fig11 to `--rates full` must not change a single byte of
/// the printed table.
#[test]
fn fig11_alltoall_is_rate_solver_invariant() {
    fig11().assert_rate_solver_invariant();
}

/// The telemetry determinism claim, held end to end for the fig11
/// sweep: metrics and trace artifacts are byte-identical at any thread
/// count and under either max-min solver scope.
#[test]
fn fig11_telemetry_artifacts_are_thread_and_solver_invariant() {
    fig11().assert_telemetry_invariant();
}

/// Fig. 13's (algorithm x topology x size) allreduce grid, the paper's
/// headline collective result.
#[test]
fn fig13_allreduce_is_thread_count_invariant() {
    fig13().assert_thread_count_invariant();
}

/// Same solver property for fig13.
#[test]
fn fig13_allreduce_is_rate_solver_invariant() {
    fig13().assert_rate_solver_invariant();
}

/// Same artifact pins for fig13.
#[test]
fn fig13_telemetry_artifacts_are_thread_and_solver_invariant() {
    fig13().assert_telemetry_invariant();
}

/// The cluster-lifetime sweep: three load levels simulated in parallel,
/// with per-load output buffered and emitted in load order — stdout rows
/// and the per-job/summary CSV must not depend on completion order.
#[test]
fn cluster_sweep_is_thread_count_invariant() {
    cluster_sweep().assert_thread_count_invariant();
}

/// The cluster sweep times its jobs on the flow engine: its rows and CSV
/// must not depend on the solver scope either.
#[test]
fn cluster_sweep_is_rate_solver_invariant() {
    cluster_sweep().assert_rate_solver_invariant();
}

/// Same artifact pins for the cluster-lifetime sweep, whose load points
/// run concurrently and nest engine runs inside the cluster event loop.
#[test]
fn cluster_sweep_telemetry_artifacts_are_thread_and_solver_invariant() {
    cluster_sweep().assert_telemetry_invariant();
}

/// The reduction-scaling grid (algorithm x topology; `--traces 1` caps
/// the sweep at the 64-endpoint cluster size so the debug-profile run
/// stays a smoke test — the grid indexing under test is identical).
#[test]
fn fig14_grid_is_thread_count_invariant() {
    assert_thread_count_invariant(
        env!("CARGO_BIN_EXE_fig14_reduction_scaling"),
        &["--traces", "1"],
        true,
    );
}

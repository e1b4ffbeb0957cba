//! `perfbench` — the repository benchmark: end-to-end and per-layer
//! numbers for the HammingMesh simulators, from one command.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload a2a_hx4_16k --seed 1 --seconds 45 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml \
//!     > results.json          # every workload, untraced then traced
//! ```
//!
//! Workloads (closed loop: each simulation starts when the previous one
//! returns):
//!
//! * `a2a_hx4_16k` — 16,384-endpoint Hx4Mesh alltoall, 8 shifts x 64 KiB,
//!   window 1, flow engine: the max-min solver's component-scoped regime.
//! * `a2a_256_both` — full 32 KiB alltoall at 256 endpoints on all eight
//!   topologies, each on both engines: the solver's full-refill regime,
//!   the per-hop router calls of the packet engine, and the flow model's
//!   error against the packet reference.
//! * `quick_suite` — the six `hxserve` specs cold and warm, the cluster
//!   sweep and Fig. 8: parse, executor, cache, schedule replay, failures,
//!   allocator and cluster simulator.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones, measured with counting wrappers and spans around the calls into
//! each layer; a traced run also writes its spans as Chrome trace JSON to
//! `perfbench/target/trace-<workload>.json`. The last line of stdout is
//! one JSON object; the exit code is nonzero when any correctness check
//! fails.

// Wall-clock time is this binary's product (the workspace lint bans it
// from simulation code only).
#![allow(clippy::disallowed_methods)]

mod alltoall;
mod clock;
mod heap;
mod report;
mod span;
mod stats;
mod suite;
mod wrap;

use report::{Report, END_TO_END};
use span::Tracer;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const WORKLOADS: [&str; 3] = ["a2a_hx4_16k", "a2a_256_both", "quick_suite"];

/// Pool width of the parallel workload: never wider than the machine.
const MAX_THREADS: usize = 2;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench [--workload a2a_hx4_16k|a2a_256_both|quick_suite] \
[--seed N] [--seconds N] [--trace 0|1]
Without --workload every workload runs, untraced and then traced, each in
its own process, and stdout gets one document with all their result lines.
A traced run writes its spans to perfbench/target/trace-<workload>.json.";

/// Where traced runs write their Chrome trace, relative to the directory
/// the benchmark runs from (the repository root).
const TRACE_DIR: &str = "perfbench/target";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 45.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            std::process::exit(0);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v:?}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => a.workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => a.seed = num(&value)?,
            "--seconds" => a.seconds = num(&value)? as f64,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// What the results depend on besides the code: recorded with them.
fn environment(threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let first_line = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "{{\"nproc\": {nproc}, \"threads\": {threads}, \"commit\": \"{}\", \"rustc\": \"{}\"}}",
        first_line("git", &["rev-parse", "HEAD"]),
        first_line("rustc", &["--version"])
    )
}

fn run_one(workload: &str, args: &Args, threads: usize) -> ExitCode {
    let mut rep = Report::default();
    let mut tr = Tracer::new(args.trace);
    // The reference work runs on as many threads as the workload. Its
    // buffers live for the whole run; the peak heap leaves them out.
    let width = if workload == "quick_suite" {
        threads
    } else {
        1
    };
    let before = heap::live_mib();
    let mut clock = clock::HostClock::new(width);
    let clock_mib = heap::live_mib() - before;
    let (c, seed, secs) = (&mut clock, args.seed, args.seconds);
    match workload {
        "a2a_hx4_16k" => alltoall::hx4_16k(&mut rep, &mut tr, c, seed, secs),
        "a2a_256_both" => alltoall::all_256(&mut rep, &mut tr, c, seed, secs),
        _ => suite::run(&mut rep, &mut tr, c, seed, secs, threads),
    }
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    if let Some(mib) = stats::parse_vmhwm_mib(&status) {
        rep.set("process.peak_rss_mb", mib);
    }
    rep.set("peak_heap_mb", heap::peak_mib() - clock_mib);
    let attempted = rep.attempted.max(1) as f64;
    rep.set(
        "ok_share",
        1.0 - rep.failed.min(rep.attempted) as f64 / attempted,
    );

    let names: Vec<(String, &str)> = if args.trace {
        let spans = tr.spans();
        let json = span::chrome_trace_json(spans);
        if let Err(e) = hammingmesh::hxtelemetry::validate_chrome_trace(&json) {
            rep.check(false, || {
                format!("span trace is not valid Chrome JSON: {e}")
            });
        }
        let path = format!("{TRACE_DIR}/trace-{workload}.json");
        if let Err(e) =
            std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, &json))
        {
            rep.check(false, || format!("cannot write {path}: {e}"));
        }
        eprintln!("span trace: {path}");
        print_self_times(spans);
        report::per_layer()
    } else {
        for (name, _) in END_TO_END {
            if !rep.metrics.contains_key(*name) {
                rep.check(false, || format!("{workload} did not measure {name}"));
            }
        }
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    rep.emit(workload, args.trace, &names);
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Total and self time per span name, on stderr.
fn print_self_times(spans: &[span::Span]) {
    let self_ns = span::self_times_ns(spans);
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64, usize)> = Default::default();
    for (s, own) in spans.iter().zip(self_ns) {
        let e = by_name.entry(s.name.as_str()).or_default();
        e.0 += s.dur_ns();
        e.1 += own;
        e.2 += 1;
    }
    eprintln!(
        "\n  {:<40} {:>10} {:>10} {:>6}",
        "span", "total_s", "self_s", "count"
    );
    for (name, (total, own, n)) in by_name {
        eprintln!(
            "  {name:<40} {:>10.4} {:>10.4} {n:>6}",
            total as f64 / 1e9,
            own as f64 / 1e9
        );
    }
}

/// Every workload, untraced then traced, each in a process of its own so
/// that its peak memory is its own.
fn run_all(args: &Args, env: &str) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut lines = Vec::new();
    let mut ok = true;
    for trace in ["0", "1"] {
        for w in WORKLOADS {
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &args.seed.to_string()])
                .args([
                    "--seconds",
                    &(args.seconds as u64).to_string(),
                    "--trace",
                    trace,
                ])
                .stderr(Stdio::inherit())
                .output();
            let (success, last) = match out {
                Ok(o) => (
                    o.status.success(),
                    String::from_utf8_lossy(&o.stdout)
                        .lines()
                        .last()
                        .unwrap_or("")
                        .to_string(),
                ),
                Err(e) => (false, format!("\"cannot run: {e}\"")),
            };
            ok &= success;
            lines.push(format!(
                "    {{\"workload\": \"{w}\", \"trace\": {trace}, \"seed\": {}, \"result\": {last}}}",
                args.seed
            ));
        }
    }
    let doc = format!(
        "{{\n  \"environment\": {env},\n  \"runs\": [\n{}\n  ]\n}}\n",
        lines.join(",\n")
    );
    print!("{doc}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    // Pin what the engines read from the environment, before any thread
    // starts: the solver mode and retransmit policy default from these
    // variables, and the vendored pool reads its width on every call.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = MAX_THREADS.min(nproc);
    std::env::remove_var("HX_RATES");
    std::env::remove_var("HX_RETRANSMIT");
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());

    let env = environment(threads);
    eprintln!("perfbench environment: {env}");
    match &args.workload {
        Some(w) => run_one(w, &args, threads),
        None => run_all(&args, &env),
    }
}

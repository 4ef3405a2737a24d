//! End-to-end profiling benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chatty --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs the user pipeline (untooled run, tooled run, analysis to a JSON
//! report, `.odpt` save/load/re-analysis) on one workload in a closed
//! loop for `--seconds`, checks every sample's findings, and prints one
//! JSON line: end-to-end metrics with `--trace 0`, per-layer metrics
//! from a traced run with `--trace 1`. See README.md.

mod pipeline;
mod probe;
mod spans;

use pipeline::{Bench, Sample, Values, WORKLOADS};
use spans::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 9] = [
    ("overhead_x", "ratio"),
    ("profile_s", "s"),
    ("analysis_s", "s"),
    ("replay_s", "s"),
    ("remedy_speedup_x", "ratio"),
    ("trace_bytes_per_event", "B"),
    ("peak_rss_mb", "MB"),
    ("passed_frac", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed with `--trace 1`.
const PER_LAYER: [(&str, &str); 45] = [
    ("sim.run_s", "s"),
    ("sim.time_ms", "ms"),
    ("tool.data_op.calls", "count"),
    ("tool.target.calls", "count"),
    ("tool.submit.calls", "count"),
    ("tool.data_op.ns", "ns"),
    ("tool.target.ns", "ns"),
    ("tool.submit.ns", "ns"),
    ("tool.busy_s", "s"),
    ("tool.finalize_s", "s"),
    ("hash.bytes", "B"),
    ("hash.s", "s"),
    ("hash.gb_per_s", "GB/s"),
    ("trace.events", "count"),
    ("trace.bytes", "B"),
    ("trace.take_s", "s"),
    ("trace.hydrate_s", "s"),
    ("detect.index_s", "s"),
    ("detect.sweep_s", "s"),
    ("detect.findings", "count"),
    ("stream.drain_s", "s"),
    ("stream.finalize_s", "s"),
    ("stream.buffered_peak", "count"),
    ("stream.frontier_peak", "count"),
    ("ring.spilled", "count"),
    ("stream.live_frac", "ratio"),
    ("report.build_s", "s"),
    ("report.json_s", "s"),
    ("report.json_bytes", "B"),
    ("persist.save_s", "s"),
    ("persist.load_s", "s"),
    ("persist.columns_s", "s"),
    ("persist.bytes", "B"),
    ("replay.detect_s", "s"),
    ("replay.json_s", "s"),
    ("remedy.consults", "count"),
    ("remedy.consult_ns", "ns"),
    ("remedy.rewrite_frac", "ratio"),
    ("remedy.recovered_bytes", "B"),
    ("analysis.unattributed_s", "s"),
    ("profile.unattributed_s", "s"),
    ("tracing.overhead_s", "s"),
    ("setup.cold_s", "s"),
    ("setup.warm_s", "s"),
    ("samples", "count"),
];

/// Cold set-ups per run: this process's own plus fresh child processes.
/// `setup_s` is their median.
const COLD_SETUPS: usize = 3;

/// Fewest measured samples, however short `--seconds` is.
const MIN_SAMPLES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
    /// Only time one cold set-up and print it (the child processes).
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    let mut setup_probe = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--spans" => spans = Some(value),
            "--setup-probe" => setup_probe = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        spans,
        setup_probe,
    })
}

/// SplitMix64: the seed's only job is ordering, so any mixer will do.
struct Rng(u64);

impl Rng {
    fn bit(&mut self) -> bool {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) & 1 == 1
    }
}

/// Peak resident set size: `VmHWM`, reset through `clear_refs` before
/// each sample so it covers that sample only.
mod rss {
    pub fn reset() -> bool {
        std::fs::write("/proc/self/clear_refs", "5").is_ok()
    }

    pub fn peak_mb() -> Option<f64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn run_sample(bench: &Bench, tooled_first: bool, tr: &mut Tracer) -> Result<Sample, String> {
    catch_unwind(AssertUnwindSafe(|| bench.sample(tooled_first, tr))).map_err(|panic| {
        tr.discard_sample();
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        format!("panicked: {msg}")
    })
}

/// One cold set-up in a fresh child process: its seconds.
fn cold_setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--seconds", "1", "--trace", "0", "--setup-probe", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start set-up probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up probe exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("set-up probe printed no time: {e}"))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]"
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {}; have {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let bench = match Bench::new(workload) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The default worker count, pinned so an environment variable cannot
    // change what is measured.
    ompdataperf::detect::set_sweep_threads(1);
    let mut rng = Rng(args.seed);

    // Set-up is one full untraced sample, checked but not timed into any
    // end-to-end metric, counted from process start: it pays the cold
    // start, which makes the first in-process run 2-3x slower than the
    // rest. Fresh child processes repeat it so `setup_s` can be a median.
    // One more warm round follows before measuring.
    let setup_round = |rng: &mut Rng| match run_sample(&bench, rng.bit(), &mut Tracer::new(false))
        .and_then(|s| s.check)
    {
        Ok(()) => true,
        Err(e) => {
            eprintln!("perfbench: set-up check failed: {e}");
            false
        }
    };
    let mut setup_ok = setup_round(&mut rng);
    let cold_s = process_start.elapsed().as_secs_f64();
    if args.setup_probe {
        println!("{cold_s}");
        return if setup_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let mut cold = vec![cold_s];
    for _ in 1..COLD_SETUPS {
        match cold_setup_in_child(&args) {
            Ok(secs) => cold.push(secs),
            Err(e) => {
                eprintln!("perfbench: {e}");
                setup_ok = false;
            }
        }
    }
    let warm = Instant::now();
    setup_ok &= setup_round(&mut rng);
    let warm_s = warm.elapsed().as_secs_f64();

    let mut tr = Tracer::new(args.trace);
    let rss_resets = rss::reset();
    if !rss_resets {
        eprintln!("perfbench: cannot reset VmHWM; peak_rss_mb is the process peak");
    }
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut samples: Vec<Values> = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    while attempted < MIN_SAMPLES || start.elapsed() < budget {
        tr.set_sample(attempted as u32);
        rss::reset();
        let outcome = run_sample(&bench, rng.bit(), &mut tr);
        let rss_mb = rss::peak_mb();
        attempted += 1;
        match outcome {
            Ok(mut sample) => {
                if let Err(e) = &sample.check {
                    eprintln!("perfbench: sample {attempted} failed its check: {e}");
                    failed += 1;
                }
                sample
                    .values
                    .insert("peak_rss_mb", rss_mb.unwrap_or(f64::NAN));
                samples.push(sample.values);
            }
            Err(e) => {
                eprintln!("perfbench: sample {attempted} {e}");
                failed += 1;
            }
        }
    }

    let metric = |name: &str| -> f64 {
        let mut vals: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.get(name).copied())
            .collect();
        let m = median(&mut vals);
        if let (Some(lo), Some(hi)) = (vals.first(), vals.last()) {
            eprintln!(
                "  {name:26} median {m:<12.6} min {lo:<12.6} max {hi:<12.6} n {}",
                vals.len()
            );
        }
        m
    };
    let mut out: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let value = match name {
                "setup.cold_s" => cold_s,
                "setup.warm_s" => warm_s,
                "samples" => samples.len() as f64,
                _ => metric(name),
            };
            out.push((name, unit, value));
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = match name {
                "passed_frac" => (attempted - failed) as f64 / attempted as f64,
                "setup_s" => median(&mut cold.clone()),
                _ => metric(name),
            };
            out.push((name, unit, value));
        }
    }

    if let Some(path) = args.spans.as_deref().filter(|_| args.trace) {
        if let Err(e) = std::fs::write(path, tr.chrome_json()) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    eprintln!(
        "perfbench: {} seed {} trace {}: {} samples in {:.1} s ({} failed), cold set-ups {:?}, warm {:.3}",
        workload.name,
        args.seed,
        u8::from(args.trace),
        attempted,
        start.elapsed().as_secs_f64(),
        failed,
        cold,
        warm_s
    );
    let missing: Vec<&str> = out
        .iter()
        .filter(|m| !m.2.is_finite())
        .map(|m| m.0)
        .collect();
    if !missing.is_empty() {
        eprintln!("perfbench: no value for {}", missing.join(", "));
        return ExitCode::FAILURE;
    }
    let metrics: Vec<String> = out
        .iter()
        .map(|(name, unit, value)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        setup_ok && failed == 0,
        attempted,
        failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

//! The four workloads and one sample of the user pipeline on each:
//! untooled run, tooled run, post-run analysis to a JSON report, then
//! `.odpt` save, load and re-analysis. Every step goes through the
//! crates' public API, the way the `ompdataperf` and `odp` binaries
//! drive it.

use crate::probe::{AdvisorSink, ProbeAdvisor, ProbeTool, ToolSink, ToolTimes};
use crate::spans::Tracer;
use odp_model::TraceHealth;
use odp_ompt::{NullTool, RemediationStats, Tool};
use odp_sim::{Runtime, RuntimeConfig, RuntimeStats};
use odp_trace::{load_trace, TraceArtifact, TraceLog};
use odp_workloads::{ProblemSize, Variant};
use ompdataperf::analysis::{analyze_with_findings, infer_num_devices, infer_num_devices_columnar};
use ompdataperf::attrib::DebugInfo;
use ompdataperf::detect::EventView;
use ompdataperf::predict::predict;
use ompdataperf::remedy::{LiveRemediator, RemediationReport, SharedPolicyCell};
use ompdataperf::{Findings, IssueCounts, OmpDataPerfTool, Report, ToolConfig, ToolHandle};
use std::collections::BTreeMap;

/// How the tool runs alongside the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Collect only; detect after the run (the CLI default).
    PostMortem,
    /// `--stream`: detect online, finalize after the run.
    Stream,
    /// `--remediate`: stream findings into a live advisor that rewrites
    /// the program's mappings mid-run.
    Remediate,
}

/// One benchmark workload. Inputs are fixed by (program, size): the
/// simulated programs take no input seed.
pub struct Workload {
    pub name: &'static str,
    pub program: &'static str,
    pub threads: u32,
    pub mode: Mode,
    /// Per-kind issue counts every sample's report must reproduce.
    pub pinned: IssueCounts,
}

const fn counts(dd: usize, rt: usize, ra: usize, ua: usize, ut: usize) -> IssueCounts {
    IssueCounts { dd, rt, ra, ua, ut }
}

/// Why each workload exists is in README.md; the one-line reasons are
/// in BENCHMARK.json.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bulk",
        program: "babelstream",
        threads: 1,
        mode: Mode::PostMortem,
        pinned: counts(2499, 0, 2499, 0, 0),
    },
    Workload {
        name: "chatty",
        program: "tealeaf",
        threads: 1,
        mode: Mode::PostMortem,
        pinned: counts(9428, 23, 9414, 0, 0),
    },
    Workload {
        name: "live",
        program: "babelstream",
        threads: 2,
        mode: Mode::Stream,
        pinned: counts(5005, 0, 5002, 0, 2503),
    },
    Workload {
        name: "remediate",
        program: "tealeaf",
        threads: 1,
        mode: Mode::Remediate,
        pinned: counts(15, 23, 1, 0, 0),
    },
];

const SIZE: ProblemSize = ProblemSize::Large;
const VARIANT: Variant = Variant::Original;

/// Metric values of one sample, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one sample measured, and whether its output check passed.
pub struct Sample {
    pub values: Values,
    pub check: Result<(), String>,
}

/// Runs samples of one workload.
pub struct Bench {
    w: &'static Workload,
    program: Box<dyn odp_workloads::Workload>,
}

/// A finished tooled run, before analysis.
struct Tooled {
    handle: ToolHandle,
    dbg: DebugInfo,
    stats: RuntimeStats,
    remedy: Option<(SharedPolicyCell, RemediationStats)>,
    tool: ToolTimes,
    advisor: crate::probe::AdvisorTimes,
}

/// The post-run analysis products the replay and the check read.
struct Analysis {
    trace: TraceLog,
    /// The run's merged trace health, as the report saw it.
    health: TraceHealth,
    report: Report,
    json_bytes: usize,
}

impl Bench {
    pub fn new(w: &'static Workload) -> Result<Bench, String> {
        let program = odp_workloads::by_name(w.program)
            .ok_or_else(|| format!("unknown program {}", w.program))?;
        if w.threads > 1 && !program.supports_threads() {
            return Err(format!("{} has no threaded variant", w.program));
        }
        Ok(Bench { w, program })
    }

    /// One sample. `tooled_first` picks which side of the untooled/tooled
    /// pair runs first. With tracing on, the sample also runs an
    /// untraced tooled run, so the tracing overhead can be reported.
    pub fn sample(&self, tooled_first: bool, tr: &mut Tracer) -> Sample {
        let mut v = Values::new();
        let sample = tr.enter("sample");

        let (untooled_s, untooled_vt, untraced_profile_s) = if tooled_first {
            let p = tr.on().then(|| self.tooled(&mut Tracer::new(false)).1);
            let (s, vt) = self.untooled(tr);
            (s, vt, p)
        } else {
            let (s, vt) = self.untooled(tr);
            let p = tr.on().then(|| self.tooled(&mut Tracer::new(false)).1);
            (s, vt, p)
        };
        let (run, profile_s) = self.tooled(tr);
        let (an, analysis_s) = self.analyze(&run, tr, &mut v);
        let (replayed, replay_s) = self.replay(&an, tr, &mut v);
        tr.exit(sample);

        let space = an.trace.space_stats();
        let events = (space.data_op_records + space.target_records) as f64;
        v.insert("overhead_x", profile_s / untooled_s);
        v.insert("profile_s", profile_s);
        v.insert("analysis_s", analysis_s);
        v.insert("replay_s", replay_s);
        v.insert(
            "remedy_speedup_x",
            untooled_vt as f64 / run.stats.total_time.as_nanos() as f64,
        );
        v.insert(
            "trace_bytes_per_event",
            space.peak_alloc_bytes as f64 / events,
        );

        if tr.on() {
            self.layer_values(&run, &an, tr, &mut v);
            v.insert("sim.run_s", untooled_s);
            v.insert("trace.events", events);
            v.insert("trace.bytes", space.peak_alloc_bytes as f64);
            v.insert(
                "profile.unattributed_s",
                profile_s - untooled_s - run.tool.busy_s(),
            );
            if let Some(p) = untraced_profile_s {
                v.insert("tracing.overhead_s", profile_s - p);
            }
        }

        let check = self.check(&an, &replayed);
        Sample { values: v, check }
    }

    /// The program with no profiler: the denominator of the overhead.
    /// The threaded program needs a tool per thread, so it gets
    /// `NullTool`s, which request no callbacks.
    fn untooled(&self, tr: &mut Tracer) -> (f64, u64) {
        let cfg = RuntimeConfig::default();
        let open = tr.enter("sim.run");
        let stats = if self.w.threads > 1 {
            let tools = (0..self.w.threads)
                .map(|_| Box::new(NullTool) as Box<dyn Tool>)
                .collect();
            odp_workloads::threaded::run_threaded(
                &*self.program,
                self.w.threads,
                SIZE,
                VARIANT,
                &cfg,
                tools,
            )
            .1
        } else {
            let mut rt = Runtime::new(cfg);
            self.program.run(&mut rt, SIZE, VARIANT);
            rt.finish()
        };
        let secs = tr.exit(open);
        (secs, stats.total_time.as_nanos())
    }

    /// The program under the profiler, from tool creation through
    /// `Runtime::finish` (and the runtime's drop). With tracing on, the
    /// tool and the advisor are wrapped in timing decorators.
    fn tooled(&self, tr: &mut Tracer) -> (Tooled, f64) {
        let probe = tr.on();
        let tool_sink = ToolSink::default();
        let advisor_sink = AdvisorSink::default();
        let wrap = |t: OmpDataPerfTool| -> Box<dyn Tool> {
            if probe {
                Box::new(ProbeTool::new(t, tool_sink.clone()))
            } else {
                Box::new(t)
            }
        };
        let cfg = RuntimeConfig::default();

        let open = tr.enter("profile");
        let (tool, handle) = OmpDataPerfTool::new(ToolConfig {
            stream: self.w.mode != Mode::PostMortem,
            ..Default::default()
        });
        let (dbg, stats, remedy) = if self.w.threads > 1 {
            let mut tools = vec![wrap(tool)];
            for _ in 1..self.w.threads {
                tools.push(wrap(handle.fork_tool()));
            }
            let (dbg, stats) = odp_workloads::threaded::run_threaded(
                &*self.program,
                self.w.threads,
                SIZE,
                VARIANT,
                &cfg,
                tools,
            );
            (dbg, stats, None)
        } else {
            let mut rt = Runtime::new(cfg);
            rt.attach_tool(wrap(tool));
            let policy = (self.w.mode == Mode::Remediate).then(|| {
                let (remediator, policy) = LiveRemediator::new(handle.clone());
                if probe {
                    rt.attach_advisor(Box::new(ProbeAdvisor::new(
                        remediator,
                        advisor_sink.clone(),
                    )));
                } else {
                    rt.attach_advisor(Box::new(remediator));
                }
                policy
            });
            let dbg = self.program.run(&mut rt, SIZE, VARIANT);
            let stats = rt.finish();
            let remedy = policy.map(|p| (p, rt.remediation_stats()));
            (dbg, stats, remedy)
        };
        let secs = tr.exit(open);

        let tool = *tool_sink.lock().unwrap_or_else(|e| e.into_inner());
        let advisor = *advisor_sink.lock().unwrap_or_else(|e| e.into_inner());
        let run = Tooled {
            handle,
            dbg,
            stats,
            remedy,
            tool,
            advisor,
        };
        (run, secs)
    }

    /// From program end to the rendered JSON report, as the `ompdataperf`
    /// binary does it: merge the shards, detect (fused sweep, or finalize
    /// the streaming engine), build the report, serialize it.
    fn analyze(&self, run: &Tooled, tr: &mut Tracer, v: &mut Values) -> (Analysis, f64) {
        let open = tr.enter("analysis");
        let trace = tr.span("trace.take", || run.handle.take_trace());
        tr.span("trace.hydrate", || {
            trace.columnar();
        });
        let engine = tr.span("stream.drain", || run.handle.take_stream_engine());
        let view = tr.span("detect.index", || EventView::from_log(&trace));
        let mut health = run.handle.trace_health();
        let findings = match engine {
            Some(mut engine) => {
                let findings = tr.span("stream.finalize", || engine.finalize(&view));
                health.merge(&engine.health());
                if tr.on() {
                    let stats = engine.buffer_stats();
                    v.insert("stream.buffered_peak", stats.buffered_peak as f64);
                    v.insert("stream.frontier_peak", stats.frontier_peak as f64);
                    v.insert(
                        "stream.live_frac",
                        ratio(
                            engine.live_counts().total() as u64,
                            findings.counts().total() as u64,
                        ),
                    );
                }
                findings
            }
            None => tr.span("detect.sweep", || Findings::detect_fused(&view)),
        };
        health.duplicate_ids += trace.duplicate_id_count();
        let mut console = run.handle.console_lines();
        console.extend(health.warning());
        let report = tr.span("report.build", || {
            analyze_with_findings(
                &trace,
                Some(&run.dbg),
                self.program.name(),
                console,
                findings,
            )
        });
        let json_bytes = tr.span("report.json", || {
            let mut json = report.to_json();
            if let Some((policy, stats)) = &run.remedy {
                let remediation = RemediationReport::new(
                    &policy.lock(),
                    stats,
                    run.stats.bytes_transferred,
                    run.stats.transfer_time,
                );
                json = format!(
                    "{{\"report\":{json},\"remediation\":{}}}",
                    remediation.to_json()
                );
            }
            json.len()
        });
        let secs = tr.exit(open);
        (
            Analysis {
                trace,
                health,
                report,
                json_bytes,
            },
            secs,
        )
    }

    /// The `.odpt` round trip: save the trace, load it back strictly,
    /// rebuild the columns, detect with the fused sweep and serialize a
    /// report. A saved trace carries no debug info, so the replayed
    /// report has no source-attributed sections. Bytes stay in memory:
    /// disk time is not measured.
    fn replay(
        &self,
        an: &Analysis,
        tr: &mut Tracer,
        v: &mut Values,
    ) -> (Result<Findings, String>, f64) {
        let open = tr.enter("replay");
        let bytes = tr.span("persist.save", || {
            TraceArtifact::from_log(&an.trace, self.program.name(), an.health).to_bytes()
        });
        let replayed = tr.span("persist.load", || load_trace(&bytes)).map(|art| {
            let cols = tr.span("persist.columns", || art.columnar());
            let findings = tr.span("replay.detect", || {
                let view = EventView::over(&cols, infer_num_devices_columnar(&cols));
                Findings::detect_fused(&view)
            });
            tr.span("replay.json", || {
                let stats = art.stats();
                let report = Report {
                    program: art.meta.program.clone(),
                    counts: findings.counts(),
                    prediction: predict(&findings, stats.total_time),
                    findings,
                    stats,
                    space: art.space_stats(),
                    console: Vec::new(),
                    sections: Vec::new(),
                };
                std::hint::black_box(report.to_json());
                report.findings
            })
        });
        let secs = tr.exit(open);
        v.insert("persist.bytes", bytes.len() as f64);
        (replayed.map_err(|e| format!("load_trace: {e:?}")), secs)
    }

    /// Per-layer values read from the spans and the decorators.
    fn layer_values(&self, run: &Tooled, an: &Analysis, tr: &Tracer, v: &mut Values) {
        let secs = tr.seconds();
        for (span, metric) in [
            ("trace.take", "trace.take_s"),
            ("trace.hydrate", "trace.hydrate_s"),
            ("stream.drain", "stream.drain_s"),
            ("detect.index", "detect.index_s"),
            ("detect.sweep", "detect.sweep_s"),
            ("stream.finalize", "stream.finalize_s"),
            ("report.build", "report.build_s"),
            ("report.json", "report.json_s"),
            ("persist.save", "persist.save_s"),
            ("persist.load", "persist.load_s"),
            ("persist.columns", "persist.columns_s"),
            ("replay.detect", "replay.detect_s"),
            ("replay.json", "replay.json_s"),
        ] {
            v.insert(metric, secs.get(span).copied().unwrap_or(0.0));
        }
        v.insert("analysis.unattributed_s", tr.self_seconds("analysis"));

        let t = &run.tool;
        v.insert("tool.data_op.calls", t.data_op.calls as f64);
        v.insert("tool.target.calls", t.target.calls as f64);
        v.insert("tool.submit.calls", t.submit.calls as f64);
        v.insert("tool.data_op.ns", t.data_op.mean_ns());
        v.insert("tool.target.ns", t.target.mean_ns());
        v.insert("tool.submit.ns", t.submit.mean_ns());
        v.insert("tool.busy_s", t.busy_s());
        v.insert("tool.finalize_s", t.finalize.nanos as f64 * 1e-9);

        let hash = run.handle.hash_meter();
        v.insert("hash.bytes", hash.bytes as f64);
        v.insert("hash.s", hash.nanos as f64 * 1e-9);
        v.insert("hash.gb_per_s", hash.gb_per_s());

        v.insert("detect.findings", an.report.counts.total() as f64);
        v.insert("ring.spilled", run.handle.spilled_events() as f64);
        for name in [
            "stream.buffered_peak",
            "stream.frontier_peak",
            "stream.live_frac",
        ] {
            v.entry(name).or_insert(0.0);
        }
        v.insert("report.json_bytes", an.json_bytes as f64);
        v.insert("sim.time_ms", run.stats.total_time.as_nanos() as f64 * 1e-6);

        let a = &run.advisor;
        let recovered = run
            .remedy
            .as_ref()
            .map_or(0, |(_, stats)| stats.totals().transfer_bytes_avoided);
        v.insert("remedy.consults", a.consults.calls as f64);
        v.insert("remedy.consult_ns", a.consults.mean_ns());
        v.insert("remedy.rewrite_frac", ratio(a.rewrites, a.consults.calls));
        v.insert("remedy.recovered_bytes", recovered as f64);
    }

    /// The output check, outside every timed region: the report's
    /// findings equal the separate reference passes on the same trace,
    /// the replayed findings equal the live ones byte for byte as JSON,
    /// and the per-kind counts equal the workload's pinned counts.
    fn check(&self, an: &Analysis, replayed: &Result<Findings, String>) -> Result<(), String> {
        let ops = an.trace.data_op_events_sorted();
        let kernels = an.trace.kernel_events_sorted();
        let oracle = Findings::detect_separate(ops, kernels, infer_num_devices(ops, kernels));
        let live = json(&an.report.findings)?;
        if json(&oracle)? != live {
            return Err("findings differ from Findings::detect_separate".into());
        }
        if json(replayed.as_ref()?)? != live {
            return Err("replayed findings differ from the live findings".into());
        }
        if an.report.counts != self.w.pinned {
            return Err(format!(
                "issue counts {:?} differ from the pinned {:?}",
                an.report.counts, self.w.pinned
            ));
        }
        Ok(())
    }
}

/// `num / den`, 0 for an empty denominator (a bypassed layer).
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn json(findings: &Findings) -> Result<String, String> {
    serde_json::to_string(findings).map_err(|e| format!("findings serialization: {e:?}"))
}

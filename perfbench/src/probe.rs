//! Timing decorators for the two extension points the runtime calls
//! into: the OMPT [`Tool`] and the remediation [`MapAdvisor`].
//!
//! Each decorator forwards every call to the wrapped implementation and
//! times it. Counters live in the decorator (no shared state on the
//! callback path) and are added into a shared sink when the decorator is
//! dropped, which the runtime does when its run ends. Per-callback spans
//! are not recorded: one tooled run makes 75k-150k callbacks, so the
//! decorator keeps call counts and summed durations instead.

use odp_model::{CodePtr, MapType};
use odp_ompt::{
    DataOpCallback, HostAccessInfo, KernelAccessInfo, MapAdvice, MapAdvisor, RuntimeCapabilities,
    SubmitCallback, TargetCallback, Tool, ToolRegistration,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Calls and summed wall nanoseconds of one callback kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallTime {
    pub calls: u64,
    pub nanos: u64,
}

impl CallTime {
    fn add(&mut self, o: &CallTime) {
        self.calls += o.calls;
        self.nanos += o.nanos;
    }

    /// Mean nanoseconds per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.nanos as f64 / self.calls as f64
        }
    }
}

/// What the tool decorators of one run observed, summed over shards.
#[derive(Clone, Copy, Debug, Default)]
pub struct ToolTimes {
    pub data_op: CallTime,
    pub target: CallTime,
    pub submit: CallTime,
    /// `initialize` and the instrumentation feeds (no-ops for this tool).
    pub other: CallTime,
    pub finalize: CallTime,
}

impl ToolTimes {
    fn add(&mut self, o: &ToolTimes) {
        self.data_op.add(&o.data_op);
        self.target.add(&o.target);
        self.submit.add(&o.submit);
        self.other.add(&o.other);
        self.finalize.add(&o.finalize);
    }

    /// Wall seconds spent inside the tool, over every call kind.
    pub fn busy_s(&self) -> f64 {
        let ns = self.data_op.nanos
            + self.target.nanos
            + self.submit.nanos
            + self.other.nanos
            + self.finalize.nanos;
        ns as f64 * 1e-9
    }
}

/// Shared sink the tool decorators of one run add into.
pub type ToolSink = Arc<Mutex<ToolTimes>>;

/// Forwards to `inner`, timing every trait call.
pub struct ProbeTool<T: Tool> {
    inner: T,
    times: ToolTimes,
    sink: ToolSink,
}

impl<T: Tool> ProbeTool<T> {
    pub fn new(inner: T, sink: ToolSink) -> Self {
        ProbeTool {
            inner,
            times: ToolTimes::default(),
            sink,
        }
    }
}

#[inline]
fn timed<R>(slot: &mut CallTime, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    slot.nanos += t.elapsed().as_nanos() as u64;
    slot.calls += 1;
    out
}

impl<T: Tool> Tool for ProbeTool<T> {
    fn initialize(&mut self, caps: &RuntimeCapabilities) -> ToolRegistration {
        let inner = &mut self.inner;
        timed(&mut self.times.other, || inner.initialize(caps))
    }

    fn on_target(&mut self, cb: &TargetCallback) {
        let inner = &mut self.inner;
        timed(&mut self.times.target, || inner.on_target(cb))
    }

    fn on_data_op(&mut self, cb: &DataOpCallback<'_>) {
        let inner = &mut self.inner;
        timed(&mut self.times.data_op, || inner.on_data_op(cb))
    }

    fn on_submit(&mut self, cb: &SubmitCallback) {
        let inner = &mut self.inner;
        timed(&mut self.times.submit, || inner.on_submit(cb))
    }

    fn on_kernel_access(&mut self, info: &KernelAccessInfo) {
        let inner = &mut self.inner;
        timed(&mut self.times.other, || inner.on_kernel_access(info))
    }

    fn on_host_access(&mut self, info: &HostAccessInfo) {
        let inner = &mut self.inner;
        timed(&mut self.times.other, || inner.on_host_access(info))
    }

    fn finalize(&mut self, total_time_ns: u64) {
        let inner = &mut self.inner;
        timed(&mut self.times.finalize, || inner.finalize(total_time_ns))
    }
}

impl<T: Tool> Drop for ProbeTool<T> {
    fn drop(&mut self) {
        // Every update is a whole add, so a poisoned sink is still valid.
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        sink.add(&self.times);
    }
}

/// What the advisor decorator of one run observed.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdvisorTimes {
    pub consults: CallTime,
    /// Consults whose advice rewrote the clause.
    pub rewrites: u64,
}

/// Shared sink the advisor decorator adds into.
pub type AdvisorSink = Arc<Mutex<AdvisorTimes>>;

/// Forwards to `inner`, timing every consult and counting rewrites.
pub struct ProbeAdvisor<A: MapAdvisor> {
    inner: A,
    times: AdvisorTimes,
    sink: AdvisorSink,
}

impl<A: MapAdvisor> ProbeAdvisor<A> {
    pub fn new(inner: A, sink: AdvisorSink) -> Self {
        ProbeAdvisor {
            inner,
            times: AdvisorTimes::default(),
            sink,
        }
    }

    fn record(&mut self, advice: MapAdvice) -> MapAdvice {
        self.times.rewrites += u64::from(!advice.is_keep());
        advice
    }
}

impl<A: MapAdvisor> MapAdvisor for ProbeAdvisor<A> {
    fn advise_enter(
        &mut self,
        device: u32,
        codeptr: CodePtr,
        host_addr: u64,
        bytes: u64,
        map_type: MapType,
    ) -> MapAdvice {
        let inner = &mut self.inner;
        let advice = timed(&mut self.times.consults, || {
            inner.advise_enter(device, codeptr, host_addr, bytes, map_type)
        });
        self.record(advice)
    }

    fn advise_exit(
        &mut self,
        device: u32,
        codeptr: CodePtr,
        host_addr: u64,
        bytes: u64,
        map_type: MapType,
    ) -> MapAdvice {
        let inner = &mut self.inner;
        let advice = timed(&mut self.times.consults, || {
            inner.advise_exit(device, codeptr, host_addr, bytes, map_type)
        });
        self.record(advice)
    }
}

impl<A: MapAdvisor> Drop for ProbeAdvisor<A> {
    fn drop(&mut self) {
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        sink.consults.add(&self.times.consults);
        sink.rewrites += self.times.rewrites;
    }
}

//! Measurement plumbing owned by the benchmark: the wall clock, the per-op
//! log every end-to-end latency metric is computed from, and the span
//! recorder of the traced run.
//!
//! Every span is taken *around* a call into a crate's public function from
//! the benchmark's own code; nothing inside the program is instrumented.
//! Only one simulated process runs at a time, so the wall duration of a
//! span includes other processes' turns: per-call metrics are therefore
//! read in sim time, and wall time is attributed only at `Fabric::run`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fabric::Proc;
use parking_lot::Mutex;

/// The benchmark's only wall-clock read.
#[allow(clippy::disallowed_methods)]
pub fn wall_now() -> Instant {
    // analyze: allow(wall-clock): the benchmark times the host on purpose; no reading ever reaches the simulation
    Instant::now()
}

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Which client operation an [`Op`] was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Append,
    Read,
}

/// One client data operation of a measured phase, in sim time.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: OpKind,
    pub bytes: u64,
    pub sim_ns: u64,
    /// False when the call failed or returned a wrong result.
    pub ok: bool,
}

/// How a timed call turned out.
pub struct Outcome {
    pub ok: bool,
    /// User bytes the call moved (0 = not a data operation).
    pub bytes: u64,
}

/// One recorded call: `<layer>.<fn>`, sim and wall bounds, the span that
/// caused it, and the simulated process (trace) it ran in.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
    pub sim_start: u64,
    pub sim_end: u64,
    pub wall_start_ns: u64,
    pub wall_end_ns: u64,
    pub ok: bool,
}

impl Span {
    pub fn sim_ns(&self) -> u64 {
        self.sim_end.saturating_sub(self.sim_start)
    }
}

/// Op log plus (in the traced run) span recorder, shared by every
/// simulated process of one repetition. Everything stays in memory until
/// the run ends.
pub struct Probe {
    traced: bool,
    epoch: Instant,
    next_id: AtomicU64,
    /// While false, calls are spanned but not logged as ops (set-up).
    measuring: AtomicBool,
    ops: Mutex<Vec<Op>>,
    spans: Mutex<Vec<Span>>,
}

impl Probe {
    pub fn new(traced: bool) -> Arc<Probe> {
        Arc::new(Probe {
            traced,
            epoch: wall_now(),
            next_id: AtomicU64::new(1),
            measuring: AtomicBool::new(false),
            ops: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Start logging ops: the measured phase begins.
    pub fn start_measuring(&self) {
        self.measuring.store(true, Ordering::SeqCst);
    }

    /// Stop logging ops: the measured phase is over (checks follow).
    pub fn stop_measuring(&self) {
        self.measuring.store(false, Ordering::SeqCst);
    }

    fn wall_ns(&self) -> u64 {
        if self.traced {
            u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
        } else {
            0
        }
    }

    fn record(&self, name: &'static str, p: &Proc, id: u64, parent: u64, bounds: Bounds, ok: bool) {
        if self.traced {
            self.spans.lock().push(Span {
                name,
                trace: trace_id(p),
                id,
                parent,
                sim_start: bounds.sim_start,
                sim_end: p.now(),
                wall_start_ns: bounds.wall_start_ns,
                wall_end_ns: self.wall_ns(),
                ok,
            });
        }
    }

    /// Span a whole block (e.g. one client's lifetime); `body` receives the
    /// span id to parent its calls on.
    pub fn span<T>(
        &self,
        p: &Proc,
        name: &'static str,
        parent: u64,
        body: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let bounds = Bounds {
            sim_start: p.now(),
            wall_start_ns: self.wall_ns(),
        };
        let out = body(id);
        self.record(name, p, id, parent, bounds, true);
        out
    }

    /// Time one call. `judge` says whether it succeeded and how many user
    /// bytes it moved; a call that moved bytes (or failed) during the
    /// measured phase is logged as an op of `kind`.
    pub fn timed<T>(
        &self,
        p: &Proc,
        name: &'static str,
        parent: u64,
        kind: Option<OpKind>,
        call: impl FnOnce() -> T,
        judge: impl FnOnce(&T) -> Outcome,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let bounds = Bounds {
            sim_start: p.now(),
            wall_start_ns: self.wall_ns(),
        };
        let out = call();
        let sim_ns = p.now().saturating_sub(bounds.sim_start);
        let Outcome { ok, bytes } = judge(&out);
        if let Some(kind) = kind {
            if self.measuring.load(Ordering::SeqCst) && (bytes > 0 || !ok) {
                self.ops.lock().push(Op {
                    kind,
                    bytes,
                    sim_ns,
                    ok,
                });
            }
        }
        self.record(name, p, id, parent, bounds, ok);
        out
    }

    pub fn take_ops(&self) -> Vec<Op> {
        std::mem::take(&mut *self.ops.lock())
    }

    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock());
        spans.sort_by_key(|s| s.id);
        spans
    }
}

#[derive(Clone, Copy)]
struct Bounds {
    sim_start: u64,
    wall_start_ns: u64,
}

/// One trace id per simulated process (FNV-1a of its unique name).
pub fn trace_id(p: &Proc) -> u64 {
    p.name().bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `Outcome` of a `Result`-returning call that moves `bytes` on success.
pub fn moved<T, E>(r: &Result<T, E>, bytes: u64) -> Outcome {
    Outcome {
        ok: r.is_ok(),
        bytes,
    }
}

/// `Outcome` of a control call (no user bytes).
pub fn control<T, E>(r: &Result<T, E>) -> Outcome {
    moved(r, 0)
}

//! Live execution mode: the same [`crate::Proc`] API mapped onto real OS
//! threads and the wall clock. Transfers, disk charges and compute charges
//! are free — in live mode the *actual* work performed on real payload bytes
//! is the cost. This is the mode used by functional tests and the runnable
//! examples; nodes are purely logical placement labels.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::stats::FabricStats;
use crate::time::SimTime;
use crate::topology::ClusterSpec;

struct LiveState {
    live: u32,
    next_proc_id: u64,
    panics: Vec<String>,
    transfers: u64,
    bytes_requested: f64,
}

pub(crate) struct LiveCore {
    pub spec: ClusterSpec,
    pub seed: u64,
    start: Instant,
    state: Mutex<LiveState>,
    cv: Condvar,
}

impl LiveCore {
    // Live mode IS the time boundary: this Instant anchors the wall clock
    // every live-mode timestamp derives from.
    #[allow(clippy::disallowed_methods)]
    pub fn new(spec: ClusterSpec, seed: u64) -> Arc<Self> {
        Arc::new(LiveCore {
            spec,
            seed,
            start: Instant::now(),
            state: Mutex::new(LiveState {
                live: 0,
                next_proc_id: 0,
                panics: Vec::new(),
                transfers: 0,
                bytes_requested: 0.0,
            }),
            cv: Condvar::new(),
        })
    }

    pub fn now(&self) -> SimTime {
        self.start.elapsed().as_nanos() as SimTime
    }

    pub fn proc_started(&self) -> u64 {
        let mut st = self.state.lock();
        st.live += 1;
        let pid = st.next_proc_id;
        st.next_proc_id += 1;
        pid
    }

    pub fn proc_finished(&self) {
        let mut st = self.state.lock();
        st.live -= 1;
        if st.live == 0 {
            self.cv.notify_all();
        }
    }

    pub fn proc_panicked(&self, name: &str, msg: String) {
        let mut st = self.state.lock();
        st.panics.push(format!("process '{name}' panicked: {msg}"));
        st.live -= 1;
        if st.live == 0 {
            self.cv.notify_all();
        }
    }

    pub fn note_transfer(&self, bytes: u64) {
        let mut st = self.state.lock();
        st.transfers += 1;
        st.bytes_requested += bytes as f64;
    }

    /// Wait for all spawned processes to finish; re-raise collected panics.
    pub fn run(&self) {
        let mut st = self.state.lock();
        while st.live > 0 {
            self.cv.wait(&mut st);
        }
        let panics = std::mem::take(&mut st.panics);
        drop(st);
        if !panics.is_empty() {
            panic!("{}", panics.join("\n"));
        }
    }

    pub fn stats(&self) -> FabricStats {
        let st = self.state.lock();
        FabricStats {
            per_resource: vec![0.0; self.spec.resource_count()],
            transfers: st.transfers,
            bytes_requested: st.bytes_requested,
            now_ns: self.now(),
            ..FabricStats::default()
        }
    }
}

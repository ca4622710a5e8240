//! What one repetition of a workload returns, and the simulation helpers
//! every workload shares.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use blobseer::BlobSeer;
use fabric::{Fabric, NodeId, Proc, MILLIS};
use parking_lot::Mutex;

use crate::layers::Layers;
use crate::probe::{Op, Span};

/// One paper-scale chunk / page: 64 MiB.
pub const CHUNK: u64 = 64 * 1024 * 1024;

/// Sim interval of the traced run's version-manager monitor.
const VM_SAMPLE_NS: u64 = 50 * MILLIS;

/// Output checks of one repetition; each check is one attempted operation
/// and a failed check one failed operation.
#[derive(Default, Debug, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

/// One repetition: set-up, measured phase, checks.
pub struct Rep {
    /// Wall time of deploy, input generation and prefill.
    pub setup_wall_s: f64,
    /// Wall time of the measured phase.
    pub wall_s: f64,
    /// Modeled makespan of the measured phase.
    pub sim_s: f64,
    /// Client data operations of the measured phase.
    pub ops: Vec<Op>,
    pub space_amp: f64,
    pub checks: Checks,
    pub layers: Layers,
    pub spans: Vec<Span>,
}

/// The latest sim time any client of a phase finished at.
#[derive(Clone, Default)]
pub struct Finish {
    done: Arc<AtomicU32>,
    last_ns: Arc<AtomicU64>,
}

impl Finish {
    pub fn mark(&self, p: &Proc) {
        self.last_ns.fetch_max(p.now(), Ordering::SeqCst);
        self.done.fetch_add(1, Ordering::SeqCst);
    }

    pub fn done(&self) -> u32 {
        self.done.load(Ordering::SeqCst)
    }

    pub fn last_ns(&self) -> u64 {
        self.last_ns.load(Ordering::SeqCst)
    }
}

/// Spawn `f` as one process, run the world to completion and return its
/// result.
pub fn run_proc<T, F>(fx: &Fabric, node: NodeId, name: &str, f: F) -> Result<T, String>
where
    T: Send + 'static,
    F: FnOnce(&Proc) -> Result<T, String> + Send + 'static,
{
    let h = fx.spawn(node, name, f);
    fx.run();
    h.take()
        .ok_or_else(|| format!("process {name} finished without a result"))?
}

/// Traced run only (it adds events): sample the number of assigned but
/// unpublished versions over every blob at a fixed sim interval until
/// `clients` processes have finished. Spawned after the clients, so their
/// process ids and RNG streams are unchanged.
pub fn spawn_vm_sampler(
    fx: &Fabric,
    store: &BlobSeer,
    finish: &Finish,
    clients: u32,
) -> Arc<Mutex<Vec<f64>>> {
    let samples = Arc::new(Mutex::new(Vec::new()));
    let (store, finish, out) = (store.clone(), finish.clone(), samples.clone());
    let node = store.layout().vm;
    fx.spawn(node, "vm-sampler", move |p| {
        while finish.done() < clients {
            let vm = store.version_manager();
            let pending: usize = vm.blob_ids().into_iter().map(|b| vm.pending_count(b)).sum();
            out.lock().push(pending as f64);
            p.sleep(VM_SAMPLE_NS);
        }
    });
    samples
}

/// Clients run on the provider nodes (§4.2 of the paper): nodes 23..270 of
/// the Orsay layout.
pub fn provider_node(i: u32) -> NodeId {
    NodeId(23 + i % 247)
}

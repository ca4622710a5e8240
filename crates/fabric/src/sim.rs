//! The discrete-event simulation core.
//!
//! Model (SimGrid-style "fluid" network model):
//!
//! * Every node contributes TX/RX/disk/CPU/loopback *resources* with fixed
//!   capacities ([`ClusterSpec`]). An optional backplane resource is shared
//!   by all remote flows.
//! * A *flow* is a quantity of work (bytes, CPU ops) that simultaneously
//!   claims a set of resources. Active flows share each resource max-min
//!   fairly (progressive filling); a flow's rate is the minimum of its
//!   per-resource allocations.
//! * *Processes* are real OS threads that run **one at a time**: a process
//!   executes until it blocks on a flow, a sleep, a queue or a gate, at which
//!   point the engine advances the virtual clock to the next event and wakes
//!   exactly one process. All wakeups are ordered by `(time, seq)`, so a
//!   simulation is deterministic for a fixed seed and spawn order.
//!
//! Max-min allocations decompose over the connected components of the
//! flow–resource graph. When a flow starts or finishes, progressive filling
//! re-runs only over the component(s) holding that flow's resources; every
//! other flow keeps its rate bit for bit. The component's flows are filled
//! in id order, so bottleneck ties break exactly as in a fill over all
//! flows (debug builds check this after every recompute).
//!
//! Flow completions never enter the event heap. Each recompute re-derives
//! every flow's completion time and keeps the earliest; the run loop fires
//! it when it precedes the heap's next wake. The heap holds only process
//! wakes, and a wake whose block generation has moved on is discarded when
//! popped.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::net::{NetFault, NetFaultKind};
use crate::parker::Parker;
use crate::stats::FabricStats;
use crate::time::SimTime;
use crate::topology::{ClusterSpec, NodeId};

/// Salt xor'd into the fabric seed for the network-fault RNG stream, so
/// fault draws never perturb the per-process RNG streams.
const NET_SALT: u64 = 0x4E45_545F_4641_554C; // "NET_FAUL"

/// Reasons a process can be blocked — used in deadlock diagnostics.
pub(crate) type BlockReason = &'static str;

/// What the run loop fires next.
enum Due {
    /// A flow ran out of work (or came due starved, see `reschedule`).
    Flow(u64),
    /// A valid wake for this process.
    Wake(u64),
}

/// Wake a blocked process (sleeps, queue/gate notifications, spawns) if it
/// is still blocked in generation `gen`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ev {
    time: SimTime,
    seq: u64,
    proc: u64,
    gen: u64,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Flow {
    resources: Vec<u32>,
    remaining: f64,
    rate: f64,
    /// Set while a recompute holds the flow in its component and has not
    /// yet frozen its rate; clear between recomputes.
    mark: bool,
    waiter: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    Runnable,
    Blocked(&'static str),
    Finished,
}

struct ProcInfo {
    name: String,
    node: NodeId,
    parker: Arc<Parker>,
    state: ProcState,
    /// Incremented on every block; wake events carry the generation they
    /// target so stale wakeups are discarded.
    block_gen: u64,
}

struct SimState {
    now: SimTime,
    seq: u64,
    events: BinaryHeap<Reverse<Ev>>,
    flows: BTreeMap<u64, Flow>,
    /// Earliest `(eta, id)` over all flows, as of the last recompute.
    next_flow: Option<(SimTime, u64)>,
    /// First `seq` of the last recompute's block: flow `k` in id order
    /// ranks as if scheduled with `flow_seq + k`, so a completion at `eta`
    /// precedes a wake at the same time iff that wake was pushed earlier.
    flow_seq: u64,
    next_flow_id: u64,
    /// resource -> active flow ids
    res_flows: Vec<Vec<u64>>,
    /// resource -> accumulated work done (bytes / ops)
    res_done: Vec<f64>,
    last_settle: SimTime,
    runnable: u32,
    live_procs: u32,
    procs: HashMap<u64, ProcInfo>,
    next_proc_id: u64,
    panics: Vec<String>,
    transfers: u64,
    flows_started: u64,
    bytes_requested: f64,
    events_processed: u64,
    heap_pushes: u64,
    recomputes: u64,
    rerated_flows: u64,
    running: bool,
    // scratch buffers for recompute (reused to avoid per-event allocation)
    scratch_cap: Vec<f64>,
    scratch_nf: Vec<u32>,
    /// Resources reached by the current component search.
    res_seen: Vec<bool>,
    /// Component search queue; afterwards, every resource it reached.
    bfs: Vec<u32>,
    /// Flow ids of the current component, ascending.
    comp: Vec<u64>,
    /// The component's loaded resources in first-appearance order.
    active_res: Vec<u32>,
    /// Installed network-fault windows (expired ones are pruned lazily).
    net_faults: Vec<NetFault>,
    /// Dedicated RNG stream for Drop draws; decoupled from process RNGs so
    /// installing faults never shifts workload randomness.
    net_rng: StdRng,
    net_fault_hits: u64,
}

pub(crate) struct SimCore {
    pub spec: ClusterSpec,
    pub seed: u64,
    state: Mutex<SimState>,
    engine_cv: Condvar,
}

impl SimCore {
    pub fn new(spec: ClusterSpec, seed: u64) -> Arc<Self> {
        let nres = spec.resource_count();
        Arc::new(SimCore {
            spec,
            seed,
            state: Mutex::new(SimState {
                now: 0,
                seq: 0,
                events: BinaryHeap::new(),
                flows: BTreeMap::new(),
                next_flow: None,
                flow_seq: 0,
                next_flow_id: 0,
                res_flows: vec![Vec::new(); nres],
                res_done: vec![0.0; nres],
                last_settle: 0,
                runnable: 0,
                live_procs: 0,
                procs: HashMap::new(),
                next_proc_id: 0,
                panics: Vec::new(),
                transfers: 0,
                flows_started: 0,
                bytes_requested: 0.0,
                events_processed: 0,
                heap_pushes: 0,
                recomputes: 0,
                rerated_flows: 0,
                running: false,
                scratch_cap: vec![0.0; nres],
                scratch_nf: vec![0; nres],
                res_seen: vec![false; nres],
                bfs: Vec::new(),
                comp: Vec::new(),
                active_res: Vec::new(),
                net_faults: Vec::new(),
                net_rng: StdRng::seed_from_u64(seed ^ NET_SALT),
                net_fault_hits: 0,
            }),
            engine_cv: Condvar::new(),
        })
    }

    pub fn now(&self) -> SimTime {
        self.state.lock().now
    }

    /// Register a new process in Blocked state and schedule its initial wake
    /// at the current virtual time. Returns the process id.
    pub fn register_proc(&self, node: NodeId, name: &str, parker: Arc<Parker>) -> u64 {
        let mut st = self.state.lock();
        let pid = st.next_proc_id;
        st.next_proc_id += 1;
        st.procs.insert(
            pid,
            ProcInfo {
                name: name.to_string(),
                node,
                parker,
                state: ProcState::Blocked("spawn"),
                block_gen: 0,
            },
        );
        st.live_procs += 1;
        let now = st.now;
        Self::push_wake(&mut st, now, pid, 0);
        pid
    }

    fn push_wake(st: &mut SimState, time: SimTime, proc: u64, gen: u64) {
        let seq = st.seq;
        st.seq += 1;
        st.heap_pushes += 1;
        st.events.push(Reverse(Ev {
            time,
            seq,
            proc,
            gen,
        }));
    }

    /// Mark the calling process blocked and return the fresh block
    /// generation. The caller must subsequently `parker.park()` *without*
    /// holding the state lock. `register` runs under the state lock and may
    /// push events / flows that will eventually wake this generation.
    fn block<R>(
        &self,
        pid: u64,
        reason: BlockReason,
        register: impl FnOnce(&mut SimState, u64) -> R,
    ) -> R {
        let mut st = self.state.lock();
        let p = st.procs.get_mut(&pid).expect("blocking unknown process");
        debug_assert_eq!(
            p.state,
            ProcState::Runnable,
            "process must be running to block"
        );
        p.block_gen += 1;
        p.state = ProcState::Blocked(reason);
        let gen = p.block_gen;
        let out = register(&mut st, gen);
        st.runnable -= 1;
        if st.runnable == 0 {
            self.engine_cv.notify_all();
        }
        out
    }

    /// Same as [`Self::block`] but for callers that already computed their
    /// generation via [`Self::block_prepare`] (queue/gate paths that must
    /// hold their own lock while registering).
    pub(crate) fn block_prepare(&self, pid: u64, reason: BlockReason) -> u64 {
        let mut st = self.state.lock();
        let p = st.procs.get_mut(&pid).expect("blocking unknown process");
        debug_assert_eq!(p.state, ProcState::Runnable);
        p.block_gen += 1;
        p.state = ProcState::Blocked(reason);
        let gen = p.block_gen;
        st.runnable -= 1;
        if st.runnable == 0 {
            self.engine_cv.notify_all();
        }
        gen
    }

    /// Schedule a wake for `(pid, gen)` at the current virtual time.
    /// Harmless if stale — the engine discards mismatched generations.
    pub(crate) fn schedule_wake(&self, pid: u64, gen: u64) {
        let mut st = self.state.lock();
        let now = st.now;
        Self::push_wake(&mut st, now, pid, gen);
    }

    /// Block the calling process for `dur` nanoseconds of virtual time.
    pub fn sleep(&self, pid: u64, parker: &Parker, dur: u64) {
        self.block(pid, "sleep", |st, gen| {
            let t = st.now.saturating_add(dur);
            Self::push_wake(st, t, pid, gen);
        });
        parker.park();
    }

    /// Block the calling process on a fluid flow of `work` units across
    /// `resources`.
    pub fn flow(&self, pid: u64, parker: &Parker, resources: &[u32], work: f64) {
        if work <= 0.0 {
            return;
        }
        self.block(pid, "flow", |st, _gen| {
            let now = st.now;
            Self::settle(st, now);
            let id = st.next_flow_id;
            st.next_flow_id += 1;
            for &r in resources {
                st.res_flows[r as usize].push(id);
            }
            st.flows.insert(
                id,
                Flow {
                    resources: resources.to_vec(),
                    remaining: work,
                    rate: 0.0,
                    mark: false,
                    waiter: pid,
                },
            );
            st.flows_started += 1;
            Self::recompute(st, &self.spec, resources);
        });
        parker.park();
    }

    /// Record a transfer request in the stats (called for every message,
    /// including latency-only small ones).
    pub fn note_transfer(&self, bytes: u64) {
        let mut st = self.state.lock();
        st.transfers += 1;
        st.bytes_requested += bytes as f64;
    }

    /// Install a network-fault window. Takes effect immediately; transfers
    /// starting inside `[from_ns, until_ns)` that match the rule pay the
    /// fault's cost.
    pub fn inject_net_fault(&self, fault: NetFault) {
        assert!(
            fault.from_ns < fault.until_ns,
            "net fault window is empty: [{}, {})",
            fault.from_ns,
            fault.until_ns
        );
        self.state.lock().net_faults.push(fault);
    }

    /// Remove every installed network fault (heal the network).
    pub fn clear_net_faults(&self) {
        self.state.lock().net_faults.clear();
    }

    /// Extra nanoseconds a transfer `src`→`dst` starting now must wait for
    /// active network faults: partition stalls until the latest matching
    /// window closes, then delay/drop penalties apply on top. Returns 0 when
    /// no fault matches. Expired windows are pruned as a side effect.
    pub fn net_penalty(&self, src: NodeId, dst: NodeId) -> u64 {
        let mut st = self.state.lock();
        if st.net_faults.is_empty() {
            return 0;
        }
        let now = st.now;
        st.net_faults.retain(|f| f.until_ns > now);
        let mut stall_until: SimTime = 0;
        let mut extra: u64 = 0;
        let mut hits: u64 = 0;
        // Split borrows: faults are read while the RNG draws.
        let SimState {
            net_faults,
            net_rng,
            ..
        } = &mut *st;
        for f in net_faults.iter() {
            if now < f.from_ns || !f.matches(src, dst) {
                continue;
            }
            match f.kind {
                NetFaultKind::Delay { extra_ns } => {
                    extra += extra_ns;
                    hits += 1;
                }
                NetFaultKind::Drop {
                    prob,
                    retransmit_ns,
                } => {
                    if net_rng.gen_bool(prob) {
                        extra += retransmit_ns;
                        hits += 1;
                    }
                }
                NetFaultKind::Partition => {
                    stall_until = stall_until.max(f.until_ns);
                    hits += 1;
                }
            }
        }
        st.net_fault_hits += hits;
        stall_until.saturating_sub(now) + extra
    }

    /// Process finished normally.
    pub fn proc_finished(&self, pid: u64) {
        let mut st = self.state.lock();
        self.finish_inner(&mut st, pid);
    }

    /// Process panicked; the panic is re-raised from `run()`.
    pub fn proc_panicked(&self, pid: u64, msg: String) {
        let mut st = self.state.lock();
        let name = st
            .procs
            .get(&pid)
            .map(|p| p.name.clone())
            .unwrap_or_default();
        st.panics.push(format!("process '{name}' panicked: {msg}"));
        self.finish_inner(&mut st, pid);
    }

    fn finish_inner(&self, st: &mut SimState, pid: u64) {
        let p = st.procs.get_mut(&pid).expect("finishing unknown process");
        debug_assert_eq!(p.state, ProcState::Runnable);
        p.state = ProcState::Finished;
        st.runnable -= 1;
        st.live_procs -= 1;
        if st.runnable == 0 {
            self.engine_cv.notify_all();
        }
    }

    /// Advance all flows' remaining work to time `to`.
    fn settle(st: &mut SimState, to: SimTime) {
        debug_assert!(to >= st.last_settle);
        let dt = (to - st.last_settle) as f64 / 1e9;
        if dt > 0.0 {
            // Split borrows: flows and res_done are distinct fields.
            let res_done = &mut st.res_done;
            for f in st.flows.values_mut() {
                let done = f.rate * dt;
                f.remaining = (f.remaining - done).max(0.0);
                for &r in &f.resources {
                    res_done[r as usize] += done;
                }
            }
        }
        st.last_settle = to;
    }

    /// Re-rate the flows that share a component with `seeds` (the resources
    /// of the flow that just started or finished), then re-derive every
    /// flow's completion time.
    fn recompute(st: &mut SimState, spec: &ClusterSpec, seeds: &[u32]) {
        st.recomputes += 1;
        Self::collect_component(st, seeds);
        st.rerated_flows += st.comp.len() as u64;
        let comp = std::mem::take(&mut st.comp);
        Self::fill(st, spec, &comp);
        st.comp = comp;
        #[cfg(debug_assertions)]
        Self::check_against_full_fill(st, spec);
        Self::reschedule(st);
    }

    /// Breadth-first search over `res_flows` from `seeds`: mark every flow
    /// reachable through shared resources and leave their ids, ascending,
    /// in `st.comp`.
    fn collect_component(st: &mut SimState, seeds: &[u32]) {
        let SimState {
            flows,
            res_flows,
            res_seen,
            bfs,
            comp,
            ..
        } = st;
        comp.clear();
        bfs.clear();
        for &r in seeds {
            if !res_seen[r as usize] {
                res_seen[r as usize] = true;
                bfs.push(r);
            }
        }
        let mut next = 0;
        while let Some(&r) = bfs.get(next) {
            next += 1;
            for id in &res_flows[r as usize] {
                let f = flows.get_mut(id).expect("resource lists only live flows");
                if f.mark {
                    continue;
                }
                f.mark = true;
                comp.push(*id);
                for &r2 in &f.resources {
                    if !res_seen[r2 as usize] {
                        res_seen[r2 as usize] = true;
                        bfs.push(r2);
                    }
                }
            }
        }
        for &r in bfs.iter() {
            res_seen[r as usize] = false;
        }
        comp.sort_unstable();
    }

    /// Max-min fair rate allocation (progressive filling) over the marked
    /// flows `comp`, ascending by id. Clears their marks.
    fn fill(st: &mut SimState, spec: &ClusterSpec, comp: &[u64]) {
        let SimState {
            flows,
            res_flows,
            scratch_cap: cap,
            scratch_nf: nf,
            active_res,
            ..
        } = st;
        // Collect resources that carry the component's flows.
        active_res.clear();
        for id in comp {
            for &r in &flows[id].resources {
                if nf[r as usize] == 0 {
                    active_res.push(r);
                }
                nf[r as usize] += 1;
            }
        }
        for &r in active_res.iter() {
            cap[r as usize] = spec.capacity(r);
        }

        // Progressive filling: repeatedly find the resource with the lowest
        // fair share, freeze its flows at that rate, subtract.
        let mut unfrozen = comp.len();
        while unfrozen > 0 {
            let mut best: Option<(u32, f64)> = None;
            for &r in active_res.iter() {
                let n = nf[r as usize];
                if n == 0 {
                    continue;
                }
                let share = (cap[r as usize] / n as f64).max(0.0);
                if best.is_none_or(|(_, s)| share < s) {
                    best = Some((r, share));
                }
            }
            let Some((bottleneck, share)) = best else {
                break;
            };
            // Freeze all unfrozen flows crossing the bottleneck.
            for id in &res_flows[bottleneck as usize] {
                let f = flows.get_mut(id).expect("resource lists only live flows");
                if !f.mark {
                    continue;
                }
                f.mark = false;
                f.rate = share;
                unfrozen -= 1;
                for &r in &f.resources {
                    cap[r as usize] = (cap[r as usize] - share).max(0.0);
                    nf[r as usize] -= 1;
                }
            }
        }
        // Flows that cross no resource get no rate.
        if unfrozen > 0 {
            for id in comp {
                let f = flows.get_mut(id).expect("component lists only live flows");
                if f.mark {
                    f.mark = false;
                    f.rate = 0.0;
                }
            }
        }

        // Clear scratch.
        for &r in active_res.iter() {
            nf[r as usize] = 0;
            cap[r as usize] = 0.0;
        }
    }

    /// Debug oracle: a fill over every flow must reproduce the incremental
    /// rates bit for bit. A divergence is raised from `run()`, like a
    /// process panic (a panic here could strand the calling process).
    #[cfg(debug_assertions)]
    fn check_against_full_fill(st: &mut SimState, spec: &ClusterSpec) {
        let want: Vec<(u64, f64)> = st.flows.iter().map(|(&id, f)| (id, f.rate)).collect();
        let all: Vec<u64> = want.iter().map(|&(id, _)| id).collect();
        for f in st.flows.values_mut() {
            f.mark = true;
        }
        Self::fill(st, spec, &all);
        for (id, incremental) in want {
            let full = st.flows[&id].rate;
            if full.to_bits() != incremental.to_bits() {
                st.panics.push(format!(
                    "engine: flow {id} re-rated to {incremental} by its component, {full} by a full fill"
                ));
            }
        }
    }

    /// Re-derive every flow's completion time from its settled `remaining`
    /// and current rate, and pick the earliest. The flows take the next
    /// `flows.len()` sequence numbers as one block, in id order.
    fn reschedule(st: &mut SimState) {
        let now = st.now;
        st.flow_seq = st.seq;
        st.seq += st.flows.len() as u64;
        let mut next: Option<(SimTime, u64)> = None;
        for (&id, f) in st.flows.iter() {
            let eta = if f.remaining <= 0.0 {
                now
            } else if f.rate <= 0.0 {
                // Fully starved flow (capacity exhausted by frozen flows due
                // to fp rounding): it comes due shortly and is re-armed, not
                // completed, while work remains.
                now + 1_000
            } else {
                now + ((f.remaining / f.rate) * 1e9).ceil() as u64
            };
            if next.is_none_or(|(t, _)| eta < t) {
                next = Some((eta, id));
            }
        }
        st.next_flow = next;
    }

    fn wake_proc(&self, st: &mut SimState, pid: u64) {
        let p = st.procs.get_mut(&pid).expect("waking unknown process");
        debug_assert!(matches!(p.state, ProcState::Blocked(_)));
        p.state = ProcState::Runnable;
        st.runnable += 1;
        p.parker.unpark();
    }

    /// Is this wake still meaningful?
    fn wake_valid(st: &SimState, ev: &Ev) -> bool {
        st.procs
            .get(&ev.proc)
            .is_some_and(|p| matches!(p.state, ProcState::Blocked(_)) && p.block_gen == ev.gen)
    }

    /// The flow due next, if its completion precedes every queued wake.
    fn flow_due(st: &SimState) -> Option<(SimTime, u64)> {
        let (eta, id) = st.next_flow?;
        st.events
            .peek()
            .is_none_or(|Reverse(w)| (eta, st.flow_seq) < (w.time, w.seq))
            .then_some((eta, id))
    }

    /// Run the engine until every process has finished. Panics are collected
    /// from processes and re-raised here. Must be called from a thread that
    /// is *not* a fabric process (typically the test/bench main thread).
    pub fn run(&self) {
        let mut st = self.state.lock();
        assert!(!st.running, "SimCore::run is not reentrant");
        st.running = true;
        loop {
            while st.runnable > 0 {
                self.engine_cv.wait(&mut st);
            }
            if !st.panics.is_empty() || st.live_procs == 0 {
                break;
            }
            // The next event: the due flow completion or the next valid wake.
            let (time, due) = loop {
                if let Some((eta, id)) = Self::flow_due(&st) {
                    break (eta, Due::Flow(id));
                }
                match st.events.pop() {
                    None => {
                        let mut msg = String::from(
                            "fabric deadlock: no runnable process and no pending events.\nBlocked processes:\n",
                        );
                        let mut blocked: Vec<_> = st
                            .procs
                            .values()
                            .filter_map(|p| match p.state {
                                ProcState::Blocked(r) => Some(format!(
                                    "  - '{}' on {} blocked on {}\n",
                                    p.name, p.node, r
                                )),
                                _ => None,
                            })
                            .collect();
                        blocked.sort();
                        for b in blocked {
                            msg.push_str(&b);
                        }
                        st.running = false;
                        drop(st);
                        panic!("{msg}");
                    }
                    Some(Reverse(ev)) => {
                        if Self::wake_valid(&st, &ev) {
                            break (ev.time, Due::Wake(ev.proc));
                        }
                    }
                }
            };
            debug_assert!(time >= st.now, "time must be monotonic");
            Self::settle(&mut st, time);
            st.now = time;
            st.events_processed += 1;
            match due {
                Due::Wake(proc) => self.wake_proc(&mut st, proc),
                Due::Flow(id) if st.flows[&id].remaining > 1.0 => {
                    // A starved flow came due with work left: re-arm it
                    // under fresh rates instead of completing it early.
                    let seeds = st.flows[&id].resources.clone();
                    Self::recompute(&mut st, &self.spec, &seeds);
                }
                Due::Flow(id) => {
                    let f = st.flows.remove(&id).expect("next_flow names a live flow");
                    for &r in &f.resources {
                        st.res_flows[r as usize].retain(|&x| x != id);
                    }
                    Self::recompute(&mut st, &self.spec, &f.resources);
                    self.wake_proc(&mut st, f.waiter);
                }
            }
        }
        st.running = false;
        let panics = std::mem::take(&mut st.panics);
        drop(st);
        if !panics.is_empty() {
            panic!("{}", panics.join("\n"));
        }
    }

    pub fn stats(&self) -> FabricStats {
        let st = self.state.lock();
        FabricStats {
            per_resource: st.res_done.clone(),
            transfers: st.transfers,
            flows: st.flows_started,
            bytes_requested: st.bytes_requested,
            events: st.events_processed,
            heap_pushes: st.heap_pushes,
            recomputes: st.recomputes,
            rerated_flows: st.rerated_flows,
            now_ns: st.now,
            net_fault_hits: st.net_fault_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ResourceKind;

    fn spawn_raw(
        core: &Arc<SimCore>,
        node: NodeId,
        name: &str,
        f: impl FnOnce(u64, &Parker) + Send + 'static,
    ) {
        let parker = Arc::new(Parker::new());
        let pid = core.register_proc(node, name, parker.clone());
        let core2 = core.clone();
        std::thread::spawn(move || {
            parker.park();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(pid, &parker)));
            match r {
                Ok(()) => core2.proc_finished(pid),
                Err(e) => {
                    let msg = e
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| e.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic".into());
                    core2.proc_panicked(pid, msg);
                }
            }
        });
    }

    #[test]
    fn single_flow_takes_size_over_bandwidth() {
        let spec = ClusterSpec::tiny(2);
        let core = SimCore::new(spec.clone(), 0);
        let bytes = 117_000_000u64; // exactly 1 second at nic_bw
        let tx = spec.resource(NodeId(0), ResourceKind::Tx);
        let rx = spec.resource(NodeId(1), ResourceKind::Rx);
        let done = Arc::new(Mutex::new(0u64));
        let d2 = done.clone();
        let c2 = core.clone();
        spawn_raw(&core, NodeId(0), "xfer", move |pid, parker| {
            c2.flow(pid, parker, &[tx, rx], bytes as f64);
            *d2.lock() = c2.now();
        });
        core.run();
        let t = *done.lock();
        assert!((t as f64 - 1e9).abs() < 2.0e3, "expected ~1e9 ns, got {t}");
    }

    #[test]
    fn two_flows_share_a_tx_link_fairly() {
        let spec = ClusterSpec::tiny(3);
        let core = SimCore::new(spec.clone(), 0);
        let bytes = 117_000_000u64;
        // Both flows leave node 0 -> shared TX -> each gets half the rate.
        let times = Arc::new(Mutex::new(Vec::new()));
        for dst in [1u32, 2u32] {
            let tx = spec.resource(NodeId(0), ResourceKind::Tx);
            let rx = spec.resource(NodeId(dst), ResourceKind::Rx);
            let c2 = core.clone();
            let t2 = times.clone();
            spawn_raw(&core, NodeId(0), "xfer", move |pid, parker| {
                c2.flow(pid, parker, &[tx, rx], bytes as f64);
                t2.lock().push(c2.now());
            });
        }
        core.run();
        for &t in times.lock().iter() {
            assert!(
                (t as f64 - 2e9).abs() < 5.0e3,
                "expected ~2e9 ns (half rate), got {t}"
            );
        }
    }

    #[test]
    fn disjoint_flows_do_not_interfere() {
        let spec = ClusterSpec::tiny(4);
        let core = SimCore::new(spec.clone(), 0);
        let bytes = 117_000_000u64;
        let times = Arc::new(Mutex::new(Vec::new()));
        for (src, dst) in [(0u32, 1u32), (2, 3)] {
            let tx = spec.resource(NodeId(src), ResourceKind::Tx);
            let rx = spec.resource(NodeId(dst), ResourceKind::Rx);
            let c2 = core.clone();
            let t2 = times.clone();
            spawn_raw(&core, NodeId(src), "xfer", move |pid, parker| {
                c2.flow(pid, parker, &[tx, rx], bytes as f64);
                t2.lock().push(c2.now());
            });
        }
        core.run();
        for &t in times.lock().iter() {
            assert!((t as f64 - 1e9).abs() < 2.0e3, "expected ~1e9 ns, got {t}");
        }
    }

    #[test]
    fn sleep_orders_events() {
        let core = SimCore::new(ClusterSpec::tiny(1), 0);
        let order = Arc::new(Mutex::new(Vec::new()));
        for (i, d) in [(0u32, 30u64), (1, 10), (2, 20)] {
            let c2 = core.clone();
            let o2 = order.clone();
            spawn_raw(&core, NodeId(0), "sleeper", move |pid, parker| {
                c2.sleep(pid, parker, d * 1_000_000);
                o2.lock().push(i);
            });
        }
        core.run();
        assert_eq!(*order.lock(), vec![1, 2, 0]);
    }

    #[test]
    fn deterministic_event_counts() {
        let run_once = || {
            let spec = ClusterSpec::tiny(8);
            let core = SimCore::new(spec.clone(), 42);
            for i in 0..6u32 {
                let tx = spec.resource(NodeId(i % 4), ResourceKind::Tx);
                let rx = spec.resource(NodeId((i + 1) % 8), ResourceKind::Rx);
                let c2 = core.clone();
                spawn_raw(&core, NodeId(i % 4), "x", move |pid, parker| {
                    c2.sleep(pid, parker, (i as u64) * 1000);
                    c2.flow(pid, parker, &[tx, rx], 1e6 * (i + 1) as f64);
                });
            }
            core.run();
            let s = core.stats();
            (s.events, s.now_ns)
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn starved_flow_is_rearmed_not_completed() {
        let spec = ClusterSpec::tiny(2);
        let core = SimCore::new(spec.clone(), 0);
        let bytes = 117_000_000.0; // exactly 1 second at nic_bw
        let tx = spec.resource(NodeId(0), ResourceKind::Tx);
        let rx = spec.resource(NodeId(1), ResourceKind::Rx);
        let done = Arc::new(Mutex::new(None));
        let (c2, d2) = (core.clone(), done.clone());
        spawn_raw(&core, NodeId(0), "xfer", move |pid, parker| {
            c2.flow(pid, parker, &[tx, rx], bytes);
            let st = c2.state.lock();
            *d2.lock() = Some((st.now, st.res_done[tx as usize]));
        });
        let c3 = core.clone();
        spawn_raw(&core, NodeId(1), "starver", move |pid, parker| {
            c3.sleep(pid, parker, 500_000_000);
            // Halfway through, starve the flow as fp rounding in the fill
            // could: rate 0, so it comes due 1 us later with work left.
            let mut st = c3.state.lock();
            let now = st.now;
            SimCore::settle(&mut st, now);
            for f in st.flows.values_mut() {
                f.rate = 0.0;
            }
            SimCore::reschedule(&mut st);
            assert_eq!(st.next_flow.map(|(t, _)| t), Some(now + 1_000));
        });
        core.run();
        let (t, moved) = done.lock().expect("transfer finished");
        assert!(
            (moved - bytes).abs() < 1.0,
            "waiter woken with {moved} of {bytes} bytes moved"
        );
        assert!(
            (t as f64 - 1e9 - 1e3).abs() < 2.0e3,
            "expected ~1e9 ns plus the 1 us stall, got {t}"
        );
        let s = core.stats();
        assert_eq!(s.recomputes, 3, "start, re-arm, finish");
    }

    #[test]
    #[should_panic(expected = "panicked: boom")]
    fn process_panics_propagate() {
        let core = SimCore::new(ClusterSpec::tiny(1), 0);
        spawn_raw(&core, NodeId(0), "bomb", |_pid, _parker| panic!("boom"));
        core.run();
    }

    #[test]
    fn stats_account_flow_bytes() {
        let spec = ClusterSpec::tiny(2);
        let core = SimCore::new(spec.clone(), 0);
        let tx = spec.resource(NodeId(0), ResourceKind::Tx);
        let rx = spec.resource(NodeId(1), ResourceKind::Rx);
        let c2 = core.clone();
        spawn_raw(&core, NodeId(0), "xfer", move |pid, parker| {
            c2.flow(pid, parker, &[tx, rx], 5e6);
        });
        core.run();
        let s = core.stats();
        assert!((s.per_resource[tx as usize] - 5e6).abs() < 1.0);
        assert!((s.per_resource[rx as usize] - 5e6).abs() < 1.0);
    }
}

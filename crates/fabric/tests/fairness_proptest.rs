//! Property tests of the fluid-flow engine — the model every experiment's
//! timing rests on. For random sets of concurrent transfers we check the
//! defining properties of max-min fair sharing:
//!
//! 1. **Conservation**: each flow's measured duration implies a rate; the
//!    sum of implied rates through any resource never exceeds its capacity
//!    (within numerical tolerance).
//! 2. **No starvation**: every flow gets at least `capacity / k` where `k`
//!    is the maximum number of flows that ever share one of its resources.
//! 3. **Work accounting**: per-resource byte counters equal the bytes the
//!    transfers moved through them.
//! 4. **Determinism**: repeating the run with the same seed is identical.
//!
//! A fifth property drives multi-hop chains, optionally over a shared
//! backplane, so flow–resource components merge as chains start and split
//! as they finish. The engine re-fills only the touched component; its
//! debug build checks every such fill against a fill over all flows, so
//! this property exercises that check under `cargo test`.

use std::sync::Arc;

use fabric::{ClusterSpec, Fabric, FabricStats, NodeId};
use parking_lot::Mutex;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Xfer {
    src: u8,
    dst: u8,
    mb: u32,
    delay_ms: u16,
}

fn xfer_strategy(nodes: u8) -> impl Strategy<Value = Xfer> {
    (0..nodes, 0..nodes, 1u32..64, 0u16..50).prop_map(|(src, dst, mb, delay_ms)| Xfer {
        src,
        dst,
        mb,
        delay_ms,
    })
}

#[derive(Debug, Clone, Copy)]
struct Done {
    src: u32,
    dst: u32,
    bytes: u64,
    start_ns: u64,
    end_ns: u64,
}

fn run(xfers: &[Xfer], nodes: u8, seed: u64) -> (Vec<Done>, u64, u64) {
    let spec = ClusterSpec::tiny(nodes as u32);
    let fx = Fabric::sim_seeded(spec, seed);
    let results: Arc<Mutex<Vec<Done>>> = Arc::new(Mutex::new(Vec::new()));
    for (i, x) in xfers.iter().enumerate() {
        let x = x.clone();
        let r2 = results.clone();
        fx.spawn(NodeId(x.src as u32), format!("x{i}"), move |p| {
            p.sleep(x.delay_ms as u64 * fabric::MILLIS);
            let bytes = x.mb as u64 * 1_000_000;
            let start = p.now();
            p.transfer(NodeId(x.src as u32), NodeId(x.dst as u32), bytes);
            r2.lock().push(Done {
                src: x.src as u32,
                dst: x.dst as u32,
                bytes,
                start_ns: start,
                end_ns: p.now(),
            });
        });
    }
    fx.run();
    let stats = fx.stats();
    let out = results.lock().clone();
    (out, stats.events, stats.now_ns)
}

#[derive(Debug, Clone)]
struct Chain {
    hops: Vec<u8>,
    mb: u32,
    delay_ms: u16,
}

fn chain_strategy(nodes: u8) -> impl Strategy<Value = Chain> {
    (prop::collection::vec(0..nodes, 2..5), 1u32..32, 0u16..50)
        .prop_map(|(hops, mb, delay_ms)| Chain { hops, mb, delay_ms })
}

/// Run `chains` as `transfer_chain`s; returns each chain's duration in
/// input order, and the fabric counters.
fn run_chains(chains: &[Chain], spec: &ClusterSpec, seed: u64) -> (Vec<u64>, FabricStats) {
    let fx = Fabric::sim_seeded(spec.clone(), seed);
    let took: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(vec![0; chains.len()]));
    for (i, c) in chains.iter().enumerate() {
        let c = c.clone();
        let t2 = took.clone();
        fx.spawn(NodeId(c.hops[0] as u32), format!("c{i}"), move |p| {
            p.sleep(c.delay_ms as u64 * fabric::MILLIS);
            let hops: Vec<NodeId> = c.hops.iter().map(|&n| NodeId(n as u32)).collect();
            let start = p.now();
            p.transfer_chain(&hops, c.mb as u64 * 1_000_000);
            t2.lock()[i] = p.now() - start;
        });
    }
    fx.run();
    let took = took.lock().clone();
    (took, fx.stats())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn component_fills_hold_as_components_merge_and_split(
        chains in prop::collection::vec(chain_strategy(6), 1..20),
        backplane in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let nic = ClusterSpec::tiny(6).nic_bw;
        let spec = ClusterSpec::tiny(6).with_backplane(backplane.then_some(nic * 1.5));
        let (took, stats) = run_chains(&chains, &spec, seed);
        let slowest = spec.backplane_bw.map_or(spec.nic_bw, |bp| bp.min(spec.nic_bw));
        for (c, &dur_ns) in chains.iter().zip(&took) {
            let hops = c.hops.windows(2).filter(|w| w[0] != w[1]).count() as u64;
            if hops == 0 {
                continue;
            }
            // A chain can never beat its slowest hop.
            let min_ns =
                spec.latency_ns * hops + (c.mb as f64 * 1e6 / slowest * 1e9) as u64;
            prop_assert!(
                dur_ns + 2_000 >= min_ns,
                "chain {:?} of {} MB finished impossibly fast: {} < {}",
                c.hops, c.mb, dur_ns, min_ns
            );
        }
        // Each flow is filled once when it starts and once when it ends,
        // and never re-armed starved.
        prop_assert_eq!(stats.recomputes, 2 * stats.flows);
        prop_assert!(stats.heap_pushes <= 2 * stats.events);
        let again = run_chains(&chains, &spec, seed);
        prop_assert_eq!((took, stats), again, "chain run is not deterministic");
    }

    #[test]
    fn max_min_fairness_invariants(
        xfers in prop::collection::vec(xfer_strategy(6), 1..24),
        seed in 0u64..1000,
    ) {
        let spec = ClusterSpec::tiny(6);
        let nic = spec.nic_bw;
        let loopback = spec.loopback_bw;
        let lat = spec.latency_ns;
        let (done, _, _) = run(&xfers, 6, seed);
        prop_assert_eq!(done.len(), xfers.len());

        for d in &done {
            let dur_ns = d.end_ns - d.start_ns;
            let cap = if d.src == d.dst { loopback } else { nic };
            let budget_ns = if d.src == d.dst { 0 } else { lat };
            // 1) A flow can never beat the capacity of its tightest link.
            let min_ns = budget_ns + (d.bytes as f64 / cap * 1e9) as u64;
            prop_assert!(
                dur_ns + 2_000 >= min_ns,
                "flow {}->{} of {} B finished impossibly fast: {} < {}",
                d.src, d.dst, d.bytes, dur_ns, min_ns
            );
            // 2) No starvation: worst case it shares its links with every
            // other transfer in the run.
            let k = xfers.len() as f64;
            let max_ns = budget_ns as f64 + (d.bytes as f64 / (cap / k) * 1e9) + 2e6;
            prop_assert!(
                (dur_ns as f64) <= max_ns,
                "flow {}->{} of {} B starved: {} > {}",
                d.src, d.dst, d.bytes, dur_ns, max_ns
            );
        }
    }

    #[test]
    fn per_resource_accounting_is_exact(
        xfers in prop::collection::vec(xfer_strategy(5), 1..16),
    ) {
        let spec = ClusterSpec::tiny(5);
        let fx = Fabric::sim(spec.clone());
        for (i, x) in xfers.iter().enumerate() {
            let x = x.clone();
            fx.spawn(NodeId(x.src as u32), format!("x{i}"), move |p| {
                p.sleep(x.delay_ms as u64 * fabric::MILLIS);
                p.transfer(
                    NodeId(x.src as u32),
                    NodeId(x.dst as u32),
                    x.mb as u64 * 1_000_000,
                );
            });
        }
        fx.run();
        let stats = fx.stats();
        // Expected per-TX totals (remote transfers above the small-message
        // cutoff create flows; all our sizes are >= 1 MB).
        for n in 0..5u32 {
            let want_tx: f64 = xfers
                .iter()
                .filter(|x| x.src as u32 == n && x.src != x.dst)
                .map(|x| x.mb as f64 * 1e6)
                .sum();
            let got_tx = stats.resource_total(
                &spec,
                NodeId(n),
                fabric::topology::ResourceKind::Tx,
            );
            prop_assert!(
                (got_tx - want_tx).abs() < 1.0 + want_tx * 1e-9,
                "node {n} TX accounted {got_tx}, expected {want_tx}"
            );
        }
    }

    #[test]
    fn simulation_is_deterministic_for_any_workload(
        xfers in prop::collection::vec(xfer_strategy(4), 1..12),
        seed in 0u64..50,
    ) {
        let a = run(&xfers, 4, seed);
        let b = run(&xfers, 4, seed);
        prop_assert_eq!(a.1, b.1, "event counts diverged");
        prop_assert_eq!(a.2, b.2, "final clocks diverged");
        let mut ea: Vec<(u32, u32, u64, u64)> =
            a.0.iter().map(|d| (d.src, d.dst, d.start_ns, d.end_ns)).collect();
        let mut eb: Vec<(u32, u32, u64, u64)> =
            b.0.iter().map(|d| (d.src, d.dst, d.start_ns, d.end_ns)).collect();
        ea.sort_unstable();
        eb.sort_unstable();
        prop_assert_eq!(ea, eb, "flow timelines diverged");
    }
}

/// Directed pair saturation: equal flows crossing one shared link split the
/// bandwidth equally (the textbook max-min case, checked exactly).
#[test]
fn equal_sharers_get_equal_rates() {
    for n_flows in [2usize, 3, 5, 8] {
        let spec = ClusterSpec::tiny(2);
        let fx = Fabric::sim(spec.clone());
        let results: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..n_flows {
            let r2 = results.clone();
            fx.spawn(NodeId(0), format!("f{i}"), move |p| {
                let t0 = p.now();
                p.send_to(NodeId(1), 50_000_000);
                r2.lock().push(p.now() - t0);
            });
        }
        fx.run();
        let times = results.lock();
        let expect = spec.latency_ns as f64 + 50_000_000.0 * n_flows as f64 / spec.nic_bw * 1e9;
        for &t in times.iter() {
            let err = (t as f64 - expect).abs() / expect;
            assert!(
                err < 0.001,
                "{n_flows} sharers: took {t}, expected ~{expect}"
            );
        }
    }
}

//! Op-count regression for the simulation engine itself: what one event
//! costs the engine, in deterministic counters rather than wall time.
//!
//! 246 writers (the paper's Fig. 3 scale) on the 270-node cluster stream
//! staggered page-sized transfers to 24 providers, so at any instant a few
//! hundred flows are live but each provider's flows form their own small
//! flow–resource component. The engine must
//!
//! 1. keep flow completions out of its event heap: heap pushes stay within
//!    twice the events processed (re-pushing every live flow's completion
//!    on each rate change costs ~100 per event at this scale);
//! 2. re-fill only the component a starting or finishing flow touches: the
//!    mean number of flows re-rated per recompute stays far below the
//!    number of live flows;
//! 3. report the same counters for the same seed.

use fabric::{ClusterSpec, Fabric, FabricStats, NodeId, MICROS};

const WRITERS: u32 = 246;
const PROVIDERS: u32 = 24;
const PAGES_PER_WRITER: u32 = 4;
const PAGE: u64 = 8 * 1024 * 1024;

fn storm(seed: u64) -> FabricStats {
    let spec = ClusterSpec::orsay_270();
    assert!(WRITERS + PROVIDERS <= spec.nodes);
    let fx = Fabric::sim_seeded(spec, seed);
    for w in 0..WRITERS {
        fx.spawn(NodeId(w), format!("writer{w}"), move |p| {
            p.sleep(u64::from(w) * 50 * MICROS);
            for page in 0..PAGES_PER_WRITER {
                let provider = WRITERS + (w + page) % PROVIDERS;
                p.send_to(NodeId(provider), PAGE);
            }
        });
    }
    fx.run();
    fx.stats()
}

#[test]
fn engine_cost_stays_bounded_under_a_concurrent_storm() {
    let s = storm(1);
    let flows = u64::from(WRITERS * PAGES_PER_WRITER);
    assert_eq!(s.flows, flows, "every page is one fluid flow");
    // One recompute per flow start and one per finish; no starved re-arms.
    assert_eq!(s.recomputes, 2 * flows, "{s:?}");

    assert!(
        s.heap_pushes <= 2 * s.events,
        "{} heap pushes for {} events: flow completions are back in the heap",
        s.heap_pushes,
        s.events
    );

    // Per-provider components hold about WRITERS / PROVIDERS flows; a full
    // re-fill would touch every live flow (up to WRITERS).
    let mean_component = s.rerated_flows as f64 / s.recomputes as f64;
    assert!(
        mean_component * 8.0 < f64::from(WRITERS),
        "{mean_component:.1} flows re-rated per recompute with up to {WRITERS} live: \
         recompute is no longer component-local"
    );
}

#[test]
fn engine_counters_are_deterministic() {
    assert_eq!(storm(7), storm(7));
}

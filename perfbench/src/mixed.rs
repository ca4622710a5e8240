//! `read_under_append`: Figures 4/5 merged, on the core `BlobClient` API.
//! One blob is prefilled during set-up; 60 readers, each with its own
//! caching client, scan a private region twice (cold, then warm) while 60
//! appenders on other provider nodes append 64 MiB chunks to the same blob.
//!
//! Half the readers have 8-page regions (512 MiB), which fit the default
//! 1 GiB per-client read cache; the other half have 24-page regions
//! (1.5 GiB), which exceed it, so their warm pass is an LRU re-scan. Reads
//! and appends meet on the same providers and metadata servers, so a read
//! optimisation that costs appenders shows here.

use std::sync::Arc;

use blobseer::{BlobId, BlobSeer, BlobSeerConfig, ReadCacheStats};
use fabric::{ClusterSpec, Fabric, NodeId, Payload};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::harness::{provider_node, run_proc, spawn_vm_sampler, Checks, Finish, Rep, CHUNK};
use crate::layers::{fill_common, Counters, Layers, Phase};
use crate::probe::{control, secs_since, wall_now, OpKind, Outcome, Probe};
use crate::stats::ratio;

const READERS: u32 = 60;
const FIT_PAGES: u64 = 8;
const OVER_PAGES: u64 = 24;
const APPENDERS: u32 = 60;
const APPENDS_PER_CLIENT: u64 = 19;
/// Pages per set-up append.
const PREFILL_BATCH: u64 = 100;

/// One reader's cache counters after each pass.
struct ReaderStats {
    fits: bool,
    reads: u64,
    after_cold: ReadCacheStats,
    after_warm: ReadCacheStats,
}

/// The deployed world a measured phase runs on.
struct World {
    fx: Fabric,
    store: BlobSeer,
    blob: BlobId,
    v0: u64,
    /// First page and page count of each reader's region.
    starts: Vec<u64>,
    sizes: Vec<u64>,
    prefill_pages: u64,
}

/// Set-up: deploy, place the reader regions and prefill the blob.
fn setup(seed: u64) -> Result<World, String> {
    let fx = Fabric::sim_seeded(ClusterSpec::orsay_270(), seed);
    let store =
        BlobSeer::deploy_paper(&fx, BlobSeerConfig::paper()).map_err(|e| format!("deploy: {e}"))?;
    // Reader i fits the cache when i is even; the seed decides which
    // region of the prefilled blob each reader scans.
    let sizes: Vec<u64> = (0..READERS)
        .map(|i| if i % 2 == 0 { FIT_PAGES } else { OVER_PAGES })
        .collect();
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut starts = vec![0u64; sizes.len()];
    let mut next = 0u64;
    for &r in &order {
        if let (Some(slot), Some(&n)) = (starts.get_mut(r), sizes.get(r)) {
            *slot = next;
            next += n;
        }
    }
    let prefill_pages = next;
    let st = store.clone();
    let (blob, v0) = run_proc(&fx, NodeId(23), "setup", move |p| {
        let c = st.client();
        let blob = c.create(p, None);
        let mut left = prefill_pages;
        while left > 0 {
            let n = left.min(PREFILL_BATCH);
            c.append(p, blob, Payload::ghost(n * CHUNK))
                .map_err(|e| format!("prefill: {e}"))?;
            left -= n;
        }
        let v = c.latest(p, blob).map_err(|e| e.to_string())?;
        Ok((blob, v))
    })?;
    Ok(World {
        fx,
        store,
        blob,
        v0,
        starts,
        sizes,
        prefill_pages,
    })
}

/// Wall seconds of one set-up alone.
pub fn setup_only(seed: u64) -> Result<f64, String> {
    let t0 = wall_now();
    let world = setup(seed)?;
    let s = secs_since(t0);
    drop(world);
    Ok(s)
}

pub fn run(seed: u64, probe: &Arc<Probe>) -> Result<Rep, String> {
    let t0 = wall_now();
    let World {
        fx,
        store,
        blob,
        v0,
        starts,
        sizes,
        prefill_pages,
    } = setup(seed)?;
    let setup_wall_s = secs_since(t0);

    let before = Counters::take(&fx, &store);
    let start_ns = fx.now();
    let finish = Finish::default();
    let readers: Arc<Mutex<Vec<ReaderStats>>> = Arc::new(Mutex::new(Vec::new()));
    probe.start_measuring();
    let w0 = wall_now();
    for (i, (&first, &pages)) in (0u32..).zip(starts.iter().zip(sizes.iter())) {
        let (st, pr, fin, out) = (
            store.clone(),
            probe.clone(),
            finish.clone(),
            readers.clone(),
        );
        fx.spawn(provider_node(i), format!("reader{i}"), move |p| {
            let c = st.client();
            // Pin the snapshot at start, as a BSFS reader does at open:
            // both passes read the same version while appends go on.
            let pinned = pr.timed(
                p,
                "core.client.snapshot",
                0,
                None,
                || c.snapshot(p, blob, None),
                control,
            );
            let read_pass = |root: u64, name: &'static str| {
                for page in first..first + pages {
                    pr.timed(
                        p,
                        name,
                        root,
                        Some(OpKind::Read),
                        || match &pinned {
                            Ok(snap) => c.read_snapshot(p, blob, snap, page * CHUNK, CHUNK),
                            Err(e) => Err(e.clone()),
                        },
                        |r| Outcome {
                            ok: r.as_ref().is_ok_and(|d| d.len() == CHUNK),
                            bytes: CHUNK,
                        },
                    )
                    .ok();
                }
            };
            pr.span(p, "mixed.reader", 0, |root| {
                read_pass(root, "core.client.read.cold");
                let after_cold = c.cache_stats();
                read_pass(root, "core.client.read.warm");
                out.lock().push(ReaderStats {
                    fits: pages == FIT_PAGES,
                    reads: 2 * pages,
                    after_cold,
                    after_warm: c.cache_stats(),
                });
            });
            fin.mark(p);
        });
    }
    for j in 0..APPENDERS {
        let (st, pr, fin) = (store.clone(), probe.clone(), finish.clone());
        fx.spawn(
            provider_node(READERS + j),
            format!("appender{j}"),
            move |p| {
                let c = st.client();
                pr.span(p, "mixed.appender", 0, |root| {
                    for _ in 0..APPENDS_PER_CLIENT {
                        pr.timed(
                            p,
                            "core.client.append",
                            root,
                            Some(OpKind::Append),
                            || c.append(p, blob, Payload::ghost(CHUNK)),
                            |r| Outcome {
                                ok: r.is_ok(),
                                bytes: CHUNK,
                            },
                        )
                        .ok();
                    }
                });
                fin.mark(p);
            },
        );
    }
    let clients = READERS + APPENDERS;
    let vm_pending = probe
        .traced()
        .then(|| spawn_vm_sampler(&fx, &store, &finish, clients));
    fx.run();
    let wall_s = secs_since(w0);
    probe.stop_measuring();
    let after = Counters::take(&fx, &store);
    let ops = probe.take_ops();

    let appends = u64::from(APPENDERS) * APPENDS_PER_CLIENT;
    let mut checks = Checks::default();
    let readers = std::mem::take(&mut *readers.lock());
    checks.check(readers.len() == READERS as usize, || {
        format!("{} of {READERS} readers finished", readers.len())
    });
    for r in &readers {
        let s = r.after_warm;
        checks.check(s.page_hits + s.page_misses == r.reads, || {
            format!(
                "cache books: {} hits + {} misses != {} page lookups",
                s.page_hits, s.page_misses, r.reads
            )
        });
    }
    let st = store.clone();
    let (size1, v1) = run_proc(&fx, NodeId(23), "inspect", move |p| {
        let c = st.client();
        let size = c.size(p, blob, None).map_err(|e| e.to_string())?;
        let v = c.latest(p, blob).map_err(|e| e.to_string())?;
        Ok((size, v))
    })?;
    let expect_size = (prefill_pages + appends) * CHUNK;
    checks.check(size1 == expect_size, || {
        format!("blob size {size1}, expected {expect_size}")
    });
    checks.check(v1 == v0 + appends, || {
        format!("latest version {v1}, expected {v0} + {appends}")
    });

    let reads = ops.iter().filter(|o| o.kind == OpKind::Read).count() as u64;
    let user_bytes = ops.iter().map(|o| o.bytes).sum();
    let spans = probe.take_spans();
    let mut layers = Layers::default();
    let pending: Vec<f64> = vm_pending.map(|s| s.lock().clone()).unwrap_or_default();
    fill_common(
        &mut layers,
        &Phase {
            fx: &fx,
            store: &store,
            before: &before,
            after: &after,
            run_wall_s: wall_s,
            user_bytes,
            appends,
            reads,
            vm_pending: &pending,
        },
    );
    for name in [
        "core.client.append",
        "core.client.read.cold",
        "core.client.read.warm",
    ] {
        layers.calls(&spans, name);
    }
    fill_cache(&mut layers, &readers);
    layers.note(
        "bsfs.",
        "the workload runs on the core BLOB client API, not BSFS",
    );
    layers.note("mapreduce.", "no MapReduce job in this workload");
    layers.note(
        "pstore.",
        "memory-resident deployment (paper config), no pstore",
    );

    Ok(Rep {
        setup_wall_s,
        wall_s,
        sim_s: finish.last_ns().saturating_sub(start_ns) as f64 / 1e9,
        ops,
        space_amp: store.total_stored_bytes() as f64 / ((prefill_pages + appends) * CHUNK) as f64,
        checks,
        layers,
        spans,
    })
}

/// Warm-pass page hit rates of the fitting and the overflowing readers,
/// and the cache totals over every reader client.
fn fill_cache(l: &mut Layers, readers: &[ReaderStats]) {
    let warm = |fits: bool| {
        let (hits, lookups) =
            readers
                .iter()
                .filter(|r| r.fits == fits)
                .fold((0u64, 0u64), |(h, n), r| {
                    let (a, b) = (r.after_warm, r.after_cold);
                    let hits = a.page_hits.saturating_sub(b.page_hits);
                    let misses = a.page_misses.saturating_sub(b.page_misses);
                    (h + hits, n + hits + misses)
                });
        ratio(hits as f64, lookups as f64)
    };
    l.set("core.read_cache.page_hit_rate.fit", warm(true));
    l.set("core.read_cache.page_hit_rate.over", warm(false));
    let sum = |f: fn(&ReadCacheStats) -> u64| readers.iter().map(|r| f(&r.after_warm)).sum::<u64>();
    let leaf_hits = sum(|s| s.leaf_hits);
    let leaf_lookups = leaf_hits + sum(|s| s.leaf_misses);
    l.set(
        "core.read_cache.leaf_hit_rate",
        ratio(leaf_hits as f64, leaf_lookups as f64),
    );
    l.set_u(
        "core.read_cache.page_lookups",
        sum(|s| s.page_hits + s.page_misses),
    );
    l.set_u("core.read_cache.evictions", sum(|s| s.evictions));
    l.set_u("core.read_cache.insertions", sum(|s| s.insertions));
}

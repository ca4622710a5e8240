//! `append_storm`: Figure 3 scaled up. 246 BSFS clients on the provider
//! nodes of the 270-node Orsay layout each append five 64 MiB chunks to
//! one shared file (1,230 appends) at full concurrency.
//!
//! Every append funnels through the version manager's per-blob ordering,
//! the metadata tree puts and the providers' `put_pages`; it is also the
//! simulator's worst case. It does no reads, no MapReduce and no pstore, so
//! read-path, cache, shuffle and pstore changes must leave it unchanged.

use std::sync::Arc;

use blobseer::BlobSeerConfig;
use bsfs::Bsfs;
use dfs::{DfsPath, FileSystem};
use fabric::{ClusterSpec, Fabric, NodeId, Payload};

use crate::harness::{provider_node, run_proc, spawn_vm_sampler, Checks, Finish, Rep, CHUNK};
use crate::layers::{fill_common, Counters, Layers, Phase};
use crate::probe::{control, moved, secs_since, wall_now, OpKind, Probe};

const CLIENTS: u32 = 246;
const APPENDS_PER_CLIENT: u64 = 5;

/// The deployed world a measured phase runs on.
struct World {
    fx: Fabric,
    fs: Bsfs,
    file: DfsPath,
    len0: u64,
    v0: u64,
}

/// Set-up: deploy, create the shared file and read its state back.
fn setup(seed: u64, probe: &Arc<Probe>) -> Result<World, String> {
    let fx = Fabric::sim_seeded(ClusterSpec::orsay_270(), seed);
    let fs =
        Bsfs::deploy_paper(&fx, BlobSeerConfig::paper()).map_err(|e| format!("deploy: {e}"))?;
    let file = DfsPath::new("/storm/shared").map_err(|e| e.to_string())?;
    let (fs2, f2, pr) = (fs.clone(), file.clone(), probe.clone());
    run_proc(&fx, NodeId(23), "setup", move |p| {
        let mut w = pr
            .timed(p, "bsfs.create", 0, None, || fs2.create(p, &f2), control)
            .map_err(|e| format!("create: {e}"))?;
        w.close(p).map_err(|e| format!("close: {e}"))
    })?;
    let (len0, v0) = file_state(&fx, &fs, &file)?;
    Ok(World {
        fx,
        fs,
        file,
        len0,
        v0,
    })
}

/// Wall seconds of one set-up alone.
pub fn setup_only(seed: u64) -> Result<f64, String> {
    let t0 = wall_now();
    let world = setup(seed, &Probe::new(false))?;
    let s = secs_since(t0);
    drop(world);
    Ok(s)
}

pub fn run(seed: u64, probe: &Arc<Probe>) -> Result<Rep, String> {
    let t0 = wall_now();
    let World {
        fx,
        fs,
        file,
        len0,
        v0,
    } = setup(seed, probe)?;
    let setup_wall_s = secs_since(t0);

    let before = Counters::take(&fx, fs.store());
    let start_ns = fx.now();
    let finish = Finish::default();
    probe.start_measuring();
    let w0 = wall_now();
    for i in 0..CLIENTS {
        let (fs, f, pr, fin) = (fs.clone(), file.clone(), probe.clone(), finish.clone());
        fx.spawn(provider_node(i), format!("appender{i}"), move |p| {
            pr.span(p, "storm.client", 0, |root| {
                for _ in 0..APPENDS_PER_CLIENT {
                    pr.timed(
                        p,
                        "bsfs.append_all",
                        root,
                        Some(OpKind::Append),
                        || fs.append_all(p, &f, Payload::ghost(CHUNK)),
                        |r| moved(r, CHUNK),
                    )
                    .ok();
                }
            });
            fin.mark(p);
        });
    }
    let vm_pending = probe
        .traced()
        .then(|| spawn_vm_sampler(&fx, fs.store(), &finish, CLIENTS));
    fx.run();
    let wall_s = secs_since(w0);
    probe.stop_measuring();
    let after = Counters::take(&fx, fs.store());
    let ops = probe.take_ops();

    let appends = u64::from(CLIENTS) * APPENDS_PER_CLIENT;
    let mut checks = Checks::default();
    let (len1, v1) = file_state(&fx, &fs, &file)?;
    checks.check(len1 == len0 + appends * CHUNK, || {
        format!("file length {len1}, expected {len0} + {appends} chunks")
    });
    checks.check(v1 == v0 + appends, || {
        format!("latest version {v1}, expected {v0} + {appends}")
    });

    let user_bytes = appends * CHUNK;
    let spans = probe.take_spans();
    let mut layers = Layers::default();
    let pending: Vec<f64> = vm_pending.map(|s| s.lock().clone()).unwrap_or_default();
    fill_common(
        &mut layers,
        &Phase {
            fx: &fx,
            store: fs.store(),
            before: &before,
            after: &after,
            run_wall_s: wall_s,
            user_bytes,
            appends,
            reads: 0,
            vm_pending: &pending,
        },
    );
    layers.calls(&spans, "bsfs.append_all");
    layers.calls(&spans, "bsfs.create");
    layers.note("bsfs.read.", "the workload issues no reads");
    layers.note("bsfs.open.", "appenders never open the file for reading");
    layers.note(
        "core.client.",
        "BSFS calls the BLOB client internally; only calls made by the benchmark are spanned",
    );
    layers.note(
        "core.read_cache.",
        "BSFS keeps its client (and cache) private; the workload issues no reads, so there are no lookups",
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
        space_amp: fs.store().total_stored_bytes() as f64 / user_bytes as f64,
        checks,
        layers,
        spans,
    })
}

/// `(length, latest version)` of the shared file, read by a fresh process.
fn file_state(fx: &Fabric, fs: &Bsfs, file: &DfsPath) -> Result<(u64, u64), String> {
    let (fs, file) = (fs.clone(), file.clone());
    run_proc(fx, NodeId(23), "inspect", move |p| {
        let len = fs.status(p, &file).map_err(|e| e.to_string())?.len;
        let blob = fs.blob_of(p, &file).map_err(|e| e.to_string())?;
        let v = fs
            .store()
            .client()
            .latest(p, blob)
            .map_err(|e| e.to_string())?;
        Ok((len, v))
    })
}

//! Per-layer metrics of the traced run: the table every workload reports
//! (in this order, with these units), the public counters they are read
//! from, and the notes that say why a metric is absent on a workload.

use std::collections::BTreeMap;

use blobseer::BlobSeer;
use fabric::topology::ResourceKind;
use fabric::{Fabric, FabricStats};

use crate::probe::Span;
use crate::stats::{quantile, ratio};

/// `(name, unit, better)` of every per-layer metric, grouped by layer.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // fabric: the simulator's own cost, and the modeled wire.
    ("fabric.run_wall_s", "s", "lower"),
    ("fabric.events", "count", "lower"),
    ("fabric.wall_us_per_event", "us", "lower"),
    ("fabric.flows", "count", "lower"),
    ("fabric.transfers", "count", "lower"),
    ("fabric.wire_bytes_per_user_byte", "ratio", "lower"),
    ("fabric.tx_util", "ratio", "higher"),
    ("fabric.disk_util", "ratio", "higher"),
    // bsfs: calls into the file system.
    ("bsfs.append_all.calls", "count", "higher"),
    ("bsfs.append_all.errors", "count", "lower"),
    ("bsfs.append_all.sim_ms_p50", "ms", "lower"),
    ("bsfs.append_all.sim_ms_p99", "ms", "lower"),
    ("bsfs.read.calls", "count", "higher"),
    ("bsfs.read.sim_ms_p50", "ms", "lower"),
    ("bsfs.read.sim_ms_p99", "ms", "lower"),
    ("bsfs.create.sim_ms_p50", "ms", "lower"),
    ("bsfs.open.sim_ms_p50", "ms", "lower"),
    // core.client: calls into the BLOB client.
    ("core.client.append.calls", "count", "higher"),
    ("core.client.append.errors", "count", "lower"),
    ("core.client.append.sim_ms_p50", "ms", "lower"),
    ("core.client.append.sim_ms_p99", "ms", "lower"),
    ("core.client.read.cold.calls", "count", "higher"),
    ("core.client.read.cold.errors", "count", "lower"),
    ("core.client.read.cold.sim_ms_p50", "ms", "lower"),
    ("core.client.read.cold.sim_ms_p99", "ms", "lower"),
    ("core.client.read.warm.calls", "count", "higher"),
    ("core.client.read.warm.errors", "count", "lower"),
    ("core.client.read.warm.sim_ms_p50", "ms", "lower"),
    ("core.client.read.warm.sim_ms_p99", "ms", "lower"),
    // core.read_cache: the per-client snapshot-scoped cache.
    ("core.read_cache.page_lookups", "count", "lower"),
    ("core.read_cache.page_hit_rate.fit", "ratio", "higher"),
    ("core.read_cache.page_hit_rate.over", "ratio", "higher"),
    ("core.read_cache.leaf_hit_rate", "ratio", "higher"),
    ("core.read_cache.evictions", "count", "lower"),
    ("core.read_cache.insertions", "count", "lower"),
    // core.provider: data providers.
    ("core.provider.put_rpcs", "count", "lower"),
    ("core.provider.get_rpcs", "count", "lower"),
    ("core.provider.pages_per_put_rpc", "ratio", "higher"),
    ("core.provider.pages_per_get_rpc", "ratio", "higher"),
    ("core.provider.stored_bytes", "bytes", "lower"),
    ("core.provider.load_max_over_min", "ratio", "lower"),
    // core.dht: metadata providers.
    ("core.dht.puts", "count", "lower"),
    ("core.dht.put_rpcs", "count", "lower"),
    ("core.dht.gets", "count", "lower"),
    ("core.dht.get_rpcs", "count", "lower"),
    ("core.dht.puts_per_append", "ratio", "lower"),
    ("core.dht.gets_per_read", "ratio", "lower"),
    ("core.dht.nodes", "count", "lower"),
    // core.vm: sampled from outside (the version manager has no counters).
    ("core.vm.pending_p50", "count", "lower"),
    ("core.vm.pending_max", "count", "lower"),
    ("core.vm.registry_len", "count", "lower"),
    // mapreduce: the job.
    ("mapreduce.job_sim_s", "s", "lower"),
    ("mapreduce.maps", "count", "lower"),
    ("mapreduce.data_local_frac", "ratio", "higher"),
    ("mapreduce.map_output_bytes", "bytes", "lower"),
    ("mapreduce.shuffle_bytes", "bytes", "lower"),
    ("mapreduce.combine_saved_bytes", "bytes", "higher"),
    ("mapreduce.combine_ratio", "ratio", "higher"),
    ("mapreduce.combined_segments", "count", "lower"),
    ("mapreduce.shuffle_segments", "count", "lower"),
    ("mapreduce.shuffle_transfers", "count", "lower"),
    ("mapreduce.early_shuffle_fetches", "count", "higher"),
    ("mapreduce.republished", "count", "lower"),
    // pstore: the durable backend, walked on disk.
    ("pstore.disk_bytes", "bytes", "lower"),
    ("pstore.disk_bytes_per_user_byte", "ratio", "lower"),
    ("pstore.files", "count", "lower"),
    ("pstore.recover_wall_ms", "ms", "lower"),
    // The traced run's own cost.
    ("trace.overhead", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
];

/// Per-layer values of one repetition, with notes for absent metrics.
#[derive(Default, Clone)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, usize>,
    /// Keyed by metric name or by a group prefix ending in `.`.
    notes: BTreeMap<&'static str, &'static str>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn set_u(&mut self, name: &'static str, value: u64) {
        self.set(name, value as f64);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Explain why `key` (a metric, or a group prefix ending in `.`) reads
    /// 0 on this workload.
    pub fn note(&mut self, key: &'static str, why: &'static str) {
        self.notes.insert(key, why);
    }

    fn note_for(&self, name: &str) -> Option<&'static str> {
        self.notes.get(name).copied().or_else(|| {
            self.notes
                .iter()
                .filter(|(k, _)| k.ends_with('.') && name.starts_with(*k))
                .max_by_key(|(k, _)| k.len())
                .map(|(_, v)| *v)
        })
    }

    /// `<name>.calls/.errors/.sim_ms_p50/.sim_ms_p99` from the spans named
    /// `name` (only the keys the table has are reported).
    pub fn calls(&mut self, spans: &[Span], name: &str) {
        let hits: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
        let ms: Vec<f64> = hits.iter().map(|s| s.sim_ns() as f64 / 1e6).collect();
        let n = hits.len();
        for (suffix, value) in [
            ("calls", Some(n as f64)),
            ("errors", Some(hits.iter().filter(|s| !s.ok).count() as f64)),
            ("sim_ms_p50", quantile(&ms, 0.5)),
            ("sim_ms_p99", quantile(&ms, 0.99)),
        ] {
            let full = format!("{name}.{suffix}");
            if let Some(&(metric, _, _)) = PER_LAYER.iter().find(|(m, _, _)| *m == full) {
                self.values.insert(metric, value.unwrap_or(0.0));
                self.samples.insert(metric, n);
            }
        }
    }

    /// Print the dump: every metric of the table, with its unit, sample
    /// count where it is a distribution, and the note when it is absent.
    pub fn dump(&self, workload: &str) -> Vec<String> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let mut line = format!("layer {workload} {name} = {} {unit}", self.get(name));
                if let Some(n) = self.samples.get(name) {
                    line.push_str(&format!(" [samples {n}]"));
                }
                let absent = !self.values.contains_key(name) || self.samples.get(name) == Some(&0);
                if absent || self.notes.contains_key(name) {
                    if let Some(why) = self.note_for(name) {
                        line.push_str(&format!(" (n/a: {why})"));
                    }
                }
                line
            })
            .collect()
    }
}

/// Public counters of the fabric and the BlobSeer services at one instant.
pub struct Counters {
    fabric: FabricStats,
    provider_ops: (u64, u64),
    provider_rpcs: (u64, u64),
    dht_ops: (u64, u64),
    dht_rpcs: (u64, u64),
}

fn sum_pairs(pairs: impl Iterator<Item = (u64, u64)>) -> (u64, u64) {
    pairs.fold((0, 0), |(a, b), (x, y)| (a + x, b + y))
}

impl Counters {
    pub fn take(fx: &Fabric, store: &BlobSeer) -> Counters {
        let dht = store.metadata_dht();
        Counters {
            fabric: fx.stats(),
            provider_ops: sum_pairs(store.providers().iter().map(|p| p.op_counts())),
            provider_rpcs: sum_pairs(store.providers().iter().map(|p| p.rpc_counts())),
            dht_ops: sum_pairs(dht.servers().iter().map(|s| s.op_counts())),
            dht_rpcs: sum_pairs(dht.servers().iter().map(|s| s.rpc_counts())),
        }
    }
}

/// What happened in a measured phase, for [`fill_common`].
pub struct Phase<'a> {
    pub fx: &'a Fabric,
    pub store: &'a BlobSeer,
    pub before: &'a Counters,
    pub after: &'a Counters,
    pub run_wall_s: f64,
    pub user_bytes: u64,
    pub appends: u64,
    pub reads: u64,
    pub vm_pending: &'a [f64],
}

/// Fill the fabric, core.provider, core.dht and core.vm rows from the
/// counter deltas over a measured phase.
pub fn fill_common(l: &mut Layers, ph: &Phase) {
    let (b, a) = (&ph.before.fabric, &ph.after.fabric);
    let events = a.events.saturating_sub(b.events);
    l.set("fabric.run_wall_s", ph.run_wall_s);
    l.set_u("fabric.events", events);
    l.set(
        "fabric.wall_us_per_event",
        ratio(ph.run_wall_s * 1e6, events as f64),
    );
    l.set_u("fabric.flows", a.flows.saturating_sub(b.flows));
    l.set_u("fabric.transfers", a.transfers.saturating_sub(b.transfers));
    l.set(
        "fabric.wire_bytes_per_user_byte",
        ratio(a.bytes_requested - b.bytes_requested, ph.user_bytes as f64),
    );
    // Utilization over the measured interval only: the delta of every
    // resource's accounted work against its capacity over the phase.
    let delta = FabricStats {
        per_resource: a
            .per_resource
            .iter()
            .zip(b.per_resource.iter().chain(std::iter::repeat(&0.0)))
            .map(|(x, y)| x - y)
            .collect(),
        now_ns: a.now_ns.saturating_sub(b.now_ns),
        ..FabricStats::default()
    };
    let spec = ph.fx.spec();
    l.set(
        "fabric.tx_util",
        delta.mean_utilization(spec, ResourceKind::Tx),
    );
    l.set(
        "fabric.disk_util",
        delta.mean_utilization(spec, ResourceKind::Disk),
    );

    let d = |x: (u64, u64), y: (u64, u64)| (x.0.saturating_sub(y.0), x.1.saturating_sub(y.1));
    let (puts, gets) = d(ph.after.provider_ops, ph.before.provider_ops);
    let (put_rpcs, get_rpcs) = d(ph.after.provider_rpcs, ph.before.provider_rpcs);
    l.set_u("core.provider.put_rpcs", put_rpcs);
    l.set_u("core.provider.get_rpcs", get_rpcs);
    l.set(
        "core.provider.pages_per_put_rpc",
        ratio(puts as f64, put_rpcs as f64),
    );
    l.set(
        "core.provider.pages_per_get_rpc",
        ratio(gets as f64, get_rpcs as f64),
    );
    l.set_u("core.provider.stored_bytes", ph.store.total_stored_bytes());
    let (min, max) = ph.store.load_spread();
    l.set(
        "core.provider.load_max_over_min",
        ratio(max as f64, min as f64),
    );
    if min == 0 {
        l.note(
            "core.provider.load_max_over_min",
            "some provider stores nothing, so the ratio is unbounded",
        );
    }

    let (dputs, dgets) = d(ph.after.dht_ops, ph.before.dht_ops);
    let (dput_rpcs, dget_rpcs) = d(ph.after.dht_rpcs, ph.before.dht_rpcs);
    l.set_u("core.dht.puts", dputs);
    l.set_u("core.dht.put_rpcs", dput_rpcs);
    l.set_u("core.dht.gets", dgets);
    l.set_u("core.dht.get_rpcs", dget_rpcs);
    l.set(
        "core.dht.puts_per_append",
        ratio(dputs as f64, ph.appends as f64),
    );
    l.set(
        "core.dht.gets_per_read",
        ratio(dgets as f64, ph.reads as f64),
    );
    l.set_u(
        "core.dht.nodes",
        ph.store.metadata_dht().total_nodes() as u64,
    );
    if ph.reads == 0 {
        l.note("core.dht.gets_per_read", "the workload issues no reads");
    }

    if !ph.vm_pending.is_empty() {
        l.set(
            "core.vm.pending_p50",
            quantile(ph.vm_pending, 0.5).unwrap_or(0.0),
        );
        l.set(
            "core.vm.pending_max",
            quantile(ph.vm_pending, 1.0).unwrap_or(0.0),
        );
    }
    l.samples.insert("core.vm.pending_p50", ph.vm_pending.len());
    l.samples.insert("core.vm.pending_max", ph.vm_pending.len());
    l.note(
        "core.vm.",
        "the version manager exports no counters; pending is sampled by a monitor process in the traced run only",
    );
    l.set_u(
        "core.vm.registry_len",
        ph.store.version_manager().registry_len() as u64,
    );
}

//! `wordcount_durable`: the paper's MapReduce path on real bytes, on a
//! durable store.
//!
//! Set-up: an 8-node cluster in the compact layout, BSFS on pstore (a fresh
//! persist directory per repetition, the default flush policy, no
//! checkpoints), and a seed-generated ≈32 MB corpus over a skewed ≈5k-word
//! vocabulary, stored in 256 KiB pages (≈120 maps). The job runs 8
//! reducers appending to one shared output file with the default shuffle
//! tuning; its output is checked against the reference counts, and after a
//! provider crash-restart and heal it must re-read identically.
//!
//! It is the only workload whose wall time is the program's own data
//! processing (record parsing, combining, merging) and the only one that
//! can run pstore, which rejects ghost pages.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use blobseer::{BlobSeerConfig, Fault, FaultTarget, Layout};
use bsfs::Bsfs;
use dfs::{DfsPath, FileSystem};
use fabric::{ClusterSpec, Fabric, NodeId, Payload};
use mapreduce::{JobConf, JobResult, MrCluster, MrConfig, OutputMode, ShuffleTuning};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::{run_proc, spawn_vm_sampler, Checks, Finish, Rep};
use crate::layers::{fill_common, Counters, Layers, Phase};
use crate::probe::{secs_since, wall_now, OpKind, Probe};
use crate::stats::ratio;
use crate::timed_fs::TimedFs;

const NODES: u32 = 8;
const REDUCERS: u32 = 8;
const PAGE: u64 = 256 * 1024;
const CORPUS_BYTES: usize = 32_000_000;
const VOCABULARY: usize = 5_000;

/// The deployed world a measured phase runs on.
struct World {
    text: String,
    dir: PathBuf,
    fx: Fabric,
    fs: Bsfs,
    input: DfsPath,
}

/// Set-up: generate the corpus, deploy on a fresh persist directory and
/// upload the corpus.
fn setup(seed: u64, work_dir: &Path) -> Result<World, String> {
    let text = corpus(seed);
    let dir = work_dir.join(format!("pstore-{}", std::process::id()));
    fresh_dir(&dir)?;
    let fx = Fabric::sim_seeded(ClusterSpec::tiny(NODES), seed);
    let config = BlobSeerConfig::test_small(PAGE).with_persist_dir(Some(dir.clone()));
    let layout = Layout::compact(fx.spec());
    let fs = Bsfs::deploy(&fx, config, layout).map_err(|e| format!("deploy: {e}"))?;
    let input = DfsPath::new("/in/corpus.txt").map_err(|e| e.to_string())?;
    let (fs2, in2, bytes) = (fs.clone(), input.clone(), text.clone().into_bytes());
    run_proc(&fx, NodeId(0), "upload", move |p| {
        fs2.write_file(p, &in2, Payload::from_vec(bytes))
            .map_err(|e| format!("upload: {e}"))
    })?;
    Ok(World {
        text,
        dir,
        fx,
        fs,
        input,
    })
}

impl World {
    /// Shut the deployment down and remove its persist directory.
    fn teardown(self) -> Result<(), String> {
        let World { dir, fx, fs, .. } = self;
        drop(fs);
        drop(fx);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))
    }
}

/// Wall seconds of one set-up alone.
pub fn setup_only(seed: u64, work_dir: &Path) -> Result<f64, String> {
    let t0 = wall_now();
    let world = setup(seed, work_dir)?;
    let s = secs_since(t0);
    world.teardown()?;
    Ok(s)
}

pub fn run(seed: u64, probe: &Arc<Probe>, work_dir: &Path) -> Result<Rep, String> {
    let t0 = wall_now();
    let world = setup(seed, work_dir)?;
    let setup_wall_s = secs_since(t0);

    let result = run_job(&world.fx, &world.fs, probe, &world.input);
    let rep = result.and_then(|m| check(&world, m, probe, seed));
    let cleanup = world.teardown();
    let mut rep = rep?;
    cleanup?;
    rep.setup_wall_s = setup_wall_s;
    Ok(rep)
}

/// What the measured phase left behind for the checks.
struct Measured {
    job: JobResult,
    wall_s: f64,
    sim_s: f64,
    before: Counters,
    after: Counters,
    vm_pending: Vec<f64>,
    shuffle: (u64, u64, u64),
}

fn run_job(
    fx: &Fabric,
    fs: &Bsfs,
    probe: &Arc<Probe>,
    input: &DfsPath,
) -> Result<Measured, String> {
    let before = Counters::take(fx, fs.store());
    let start_ns = fx.now();
    let finish = Finish::default();
    probe.start_measuring();
    let w0 = wall_now();
    let timed: Arc<dyn FileSystem> = Arc::new(TimedFs::new(Arc::new(fs.clone()), probe.clone()));
    let mr = MrCluster::start(fx, timed, MrConfig::compact(fx.spec()));
    let (mr2, fin) = (mr.clone(), finish.clone());
    let job = JobConf {
        name: "wordcount".into(),
        inputs: vec![input.clone()],
        output_dir: DfsPath::new("/out").map_err(|e| e.to_string())?,
        num_reducers: REDUCERS,
        output_mode: OutputMode::SharedAppendFile,
        user: workloads::wordcount::user_fns(),
        ghost: None,
        shuffle: ShuffleTuning::default(),
    };
    let driver = fx.spawn(NodeId(0), "driver", move |p| {
        let result = mr2.submit(job).wait(p);
        mr2.shutdown();
        fin.mark(p);
        result
    });
    let vm_pending = probe
        .traced()
        .then(|| spawn_vm_sampler(fx, fs.store(), &finish, 1));
    fx.run();
    let wall_s = secs_since(w0);
    probe.stop_measuring();
    let job = driver
        .take()
        .ok_or("job driver finished without a result")?;
    let stats = mr.registry().stats();
    Ok(Measured {
        job,
        wall_s,
        sim_s: finish.last_ns().saturating_sub(start_ns) as f64 / 1e9,
        before,
        after: Counters::take(fx, fs.store()),
        vm_pending: vm_pending.map(|s| s.lock().clone()).unwrap_or_default(),
        shuffle: (
            stats.fetched_segments,
            stats.fetch_transfers,
            stats.republished,
        ),
    })
}

fn check(world: &World, m: Measured, probe: &Arc<Probe>, seed: u64) -> Result<Rep, String> {
    let World {
        text, dir, fx, fs, ..
    } = world;
    let job = &m.job;
    let ops = probe.take_ops();
    let mut checks = Checks::default();
    checks.check(job.output_files == 1, || {
        format!("job left {} output files, expected 1", job.output_files)
    });
    let first = read_output(fx, fs);
    checks.check(first.is_ok(), || {
        first
            .as_ref()
            .err()
            .map_or(String::new(), |e| format!("output read failed: {e}"))
    });
    let first = first.unwrap_or_default();
    let want = workloads::wordcount::reference_counts(text);
    match parse_counts(&first) {
        Ok(got) => {
            let want: BTreeMap<String, u64> = want.into_iter().collect();
            let wrong = want.iter().filter(|(w, c)| got.get(*w) != Some(c)).count();
            let extra = got.keys().filter(|w| !want.contains_key(*w)).count();
            checks.check(wrong == 0 && extra == 0, || {
                format!(
                    "{wrong} of {} words miscounted, {extra} unexpected words",
                    want.len()
                )
            });
        }
        Err(e) => checks.check(false, || e),
    }

    // The on-disk footprint, before the crash-restart replays anything.
    let (disk_bytes, files) = disk_usage(dir)?;
    let user_bytes = text.len() as u64 + first.len() as u64;

    // Crash one provider, restart it from its store, and re-read. A
    // failure anywhere on this path is a failed check, not a set-up error.
    let target = FaultTarget::Provider((seed % u64::from(NODES)) as usize);
    let injected = fs.store().inject(target, Fault::CrashRestart);
    checks.check(injected.is_ok(), || {
        format!("inject {target}: {injected:?}")
    });
    let w0 = wall_now();
    let healed = fs.store().heal(target);
    let recover_wall_ms = secs_since(w0) * 1e3;
    checks.check(healed.is_ok(), || format!("heal {target}: {healed:?}"));
    let again = read_output(fx, fs);
    checks.check(matches!(&again, Ok(b) if *b == first), || match &again {
        Ok(b) => format!(
            "output re-read after {target} crash-restart differs ({} vs {} bytes)",
            b.len(),
            first.len()
        ),
        Err(e) => format!("output re-read after {target} crash-restart failed: {e}"),
    });

    let spans = probe.take_spans();
    let mut layers = Layers::default();
    let appends = ops.iter().filter(|o| o.kind == OpKind::Append).count() as u64;
    let reads = ops.len() as u64 - appends;
    let op_bytes = ops.iter().map(|o| o.bytes).sum();
    fill_common(
        &mut layers,
        &Phase {
            fx,
            store: fs.store(),
            before: &m.before,
            after: &m.after,
            run_wall_s: m.wall_s,
            user_bytes: op_bytes,
            appends,
            reads,
            vm_pending: &m.vm_pending,
        },
    );
    for name in ["bsfs.append_all", "bsfs.read", "bsfs.create", "bsfs.open"] {
        layers.calls(&spans, name);
    }
    layers.note(
        "core.client.",
        "BSFS calls the BLOB client internally; only calls made by the benchmark are spanned",
    );
    layers.note(
        "core.read_cache.",
        "BSFS keeps its client (and cache) private, so its lookups cannot be read from outside",
    );
    layers.set("mapreduce.job_sim_s", job.elapsed_secs());
    layers.set_u("mapreduce.maps", u64::from(job.maps));
    layers.set(
        "mapreduce.data_local_frac",
        ratio(
            job.data_local_maps as f64,
            (job.data_local_maps + job.remote_maps) as f64,
        ),
    );
    layers.set_u("mapreduce.map_output_bytes", job.map_output_bytes);
    layers.set_u("mapreduce.shuffle_bytes", job.shuffle_bytes);
    layers.set_u("mapreduce.combine_saved_bytes", job.combine_saved_bytes);
    layers.set(
        "mapreduce.combine_ratio",
        ratio(job.combine_saved_bytes as f64, job.map_output_bytes as f64),
    );
    layers.set_u("mapreduce.combined_segments", job.combined_segments);
    let (segments, transfers, republished) = m.shuffle;
    layers.set_u("mapreduce.shuffle_segments", segments);
    layers.set_u("mapreduce.shuffle_transfers", transfers);
    layers.set_u("mapreduce.early_shuffle_fetches", job.early_shuffle_fetches);
    layers.set_u("mapreduce.republished", republished);
    layers.set_u("pstore.disk_bytes", disk_bytes);
    layers.set(
        "pstore.disk_bytes_per_user_byte",
        ratio(disk_bytes as f64, user_bytes as f64),
    );
    layers.set_u("pstore.files", files);
    layers.set("pstore.recover_wall_ms", recover_wall_ms);

    Ok(Rep {
        setup_wall_s: 0.0,
        wall_s: m.wall_s,
        sim_s: m.sim_s,
        ops,
        space_amp: ratio(disk_bytes as f64, user_bytes as f64),
        checks,
        layers,
        spans,
    })
}

/// The job's single output file, read whole through a fresh BLOB client.
fn read_output(fx: &Fabric, fs: &Bsfs) -> Result<Vec<u8>, String> {
    let fs = fs.clone();
    run_proc(fx, NodeId(0), "read-output", move |p| {
        let path = DfsPath::new("/out/result").map_err(|e| e.to_string())?;
        let blob = fs.blob_of(p, &path).map_err(|e| e.to_string())?;
        let client = fs.store().client();
        let len = client.size(p, blob, None).map_err(|e| e.to_string())?;
        let data = client
            .read(p, blob, None, 0, len)
            .map_err(|e| format!("read output: {e}"))?;
        Ok(data.bytes().to_vec())
    })
}

/// `word\tcount` lines; a repeated word is an error (each key must be
/// reduced exactly once).
fn parse_counts(out: &[u8]) -> Result<BTreeMap<String, u64>, String> {
    let text = std::str::from_utf8(out).map_err(|e| format!("output is not UTF-8: {e}"))?;
    let mut counts = BTreeMap::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let (word, count) = line
            .split_once('\t')
            .ok_or_else(|| format!("malformed output line {line:?}"))?;
        let count: u64 = count
            .parse()
            .map_err(|e| format!("bad count in {line:?}: {e}"))?;
        if counts.insert(word.to_string(), count).is_some() {
            return Err(format!("word {word:?} reduced twice"));
        }
    }
    Ok(counts)
}

/// Seed-generated text: lines of 6..18 words drawn from a Zipf(1)
/// vocabulary of distinct random lowercase words, until `CORPUS_BYTES`.
/// A word's length is a function of its frequency rank alone, so every seed
/// yields the same word-length profile and hence about the same number of
/// records; only the spelling, the draws and the line breaks change.
fn corpus(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x636f_7270_7573);
    let mut seen = std::collections::BTreeSet::new();
    let mut vocab: Vec<String> = Vec::with_capacity(VOCABULARY);
    while vocab.len() < VOCABULARY {
        let len = 3 + (vocab.len() * 7) % 8;
        let word: String = (0..len)
            .map(|_| char::from(b'a' + rng.gen_range(0..26u8)))
            .collect();
        if seen.insert(word.clone()) {
            vocab.push(word);
        }
    }
    let mut cdf = Vec::with_capacity(VOCABULARY);
    let mut total = 0.0;
    for k in 0..VOCABULARY {
        total += 1.0 / (k + 1) as f64;
        cdf.push(total);
    }
    let mut text = String::with_capacity(CORPUS_BYTES + 128);
    while text.len() < CORPUS_BYTES {
        let words = rng.gen_range(6..18);
        for i in 0..words {
            let u = rng.gen::<f64>() * total;
            let k = cdf.partition_point(|&c| c < u).min(VOCABULARY - 1);
            if i > 0 {
                text.push(' ');
            }
            text.push_str(vocab.get(k).map_or("", String::as_str));
        }
        text.push('\n');
    }
    text
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// `(bytes, files)` under `dir`, recursively.
fn disk_usage(dir: &Path) -> Result<(u64, u64), String> {
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    let (mut bytes, mut files) = (0, 0);
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| e.to_string())?;
            let meta = entry.metadata().map_err(|e| e.to_string())?;
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                bytes += meta.len();
                files += 1;
            }
        }
    }
    Ok((bytes, files))
}

//! The repository benchmark (see README.md).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <append_storm|read_under_append|wordcount_durable|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in sim mode from the seed, one repetition after
//! another, while the next one should end within `--seconds` (at least two
//! repetitions).
//! Every repetition deploys afresh (set-up), runs the measured phase and
//! checks the outputs. With `--trace 0` the end-to-end metrics are printed;
//! with `--trace 1` untraced and traced repetitions alternate and the
//! per-layer metrics are printed, with the tracing overhead. Wall times
//! are scaled to a reference host speed (`speed.rs`). The last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod harness;
mod host;
mod layers;
mod mixed;
mod probe;
mod speed;
mod stats;
mod storm;
mod timed_fs;
mod wordcount;

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use harness::Rep;
use host::peak_rss_mb;
use probe::{secs_since, wall_now, OpKind, Probe, Span};
use speed::HostSpeed;
use stats::{mbps, median, quantile};

const WORKLOADS: &[&str] = &["append_storm", "read_under_append", "wordcount_durable"];

/// Repetitions per untraced run, whatever `--seconds` says: the
/// determinism self-check compares two.
const MIN_REPS: usize = 2;

/// Standalone set-ups after each repetition, at most. They add set-up
/// samples across the whole run, so that a set-up of a millisecond is
/// read off many samples taken at many moments, not off two or three.
const SETUPS_PER_REP: usize = 50;

/// Share of a repetition's wall time its standalone set-ups may take.
const SETUP_SHARE: f64 = 0.1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; expected one of {WORKLOADS:?} or all",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The outcome of one workload, ready to print.
struct Summary {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)`.
    metrics: Vec<(String, f64, String)>,
}

fn run(args: &Args) -> Result<bool, String> {
    let work_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("create {}: {e}", work_dir.display()))?;
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let pinned = host::pin_to_one_cpu();
    println!(
        "perfbench: seed {}, {} s per workload, trace {}, {cores} cores available, {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pinned.map_or("unpinned".into(), |c| format!("pinned to cpu {c}"))
    );
    let mut all = Summary {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for &name in &names {
        let s = if args.trace {
            traced_run(name, args, pinned, &work_dir)?
        } else {
            untraced_run(name, args, pinned, &work_dir)?
        };
        all.attempted += s.attempted;
        all.failed += s.failed;
        let prefix = if names.len() > 1 {
            println!("{}", json_line(&s));
            format!("{name}.")
        } else {
            String::new()
        };
        all.metrics.extend(
            s.metrics
                .into_iter()
                .map(|(m, v, u)| (format!("{prefix}{m}"), v, u)),
        );
    }
    println!("{}", json_line(&all));
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    Ok(all.failed == 0)
}

fn run_rep(
    name: &str,
    seed: u64,
    probe: &std::sync::Arc<Probe>,
    work_dir: &Path,
) -> Result<Rep, String> {
    match name {
        "append_storm" => storm::run(seed, probe),
        "read_under_append" => mixed::run(seed, probe),
        "wordcount_durable" => wordcount::run(seed, probe, work_dir),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Wall seconds of one set-up of `name` alone, torn down afterwards.
fn setup_only(name: &str, seed: u64, work_dir: &Path) -> Result<f64, String> {
    match name {
        "append_storm" => storm::setup_only(seed),
        "read_under_append" => mixed::setup_only(seed),
        "wordcount_durable" => wordcount::setup_only(seed, work_dir),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Failures of one repetition: failed or wrong ops plus failed checks.
fn tally(name: &str, rep: &Rep) -> (u64, u64) {
    for problem in &rep.checks.problems {
        println!("check {name} FAILED: {problem}");
    }
    let failed_ops = rep.ops.iter().filter(|o| !o.ok).count() as u64;
    (
        rep.ops.len() as u64 + rep.checks.attempted,
        failed_ops + rep.checks.failed,
    )
}

/// The sim-currency metrics of a repetition: exact for a fixed seed.
fn sim_currencies(rep: &Rep) -> [f64; 5] {
    let (mbps_p50, ms_p99) = op_metrics(rep);
    [
        rep.sim_s,
        mbps_p50,
        ms_p99,
        rep.space_amp,
        rep.ops.len() as f64,
    ]
}

/// Median per-op throughput (MB/s) and p99 op latency (ms) of the ops
/// that succeeded, in sim time.
fn op_metrics(rep: &Rep) -> (f64, f64) {
    let ok: Vec<_> = rep.ops.iter().filter(|o| o.ok).collect();
    let tput: Vec<f64> = ok.iter().map(|o| mbps(o.bytes, o.sim_ns)).collect();
    let ms: Vec<f64> = ok.iter().map(|o| o.sim_ns as f64 / 1e6).collect();
    (
        median(&tput).unwrap_or(0.0),
        quantile(&ms, 0.99).unwrap_or(0.0),
    )
}

/// Count and byte range of the ops of each kind, e.g.
/// `append 8 ops of 1000..=2000 B, read 123 ops of 18000..=262144 B`.
fn op_mix(rep: &Rep) -> String {
    let mut parts = Vec::new();
    for (kind, label) in [(OpKind::Append, "append"), (OpKind::Read, "read")] {
        let bytes: Vec<u64> = rep
            .ops
            .iter()
            .filter(|o| o.kind == kind)
            .map(|o| o.bytes)
            .collect();
        if let (Some(lo), Some(hi)) = (bytes.iter().min(), bytes.iter().max()) {
            parts.push(format!("{label} {} ops of {lo}..={hi} B", bytes.len()));
        }
    }
    parts.join(", ")
}

/// When a repetition's measured phase began: right after its set-up, to
/// well within the sampling period of the host's speed.
fn phase_start(r0: Instant, rep: &Rep) -> Instant {
    r0 + Duration::from_secs_f64(rep.setup_wall_s)
}

fn untraced_run(
    name: &str,
    args: &Args,
    cpu: Option<usize>,
    work_dir: &Path,
) -> Result<Summary, String> {
    let speed = HostSpeed::start(cpu);
    let t0 = wall_now();
    let mut reps = Vec::new();
    let mut last_s = 0.0;
    let mut peak_rss = 0.0;
    // `(start, wall seconds)` of every measured phase and every set-up.
    let (mut phases, mut setups) = (Vec::new(), Vec::new());
    // Start another repetition only if it should end within the budget.
    while reps.len() < MIN_REPS || secs_since(t0) + last_s <= args.seconds {
        let r0 = wall_now();
        let rep = run_rep(name, args.seed, &Probe::new(false), work_dir)?;
        last_s = secs_since(r0);
        let mut last_setup = rep.setup_wall_s;
        setups.push((r0, last_setup));
        phases.push((phase_start(r0, &rep), rep.wall_s));
        reps.push(rep);
        if reps.len() == 1 {
            // The allocator keeps freed memory mapped between repetitions,
            // so the peak is taken over the first one only.
            peak_rss = peak_rss_mb()?;
        }
        let (s0, cap) = (wall_now(), last_s * SETUP_SHARE);
        for _ in 0..SETUPS_PER_REP {
            if secs_since(s0) + last_setup > cap {
                break;
            }
            let s0 = wall_now();
            last_setup = setup_only(name, args.seed, work_dir)?;
            setups.push((s0, last_setup));
        }
    }
    // Scaled once every sample is in, so that each interval's window of
    // samples is centred on it.
    let walls: Vec<f64> = phases.iter().map(|&(t, s)| speed.at_ref(t, s)).collect();
    let setups: Vec<f64> = setups.iter().map(|&(t, s)| speed.at_ref(t, s)).collect();
    let (mut attempted, mut failed) = (0, 0);
    for (i, (rep, wall_ref)) in reps.iter().zip(&walls).enumerate() {
        println!(
            "rep {name} {i}: setup_s {} wall_s {} wall_ref_s {wall_ref}",
            rep.setup_wall_s, rep.wall_s
        );
        let (a, f) = tally(name, rep);
        attempted += a;
        failed += f;
    }
    let first = reps.first().ok_or("no repetition ran")?;
    // Determinism self-check: every repetition ran the same seed.
    let want = sim_currencies(first);
    let drift = reps.iter().filter(|r| sim_currencies(r) != want).count();
    attempted += 1;
    if drift > 0 {
        failed += 1;
        println!(
            "check {name} FAILED: {drift} repetitions of seed {} changed a sim currency",
            args.seed
        );
    }

    let raw: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    println!(
        "host {name}: median raw wall_s {}, speed {} over {} kernel samples, {} of the time stolen",
        median(&raw).unwrap_or(0.0),
        speed.over(t0, secs_since(t0)),
        speed.len(),
        speed.stolen_share()
    );
    let (mbps_p50, ms_p99) = op_metrics(first);
    let ok_ops = first.ops.iter().filter(|o| o.ok).count();
    println!("ops {name}: {}", op_mix(first));
    let n = reps.len();
    // The end-to-end metrics, in the order BENCHMARK.json declares them.
    let values = [
        (
            "wall_ref_s",
            median(&walls),
            "s",
            format!("{n} repetitions"),
        ),
        (
            "setup_s",
            median(&setups),
            "s",
            format!("{} set-ups", setups.len()),
        ),
        (
            "peak_rss_mb",
            Some(peak_rss),
            "MB",
            "first repetition".into(),
        ),
        ("sim_s", Some(first.sim_s), "s", "1 measured phase".into()),
        (
            "op_mbps_p50",
            Some(mbps_p50),
            "MB/s",
            format!("{ok_ops} ops"),
        ),
        ("op_ms_p99", Some(ms_p99), "ms", format!("{ok_ops} ops")),
        (
            "space_amp",
            Some(first.space_amp),
            "ratio",
            "1 measured phase".into(),
        ),
    ];
    let mut metrics = Vec::new();
    for (metric, value, unit, samples) in values {
        let value = value.unwrap_or(0.0);
        println!("metric {name} {metric} = {value} {unit} [samples {samples}]");
        if !(value.is_finite() && value > 0.0) {
            failed += 1;
            println!("check {name} FAILED: {metric} is {value}, expected a positive number");
        }
        metrics.push((metric.to_string(), value, unit.to_string()));
    }
    println!(
        "metric {name} failed_frac = {} ratio [samples {attempted} attempted]",
        failed as f64 / attempted as f64
    );
    if name == "wordcount_durable" {
        println!(
            "note {name}: BSFS on pstore, fresh persist dir per repetition, default flush policy, no checkpoints"
        );
    }
    Ok(Summary {
        attempted,
        failed,
        metrics,
    })
}

fn traced_run(
    name: &str,
    args: &Args,
    cpu: Option<usize>,
    work_dir: &Path,
) -> Result<Summary, String> {
    let speed = HostSpeed::start(cpu);
    let t0 = wall_now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut last = None;
    let mut pair_s = 0.0;
    while last.is_none() || secs_since(t0) + pair_s <= args.seconds {
        let p0 = wall_now();
        for traced_rep in [false, true] {
            let r0 = wall_now();
            let rep = run_rep(name, args.seed, &Probe::new(traced_rep), work_dir)?;
            let phase = (phase_start(r0, &rep), rep.wall_s);
            let (a, f) = tally(name, &rep);
            attempted += a;
            failed += f;
            if traced_rep {
                traced.push(phase);
                last = Some(rep);
            } else {
                untraced.push(phase);
            }
        }
        pair_s = secs_since(p0);
    }
    let mut rep = last.ok_or("no traced repetition ran")?;
    let at_ref = |phases: &[(Instant, f64)]| {
        let walls: Vec<f64> = phases.iter().map(|&(t, s)| speed.at_ref(t, s)).collect();
        median(&walls)
    };
    let overhead = at_ref(&traced).unwrap_or(0.0) / at_ref(&untraced).unwrap_or(1.0);
    rep.layers.set("trace.overhead", overhead);
    rep.layers.set_u("trace.spans", rep.spans.len() as u64);
    for line in rep.layers.dump(name) {
        println!("{line}");
    }
    let trace_file = work_dir.join(format!("trace-{name}-seed{}.jsonl", args.seed));
    write_spans(&trace_file, &rep.spans)?;
    println!(
        "trace {name}: {} spans written to {}; overhead {overhead} = traced wall_ref_s / untraced wall_ref_s over {} pairs",
        rep.spans.len(),
        trace_file.display(),
        traced.len()
    );
    let metrics = layers::PER_LAYER
        .iter()
        .map(|&(m, unit, _)| (m.to_string(), rep.layers.get(m), unit.to_string()))
        .collect();
    Ok(Summary {
        attempted,
        failed,
        metrics,
    })
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"trace\":{},\"id\":{},\"parent\":{},\"sim_start_ns\":{},\"sim_end_ns\":{},\"wall_start_ns\":{},\"wall_end_ns\":{},\"ok\":{}}}\n",
            s.name, s.trace, s.id, s.parent, s.sim_start, s.sim_end, s.wall_start_ns, s.wall_end_ns, s.ok
        ));
    }
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

fn json_line(s: &Summary) -> String {
    let metrics: Vec<String> = s
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        s.failed == 0,
        s.attempted.max(1),
        s.failed,
        metrics.join(", ")
    )
}

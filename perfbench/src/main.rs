//! The repository benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload <batch-tirm|online-replay|serve-durable> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, checks that its outputs are
//! correct, and prints one JSON object as the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones ([`E2E`]); with `--trace 1` the
//! workload runs twice — untraced in a child process, then traced in
//! this one — and the metrics are the per-layer ones ([`LAYER`]),
//! including the tracing overhead per end-to-end metric. The traced pass writes its spans as Chrome
//! trace-event JSON under `.perfbench_run/`. A run whose checks fail
//! prints `"correct": false` and exits 1. See `perfbench/WORKLOADS.md`.

mod batch;
mod online;
mod probe;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use trace::Tracer;

/// End-to-end metrics, printed by every untraced run. Each workload
/// gives them its own meaning (see `WORKLOADS.md`): `op_*` is the
/// latency of the workload's unit operation, `ops_per_s` its rate.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("regret_rel", "ratio"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// bypasses reads 0 there.
pub const LAYER: &[(&str, &str)] = &[
    ("op_ms_tail", "ms"),
    ("op.samples", "count"),
    ("op.tail_pct", "%"),
    ("op.wall_ms_p50", "ms"),
    ("op.wall_ms_tail", "ms"),
    ("workloads.dataset_s", "s"),
    ("core.problem_s", "s"),
    ("server.boot_s", "s"),
    ("rrset.sets", "count"),
    ("rrset.sample_sets_per_s", "1/s"),
    ("rrset.sampling_share", "ratio"),
    ("rrset.kpt_ms", "ms"),
    ("rrset.kpt_share", "ratio"),
    ("rrset.postings_entries", "count"),
    ("rrset.bytes_per_posting", "B"),
    ("rrset.scan_mentries_per_s", "M/s"),
    ("core.other_s", "s"),
    ("core.other_share", "ratio"),
    ("core.seeds", "count"),
    ("core.oracle_calls", "count"),
    ("core.memory_mb", "MB"),
    ("diffusion.eval_s", "s"),
    ("online.arrival_ms_p50", "ms"),
    ("online.arrival_ms_tail", "ms"),
    ("online.topup_ms_p50", "ms"),
    ("online.departure_ms_p50", "ms"),
    ("online.query_us_p50", "us"),
    ("online.full_reconciles", "count"),
    ("online.delta_reconciles", "count"),
    ("online.delta_share", "ratio"),
    ("online.fresh_rr_sets", "count"),
    ("online.shard_reclaims", "count"),
    ("online.pool_evictions", "count"),
    ("online.snapshot_us_p50", "us"),
    ("online.memory_mb", "MB"),
    ("serve.visible_ms_p50", "ms"),
    ("serve.visible_ms_tail", "ms"),
    ("serve.applied_per_s", "1/s"),
    ("server.ack_us_p50", "us"),
    ("server.ack_us_tail", "us"),
    ("server.queue_ms_p50", "ms"),
    ("server.queue_ms_tail", "ms"),
    ("server.publish_us_p50", "us"),
    ("server.apply_ms_mean", "ms"),
    ("server.writer_busy_share", "ratio"),
    ("server.checkpoints", "count"),
    ("server.checkpoint_ms_sum", "ms"),
    ("server.queue_high_water", "count"),
    ("wal.append_us_mean", "us"),
    ("wal.fsync_ms_mean", "ms"),
    ("wal.fsync_ms_sum", "ms"),
    ("wal.fsyncs_per_event", "ratio"),
    ("wal.batch_events_mean", "count"),
    ("wire.read_us_p50", "us"),
    ("wire.read_us_tail", "us"),
    ("wire.reads_per_s", "1/s"),
    ("join.send_share", "ratio"),
    ("join.queue_share", "ratio"),
    ("join.wal_share", "ratio"),
    ("join.apply_share", "ratio"),
    ("join.publish_share", "ratio"),
    ("join.uncovered_share", "ratio"),
    ("loadgen.late_ms_tail", "ms"),
    ("loadgen.poll_ms", "ms"),
    ("obs.flight_lost", "count"),
    ("trace.overhead_share.setup_s", "ratio"),
    ("trace.overhead_share.peak_rss_mb", "ratio"),
    ("trace.overhead_share.op_ms_p50", "ratio"),
    ("trace.overhead_share.ops_per_s", "ratio"),
    ("trace.overhead_share.regret_rel", "ratio"),
];

/// What one pass of a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations attempted (allocations, events, wire mutations).
    pub attempted: u64,
    /// Attempts that failed: a shed, an error or a failed check.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub errors: Vec<String>,
    /// Metric values by name (end-to-end and per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Pass {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            E2E.iter().chain(LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Records a correctness check; a failed one counts as a failed
    /// operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// Sets `op_ms_tail` from the unit operation's samples (ms), with the
    /// percentile it is and the sample count; fewer than eleven samples
    /// fail the run.
    pub fn set_op_tail(&mut self, samples: &[f64]) {
        match stats::tail(samples) {
            Some(t) => {
                self.set("op_ms_tail", t.value);
                self.set("op.tail_pct", t.pct);
                self.set("op.samples", t.samples as f64);
            }
            None => self.check(false, || {
                format!("op_ms_tail: {} samples, need more than ten", samples.len())
            }),
        }
    }
}

/// Everything a workload needs from the command line and the process.
pub struct Ctx<'a> {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Nominal measuring time; the work per run is sized from it.
    pub seconds: f64,
    /// Span store (disabled on untraced passes).
    pub tracer: &'a Tracer,
    /// Scratch directory inside the checkout.
    pub scratch: &'a Path,
}

/// SplitMix64 — derives independent seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// CPU time this process has used so far, over all its threads (exited
/// ones included), in nanoseconds. It counts only time the threads ran,
/// so unlike wall time it leaves out time the hypervisor took from the
/// virtual CPUs — on a shared machine, the bulk of run-to-run noise.
pub fn cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    clock_ns(CLOCK_PROCESS_CPUTIME_ID).expect("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed")
}

/// The CPU-time clock of the calling thread, readable from any thread of
/// the process while this one lives (see [`clock_ns`]).
pub fn thread_cpu_clock() -> i32 {
    extern "C" {
        fn pthread_self() -> usize;
        fn pthread_getcpuclockid(thread: usize, clock: *mut i32) -> i32;
    }
    let mut clock = 0;
    // SAFETY: pthread_self names the live calling thread, and
    // pthread_getcpuclockid only writes the clock id through `clock`.
    let rc = unsafe { pthread_getcpuclockid(pthread_self(), &mut clock) };
    assert_eq!(rc, 0, "pthread_getcpuclockid failed");
    clock
}

/// Reads `clock` in nanoseconds; `None` when the clock is gone (the CPU
/// clock of a thread that has exited).
pub fn clock_ns(clock: i32) -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and clock_gettime only writes through it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// The process's peak resident set, in MB.
pub fn peak_rss_mb() -> f64 {
    tirm_core::metrics::peak_rss_bytes().unwrap_or(0) as f64 / 1e6
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds expects a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run_pass(workload: &str, ctx: &Ctx<'_>) -> Result<Pass, String> {
    match workload {
        "batch-tirm" => Ok(batch::run(ctx)),
        "online-replay" => Ok(online::run(ctx)),
        "serve-durable" => serve::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The untraced baseline of a traced run, measured in a child process
/// of its own (so its set-up and peak RSS are those of a plain run):
/// (correct, attempted, failed, end-to-end metrics).
fn untraced_child(args: &Args) -> Result<(bool, u64, u64, BTreeMap<String, f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("running the untraced baseline: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let v = serde_json::from_str(last).map_err(|e| format!("untraced baseline output: {e:?}"))?;
    let num = |key: &str| v.get(key).and_then(|x| x.as_u64()).unwrap_or(0);
    let correct = v.get("correct").and_then(|x| x.as_bool()).unwrap_or(false);
    let mut metrics = BTreeMap::new();
    for &(name, _) in E2E {
        if let Some(x) = v
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(|x| x.as_f64())
        {
            metrics.insert(name.to_string(), x);
        }
    }
    Ok((correct, num("attempted"), num("failed"), metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = PathBuf::from(".perfbench_run");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: creating {}: {e}", scratch.display());
        std::process::exit(2);
    }
    // Start the flight clock: every span timestamp is relative to it.
    tirm_obs::flight::now_ns();
    let fail = |e: String| -> ! {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    };

    let tracer = Tracer::new(args.trace);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: &tracer,
        scratch: &scratch,
    };
    // A traced run first measures its untraced twin, so the tracing
    // overhead is a difference of two otherwise identical runs.
    let baseline = if args.trace {
        Some(untraced_child(&args).unwrap_or_else(|e| fail(e)))
    } else {
        None
    };
    let mut pass = run_pass(&args.workload, &ctx).unwrap_or_else(|e| fail(e));
    let mut errors = std::mem::take(&mut pass.errors);
    let (mut attempted, mut failed) = (pass.attempted, pass.failed);
    let mut out: Vec<(&str, f64, &str)> = Vec::new();
    if let Some((ok, child_attempted, child_failed, untraced)) = baseline {
        if !ok {
            errors.push("the untraced baseline run failed its checks".into());
        }
        attempted += child_attempted;
        failed += child_failed;
        for &(name, _) in E2E {
            let share = match (untraced.get(name), pass.metrics.get(name)) {
                (Some(&a), Some(&b)) if a != 0.0 => (b - a) / a,
                _ => 0.0,
            };
            let key = LAYER
                .iter()
                .find(|(n, _)| n.strip_prefix("trace.overhead_share.") == Some(name))
                .map(|(n, _)| *n)
                .expect("an overhead metric per end-to-end metric");
            pass.set(key, share);
        }
        let path = scratch.join(format!("trace-{}-{}.json", args.workload, args.seed));
        match std::fs::write(&path, tracer.chrome_json()) {
            Ok(()) => eprintln!("[trace] {}", path.display()),
            Err(e) => eprintln!("warn: writing {}: {e}", path.display()),
        }
        for &(name, unit) in LAYER {
            out.push((name, pass.metrics.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        for &(name, unit) in E2E {
            match pass.metrics.get(name) {
                Some(&v) => out.push((name, v, unit)),
                None => errors.push(format!("{name} was not measured")),
            }
        }
    }
    for (name, v, _) in &out {
        if !v.is_finite() {
            errors.push(format!("{name} is not finite: {v}"));
        }
    }
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let correct = errors.is_empty();
    let metrics: Vec<String> = out
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_overheads_cover_every_e2e_metric() {
        let mut names: Vec<&str> = E2E.iter().chain(LAYER).map(|(n, _)| *n).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for (name, _) in E2E {
            let key = format!("trace.overhead_share.{name}");
            assert!(LAYER.iter().any(|(n, _)| *n == key), "{key} missing");
        }
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_ns() > before);
    }

    #[test]
    fn thread_clock_counts_only_its_thread() {
        let mine = thread_cpu_clock();
        let idle = std::thread::spawn(|| {
            let clock = thread_cpu_clock();
            std::thread::sleep(std::time::Duration::from_millis(50));
            clock_ns(clock).unwrap()
        });
        let before = clock_ns(mine).unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let busy = clock_ns(mine).unwrap() - before;
        let slept = idle.join().unwrap();
        assert!(busy > slept, "busy {busy} ns, sleeping thread {slept} ns");
    }

    #[test]
    fn derived_seeds_differ_per_salt() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}

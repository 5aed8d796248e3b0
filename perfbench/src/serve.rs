//! `serve-durable`: a real `tirm_server::serve` on loopback with a
//! durable state dir (WAL, fsync, checkpoints at the default cadence,
//! default queue depth), the dataset and allocator configuration of
//! `online-replay`, and two client connections — one mutation
//! connection and one paced reader — driving one continuous log in two
//! phases:
//!
//! * **paced**: open-loop Poisson sends at a fixed rate well below
//!   capacity. Every mutation is delivered (an `Overloaded` is retried
//!   and counted as a failed attempt). Latency runs from a mutation's
//!   *scheduled* send time to the first response, on either connection,
//!   whose epoch covers it — visibility, not admission.
//! * **saturated**: a closed loop keeping a fixed window of admitted but
//!   not yet visible mutations, below the queue depth: the writer always
//!   has a backlog and nothing is shed. The end-to-end figures come from
//!   this phase, timed on the [`ServerClock`].
//!
//! On a fresh state dir with in-order delivery of valid events, mutation
//! `k` is covered at epoch `k`, and its server-side lifecycle records in
//! the flight rings carry trace id `k` (WAL position + 1).

use crate::online::{self, RegretTrack};
use crate::stats::{self, Visibility};
use crate::{mix, Ctx, Pass};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use tirm_obs::flight::{self, FlightEvent, Stage};
use tirm_obs::RegistrySnapshot;
use tirm_online::{EventKind, OnlineAllocator};
use tirm_server::{Client, DurabilityConfig, Request, Response, ServerConfig};
use tirm_workloads::LogEvent;

/// Paced-phase send rate (log entries per second, Poisson; about 80% of
/// entries are mutations): under a fifth of the writer's saturated rate
/// on the reference machine, so queueing stays small.
const PACED_RATE: f64 = 15.0;
/// Share of `--seconds` the paced phase is scheduled over.
const PACED_SHARE: f64 = 0.7;
/// Fewest warm-up mutations: the stream starts with no live ads, and its
/// first hundred or more events ramp the population up to the steady
/// state the measured phases should see. The warm-up is otherwise sized
/// so that the server's first checkpoint falls mid-way through the paced
/// phase (see `run`).
const MIN_WARMUP: usize = 100;
/// Saturated-phase mutations per nominal second of the remaining share
/// (576 at 12 s: enough that two checkpoints fall in the phase).
const SATURATED_RATE: f64 = 160.0;
/// Admitted-but-not-visible mutations the saturated loop keeps in
/// flight: a standing backlog, well below the default queue depth (64).
const WINDOW: u64 = 16;
/// Pause between the reader's queries: the perf suite's serving cells
/// use the same (`tirm_bench::suite`).
const READ_PAUSE: Duration = Duration::from_micros(500);
/// Set-ups per run (dataset + stream + server boot; median reported).
/// One takes a couple of ms of CPU, so many are cheap; spread over
/// longer, their median follows the host's speed less.
const SETUPS: usize = 50;
/// The server lifecycle stages every mutation's trace must hold.
const STAGES: [Stage; 6] = [
    Stage::Admit,
    Stage::Queue,
    Stage::WalAppend,
    Stage::Fsync,
    Stage::Apply,
    Stage::Publish,
];
/// Bound on any wait for the server to catch up.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// The server's clock: CPU time of every thread of the process except the
/// benchmark's own, plus the time the server spent blocked in WAL fsync
/// (its own `tirm_server_wal_fsync_latency_ns` histogram). Like a CPU
/// clock it leaves out time the hypervisor took from the virtual CPUs;
/// unlike the process CPU clock it counts the writer's fsync waits and
/// not the benchmark's own polling.
#[derive(Default)]
struct ServerClock {
    bench: Mutex<BenchThreads>,
}

/// The benchmark's threads, whose CPU time the server clock leaves out.
#[derive(Default)]
struct BenchThreads {
    /// Thread CPU clock and its reading on entry, per live thread.
    live: Vec<(i32, u64)>,
    /// CPU time used since entry by threads that have left.
    left_ns: u64,
}

/// Counts the thread that made it as the benchmark's until dropped.
struct BenchThread<'a> {
    clock: &'a ServerClock,
    cpu: i32,
}

impl Drop for BenchThread<'_> {
    fn drop(&mut self) {
        let mut bench = self.clock.bench.lock().expect("bench threads poisoned");
        if let Some(i) = bench.live.iter().position(|&(c, _)| c == self.cpu) {
            let (c, base) = bench.live.swap_remove(i);
            bench.left_ns += crate::clock_ns(c).unwrap_or(base) - base;
        }
    }
}

impl ServerClock {
    /// Counts the calling thread as the benchmark's, not the server's,
    /// from now until the guard drops.
    fn enter(&self) -> BenchThread<'_> {
        let cpu = crate::thread_cpu_clock();
        let base = crate::clock_ns(cpu).expect("reading this thread's CPU clock");
        self.bench
            .lock()
            .expect("bench threads poisoned")
            .live
            .push((cpu, base));
        BenchThread { clock: self, cpu }
    }

    fn now_ns(&self) -> u64 {
        let bench = self.bench.lock().expect("bench threads poisoned");
        let ours: u64 = bench.left_ns
            + bench
                .live
                .iter()
                .map(|&(c, base)| crate::clock_ns(c).unwrap_or(base) - base)
                .sum::<u64>();
        let fsync = tirm_obs::registry::WAL_FSYNC_LATENCY_NS.snapshot().sum;
        crate::cpu_ns().saturating_sub(ours) + fsync
    }
}

/// Epoch observations from both connections, stamped with the wall
/// (flight) clock and with the server clock.
struct Seen {
    vis: Mutex<Visibility>,
    vis_server: Mutex<Visibility>,
    clock: ServerClock,
    max: AtomicU64,
    /// Flight-clock times of epoch-bearing responses (visibility probes).
    probes: Mutex<Vec<u64>>,
}

impl Seen {
    fn observe(&self, epoch: u64, at: u64) {
        self.vis
            .lock()
            .expect("visibility poisoned")
            .observe(epoch, at);
        let server = self.clock.now_ns();
        self.vis_server
            .lock()
            .expect("visibility poisoned")
            .observe(epoch, server);
        self.max.fetch_max(epoch, Ordering::AcqRel);
        self.probes.lock().expect("probes poisoned").push(at);
    }

    fn max(&self) -> u64 {
        self.max.load(Ordering::Acquire)
    }

    /// Blocks until mutation `k` is visible.
    fn wait_for(&self, k: u64) -> Result<(), String> {
        let deadline = std::time::Instant::now() + DRAIN_TIMEOUT;
        while self.max() < k {
            if std::time::Instant::now() > deadline {
                return Err(format!("mutation {k} never became visible"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }
}

/// One mutation as the client saw it.
struct Sent {
    /// Mutation ordinal (1-based) = expected epoch = flight trace id.
    k: u64,
    /// Scheduled send time (paced) or actual send time (saturated).
    sched: u64,
    /// First send attempt.
    send: u64,
    /// `Accepted` received.
    acked: u64,
    /// Queue depth the server reported at admission.
    depth: usize,
}

fn reader(
    addr: std::net::SocketAddr,
    seed: u64,
    seen: &Seen,
    stop: &AtomicBool,
    ctx: &Ctx<'_>,
) -> Result<Vec<(u64, u64)>, String> {
    let _bench = seen.clock.enter();
    let mut client = Client::connect(addr).map_err(|e| format!("reader connect: {e}"))?;
    let mut rng = SmallRng::seed_from_u64(seed);
    // (flight-clock time, latency ns) per read.
    let mut reads = Vec::new();
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(READ_PAUSE);
        let req = match rng.gen_range(0..6u32) {
            0..=2 => Request::RegretQuery,
            3 | 4 => Request::Stats,
            _ => Request::AdQuery {
                id: rng.gen_range(1..12u32) as u64,
            },
        };
        let start = flight::now_ns();
        let resp = client
            .request(&req)
            .map_err(|e| format!("read failed: {e}"))?;
        let end = flight::now_ns();
        let epoch = match resp {
            Response::Regret { epoch, .. } | Response::Ad { epoch, .. } => epoch,
            Response::Stats(s) => s.epoch,
            other => return Err(format!("unexpected read response {other:?}")),
        };
        seen.observe(epoch, end);
        ctx.tracer.record("tirm_wire", "read", 0, epoch, start, end);
        reads.push((end, end - start));
    }
    Ok(reads)
}

/// Sends one log entry, retrying `Overloaded`; returns the `Accepted`
/// depth for a mutation. Each shed attempt counts as failed.
fn deliver(
    client: &mut Client,
    ev: &tirm_online::OnlineEvent,
    seen: &Seen,
    pass: &mut Pass,
    k: u64,
    ctx: &Ctx<'_>,
) -> Result<(u64, u64, usize), String> {
    let send = flight::now_ns();
    loop {
        pass.attempted += 1;
        let resp = client
            .send_event(ev)
            .map_err(|e| format!("send of mutation {k} failed: {e}"))?;
        let at = flight::now_ns();
        match resp {
            Response::Accepted { epoch, queue_depth } => {
                seen.observe(epoch, at);
                ctx.tracer.record("tirm_wire", "send_event", 0, k, send, at);
                return Ok((send, at, queue_depth));
            }
            Response::Regret { epoch, .. } => {
                seen.observe(epoch, at);
                ctx.tracer
                    .record("tirm_wire", "send_event:regret_query", 0, 0, send, at);
                return Ok((send, at, 0));
            }
            Response::Overloaded { .. } => {
                pass.failed += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            other => return Err(format!("unexpected response to mutation {k}: {other:?}")),
        }
    }
}

/// Flight records drained while the server runs, deduplicated by
/// (trace, stage). Only records that start at or after `since` (this
/// pass's server boot) are kept: earlier servers in the process reused
/// the same trace ids.
struct Drained {
    since: u64,
    records: Mutex<HashMap<(u64, Stage), FlightEvent>>,
}

impl Drained {
    fn drain(&self) {
        let events = flight::dump_events();
        let mut map = self.records.lock().expect("flight map poisoned");
        for e in events.into_iter().filter(|e| e.start_ns >= self.since) {
            map.entry((e.trace, e.stage)).or_insert(e);
        }
    }
}

fn boot_config(ctx: &Ctx<'_>, dir: &Path) -> ServerConfig {
    ServerConfig {
        online: online::config(ctx),
        durability: Some(DurabilityConfig::new(dir)),
        ..ServerConfig::default()
    }
}

/// The index just past the first `mutations` mutations of `log` at or
/// after index `from` (the log's end when it holds fewer).
fn split_log(log: &[LogEvent], from: usize, mutations: usize) -> usize {
    let mut muts = 0;
    for (i, e) in log.iter().enumerate().skip(from) {
        if muts == mutations {
            return i;
        }
        if e.event.is_mutation() {
            muts += 1;
        }
    }
    log.len()
}

pub fn run(ctx: &Ctx<'_>) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let tracer = ctx.tracer;
    let paced_s = ctx.seconds * PACED_SHARE;
    let saturated = ((ctx.seconds - paced_s) * SATURATED_RATE).round().max(20.0) as usize;

    // The Poisson schedule of the paced phase, from the workload seed.
    let mut rng = SmallRng::seed_from_u64(mix(ctx.seed, 0x9ace));
    let mut offsets = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -rng.gen::<f64>().max(1e-12).ln() / PACED_RATE;
        if t >= paced_s {
            break;
        }
        offsets.push((t * 1e9) as u64);
    }
    // Checkpoints fall every `checkpoint_interval` applied mutations. End
    // the warm-up about half a paced phase (~80% of its entries are
    // mutations) before the first one, so that its writer stall lands in
    // the paced phase and shows in the visibility tail.
    let interval = DurabilityConfig::new(".").checkpoint_interval as usize;
    let warm = interval
        .saturating_sub(offsets.len() * 2 / 5)
        .max(MIN_WARMUP);
    let entries = (warm + offsets.len() + saturated) * 2 + 64;

    // Set-up, several times, on the CPU clock: dataset + stream + server
    // boot (`serve` until the handle is live).
    let run_dir = ctx.scratch.join(format!(
        "serve-{}-{}",
        std::process::id(),
        tracer.enabled() as u8
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    let mut setup = Vec::new();
    let mut dataset_s = Vec::new();
    let mut boot_s = Vec::new();
    for i in 0..SETUPS as u64 - 1 {
        let (d, gen_s) = online::dataset(ctx, i);
        let (log, log_s) = online::stream(ctx, &d, entries, i);
        std::hint::black_box(&log);
        let dir = run_dir.join(format!("boot{i}"));
        let start = flight::now_ns();
        let start_cpu = crate::cpu_ns();
        let ((booted, booted_cpu), _) =
            tirm_server::serve(&d.graph, &d.topic_probs, boot_config(ctx, &dir), |_| {
                (flight::now_ns(), crate::cpu_ns())
            })
            .map_err(|e| format!("server boot failed: {e}"))?;
        tracer.record("tirm_server", "serve→handle", 0, i, start, booted);
        let b = (booted_cpu - start_cpu) as f64 / 1e9;
        dataset_s.push(gen_s);
        boot_s.push(b);
        setup.push(gen_s + log_s + b);
    }
    let last = SETUPS as u64 - 1;
    let (data, gen_s) = online::dataset(ctx, last);
    let (full_log, log_s) = online::stream(ctx, &data, entries, last);
    let warm_end = split_log(&full_log, 0, warm);
    let paced_end = (warm_end + offsets.len()).min(full_log.len());
    let end = split_log(&full_log, paced_end, saturated);
    let log = &full_log[..end];
    let mutations: Vec<usize> = (0..log.len())
        .filter(|&i| log[i].event.is_mutation())
        .collect();
    let total = mutations.len() as u64;
    let count = |entries: &[LogEvent]| entries.iter().filter(|e| e.event.is_mutation()).count();
    let phases = Phases {
        warm: warm_end,
        paced: paced_end,
        warm_muts: count(&log[..warm_end]) as u64,
        paced_muts: count(&log[..paced_end]) as u64,
    };
    let paced_muts = phases.paced_muts;

    let seen = Seen {
        vis: Mutex::new(Visibility::new(total as usize)),
        vis_server: Mutex::new(Visibility::new(total as usize)),
        clock: ServerClock::default(),
        max: AtomicU64::new(0),
        probes: Mutex::new(Vec::new()),
    };
    let drained = Drained {
        since: flight::now_ns(),
        records: Mutex::new(HashMap::new()),
    };
    let dir = run_dir.join("live");
    let serve_start = flight::now_ns();
    let serve_start_cpu = crate::cpu_ns();
    let outcome = tirm_server::serve(
        &data.graph,
        &data.topic_probs,
        boot_config(ctx, &dir),
        |h| {
            let (booted, booted_cpu) = (flight::now_ns(), crate::cpu_ns());
            tracer.record("tirm_server", "serve→handle", 0, last, serve_start, booted);
            let b = (booted_cpu - serve_start_cpu) as f64 / 1e9;
            dataset_s.push(gen_s);
            boot_s.push(b);
            setup.push(gen_s + log_s + b);
            let stop = AtomicBool::new(false);
            let _bench = seen.clock.enter();
            std::thread::scope(|s| -> Result<_, String> {
                let reader = s.spawn(|| reader(h.addr(), mix(ctx.seed, 0x4ead), &seen, &stop, ctx));
                let drainer = tracer.enabled().then(|| {
                    s.spawn(|| {
                        let _bench = seen.clock.enter();
                        while !stop.load(Ordering::Acquire) {
                            drained.drain();
                            std::thread::sleep(Duration::from_millis(50));
                        }
                    })
                });
                let driven = drive(ctx, h.addr(), log, &offsets, &phases, &seen, &mut pass);
                stop.store(true, Ordering::Release);
                let reads = reader.join().map_err(|_| "reader panicked".to_string())?;
                if let Some(d) = drainer {
                    d.join()
                        .map_err(|_| "flight drainer panicked".to_string())?;
                }
                Ok((driven?, reads?))
            })
        },
    );
    let (result, served) = outcome.map_err(|e| format!("server failed: {e}"))?;
    let (driven, reads) = result?;
    // High-water RSS of set-up and the served run, before the checks
    // below replay the log in-process.
    pass.set("peak_rss_mb", crate::peak_rss_mb());
    drained.drain();
    let _ = std::fs::remove_dir_all(&run_dir);

    pass.set("setup_s", stats::median(&setup));
    pass.set("workloads.dataset_s", stats::median(&dataset_s));
    pass.set("server.boot_s", stats::median(&boot_s));

    // End to end: the saturated phase on the server clock. A mutation
    // costs what the clock advanced between the previous mutation's
    // visibility and its own. Per layer: the same on the wall clock, and
    // the paced visibility latency from the *scheduled* send.
    let vis = seen.vis.lock().expect("visibility poisoned").clone();
    let vis_server = seen.vis_server.lock().expect("visibility poisoned").clone();
    let sat = paced_muts + 1..=total;
    let (cost_ms, server_s) =
        stats::completion_gaps(&vis_server, sat.clone(), driven.sat_start_server);
    let (wall_ms, sat_wall) = stats::completion_gaps(&vis, sat, driven.sat_start);
    let sat_muts = (total - paced_muts) as f64;
    pass.set("op_ms_p50", stats::median(&cost_ms));
    pass.set_op_tail(&cost_ms);
    pass.set("ops_per_s", sat_muts / server_s);
    pass.set("op.wall_ms_p50", stats::median(&wall_ms));
    if let Some(t) = stats::tail(&wall_ms) {
        pass.set("op.wall_ms_tail", t.value);
    }
    pass.set("serve.applied_per_s", sat_muts / sat_wall);
    let paced: Vec<&Sent> = driven.sent.iter().filter(|s| s.k <= paced_muts).collect();
    let mut visible_ms = Vec::new();
    for s in &paced {
        match vis.visible_at(s.k) {
            Some(at) => visible_ms.push(at.saturating_sub(s.sched) as f64 / 1e6),
            None => pass.check(false, || format!("mutation {} never became visible", s.k)),
        }
    }
    pass.set("serve.visible_ms_p50", stats::median(&visible_ms));
    if let Some(t) = stats::tail(&visible_ms) {
        pass.set("serve.visible_ms_tail", t.value);
    }

    // Correctness: zero rejected, a reader that made progress, and the
    // drained snapshot equal to an in-process replay of the same log.
    pass.check(served.rejected == 0, || {
        format!("{} events rejected", served.rejected)
    });
    pass.check(served.accepted == total, || {
        format!("{} mutations accepted, {total} sent", served.accepted)
    });
    pass.check(reads.len() > 10, || {
        format!("reader made only {} reads", reads.len())
    });
    pass.check(total - paced_muts == saturated as u64, || {
        format!(
            "the log held {} saturated-phase mutations, not {saturated}",
            total - paced_muts
        )
    });
    pass.check(driven.sat_shed == 0, || {
        format!("the saturated phase shed {} attempts", driven.sat_shed)
    });
    let cfg = online::config(ctx);
    let mut replica = OnlineAllocator::new(&data.graph, &data.topic_probs, cfg.clone());
    let mut quality = RegretTrack::default();
    for (i, e) in log.iter().enumerate() {
        if let Err(err) = replica.process(&e.event) {
            pass.check(false, || format!("replay rejected event {i}: {err}"));
        }
        quality.observe(ctx, &data, &log[..=i], &replica);
    }
    quality.report(&mut pass);
    pass.check(
        served.final_snapshot.same_allocation(&replica.snapshot()),
        || "drained snapshot differs from the in-process replay".into(),
    );
    online::check_anchor(ctx, &mut pass, &data, log, &replica.allocation(), &cfg);

    let probes = seen.probes.lock().expect("probes poisoned").clone();
    layers(
        ctx, &mut pass, &driven, &reads, &vis, &probes, &drained, paced_muts, total, log,
        &mutations,
    );
    let st = served.final_snapshot.stats;
    pass.set("online.full_reconciles", st.full_reallocations as f64);
    pass.set("online.delta_reconciles", st.delta_reallocations as f64);
    let reconciles = (st.full_reallocations + st.delta_reallocations).max(1) as f64;
    pass.set(
        "online.delta_share",
        st.delta_reallocations as f64 / reconciles,
    );
    pass.set("online.fresh_rr_sets", st.fresh_rr_sets as f64);
    pass.set("online.shard_reclaims", st.shard_reclaims as f64);
    pass.set(
        "online.memory_mb",
        served.final_snapshot.engine_memory_bytes as f64 / 1e6,
    );
    pass.set("core.seeds", served.final_snapshot.total_seeds() as f64);
    let sampled = stats::counter_delta(
        &driven.reg[0],
        &driven.reg[2],
        "tirm_rrset_rr_sets_sampled_total",
    );
    pass.set("rrset.sets", sampled as f64);
    if tracer.enabled() {
        let dropped = stats::counter_delta(
            &driven.reg[0],
            &driven.reg[2],
            "tirm_flight_records_dropped_total",
        );
        let lost = drained_lost(&drained, total) + dropped;
        pass.set("obs.flight_lost", lost as f64);
        pass.check(lost == 0, || {
            format!("{lost} flight records lost before they were drained")
        });
        let probe = online::probe_first_arrival(ctx, &data, log, &cfg);
        pass.set("rrset.sample_sets_per_s", probe.sets_per_s);
        pass.set("rrset.kpt_ms", probe.kpt_ms);
        let apply = stats::histogram_delta(
            &driven.reg[0],
            &driven.reg[2],
            "tirm_online_apply_latency_ns",
            &[],
        );
        pass.set(
            "rrset.sampling_share",
            sampled as f64 / probe.sets_per_s / (apply.sum as f64 / 1e9),
        );
        pass.set("rrset.scan_mentries_per_s", crate::probe::scan(ctx));
    }
    eprintln!(
        "serve-durable: {} warm-up + {} paced + {} saturated mutations, visible p50 \
         {:.1} ms, {:.1} visible/s saturated, {} reads",
        phases.warm_muts,
        paced_muts - phases.warm_muts,
        total - paced_muts,
        stats::median(&visible_ms),
        sat_muts / sat_wall,
        reads.len()
    );
    Ok(pass)
}

/// What the mutation connection did.
struct Driven {
    sent: Vec<Sent>,
    /// Flight-clock start of the saturated phase.
    sat_start: u64,
    /// Server-clock start of the saturated phase.
    sat_start_server: u64,
    /// Shed attempts in the saturated phase.
    sat_shed: u64,
    /// Registry before paced, after paced, after saturated.
    reg: [RegistrySnapshot; 3],
    /// Paced-phase send lateness behind schedule (ns).
    late: Vec<u64>,
    /// Flight-clock start of the paced phase.
    paced_start: u64,
    /// Flight-clock end of the paced phase (all paced mutations visible).
    paced_end: u64,
}

/// Where the log's phases start and end: `log[..warm]` is the warm-up,
/// `log[warm..paced]` the paced phase (one scheduled offset per entry),
/// the rest the saturated phase. Mutation counts are cumulative.
struct Phases {
    warm: usize,
    paced: usize,
    /// Mutations in the warm-up.
    warm_muts: u64,
    /// Mutations in the warm-up and the paced phase together.
    paced_muts: u64,
}

fn drive(
    ctx: &Ctx<'_>,
    addr: std::net::SocketAddr,
    log: &[LogEvent],
    offsets: &[u64],
    phases: &Phases,
    seen: &Seen,
    pass: &mut Pass,
) -> Result<Driven, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("mutation connect: {e}"))?;
    let mut k = 0u64;
    // Warm-up, unmeasured: bring the live-ad population to its steady
    // state so the paced phase does not measure the stream's ramp-up.
    let mut warm_sent = Vec::new();
    closed_loop(
        &mut client,
        &log[..phases.warm],
        &mut k,
        seen,
        pass,
        ctx,
        &mut warm_sent,
    )?;
    seen.wait_for(k)?;

    let mut sent = Vec::new();
    let mut late = Vec::new();
    let reg0 = tirm_obs::snapshot();
    let t0 = flight::now_ns();
    for (e, offset) in log[phases.warm..phases.paced].iter().zip(offsets) {
        let sched = t0 + offset;
        let now = flight::now_ns();
        if sched > now {
            std::thread::sleep(Duration::from_nanos(sched - now));
        }
        late.push(flight::now_ns().saturating_sub(sched));
        let is_mut = e.event.is_mutation();
        if is_mut {
            k += 1;
        }
        let (send, acked, depth) = deliver(&mut client, &e.event, seen, pass, k, ctx)?;
        if is_mut {
            sent.push(Sent {
                k,
                sched,
                send,
                acked,
                depth,
            });
        }
    }
    seen.wait_for(phases.paced_muts)?;
    let paced_end = flight::now_ns();
    let reg1 = tirm_obs::snapshot();
    let shed_before = pass.failed;
    let sat_start = flight::now_ns();
    let sat_start_server = seen.clock.now_ns();
    closed_loop(
        &mut client,
        &log[phases.paced..],
        &mut k,
        seen,
        pass,
        ctx,
        &mut sent,
    )?;
    seen.wait_for(k)?;
    let reg2 = tirm_obs::snapshot();
    Ok(Driven {
        sent,
        sat_start,
        sat_start_server,
        sat_shed: pass.failed - shed_before,
        reg: [reg0, reg1, reg2],
        late,
        paced_end,
        paced_start: t0,
    })
}

/// Sends `entries` as fast as the window allows: at most [`WINDOW`]
/// admitted mutations not yet visible. `k` is the running mutation
/// ordinal; each sent mutation is appended to `sent`.
fn closed_loop(
    client: &mut Client,
    entries: &[LogEvent],
    k: &mut u64,
    seen: &Seen,
    pass: &mut Pass,
    ctx: &Ctx<'_>,
    sent: &mut Vec<Sent>,
) -> Result<(), String> {
    for e in entries {
        let is_mut = e.event.is_mutation();
        if is_mut {
            *k += 1;
            let deadline = std::time::Instant::now() + DRAIN_TIMEOUT;
            while *k - 1 - seen.max().min(*k - 1) >= WINDOW {
                if std::time::Instant::now() > deadline {
                    return Err("the closed-loop window never drained".into());
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        let now = flight::now_ns();
        let (send, acked, depth) = deliver(client, &e.event, seen, pass, *k, ctx)?;
        if is_mut {
            sent.push(Sent {
                k: *k,
                sched: now,
                send,
                acked,
                depth,
            });
        }
    }
    Ok(())
}

/// Trace/stage records expected but never drained.
fn drained_lost(drained: &Drained, total: u64) -> u64 {
    let map = drained.records.lock().expect("flight map poisoned");
    let mut lost = 0;
    for k in 1..=total {
        for st in STAGES {
            if !map.contains_key(&(k, st)) {
                lost += 1;
            }
        }
    }
    lost
}

#[allow(clippy::too_many_arguments)]
fn layers(
    ctx: &Ctx<'_>,
    pass: &mut Pass,
    driven: &Driven,
    reads: &[(u64, u64)],
    vis: &Visibility,
    probes: &[u64],
    drained: &Drained,
    paced_muts: u64,
    total: u64,
    log: &[LogEvent],
    mutations: &[usize],
) {
    let [r0, r1, r2] = &driven.reg;
    let paced: Vec<&Sent> = driven.sent.iter().filter(|s| s.k <= paced_muts).collect();
    let ack_us: Vec<f64> = paced
        .iter()
        .map(|s| (s.acked - s.send) as f64 / 1e3)
        .collect();
    pass.set("server.ack_us_p50", stats::median(&ack_us));
    if let Some(t) = stats::tail(&ack_us) {
        pass.set("server.ack_us_tail", t.value);
    }
    pass.set(
        "server.queue_high_water",
        paced.iter().map(|s| s.depth).max().unwrap_or(0) as f64,
    );
    let late_ms: Vec<f64> = driven.late.iter().map(|&l| l as f64 / 1e6).collect();
    if let Some(t) = stats::tail(&late_ms) {
        pass.set("loadgen.late_ms_tail", t.value);
    }
    let mut probes: Vec<u64> = probes
        .iter()
        .copied()
        .filter(|&t| t >= driven.paced_start && t <= driven.paced_end)
        .collect();
    probes.sort_unstable();
    let gaps: Vec<f64> = probes
        .windows(2)
        .map(|w| (w[1] - w[0]) as f64 / 1e6)
        .collect();
    pass.set("loadgen.poll_ms", stats::mean(&gaps));

    // Reads over both phases.
    let read_us: Vec<f64> = reads.iter().map(|&(_, ns)| ns as f64 / 1e3).collect();
    pass.set("wire.read_us_p50", stats::median(&read_us));
    if let Some(t) = stats::tail(&read_us) {
        pass.set("wire.read_us_tail", t.value);
    }
    if let (Some(first), Some(last)) = (reads.first(), reads.last()) {
        let span = (last.0 - first.0) as f64 / 1e9;
        pass.set("wire.reads_per_s", reads.len() as f64 / span.max(1e-9));
    }

    // Saturated phase, from registry deltas.
    let sat_wall =
        (vis.visible_at(total).unwrap_or(driven.sat_start) - driven.sat_start) as f64 / 1e9;
    let apply = stats::histogram_delta(r1, r2, "tirm_online_apply_latency_ns", &[]);
    let append = stats::histogram_delta(r1, r2, "tirm_server_wal_append_latency_ns", &[]);
    let fsync = stats::histogram_delta(r1, r2, "tirm_server_wal_fsync_latency_ns", &[]);
    let batch = stats::histogram_delta(r1, r2, "tirm_server_wal_batch_events", &[]);
    let ckpt_sat = stats::histogram_delta(r1, r2, "tirm_server_checkpoint_wall_ns", &[]);
    let ckpt_paced = stats::histogram_delta(r0, r1, "tirm_server_checkpoint_wall_ns", &[]);
    let sat_muts = (total - paced_muts).max(1) as f64;
    pass.set("server.apply_ms_mean", apply.mean() / 1e6);
    pass.set(
        "server.writer_busy_share",
        (apply.sum + append.sum + fsync.sum + ckpt_sat.sum) as f64 / 1e9 / sat_wall,
    );
    pass.set("server.checkpoints", ckpt_paced.count as f64);
    pass.set("server.checkpoint_ms_sum", ckpt_paced.sum as f64 / 1e6);
    pass.set("wal.append_us_mean", append.mean() / 1e3);
    pass.set("wal.fsync_ms_mean", fsync.mean() / 1e6);
    pass.set("wal.fsync_ms_sum", fsync.sum as f64 / 1e6);
    pass.set("wal.fsyncs_per_event", fsync.count as f64 / sat_muts);
    pass.set("wal.batch_events_mean", batch.mean());

    if !ctx.tracer.enabled() {
        return;
    }
    // Paced phase, from the drained flight records joined on trace id k.
    let map = drained.records.lock().expect("flight map poisoned");
    let span = |k: u64, st: Stage| map.get(&(k, st)).map(|e| (e.start_ns, e.end_ns));
    let queue_ms: Vec<f64> = paced
        .iter()
        .filter_map(|s| span(s.k, Stage::Queue))
        .map(|(a, b)| (b - a) as f64 / 1e6)
        .collect();
    pass.set("server.queue_ms_p50", stats::median(&queue_ms));
    if let Some(t) = stats::tail(&queue_ms) {
        pass.set("server.queue_ms_tail", t.value);
    }
    let publish_us: Vec<f64> = paced
        .iter()
        .filter_map(|s| span(s.k, Stage::Publish))
        .map(|(a, b)| (b - a) as f64 / 1e3)
        .collect();
    pass.set("server.publish_us_p50", stats::median(&publish_us));

    // Where each paced mutation's visible interval went: each instant
    // goes to the latest lifecycle stage covering it, then the client's
    // send; the rest is uncovered (probe delay, snapshot copy, wire).
    let mut shares = [0u64; 6];
    for s in &paced {
        let Some(visible) = vis.visible_at(s.k) else {
            continue;
        };
        let root = (s.sched, visible.max(s.sched));
        let get = |st: Stage| span(s.k, st).into_iter().collect::<Vec<_>>();
        let layers = vec![
            get(Stage::Publish),
            get(Stage::Apply),
            [get(Stage::WalAppend), get(Stage::Fsync)].concat(),
            [get(Stage::Queue), get(Stage::Admit)].concat(),
            vec![(s.send, s.acked)],
        ];
        let parts = stats::attribute(root, &layers);
        // parts: publish, apply, wal, queue, send, uncovered.
        for (acc, p) in shares.iter_mut().zip(parts) {
            *acc += p;
        }
        let id = ctx
            .tracer
            .record("bench", "scheduled→visible", 0, s.k, root.0, root.1);
        for st in STAGES {
            if let Some((a, b)) = span(s.k, st) {
                ctx.tracer.record("tirm_server", st.name(), id, s.k, a, b);
            }
        }
    }
    let whole = shares.iter().sum::<u64>().max(1) as f64;
    pass.set("join.publish_share", shares[0] as f64 / whole);
    pass.set("join.apply_share", shares[1] as f64 / whole);
    pass.set("join.wal_share", shares[2] as f64 / whole);
    pass.set("join.queue_share", shares[3] as f64 / whole);
    pass.set("join.send_share", shares[4] as f64 / whole);
    pass.set("join.uncovered_share", shares[5] as f64 / whole);

    // Apply time by event kind, from the server's own apply spans.
    let mut by_kind: HashMap<EventKind, Vec<f64>> = HashMap::new();
    for (j, &i) in mutations.iter().enumerate() {
        if let Some((a, b)) = span(j as u64 + 1, Stage::Apply) {
            by_kind
                .entry(log[i].event.kind())
                .or_default()
                .push((b - a) as f64 / 1e6);
        }
    }
    let kind = |k| by_kind.get(&k).map_or(&[][..], Vec::as_slice);
    pass.set(
        "online.arrival_ms_p50",
        stats::median(kind(EventKind::Arrival)),
    );
    if let Some(t) = stats::tail(kind(EventKind::Arrival)) {
        pass.set("online.arrival_ms_tail", t.value);
    }
    pass.set("online.topup_ms_p50", stats::median(kind(EventKind::TopUp)));
    pass.set(
        "online.departure_ms_p50",
        stats::median(kind(EventKind::Departure)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin() {
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
    }

    #[test]
    fn server_clock_leaves_out_the_benchmark_threads() {
        let clock = ServerClock::default();
        // Other test threads add to the process CPU clock and the server
        // clock alike, so what the server clock leaves out is exactly
        // what the benchmark threads used while counted.
        let (cpu0, server0) = (crate::cpu_ns(), clock.now_ns());
        let spun = std::thread::scope(|s| {
            s.spawn(|| {
                let bench = clock.enter();
                let t0 = crate::clock_ns(bench.cpu).unwrap();
                spin();
                crate::clock_ns(bench.cpu).unwrap() - t0
            })
            .join()
            .unwrap()
        });
        let left_out = (crate::cpu_ns() - cpu0) as i64 - (clock.now_ns() - server0) as i64;
        let slack = spun as i64 / 20;
        assert!(
            (left_out - spun as i64).abs() < slack,
            "left out {left_out} ns, the benchmark thread used {spun} ns"
        );
        // An uncounted thread's CPU is the server's.
        let server1 = clock.now_ns();
        spin();
        assert!(clock.now_ns() - server1 > spun / 2);
    }
}

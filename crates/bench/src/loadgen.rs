//! Open-loop load generator for the `tirm_server` wire protocol.
//!
//! One **mutation connection** streams an event log at either a target
//! open-loop Poisson rate (requests fire on the clock's schedule,
//! whether or not the server liked the last one — the arrival process
//! is independent of service times, so backpressure shows up as shed
//! load, not as a silently slowed generator) or closed-loop as fast as
//! responses return. A pool of **reader connections** concurrently
//! hammers the snapshot-swapped read path (`regret` / `stats` / `ad`
//! queries) for the whole run — per-request-kind latency histograms on
//! both sides are the measurement the `SERVING/…` bench cells stamp
//! into the artifact.
//!
//! Two delivery modes:
//! * `retry: true` — deterministic delivery: `Overloaded` responses are
//!   retried until admitted, so the server's final state is a pure
//!   function of the log (what the bench cells and the equivalence
//!   anchor need). Shed responses still count: they measure
//!   backpressure.
//! * `retry: false` — open-loop overload probing: shed mutations are
//!   dropped, as a real ingestion edge would.
//!
//! With a reconnect budget ([`LoadgenConfig::reconnect`]) a lost
//! connection is not fatal: the generator reconnects with capped
//! exponential backoff and **resumes the log at the server's durable
//! frontier** — the `hello` handshake's `wal_seq` counts admitted
//! mutations, so the resume index is the position after the first
//! `wal_seq` mutating events of the log. Against a durable server this
//! gives exactly-once delivery across kill/restart (the crash-recovery
//! bench mode); it assumes this generator's log is the only mutation
//! source.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tirm_online::EventKind;
use tirm_server::{Client, ClientOptions, Request, Response, StatsView};
use tirm_workloads::events::LogEvent;
use tirm_workloads::LatencyHistogram;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How `drive` offers the log to the server.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Concurrent reader connections (each closed-loop).
    pub readers: usize,
    /// Open-loop Poisson rate in events/s; `None` = closed-loop (send
    /// the next event as soon as the previous response arrives).
    pub rate: Option<f64>,
    /// Retry `Overloaded` mutations until admitted (deterministic
    /// delivery).
    pub retry: bool,
    /// Seed of the pacing clock and the readers' query mix.
    pub seed: u64,
    /// After the log is sent, poll until the writer drained the queue
    /// (epoch stable) before stopping the readers — so read latencies
    /// cover the busy period, and the caller can snapshot final state.
    pub drain: bool,
    /// Pause between a reader's queries. `ZERO` = fully closed-loop
    /// (maximum read pressure — right for multicore scaling runs); the
    /// bench cells use a small pause so that on a 1-CPU container the
    /// reader pool doesn't starve the writer of its own measurement
    /// (unpaced, cell wall time swings ±30% run-to-run with scheduler
    /// luck, which would flap the CI wall-clock gate).
    pub read_pause: Duration,
    /// Connection behavior. `reconnect_attempts == 0` (the default)
    /// keeps a lost connection fatal; a positive budget turns resets
    /// into bounded reconnect-with-backoff plus resume-from-`wal_seq`
    /// (the `hello` handshake's resume anchor). Each concurrent
    /// client derives its own deterministic backoff jitter from its
    /// seed (unless the caller pinned one here), so a fleet that lost
    /// the same server re-dials spread out instead of in lockstep.
    pub reconnect: ClientOptions,
    /// Follower read pool: reader connections are spread across these
    /// endpoints round-robin (the mutation stream always targets
    /// `addr`, the leader). Empty ⇒ all reads hit the leader.
    pub follower_addrs: Vec<SocketAddr>,
    /// Lag-aware routing threshold, in events: a reader that observes
    /// its follower lagging more than this behind the leader re-routes
    /// reads to the leader until the follower catches back up.
    pub max_lag: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            readers: 4,
            rate: None,
            retry: true,
            seed: 0x10ad,
            drain: true,
            read_pause: Duration::ZERO,
            reconnect: ClientOptions::default(),
            follower_addrs: Vec::new(),
            max_lag: 64,
        }
    }
}

/// What a `drive` run measured.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Wall-clock seconds from the first request to the drain.
    pub wall_s: f64,
    /// Mutation attempts sent (retries count).
    pub offered: u64,
    /// Mutations admitted (`Accepted`).
    pub accepted: u64,
    /// Mutations shed (`Overloaded`), including attempts later retried.
    pub shed: u64,
    /// Per-attempt wire latency of mutations (send → response),
    /// including shed attempts.
    pub mutation_latency: LatencyHistogram,
    /// Mutation latency split by event kind ([`EventKind::ALL`] order;
    /// `RegretQuery` entries are stream-embedded reads).
    pub per_kind: Vec<(EventKind, LatencyHistogram)>,
    /// Read queries served across the reader pool.
    pub reads: u64,
    /// Wire latency of the reader pool's queries.
    pub read_latency: LatencyHistogram,
    /// Reads served per reader connection (scaling evidence: every
    /// reader makes progress while the writer grinds).
    pub reads_per_reader: Vec<u64>,
    /// Admitted mutations per wall-clock second.
    pub events_per_s: f64,
    /// Reader-pool queries per wall-clock second.
    pub reads_per_s: f64,
    /// Reads served by follower endpoints (0 without a follower pool).
    pub follower_reads: u64,
    /// Reads a follower-assigned reader routed to the leader instead —
    /// lag over [`LoadgenConfig::max_lag`] or an unreachable follower.
    pub leader_fallback_reads: u64,
    /// Follower replication lag observed in the readers' `stats`
    /// responses (events behind the leader), in observation order.
    pub follower_lag: Vec<u64>,
    /// Leader write-queue depth observed in the readers' `stats`
    /// responses while routed to the leader, in observation order —
    /// the pressure signal lag-aware routing reacts to.
    pub leader_queue_depth: Vec<u64>,
    /// Highest registry-backed process-lifetime shed counter observed
    /// on the leader (survives restarts within a process; 0 when no
    /// reader ever polled the leader's stats).
    pub leader_shed_total: u64,
    /// Server statistics after the drain.
    pub final_stats: StatsView,
}

impl LoadReport {
    /// Shed / offered (0 when nothing was offered).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }

    /// p99 of the observed follower lag, in events (0 with no
    /// observations — e.g. no follower pool).
    pub fn follower_lag_p99(&self) -> u64 {
        percentile_u64(&self.follower_lag, 0.99)
    }

    /// p99 of the leader write-queue depth the readers observed (0
    /// with no observations).
    pub fn leader_queue_p99(&self) -> u64 {
        percentile_u64(&self.leader_queue_depth, 0.99)
    }
}

/// Nearest-rank percentile of unordered samples (0 when empty).
pub fn percentile_u64(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Drives `log` against the server at `addr`. Returns when the log is
/// sent (and, with `drain`, applied) and the readers have stopped.
pub fn drive(addr: SocketAddr, log: &[LogEvent], cfg: &LoadgenConfig) -> io::Result<LoadReport> {
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (mutation_side, read_side) = std::thread::scope(|s| -> io::Result<_> {
        let readers: Vec<_> = (0..cfg.readers)
            .map(|r| {
                let stop = &stop;
                let pause = cfg.read_pause;
                let max_lag = cfg.max_lag;
                let seed = cfg.seed ^ (r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                // Per-client jitter keyed by the reader's own seed: a
                // fleet that lost the same server must not re-dial in
                // lockstep on identical backoff schedules.
                let opts = jittered(&cfg.reconnect, seed);
                // Round-robin over the follower pool; the leader joins
                // the rotation so it keeps serving a share of reads.
                let follower = if cfg.follower_addrs.is_empty() {
                    None
                } else {
                    let pool = cfg.follower_addrs.len() + 1;
                    match r % pool {
                        0 => None,
                        k => Some(cfg.follower_addrs[k - 1]),
                    }
                };
                s.spawn(move || reader_loop(addr, follower, stop, seed, pause, opts, max_lag))
            })
            .collect();

        let mutation_side = mutation_loop(addr, log, cfg);
        stop.store(true, Ordering::Release);
        let mut read_latency = LatencyHistogram::default();
        let mut reads_per_reader = Vec::with_capacity(cfg.readers);
        let mut follower_reads = 0u64;
        let mut leader_fallback_reads = 0u64;
        let mut follower_lag = Vec::new();
        let mut leader_queue_depth = Vec::new();
        let mut leader_shed_total = 0u64;
        for handle in readers {
            let side = handle.join().expect("reader panicked")?;
            reads_per_reader.push(side.count);
            follower_reads += side.follower_reads;
            leader_fallback_reads += side.fallback_reads;
            follower_lag.extend(side.lag_samples);
            leader_queue_depth.extend(side.leader_queue_samples);
            leader_shed_total = leader_shed_total.max(side.leader_shed_total);
            for &ns in side.hist.samples() {
                read_latency.record(ns);
            }
        }
        Ok((
            mutation_side?,
            (
                read_latency,
                reads_per_reader,
                follower_reads,
                leader_fallback_reads,
                follower_lag,
                leader_queue_depth,
                leader_shed_total,
            ),
        ))
    })?;
    let wall_s = t0.elapsed().as_secs_f64();

    let (offered, accepted, shed, mutation_latency, per_kind, final_stats) = mutation_side;
    let (
        read_latency,
        reads_per_reader,
        follower_reads,
        leader_fallback_reads,
        follower_lag,
        leader_queue_depth,
        leader_shed_total,
    ) = read_side;
    let reads: u64 = reads_per_reader.iter().sum();
    Ok(LoadReport {
        wall_s,
        offered,
        accepted,
        shed,
        mutation_latency,
        per_kind,
        reads,
        read_latency,
        reads_per_reader,
        events_per_s: if wall_s > 0.0 {
            accepted as f64 / wall_s
        } else {
            0.0
        },
        reads_per_s: if wall_s > 0.0 {
            reads as f64 / wall_s
        } else {
            0.0
        },
        follower_reads,
        leader_fallback_reads,
        follower_lag,
        leader_queue_depth,
        leader_shed_total,
        final_stats,
    })
}

/// `opts` with deterministic backoff jitter keyed by `seed`, unless
/// the caller already pinned a jitter seed.
fn jittered(opts: &ClientOptions, seed: u64) -> ClientOptions {
    let mut opts = opts.clone();
    opts.jitter = opts.jitter.or(Some(seed));
    opts
}

type MutationSide = (
    u64,
    u64,
    u64,
    LatencyHistogram,
    Vec<(EventKind, LatencyHistogram)>,
    StatsView,
);

/// Index of the first log event still to send when the server's
/// durable frontier is `wal_seq`: skip exactly `wal_seq` mutating
/// events (`RegretQuery` entries are reads — never logged, never
/// counted).
fn resume_index(log: &[LogEvent], wal_seq: u64) -> usize {
    let mut mutations = 0u64;
    for (i, e) in log.iter().enumerate() {
        if mutations == wal_seq {
            return i;
        }
        if e.event.is_mutation() {
            mutations += 1;
        }
    }
    log.len()
}

/// Reconnects after a lost connection (bounded attempts with capped
/// exponential backoff inside [`Client::connect_with`]) and returns
/// the resume index the server's `hello` dictates.
fn reconnect(
    addr: SocketAddr,
    log: &[LogEvent],
    opts: &ClientOptions,
) -> io::Result<(Client, usize)> {
    let client = Client::connect_with(addr, opts)?;
    let at = resume_index(
        log,
        client.hello().expect("connect_with handshakes").wal_seq,
    );
    Ok((client, at))
}

fn mutation_loop(
    mut addr: SocketAddr,
    log: &[LogEvent],
    cfg: &LoadgenConfig,
) -> io::Result<MutationSide> {
    let opts = &jittered(&cfg.reconnect, cfg.seed);
    let resumable = opts.reconnect_attempts > 0;
    let mut i = 0usize;
    let mut client = Client::connect_with(addr, opts)?;
    if resumable {
        // The server may already hold a durable prefix of this log
        // (a previous partial run); don't send it twice.
        i = resume_index(
            log,
            client.hello().expect("connect_with handshakes").wal_seq,
        );
    }
    let mut overall = LatencyHistogram::default();
    let mut per_kind: Vec<(EventKind, LatencyHistogram)> = EventKind::ALL
        .into_iter()
        .map(|k| (k, LatencyHistogram::default()))
        .collect();
    let (mut offered, mut accepted, mut shed) = (0u64, 0u64, 0u64);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let t0 = Instant::now();
    let mut next = Duration::ZERO;
    let total_mutations = log.iter().filter(|e| e.event.is_mutation()).count() as u64;
    let mut resend_passes = 0u32;
    'passes: loop {
        'events: while i < log.len() {
            let e = &log[i];
            // Open-loop pacing: fire on the schedule, not on the last
            // response.
            if let Some(rate) = cfg.rate {
                let gap: f64 = rng.gen::<f64>().max(1e-12);
                next += Duration::from_secs_f64(-gap.ln() / rate);
                let now = t0.elapsed();
                if next > now {
                    std::thread::sleep(next - now);
                }
            }
            let kind = e.event.kind();
            let record = |hists: &mut Vec<(EventKind, LatencyHistogram)>,
                          overall: &mut LatencyHistogram,
                          nanos: u64| {
                overall.record(nanos);
                hists
                    .iter_mut()
                    .find(|(k, _)| *k == kind)
                    .expect("all kinds present")
                    .1
                    .record(nanos);
            };
            loop {
                let t = Instant::now();
                let resp = match client.send_event(&e.event) {
                    Ok(resp) => resp,
                    // A reset mid-flight (the server was killed): with a
                    // reconnect budget, come back and resume at the durable
                    // frontier — an event admitted-and-fsynced but un-acked
                    // is *not* resent (wal_seq already counts it), an event
                    // lost from the queue is.
                    Err(_) if resumable => {
                        let (c, at) = reconnect(addr, log, opts)?;
                        client = c;
                        i = at;
                        continue 'events;
                    }
                    Err(e) => return Err(e),
                };
                let nanos = t.elapsed().as_nanos() as u64;
                match resp {
                    Response::Accepted { .. } => {
                        offered += 1;
                        accepted += 1;
                        record(&mut per_kind, &mut overall, nanos);
                        break;
                    }
                    Response::Overloaded { .. } => {
                        offered += 1;
                        shed += 1;
                        record(&mut per_kind, &mut overall, nanos);
                        if !cfg.retry {
                            break;
                        }
                        std::thread::sleep(Duration::from_micros(500));
                    }
                    // Stream-embedded reads and allocator-level rejections
                    // still measure a served request.
                    Response::Regret { .. } | Response::Rejected { .. } => {
                        record(&mut per_kind, &mut overall, nanos);
                        break;
                    }
                    // We dialed a follower (or a leader that has since
                    // been deposed): chase the referral when it names a
                    // leader, then resume at *that* process's durable
                    // frontier.
                    Response::NotLeader { leader } if resumable => {
                        if let Ok(next) = leader.parse::<SocketAddr>() {
                            addr = next;
                        }
                        let (c, at) = reconnect(addr, log, opts)?;
                        client = c;
                        i = at;
                        continue 'events;
                    }
                    // The server draining mid-log means the rest of the log
                    // cannot be delivered — loud failure, never a silent
                    // partial replay (deterministic-delivery callers treat
                    // the final state as a pure function of the *full* log).
                    Response::ShuttingDown => {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            format!(
                                "server began shutdown after {accepted} of {} events",
                                log.len()
                            ),
                        ))
                    }
                    other => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unexpected response to mutation: {other:?}"),
                        ))
                    }
                }
            }
            i += 1;
        }

        if !(resumable && cfg.retry) {
            break 'passes;
        }
        // `Accepted` is admission, not durability: a SIGKILL can eat the
        // queued-but-unlogged tail *after* the last ack, and only the
        // durable frontier knows. Deterministic delivery therefore holds
        // the send loop open until `wal_seq` covers every mutation in
        // the log (this loadgen is the only mutation source), resending
        // whatever a crash lost. The resume anchor keeps the resend
        // exactly-once: a crash severs this connection, so a stats
        // failure is the crash signal, and the replacement `hello` says
        // where the durable prefix ends — a live, merely slow server
        // never triggers a resend.
        let mut last_seq = 0u64;
        let mut last_advance = Instant::now();
        let covered = loop {
            match client.stats() {
                Ok(s) if s.wal_seq >= total_mutations => break true,
                Ok(s) => {
                    if s.wal_seq > last_seq {
                        last_seq = s.wal_seq;
                        last_advance = Instant::now();
                    } else if last_advance.elapsed() > Duration::from_secs(60) {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!(
                                "durable frontier stalled at {last_seq} of \
                                 {total_mutations} mutations on a live server"
                            ),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => break false,
            }
        };
        if covered {
            break 'passes;
        }
        resend_passes += 1;
        if resend_passes > opts.reconnect_attempts {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "reconnect budget exhausted with the durable frontier at \
                     {last_seq} of {total_mutations} mutations"
                ),
            ));
        }
        let (c, at) = reconnect(addr, log, opts)?;
        client = c;
        i = at;
    }
    // Drain: wait until the writer applied everything it admitted.
    let poll_stats = |client: &mut Client| -> io::Result<StatsView> {
        match client.stats() {
            Ok(s) => Ok(s),
            Err(_) if resumable => {
                *client = Client::connect_with(addr, opts)?;
                client.stats()
            }
            Err(e) => Err(e),
        }
    };
    let mut stats = poll_stats(&mut client)?;
    if cfg.drain {
        loop {
            if stats.queue_depth == 0 {
                let again = poll_stats(&mut client)?;
                if again.epoch == stats.epoch {
                    stats = again;
                    break;
                }
                stats = again;
            } else {
                std::thread::sleep(Duration::from_millis(1));
                stats = poll_stats(&mut client)?;
            }
        }
    }
    Ok((offered, accepted, shed, overall, per_kind, stats))
}

/// What one reader thread measured.
struct ReaderSide {
    count: u64,
    hist: LatencyHistogram,
    follower_reads: u64,
    fallback_reads: u64,
    lag_samples: Vec<u64>,
    leader_queue_samples: Vec<u64>,
    leader_shed_total: u64,
}

/// While demoted to the leader, re-probe the assigned follower after
/// this many queries.
const FOLLOWER_PROBE_EVERY: u64 = 64;

/// One reader connection: closed-loop mix of `regret` / `stats` / `ad`
/// queries until stopped.
///
/// With a `follower` assigned the reader prefers that replica and
/// watches its replication lag through the `stats` responses already in
/// the query mix: more than `max_lag` events behind (or unreachable)
/// demotes the reader to the leader, and a periodic probe promotes it
/// back once the follower has caught up.
fn reader_loop(
    leader: SocketAddr,
    follower: Option<SocketAddr>,
    stop: &AtomicBool,
    seed: u64,
    pause: Duration,
    opts: ClientOptions,
    max_lag: u64,
) -> io::Result<ReaderSide> {
    let resumable = opts.reconnect_attempts > 0;
    let mut on_follower = follower.is_some();
    let mut addr = follower.unwrap_or(leader);
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        // Follower not accepting yet (still bootstrapping): start on
        // the leader and let the probe bring us over later.
        Err(_) if on_follower && resumable => {
            on_follower = false;
            addr = leader;
            Client::connect_with(addr, &opts)?
        }
        Err(e) => return Err(e),
    };
    let mut side = ReaderSide {
        count: 0,
        hist: LatencyHistogram::default(),
        follower_reads: 0,
        fallback_reads: 0,
        lag_samples: Vec::new(),
        leader_queue_samples: Vec::new(),
        leader_shed_total: 0,
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut since_probe = 0u64;
    while !stop.load(Ordering::Acquire) {
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
        if let Some(f) = follower {
            if !on_follower {
                since_probe += 1;
                if since_probe >= FOLLOWER_PROBE_EVERY {
                    since_probe = 0;
                    if let Ok(mut probe) = Client::connect(f) {
                        if let Ok(s) = probe.stats() {
                            side.lag_samples.push(s.lag());
                            if s.lag() <= max_lag {
                                client = probe;
                                addr = f;
                                on_follower = true;
                            }
                        }
                    }
                }
            }
        }
        let roll = rng.gen_range(0..6u32);
        let req = match roll {
            0..=2 => Request::RegretQuery,
            3 | 4 => Request::Stats,
            _ => Request::AdQuery {
                id: rng.gen_range(1..12u32) as u64,
            },
        };
        let t = Instant::now();
        let resp = match client.request(&req) {
            Ok(resp) => resp,
            // Readers are stateless: across a kill/restart just get a
            // fresh connection and keep measuring. A dead *follower*
            // additionally demotes to the leader right away instead of
            // burning the reconnect budget on a corpse.
            Err(_) if resumable => {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                if on_follower {
                    on_follower = false;
                    addr = leader;
                    since_probe = 0;
                }
                client = Client::connect_with(addr, &opts)?;
                continue;
            }
            Err(e) => return Err(e),
        };
        side.hist.record(t.elapsed().as_nanos() as u64);
        let routed = |side: &mut ReaderSide| {
            side.count += 1;
            if on_follower {
                side.follower_reads += 1;
            } else if follower.is_some() {
                side.fallback_reads += 1;
            }
        };
        match resp {
            Response::Regret { .. } | Response::Ad { .. } => routed(&mut side),
            Response::Stats(s) => {
                routed(&mut side);
                if on_follower {
                    side.lag_samples.push(s.lag());
                    if s.lag() > max_lag {
                        // Too stale to serve fresh-enough reads: demote.
                        on_follower = false;
                        addr = leader;
                        since_probe = 0;
                        client = Client::connect_with(addr, &opts)?;
                    }
                } else {
                    // Routed to the leader: these stats are the leader's
                    // own, so the registry-backed counters are the
                    // pressure signal lag-aware routing was blind to.
                    side.leader_queue_samples.push(s.queue_depth as u64);
                    let shedding = s.shed_total > side.leader_shed_total;
                    side.leader_shed_total = side.leader_shed_total.max(s.shed_total);
                    if shedding && follower.is_some() {
                        // The leader is shedding writes while we add
                        // read load to it — re-probe the follower at
                        // the next iteration instead of waiting out
                        // the full probe interval.
                        since_probe = FOLLOWER_PROBE_EVERY;
                    }
                }
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected read response: {other:?}"),
                ))
            }
        }
    }
    Ok(side)
}

//! The serving loop: one writer thread owning the allocator, N
//! connection handler threads serving reads lock-free from the latest
//! snapshot, and explicit admission control on the write path.
//!
//! # Topology
//!
//! ```text
//!              TcpListener (acceptor thread)
//!                   │ one handler thread per connection
//!        ┌──────────┼──────────┐
//!   handler     handler     handler          reads: answered from the
//!        │          │          │              handler's cached snapshot
//!        └──── admit ──┬───────┘              (SnapshotReader, lock-free)
//!                      ▼
//!    mpsc queue: ≤ queue_depth admitted         ← admission control:
//!    and not yet applied                          full ⇒ typed Overloaded,
//!                      │                          never a blocked accept
//!                      ▼
//!             writer thread (owns OnlineAllocator)
//!                      │ drains the queue: append every frame, one
//!                      │ fsync, then apply each event in order
//!                      ▼ after each applied event
//!             SnapshotSwap::publish(Arc<AllocationSnapshot>)
//! ```
//!
//! # Shutdown (drain-then-close)
//!
//! [`serve`] stops in a fixed order that makes the drain guarantee
//! structural: (1) the stop flag flips and the acceptor is woken — no
//! new connections; (2) handler threads finish their in-flight request
//! and exit, dropping their queue senders; (3) with all senders gone
//! the writer drains every admitted mutation from the channel,
//! processes it, publishes, and only then returns the final snapshot.
//! An admitted (`Accepted`) mutation is therefore *always* processed
//! before exit — applied if valid, counted into `rejected` if the
//! allocator refuses it (exactly as an in-process replay would); a
//! shed (`Overloaded`) one never was admitted in the first place.

use crate::protocol::{
    hex_encode, read_frame_polling, write_frame, Request, Response, Role, StatsView,
    PROTOCOL_VERSION,
};
use crate::swap::{SnapshotReader, SnapshotSwap};
use crate::wal::{self, RecoveryReport, ReplicaBatch, Wal};
use std::fs::File;
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Duration;
use tirm_graph::DiGraph;
use tirm_obs::flight::{self, Stage};
use tirm_online::{AllocationSnapshot, OnlineAllocator, OnlineConfig, OnlineEvent, OnlineStats};
use tirm_topics::TopicEdgeProbs;

/// Durability knobs: where the write-ahead log and checkpoints live and
/// how often state is checkpointed. Attached to a [`ServerConfig`] as
/// its `durability` field; a server without one serves from memory
/// only.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding WAL segments and checkpoint files. Created on
    /// startup if missing; recovery scans it first.
    pub state_dir: PathBuf,
    /// Applied mutations between checkpoints. Each checkpoint bounds
    /// the replay a restart pays to at most this many events (plus the
    /// in-flight batch) and lets the covered WAL segments be deleted.
    pub checkpoint_interval: u64,
    /// Frames per WAL segment before rotating to a new file. Smaller
    /// segments reclaim disk sooner; larger ones make fewer files.
    pub segment_events: u64,
}

impl DurabilityConfig {
    /// Durability under `state_dir` with the default cadence
    /// (checkpoint every 256 events, 1024-frame segments).
    pub fn new(state_dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            state_dir: state_dir.into(),
            checkpoint_interval: 256,
            segment_events: 1024,
        }
    }
}

/// Configuration of a [`serve`] run: a struct literal, usually with
/// update syntax off [`Default`]. [`serve`] checks it with
/// [`validate`](ServerConfig::validate) before binding.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Allocator configuration (TIRM options, κ, λ, pool budget).
    pub online: OnlineConfig,
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub bind: String,
    /// Write-queue bound: mutations beyond this many admitted but not
    /// yet applied (queued, or drained into the writer's current batch)
    /// are shed with [`Response::Overloaded`]. Must be ≥ 1.
    pub queue_depth: usize,
    /// Connection admission bound: connections beyond this many open at
    /// once are answered with one `Overloaded` frame and closed.
    pub max_connections: usize,
    /// Handler read-poll interval — the granularity at which idle
    /// connections notice shutdown. Also bounds how long an exiting
    /// handler can block on an idle socket.
    pub read_poll: Duration,
    /// Durability: `Some` ⇒ every admitted mutation is WAL-logged
    /// before it is applied — the writer drains whatever is queued,
    /// appends every frame and pays one fsync for the batch (group
    /// commit) — state is checkpointed on the configured cadence, and
    /// startup recovers checkpoint + log tail. `None` ⇒ memory-only.
    pub durability: Option<DurabilityConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            online: OnlineConfig::default(),
            bind: "127.0.0.1:0".to_string(),
            queue_depth: 64,
            max_connections: 64,
            read_poll: Duration::from_millis(25),
            durability: None,
        }
    }
}

impl ServerConfig {
    /// Rejects nonsensical values before [`serve`] starts anything.
    /// `Err` names the first bad field.
    pub fn validate(&self) -> Result<(), String> {
        if self.queue_depth < 1 {
            return Err("queue_depth must be >= 1 (the queue must admit something)".into());
        }
        if self.max_connections < 1 {
            return Err("max_connections must be >= 1".into());
        }
        if self.read_poll.is_zero() {
            return Err("read_poll must be non-zero (it paces shutdown checks)".into());
        }
        if let Some(d) = &self.durability {
            if d.state_dir.as_os_str().is_empty() {
                return Err("durability needs a non-empty state_dir".into());
            }
            if d.checkpoint_interval < 1 {
                return Err("checkpoint_interval must be >= 1 event".into());
            }
            if d.segment_events < 1 {
                return Err("segment_events must be >= 1 frame".into());
            }
        }
        Ok(())
    }
}

/// Counters and flags shared by every thread of a server.
pub(crate) struct Shared {
    pub(crate) stop: AtomicBool,
    /// Admission bound on `queue_len` ([`ServerConfig::queue_depth`];
    /// 0 on a follower, which never admits).
    pub(crate) queue_bound: usize,
    /// Mutations admitted but not yet applied: queued, or drained into
    /// the writer's current batch. The writer's decrement (`Release`,
    /// after the event's publish) pairs with the `Acquire` loads behind
    /// `queue_depth`: reading 0 means every admitted mutation's snapshot
    /// is published.
    pub(crate) queue_len: AtomicUsize,
    pub(crate) max_queue_len: AtomicUsize,
    pub(crate) accepted: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) bad_requests: AtomicU64,
    pub(crate) connections_open: AtomicUsize,
    pub(crate) connections_total: AtomicU64,
    pub(crate) connections_refused: AtomicU64,
    /// Durable frontier: mutations logged *and* fsynced (equal to the
    /// count applied when durability is off). The `hello` response
    /// carries it as the resume anchor for reconnecting clients.
    pub(crate) wal_seq: AtomicU64,
    /// The fencing epoch this process serves under (see
    /// [`wal::read_fencing_epoch`]). Bumped only by promotion; carried
    /// in every handshake and replication response so a follower can
    /// reject a deposed leader's stale frames.
    pub(crate) fencing_epoch: AtomicU64,
    /// The *leader's* durable frontier as last observed — equal to
    /// `wal_seq` on a leader, updated by the apply loop on a follower.
    /// `leader_seq - wal_seq` is the follower's replication lag.
    pub(crate) leader_seq: AtomicU64,
    /// Set by a wire `promote` request on a follower: the apply loop
    /// winds down and [`crate::replica::serve_follower`] reports
    /// `promoted = true` so the host process can take over as leader.
    pub(crate) promote_requested: AtomicBool,
    /// Set by a wire `shutdown` request (or [`ServerHandle::request_shutdown`]);
    /// [`ServerHandle::wait_shutdown`] blocks on it.
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
}

impl Shared {
    pub(crate) fn new(queue_bound: usize) -> Arc<Shared> {
        Arc::new(Shared {
            stop: AtomicBool::new(false),
            queue_bound,
            queue_len: AtomicUsize::new(0),
            max_queue_len: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            connections_open: AtomicUsize::new(0),
            connections_total: AtomicU64::new(0),
            connections_refused: AtomicU64::new(0),
            wal_seq: AtomicU64::new(0),
            fencing_epoch: AtomicU64::new(0),
            leader_seq: AtomicU64::new(0),
            promote_requested: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
        })
    }

    pub(crate) fn request_shutdown(&self) {
        let mut requested = self
            .shutdown_requested
            .lock()
            .expect("shutdown flag poisoned");
        *requested = true;
        self.shutdown_cv.notify_all();
    }
}

/// The caller's view of a running server (passed to [`serve`]'s
/// closure).
pub struct ServerHandle {
    pub(crate) addr: SocketAddr,
    pub(crate) swap: Arc<SnapshotSwap>,
    pub(crate) shared: Arc<Shared>,
}

impl ServerHandle {
    /// The address the server is listening on (the ephemeral port when
    /// the config bound port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// An in-process reader over the same snapshot cell the connection
    /// handlers use.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader::new(self.swap.clone())
    }

    /// Mutations currently admitted but not yet applied.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue_len.load(Ordering::Acquire)
    }

    /// High-water mark of the write queue.
    pub fn max_queue_depth(&self) -> usize {
        self.shared.max_queue_len.load(Ordering::Relaxed)
    }

    /// Mutations shed with `Overloaded` so far.
    pub fn shed(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// The durable frontier: mutations WAL-logged and fsynced so far
    /// (count of mutations applied when durability is off).
    pub fn wal_seq(&self) -> u64 {
        self.shared.wal_seq.load(Ordering::Acquire)
    }

    /// The fencing epoch this process serves under (0 until a
    /// promotion ever happened in this state dir's lineage).
    pub fn fencing_epoch(&self) -> u64 {
        self.shared.fencing_epoch.load(Ordering::Acquire)
    }

    /// The leader's durable frontier as last observed — equal to
    /// [`wal_seq`](Self::wal_seq) on a leader; on a follower,
    /// `leader_seq() - wal_seq()` is the current replication lag.
    pub fn leader_seq(&self) -> u64 {
        self.shared.leader_seq.load(Ordering::Acquire)
    }

    /// Flags the server for shutdown (same as a wire `shutdown`
    /// request): [`wait_shutdown`](Self::wait_shutdown) unblocks, and
    /// [`serve`] begins the drain-then-close sequence when its closure
    /// returns.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until some client sends a `shutdown` request (or
    /// [`request_shutdown`](Self::request_shutdown) is called) — how the
    /// `tirm_server` binary's main thread parks itself.
    pub fn wait_shutdown(&self) {
        let mut requested = self
            .shared
            .shutdown_requested
            .lock()
            .expect("shutdown flag poisoned");
        while !*requested {
            requested = self
                .shared
                .shutdown_cv
                .wait(requested)
                .expect("shutdown flag poisoned");
        }
    }
}

/// What a completed [`serve`] run did.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// The snapshot after the last drained mutation — bit-identical to
    /// an in-process replay of the admitted events.
    pub final_snapshot: Arc<AllocationSnapshot>,
    /// Allocator lifetime counters.
    pub stats: OnlineStats,
    /// Mutations admitted to the write queue (all of them were applied).
    pub accepted: u64,
    /// Mutations shed with `Overloaded`.
    pub shed: u64,
    /// Admitted mutations the allocator rejected (unknown ids etc.).
    pub rejected: u64,
    /// Frames that failed to decode.
    pub bad_requests: u64,
    /// Write-queue high-water mark.
    pub max_queue_depth: usize,
    /// Connections handled over the run.
    pub connections: u64,
    /// Connections refused by the admission bound.
    pub connections_refused: u64,
    /// What startup recovery found (`None` when durability is off).
    pub recovery: Option<RecoveryReport>,
    /// Final durable frontier — the WAL sequence number after the last
    /// drained mutation.
    pub wal_seq: u64,
    /// The fencing epoch the run served under (0 when no promotion ever
    /// happened in this state dir's lineage, or durability is off).
    pub fencing_epoch: u64,
}

impl ServeReport {
    /// Offered mutation load (admitted + shed).
    pub fn offered(&self) -> u64 {
        self.accepted + self.shed
    }

    /// Fraction of offered mutations shed (0 when nothing was offered).
    pub fn shed_rate(&self) -> f64 {
        if self.offered() == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered() as f64
        }
    }
}

/// Runs a server over `graph`/`topic_probs`, calls `f` with its
/// [`ServerHandle`] once the listener is live, and performs the
/// drain-then-close shutdown when `f` returns. Returns `f`'s result and
/// the [`ServeReport`] with the final (fully drained) snapshot. A
/// config that fails [`ServerConfig::validate`] is an
/// [`InvalidInput`](std::io::ErrorKind::InvalidInput) error.
///
/// The allocator borrows the graph, so the whole server runs inside a
/// `std::thread::scope` — no `'static` bounds, no graph cloning; the
/// caller keeps ownership of the multi-GB dataset.
pub fn serve<R>(
    graph: &DiGraph,
    topic_probs: &TopicEdgeProbs,
    cfg: ServerConfig,
    f: impl FnOnce(&ServerHandle) -> R,
) -> std::io::Result<(R, ServeReport)> {
    cfg.validate()
        .map_err(|why| std::io::Error::new(std::io::ErrorKind::InvalidInput, why))?;
    let listener = TcpListener::bind(&cfg.bind)?;
    let addr = listener.local_addr()?;

    // Durable startup: rebuild from checkpoint + WAL tail, then open a
    // fresh segment at the recovered frontier. Memory-only startup is
    // the recovery of an empty state dir, minus the disk.
    let (mut allocator, recovery, mut wal_log) = match &cfg.durability {
        Some(d) => {
            let (allocator, report) = wal::recover(&d.state_dir, graph, topic_probs, &cfg.online)?;
            let log = Wal::open(&d.state_dir, report.wal_seq, d.segment_events)?;
            (allocator, Some(report), Some(log))
        }
        None => (
            OnlineAllocator::new(graph, topic_probs, cfg.online.clone()),
            None,
            None,
        ),
    };
    let swap = SnapshotSwap::new(allocator.snapshot());
    let shared = Shared::new(cfg.queue_depth);
    let frontier = recovery.as_ref().map_or(0, |r| r.wal_seq);
    shared.wal_seq.store(frontier, Ordering::Release);
    shared.leader_seq.store(frontier, Ordering::Release);
    if let Some(d) = &cfg.durability {
        // The fencing epoch survives in the state dir: a leader that
        // was ever promoted keeps announcing its earned epoch across
        // plain restarts.
        let epoch = wal::read_fencing_epoch(&d.state_dir)?;
        shared.fencing_epoch.store(epoch, Ordering::Release);
    }
    let ctx = Arc::new(ReplicaCtx {
        role: Role::Leader,
        state_dir: cfg.durability.as_ref().map(|d| d.state_dir.clone()),
        leader_addr: Mutex::new(String::new()),
    });
    // Surface this binary's identity and start the flight clock before
    // the first mutation can be admitted.
    tirm_obs::registry::BUILD_PROTOCOL_VERSION.set(PROTOCOL_VERSION as u64);
    tirm_obs::registry::BUILD_SCHEMA_VERSION.set(wal::WAL_VERSION as u64);
    flight::now_ns();
    // The channel itself is unbounded: admission control bounds it by
    // counting every mutation until the writer has applied it.
    let (tx, rx) = std::sync::mpsc::channel::<Admitted>();
    let handle = ServerHandle {
        addr,
        swap: swap.clone(),
        shared: shared.clone(),
    };

    let (result, final_snapshot, stats) = std::thread::scope(|s| {
        // Writer: the only thread that ever touches the allocator.
        let writer = {
            let swap = swap.clone();
            let shared = shared.clone();
            let durability = cfg.durability.clone();
            s.spawn(move || {
                writer_loop(
                    &rx,
                    &mut allocator,
                    wal_log.as_mut(),
                    durability.as_ref(),
                    &swap,
                    &shared,
                );
                // All senders dropped ⇒ every admitted mutation above
                // was applied: the drain guarantee.
                (allocator.snapshot(), allocator.stats())
            })
        };

        // Acceptor: spawns one handler per admitted connection.
        let acceptor = run_acceptor(
            s,
            listener,
            shared.clone(),
            swap.clone(),
            tx.clone(),
            ctx.clone(),
            cfg.read_poll,
            cfg.max_connections,
        );

        // The stop guard runs on BOTH exits from `f`: a clean return and
        // an unwind. A panicking closure (a failed harness expectation)
        // would otherwise leave the acceptor parked in `accept()`
        // forever — the scope joins all threads before re-raising, so
        // the panic would hang instead of propagating.
        struct StopGuard<'a> {
            shared: &'a Shared,
            addr: SocketAddr,
        }
        impl Drop for StopGuard<'_> {
            fn drop(&mut self) {
                self.shared.stop.store(true, Ordering::Release);
                self.shared.request_shutdown();
                // Wake the blocked accept with a throwaway connection.
                let _ = TcpStream::connect(self.addr);
            }
        }
        let result = {
            let _stop = StopGuard {
                shared: &shared,
                addr,
            };
            f(&handle)
        };

        // Drain-then-close (the guard above already flipped stop and
        // woke the acceptor). Handlers exit via their read-poll stop
        // checks, dropping their queue senders; once ours goes too the
        // writer drains whatever was admitted and returns the final
        // snapshot. The explicit join order just makes the sequence
        // readable — the scope would join everything anyway.
        acceptor.join().expect("acceptor panicked");
        drop(tx);
        let (final_snapshot, stats) = writer.join().expect("writer panicked");
        (result, final_snapshot, stats)
    });

    let report = ServeReport {
        final_snapshot,
        stats,
        accepted: shared.accepted.load(Ordering::Relaxed),
        shed: shared.shed.load(Ordering::Relaxed),
        rejected: shared.rejected.load(Ordering::Relaxed),
        bad_requests: shared.bad_requests.load(Ordering::Relaxed),
        max_queue_depth: shared.max_queue_len.load(Ordering::Relaxed),
        connections: shared.connections_total.load(Ordering::Relaxed),
        connections_refused: shared.connections_refused.load(Ordering::Relaxed),
        recovery,
        wal_seq: shared.wal_seq.load(Ordering::Acquire),
        fencing_epoch: shared.fencing_epoch.load(Ordering::Acquire),
    };
    Ok((result, report))
}

/// What a connection handler needs to know about the process's role in
/// a replica group: whether it is the leader (mutations admitted,
/// replication served) or a follower (mutations redirected), and where
/// WAL segments live for replication reads.
pub(crate) struct ReplicaCtx {
    /// This process's role — fixed for the lifetime of one
    /// [`serve`]/[`crate::replica::serve_follower`] run (promotion
    /// starts a new run).
    pub(crate) role: Role,
    /// The state dir replication reads stream segments from (`None` ⇒
    /// memory-only, replication refused with a typed error).
    pub(crate) state_dir: Option<PathBuf>,
    /// Where a follower redirects mutations (the leader it is
    /// tailing); updated by the apply loop when the leader moves.
    pub(crate) leader_addr: Mutex<String>,
}

/// Spawns the acceptor thread: admission-bounds connections and spawns
/// one [`handle_connection`] thread per admitted one. Shared between
/// the leader's [`serve`] and the follower's
/// [`crate::replica::serve_follower`] — the read path is identical on
/// both; only the role context differs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_acceptor<'scope>(
    s: &'scope Scope<'scope, '_>,
    listener: TcpListener,
    shared: Arc<Shared>,
    swap: Arc<SnapshotSwap>,
    tx: Sender<Admitted>,
    ctx: Arc<ReplicaCtx>,
    read_poll: Duration,
    max_connections: usize,
) -> ScopedJoinHandle<'scope, ()> {
    s.spawn(move || {
        for stream in listener.incoming() {
            if shared.stop.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = stream else { continue };
            if shared.connections_open.load(Ordering::Relaxed) >= max_connections {
                shared.connections_refused.fetch_add(1, Ordering::Relaxed);
                refuse_connection(stream);
                continue;
            }
            shared.connections_open.fetch_add(1, Ordering::Relaxed);
            shared.connections_total.fetch_add(1, Ordering::Relaxed);
            let shared = shared.clone();
            let swap = swap.clone();
            let tx = tx.clone();
            let ctx = ctx.clone();
            s.spawn(move || {
                handle_connection(stream, tx, swap, &shared, &ctx, read_poll);
                shared.connections_open.fetch_sub(1, Ordering::Relaxed);
            });
        }
    })
}

/// A mutation travelling from admission to the writer, carrying the
/// flight-clock stamps the writer needs to reconstruct the mutation's
/// `admit` and `queue` lifecycle stages retroactively. The trace id is
/// *not* carried: it is the WAL position + 1, which only the writer
/// knows once the append assigns it.
pub(crate) struct Admitted {
    pub(crate) ev: OnlineEvent,
    /// Flight clock at admission entry (decode done, about to enqueue).
    pub(crate) admit_ns: u64,
    /// Flight clock just before the queue send succeeded.
    pub(crate) enqueue_ns: u64,
}

/// The writer's drain loop, one path for every batch: drain whatever
/// is queued, log every frame, fsync **once** (group commit), then
/// apply and publish each event on its own, in admission order — the
/// WAL-before-apply invariant that makes a kill at any instant
/// recoverable, with the read-path staleness of one publish per event.
/// Each event leaves the admission count only once it is applied, so a
/// drained batch keeps counting against `queue_depth`.
///
/// A WAL I/O failure is fatal by design: continuing would hand out
/// `Accepted` responses for mutations that can never be recovered. The
/// panic propagates through the scope join, tearing the server down
/// loudly instead of serving silently non-durable writes.
fn writer_loop(
    rx: &Receiver<Admitted>,
    allocator: &mut OnlineAllocator<'_>,
    mut wal_log: Option<&mut Wal>,
    durability: Option<&DurabilityConfig>,
    swap: &SnapshotSwap,
    shared: &Shared,
) {
    let mut cadence =
        durability.map(|d| CheckpointCadence::new(&d.state_dir, d.checkpoint_interval));
    let mut batch: Vec<Admitted> = Vec::new();
    while let Ok(first) = rx.recv() {
        batch.clear();
        batch.push(first);
        batch.extend(rx.try_iter());
        let dequeue_ns = flight::now_ns();

        // `base` is the WAL position before this batch; event i lands
        // at position base + i, so its trace id is base + i + 1 (0 is
        // the no-trace sentinel). The memory-only branch keeps the
        // same positional numbering so lineage works without a WAL.
        let base = if let Some(log) = wal_log.as_deref_mut() {
            let base = log.seq();
            for a in &batch {
                log.append(&a.ev).expect("write-ahead log append failed");
            }
            log.sync().expect("write-ahead log fsync failed");
            shared.wal_seq.store(log.seq(), Ordering::Release);
            shared.leader_seq.store(log.seq(), Ordering::Release);
            base
        } else {
            let base = shared
                .wal_seq
                .fetch_add(batch.len() as u64, Ordering::Release);
            shared
                .leader_seq
                .store(base + batch.len() as u64, Ordering::Release);
            base
        };
        for (trace, a) in (base + 1..).zip(&batch) {
            // The trace id only exists now that the append assigned a
            // position — record the admission-side stages retroactively.
            flight::record(trace, Stage::Admit, a.admit_ns, a.enqueue_ns);
            flight::record(trace, Stage::Queue, a.enqueue_ns, dequeue_ns);
            if !apply_and_publish(allocator, &a.ev, trace, Stage::Apply, swap, shared) {
                tirm_obs::registry::SERVER_REJECTED.inc();
            }
            shared.queue_len.fetch_sub(1, Ordering::Release);
            // The trace id is also the applied frontier: events
            // `< trace` are applied, so a checkpoint may cover them.
            if let (Some(log), Some(c)) = (wal_log.as_deref_mut(), cadence.as_mut()) {
                c.applied(trace, allocator, log)
                    .expect("checkpoint write failed");
            }
        }
    }
    // Clean shutdown (every sender hung up, queue drained): checkpoint
    // the final state so the next boot warm-loads it instead of
    // replaying the tail — only a crash leaves replay work behind.
    if let (Some(log), Some(c)) = (wal_log, cadence.as_mut()) {
        c.finish(allocator, log)
            .expect("shutdown checkpoint write failed");
    }
}

/// Applies one logged event under its lineage `trace` and publishes the
/// new snapshot — the per-event step of the leader's writer
/// ([`Stage::Apply`]) and the follower's apply loop
/// ([`Stage::FollowerApply`]). A rejected event changed nothing (and
/// didn't bump the epoch): it skips the O(ads + seeds) snapshot copy
/// and the reader-side refresh it would force, is counted into
/// `rejected`, and returns `false`.
pub(crate) fn apply_and_publish(
    allocator: &mut OnlineAllocator<'_>,
    ev: &OnlineEvent,
    trace: u64,
    stage: Stage,
    swap: &SnapshotSwap,
    shared: &Shared,
) -> bool {
    flight::set_current_trace(trace);
    let apply_start = flight::now_ns();
    let outcome = allocator.process(ev);
    flight::record_since(trace, stage, apply_start);
    if outcome.is_ok() {
        swap.publish(allocator.snapshot());
    } else {
        shared.rejected.fetch_add(1, Ordering::Relaxed);
    }
    flight::set_current_trace(0);
    outcome.is_ok()
}

/// Checkpoint cadence over a durable state dir, shared by the leader's
/// writer and the follower's apply loop: after every `interval` applied
/// events, write a checkpoint at the applied frontier and prune the WAL
/// segments it covers. The frontier may sit inside a group-committed
/// batch; the batch's later frames are already in the log, so recovery
/// replays them from there.
pub(crate) struct CheckpointCadence<'d> {
    dir: &'d Path,
    interval: u64,
    since: u64,
}

impl<'d> CheckpointCadence<'d> {
    pub(crate) fn new(dir: &'d Path, interval: u64) -> CheckpointCadence<'d> {
        CheckpointCadence {
            dir,
            interval,
            since: 0,
        }
    }

    /// Counts one more applied event — `frontier` events are now
    /// applied — checkpointing at `frontier` once the interval is
    /// reached.
    pub(crate) fn applied(
        &mut self,
        frontier: u64,
        allocator: &mut OnlineAllocator<'_>,
        log: &mut Wal,
    ) -> std::io::Result<()> {
        self.since += 1;
        if self.since >= self.interval {
            self.checkpoint(frontier, allocator, log)
        } else {
            Ok(())
        }
    }

    /// Checkpoints whatever was applied since the last checkpoint — the
    /// wind-down step, once every logged event is applied, so a restart
    /// warm-loads instead of replaying.
    pub(crate) fn finish(
        &mut self,
        allocator: &mut OnlineAllocator<'_>,
        log: &mut Wal,
    ) -> std::io::Result<()> {
        if self.since > 0 {
            self.checkpoint(log.seq(), allocator, log)
        } else {
            Ok(())
        }
    }

    /// Restarts the count — the state was just replaced by one that
    /// already has a checkpoint (a follower's bootstrap).
    pub(crate) fn reset(&mut self) {
        self.since = 0;
    }

    fn checkpoint(
        &mut self,
        frontier: u64,
        allocator: &mut OnlineAllocator<'_>,
        log: &mut Wal,
    ) -> std::io::Result<()> {
        wal::write_checkpoint(self.dir, allocator, frontier)?;
        log.prune(frontier)?;
        self.since = 0;
        Ok(())
    }
}

/// How long a response write may block on a peer that isn't reading
/// before the connection is dropped (handlers must stay joinable for
/// the drain-then-close shutdown).
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Answers one over-admission connection with `Overloaded` and closes
/// it.
fn refuse_connection(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let resp = Response::Overloaded { queue_depth: 0 }.encode();
    let _ = write_frame(&mut stream, resp.as_bytes());
    let _ = stream.flush();
}

/// One connection's request loop. Reads answer from the handler's
/// cached snapshot (no lock unless the writer published); mutations are
/// `try_send` admission — full queue ⇒ `Overloaded`, never a block.
pub(crate) fn handle_connection(
    mut stream: TcpStream,
    tx: Sender<Admitted>,
    swap: Arc<SnapshotSwap>,
    shared: &Shared,
    ctx: &ReplicaCtx,
    read_poll: Duration,
) {
    // The write timeout bounds a peer that stops *reading*: without it,
    // a full kernel send buffer would block the handler in `write_all`
    // forever — unjoinable at shutdown. A timed-out write corrupts that
    // connection's framing, so the handler drops the connection.
    if stream.set_read_timeout(Some(read_poll)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let mut reader = SnapshotReader::new(swap);
    loop {
        let frame = match read_frame_polling(&mut stream, || shared.stop.load(Ordering::Acquire)) {
            Ok(Some(frame)) => frame,
            // Clean EOF, stop while idle, or a broken peer: close.
            Ok(None) | Err(_) => return,
        };
        let response = match Request::decode(&frame) {
            Err(why) => {
                shared.bad_requests.fetch_add(1, Ordering::Relaxed);
                Response::Rejected { why }
            }
            Ok(Request::Hello { version }) if version != PROTOCOL_VERSION => {
                shared.bad_requests.fetch_add(1, Ordering::Relaxed);
                Response::Rejected {
                    why: format!(
                        "protocol version skew: client speaks v{version}, \
                         this server speaks v{PROTOCOL_VERSION}"
                    ),
                }
            }
            Ok(Request::Hello { .. }) => {
                // Echo our version and the recovery anchors.
                Response::Hello {
                    version: PROTOCOL_VERSION,
                    epoch: reader.latest().epoch,
                    wal_seq: shared.wal_seq.load(Ordering::Acquire),
                    role: ctx.role,
                    fencing_epoch: shared.fencing_epoch.load(Ordering::Acquire),
                }
            }
            Ok(Request::Mutate(ev)) => match ctx.role {
                Role::Leader => admit(&ev, &tx, &mut reader, shared),
                // A follower never admits writes — the typed redirect
                // names the leader so a client can fail over in one
                // hop instead of probing the pool.
                Role::Follower => Response::NotLeader {
                    leader: ctx
                        .leader_addr
                        .lock()
                        .expect("leader addr poisoned")
                        .clone(),
                },
            },
            Ok(Request::RegretQuery) => {
                let snap = reader.latest();
                Response::Regret {
                    epoch: snap.epoch,
                    live_ads: snap.num_ads(),
                    regret_estimate: snap.regret_estimate,
                }
            }
            Ok(Request::AllocationQuery) => Response::Allocation((**reader.latest()).clone()),
            Ok(Request::AdQuery { id }) => {
                let snap = reader.latest();
                Response::Ad {
                    epoch: snap.epoch,
                    ad: snap.ad(id).cloned(),
                }
            }
            Ok(Request::Stats) => {
                let snap = reader.latest();
                let wal_seq = shared.wal_seq.load(Ordering::Acquire);
                Response::Stats(StatsView {
                    epoch: snap.epoch,
                    wal_seq,
                    role: ctx.role,
                    fencing_epoch: shared.fencing_epoch.load(Ordering::Acquire),
                    // A leader *is* the frontier; a follower reports
                    // where it last saw the leader, so `lag()` is
                    // leader_seq - wal_seq.
                    leader_seq: match ctx.role {
                        Role::Leader => wal_seq,
                        Role::Follower => shared.leader_seq.load(Ordering::Acquire),
                    },
                    live_ads: snap.num_ads(),
                    total_seeds: snap.total_seeds(),
                    total_rr_sets: snap.total_rr_sets,
                    engine_memory_bytes: snap.engine_memory_bytes,
                    queue_depth: shared.queue_len.load(Ordering::Acquire),
                    max_queue_depth: shared.max_queue_len.load(Ordering::Relaxed),
                    accepted: shared.accepted.load(Ordering::Relaxed),
                    shed: shared.shed.load(Ordering::Relaxed),
                    rejected: shared.rejected.load(Ordering::Relaxed),
                    bad_requests: shared.bad_requests.load(Ordering::Relaxed),
                    connections: shared.connections_open.load(Ordering::Relaxed),
                    // Registry-backed process-lifetime totals: these
                    // survive follower→leader promotion within the
                    // process, unlike the per-serve-run `Shared`
                    // counters above.
                    shed_total: tirm_obs::registry::SERVER_SHED.get(),
                    rejected_total: tirm_obs::registry::SERVER_REJECTED.get(),
                })
            }
            Ok(Request::Metrics) => Response::Metrics {
                json: tirm_obs::dump_json(),
            },
            Ok(Request::TraceDump) => Response::TraceDump {
                json: flight::dump_chrome_json(),
            },
            Ok(Request::ReplicatePoll {
                from_seq,
                max_frames,
            }) => replicate_poll(ctx, shared, from_seq, max_frames),
            Ok(Request::ReplicateCheckpoint { offset, max_bytes }) => {
                replicate_checkpoint_chunk(ctx, offset, max_bytes)
            }
            Ok(Request::Promote) => match ctx.role {
                Role::Leader => Response::Rejected {
                    why: "already the leader".to_string(),
                },
                Role::Follower => {
                    // Acknowledge with the epoch the promoted process
                    // will serve under, then wind the follower down;
                    // the host process bumps the fencing epoch and
                    // re-serves the same state dir as leader.
                    shared.promote_requested.store(true, Ordering::Release);
                    shared.request_shutdown();
                    Response::Promoting {
                        fencing_epoch: shared.fencing_epoch.load(Ordering::Acquire) + 1,
                    }
                }
            },
            Ok(Request::Shutdown) => {
                shared.request_shutdown();
                Response::ShuttingDown
            }
        };
        if write_frame(&mut stream, response.encode().as_bytes()).is_err() {
            return;
        }
        // Drain-then-close: the in-flight request got its answer; once
        // shutdown is underway the connection closes rather than serving
        // a busy peer forever (a closed-loop reader re-requests fast
        // enough that the idle-poll stop check above never fires, which
        // would wedge the scope join on this handler).
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
    }
}

/// Admission control for one mutation: count it into the queue depth
/// first (so the writer's decrement can never race below zero) unless
/// that would pass the bound, which sheds; then enqueue. The writer
/// releases the count once it has applied the mutation.
fn admit(
    ev: &OnlineEvent,
    tx: &Sender<Admitted>,
    reader: &mut SnapshotReader,
    shared: &Shared,
) -> Response {
    // Stamp the flight clock on entry; the writer records the admit and
    // queue stages retroactively once the WAL append assigns this
    // mutation's position (= its trace id).
    let admit_ns = flight::now_ns();
    let counted = shared
        .queue_len
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
            (d < shared.queue_bound).then_some(d + 1)
        });
    let depth = match counted {
        Ok(before) => before + 1,
        Err(full) => {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            tirm_obs::registry::SERVER_SHED.inc();
            return Response::Overloaded { queue_depth: full };
        }
    };
    let enqueue_ns = flight::now_ns();
    match tx.send(Admitted {
        ev: ev.clone(),
        admit_ns,
        enqueue_ns,
    }) {
        Ok(()) => {
            shared.max_queue_len.fetch_max(depth, Ordering::Relaxed);
            shared.accepted.fetch_add(1, Ordering::Relaxed);
            tirm_obs::registry::SERVER_ACCEPTED.inc();
            tirm_obs::registry::SERVER_QUEUE_HIGH_WATER.set_max(depth as u64);
            Response::Accepted {
                epoch: reader.latest().epoch,
                queue_depth: depth,
            }
        }
        Err(_) => {
            shared.queue_len.fetch_sub(1, Ordering::Relaxed);
            Response::ShuttingDown
        }
    }
}

/// Frames per replication poll page — bounds one response frame no
/// matter what the follower asks for.
const MAX_REPLICATION_FRAMES: u64 = 4096;
/// Cumulative event-body bytes per poll page (well under the wire
/// frame cap; a follower just polls again from its new anchor).
const MAX_REPLICATION_BYTES: usize = 4 << 20;
/// Checkpoint bytes per bootstrap chunk (hex doubles it on the wire).
const MAX_CHECKPOINT_CHUNK: u64 = 1 << 20;

/// The follower's typed redirect to whatever leader this process knows.
fn not_leader(ctx: &ReplicaCtx) -> Response {
    Response::NotLeader {
        leader: ctx
            .leader_addr
            .lock()
            .expect("leader addr poisoned")
            .clone(),
    }
}

/// Answers one `replicate_poll`: a page of WAL frames starting at the
/// follower's anchor, clamped to the durable frontier — or the typed
/// bootstrap pivot when the anchor falls inside a pruned segment.
fn replicate_poll(ctx: &ReplicaCtx, shared: &Shared, from_seq: u64, max_frames: u64) -> Response {
    if ctx.role == Role::Follower {
        return not_leader(ctx);
    }
    let Some(dir) = &ctx.state_dir else {
        return Response::Rejected {
            why: "replication requires durability (this server has no state dir)".to_string(),
        };
    };
    let fencing_epoch = shared.fencing_epoch.load(Ordering::Acquire);
    // Only frames at or below the durable frontier are streamed: they
    // are fsynced (the WAL-before-apply invariant), so a disk read
    // here can never observe a torn or unsynced tail.
    let frontier = shared.wal_seq.load(Ordering::Acquire);
    let max = max_frames.min(MAX_REPLICATION_FRAMES) as usize;
    match wal::read_frames(dir, from_seq, max, frontier) {
        Ok(ReplicaBatch::Frames { mut bodies }) => {
            let mut total = 0usize;
            let mut keep = bodies.len();
            for (i, body) in bodies.iter().enumerate() {
                total += body.len();
                if total > MAX_REPLICATION_BYTES {
                    // Keep at least one frame so the stream always
                    // makes progress.
                    keep = i.max(1);
                    break;
                }
            }
            bodies.truncate(keep);
            tirm_obs::registry::REPL_FRAMES_SHIPPED.add(bodies.len() as u64);
            // Each shipped frame's lineage: one replicate_ship span per
            // frame, under the same trace id the follower will extend.
            let ship_ns = flight::now_ns();
            for i in 0..bodies.len() as u64 {
                flight::record_since(from_seq + i + 1, Stage::ReplicateShip, ship_ns);
            }
            Response::ReplicateFrames {
                fencing_epoch,
                start_seq: from_seq,
                durable_seq: frontier,
                trace_base: from_seq + 1,
                frames: bodies,
            }
        }
        Ok(ReplicaBatch::Pruned { .. }) => match wal::newest_checkpoint(dir) {
            // The anchor predates the oldest retained segment: the
            // follower must bootstrap from a checkpoint instead.
            // Pruning only ever happens after a covering checkpoint,
            // so one exists whenever this branch is reachable.
            Ok(Some((checkpoint_seq, path))) => Response::ReplicateBootstrap {
                fencing_epoch,
                checkpoint_seq,
                total_bytes: std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
            },
            Ok(None) => Response::Rejected {
                why: "replication anchor pruned but no checkpoint exists".to_string(),
            },
            Err(e) => Response::Rejected {
                why: format!("checkpoint scan failed: {e}"),
            },
        },
        Err(e) => Response::Rejected {
            why: format!("replication read failed: {e}"),
        },
    }
}

/// Answers one `replicate_checkpoint`: a byte range of the newest
/// checkpoint file, hex-encoded. The chunk carries the checkpoint's
/// `wal_seq` identity so a follower detects a checkpoint that rotated
/// mid-download (mismatched seq ⇒ restart the bootstrap).
fn replicate_checkpoint_chunk(ctx: &ReplicaCtx, offset: u64, max_bytes: u64) -> Response {
    if ctx.role == Role::Follower {
        return not_leader(ctx);
    }
    let Some(dir) = &ctx.state_dir else {
        return Response::Rejected {
            why: "replication requires durability (this server has no state dir)".to_string(),
        };
    };
    match wal::newest_checkpoint(dir) {
        Ok(Some((checkpoint_seq, path))) => {
            match read_file_range(&path, offset, max_bytes.clamp(1, MAX_CHECKPOINT_CHUNK)) {
                Ok((total_bytes, data)) => Response::ReplicateCheckpointChunk {
                    checkpoint_seq,
                    offset,
                    total_bytes,
                    data_hex: hex_encode(&data),
                },
                Err(e) => Response::Rejected {
                    why: format!("checkpoint read failed: {e}"),
                },
            }
        }
        Ok(None) => Response::Rejected {
            why: "no checkpoint to bootstrap from".to_string(),
        },
        Err(e) => Response::Rejected {
            why: format!("checkpoint scan failed: {e}"),
        },
    }
}

/// Reads up to `max` bytes of `path` starting at `offset`, returning
/// the file's total length alongside (an offset past the end yields an
/// empty chunk, not an error — the downloader's loop terminator).
fn read_file_range(
    path: &std::path::Path,
    offset: u64,
    max: u64,
) -> std::io::Result<(u64, Vec<u8>)> {
    let mut f = File::open(path)?;
    let total = f.metadata()?.len();
    let mut data = Vec::new();
    if offset < total {
        f.seek(SeekFrom::Start(offset))?;
        f.take(max).read_to_end(&mut data)?;
    }
    Ok((total, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_nonsense_with_the_offending_field_named() {
        assert_eq!(ServerConfig::default().validate(), Ok(()));
        let durable = |dir: &str, interval: u64, segment: u64| ServerConfig {
            durability: Some(DurabilityConfig {
                state_dir: PathBuf::from(dir),
                checkpoint_interval: interval,
                segment_events: segment,
            }),
            ..ServerConfig::default()
        };
        assert_eq!(durable("/tmp/x", 16, 64).validate(), Ok(()));
        let cases = [
            (
                ServerConfig {
                    queue_depth: 0,
                    ..ServerConfig::default()
                },
                "queue_depth",
            ),
            (
                ServerConfig {
                    max_connections: 0,
                    ..ServerConfig::default()
                },
                "max_connections",
            ),
            (
                ServerConfig {
                    read_poll: Duration::ZERO,
                    ..ServerConfig::default()
                },
                "read_poll",
            ),
            (durable("", 8, 64), "state_dir"),
            (durable("/tmp/x", 0, 64), "checkpoint_interval"),
            (durable("/tmp/x", 8, 0), "segment_events"),
        ];
        for (cfg, field) in cases {
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn serve_rejects_an_invalid_config_as_invalid_input() {
        let graph = tirm_graph::GraphBuilder::new(1).build();
        let probs = TopicEdgeProbs::new(0, 1);
        let cfg = ServerConfig {
            queue_depth: 0,
            ..ServerConfig::default()
        };
        let err = serve(&graph, &probs, cfg, |_| ()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("queue_depth"), "{err}");
    }
}

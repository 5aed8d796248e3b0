//! Crash-recovery correctness anchor: kill the serving stack at **any**
//! event index, restore from checkpoint + WAL tail, finish the log —
//! the final allocation (assignments *and* revenue-estimate bits) is
//! identical to an uninterrupted run, for every group-commit size.
//!
//! The kill-anywhere sweep simulates the writer protocol directly
//! (append a batch → one fsync → apply each event, checkpoint on a
//! cadence) so it can stop at every index cheaply; the end-to-end tests
//! run real servers over a shared state dir across restarts.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;
use tirm_core::TirmOptions;
use tirm_graph::{generators, DiGraph};
use tirm_obs::flight::{self, Stage};
use tirm_online::{OnlineAllocator, OnlineConfig, OnlineEvent};
use tirm_server::protocol::{read_frame, write_frame};
use tirm_server::wal::{recover, write_checkpoint, RecoveryWarning, Wal};
use tirm_server::{serve, Client, DurabilityConfig, Request, Response, ServerConfig};
use tirm_topics::{genprob, TopicDist, TopicEdgeProbs};

/// Every test here logs WAL frames, which feeds the process-global
/// registry and flight rings; the group-commit test reads both, so the
/// tests take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn setup(nodes: usize, seed: u64) -> (DiGraph, TopicEdgeProbs) {
    let graph = generators::preferential_attachment(nodes, 3, 0.3, seed);
    let probs = genprob::exponential_topic_probs(graph.num_edges(), 2, 8.0, seed ^ 0x77);
    (graph, probs)
}

fn config(seed: u64) -> OnlineConfig {
    OnlineConfig {
        tirm: TirmOptions {
            eps: 0.45,
            seed,
            max_theta_per_ad: Some(500),
            ..TirmOptions::default()
        },
        kappa: 2,
        ..OnlineConfig::default()
    }
}

fn arrival(id: u64, budget: f64, topic: usize) -> OnlineEvent {
    OnlineEvent::AdArrival {
        id,
        budget,
        cpe: 1.0,
        topics: TopicDist::single(2, topic),
        ctp: 0.5,
    }
}

/// A mutation stream exercising every event kind, including a
/// deterministic rejection (duplicate arrival) that must be logged and
/// re-rejected on replay.
fn mutations() -> Vec<OnlineEvent> {
    vec![
        arrival(1, 5.0, 0),
        arrival(2, 4.0, 1),
        OnlineEvent::BudgetTopUp { id: 1, amount: 2.0 },
        arrival(3, 6.0, 0),
        arrival(3, 9.0, 1), // duplicate ⇒ rejected, still WAL-logged
        OnlineEvent::AdDeparture { id: 2 },
        arrival(4, 3.5, 1),
        OnlineEvent::BudgetTopUp { id: 4, amount: 1.5 },
        arrival(5, 2.5, 0),
        OnlineEvent::AdDeparture { id: 3 },
    ]
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tirm_recovery_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Kill at every event index × group commits of 1–3 frames per fsync:
/// recover and finish the log, always landing bit-identical to the
/// uninterrupted run. Checkpoints come every 4 applied events, as the
/// writer takes them, so with 3-frame batches they land inside a batch
/// whose later frames are already logged. Odd kill points additionally get a torn frame
/// appended to the live segment — the exact artifact a kill during an
/// unsynced append leaves behind.
#[test]
fn kill_at_any_index_then_finish_log_is_bit_identical_for_every_group_commit_size() {
    let _serial = serial();
    let (graph, probs) = setup(250, 13);
    let cfg = config(7);
    let events = mutations();

    // The uninterrupted oracle.
    let mut oracle = OnlineAllocator::new(&graph, &probs, cfg.clone());
    for ev in &events {
        let _ = oracle.process(ev);
    }
    let want = oracle.snapshot();

    for group in 1..=3usize {
        for kill_at in 0..=events.len() {
            let dir = fresh_dir(&format!("kill_{group}_{kill_at}"));
            // Live run up to the kill point, with the writer's
            // protocol: append the batch → one fsync → apply each
            // event, checkpointing at the applied frontier after every
            // 4th.
            let mut wal = Wal::open(&dir, 0, 3).unwrap();
            let mut live = OnlineAllocator::new(&graph, &probs, cfg.clone());
            let mut applied = 0;
            for batch in events[..kill_at].chunks(group) {
                for ev in batch {
                    wal.append(ev).unwrap();
                }
                wal.sync().unwrap();
                for ev in batch {
                    let _ = live.process(ev);
                    applied += 1;
                    if applied % 4 == 0 {
                        write_checkpoint(&dir, &mut live, applied).unwrap();
                        wal.prune(applied).unwrap();
                    }
                }
            }
            drop(wal);
            drop(live);
            if kill_at % 2 == 1 {
                // Crash artifact: a frame announced but half-written.
                let (_, seg) = tirm_server::wal::list_segments(&dir)
                    .unwrap()
                    .pop()
                    .unwrap();
                let mut f = std::fs::OpenOptions::new().append(true).open(seg).unwrap();
                std::io::Write::write_all(&mut f, &77u32.to_le_bytes()).unwrap();
                std::io::Write::write_all(&mut f, b"{\"type\":\"ad").unwrap();
            }

            let (mut recovered, report) = recover(&dir, &graph, &probs, &cfg).unwrap();
            assert_eq!(
                report.wal_seq, kill_at as u64,
                "group={group} kill_at={kill_at}: durable frontier"
            );
            for ev in &events[kill_at..] {
                let _ = recovered.process(ev);
            }

            let got = recovered.snapshot();
            assert!(
                got.same_allocation(&want),
                "group={group} kill_at={kill_at}: recovered+finished run diverged \
                 (epoch {} vs {}, regret {} vs {})",
                got.epoch,
                want.epoch,
                got.regret_estimate,
                want.regret_estimate,
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// End-to-end: a durable server is stopped and a second server over the
/// same state dir picks up exactly where it left off — epoch and
/// allocation preserved across the restart, the remaining events land
/// on the uninterrupted oracle, and the `hello` anchor reflects the
/// recovered frontier.
#[test]
fn server_restart_resumes_from_checkpoint_and_wal_tail() {
    let _serial = serial();
    let (graph, probs) = setup(250, 13);
    let cfg = config(7);
    let events = mutations();
    let split = 6;
    let dir = fresh_dir("server_restart");

    let server_cfg = || ServerConfig {
        online: config(7),
        queue_depth: 16,
        durability: Some(DurabilityConfig {
            state_dir: dir.clone(),
            checkpoint_interval: 3,
            segment_events: 4,
        }),
        ..ServerConfig::default()
    };

    // First life: the log's head.
    let ((), report1) = serve(&graph, &probs, server_cfg(), |handle| {
        let mut client = Client::connect(handle.addr()).unwrap();
        for ev in &events[..split] {
            client
                .send_event_retrying(ev, Duration::from_millis(1), Duration::from_secs(30))
                .unwrap();
        }
    })
    .unwrap();
    let first_epoch = report1.final_snapshot.epoch;
    assert_eq!(report1.wal_seq, split as u64);
    assert!(report1.recovery.is_some());

    // Second life: recovery + the log's tail.
    let ((), report2) = serve(&graph, &probs, server_cfg(), |handle| {
        let mut client =
            Client::connect_with(handle.addr(), &tirm_server::ClientOptions::default()).unwrap();
        let hello = *client.hello().unwrap();
        assert_eq!(hello.wal_seq, split as u64, "hello carries the frontier");
        assert_eq!(hello.epoch, first_epoch, "epoch survives the restart");
        for ev in &events[split..] {
            client
                .send_event_retrying(ev, Duration::from_millis(1), Duration::from_secs(30))
                .unwrap();
        }
        // `Accepted` is admission, not durability: the frontier
        // advances when the writer logs + fsyncs the batch. Poll it.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let stats = client.stats().unwrap();
            if stats.wal_seq == events.len() as u64 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "wal_seq stuck at {} of {}",
                stats.wal_seq,
                events.len()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    })
    .unwrap();

    let recovery = report2.recovery.expect("durable server reports recovery");
    assert_eq!(recovery.wal_seq, split as u64);
    assert!(
        recovery
            .warnings
            .iter()
            .all(|w| matches!(w, RecoveryWarning::TornFrame { .. })),
        "clean shutdown leaves at most torn-tail noise: {:?}",
        recovery.warnings
    );
    assert_eq!(report2.wal_seq, events.len() as u64);

    let mut oracle = OnlineAllocator::new(&graph, &probs, cfg.clone());
    for ev in &events {
        let _ = oracle.process(ev);
    }
    assert!(
        report2.final_snapshot.same_allocation(&oracle.snapshot()),
        "restarted server must land on the uninterrupted replay"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Group commit pin: a slow arrival keeps the writer busy while a
/// pipelined burst queues behind it, so the writer drains the backlog
/// and logs it under one fsync. A durable server then pays fewer fsyncs
/// than it logs events, every mutation still carries its whole flight
/// timeline (a rejected one all but `publish`, which it skips), and the
/// final snapshot is the in-process replay's.
#[test]
fn backlogged_writer_group_commits_and_matches_in_process_replay() {
    let _serial = serial();
    let (graph, probs) = setup(250, 13);
    let events = mutations();
    let dir = fresh_dir("group_commit");

    let mut oracle = OnlineAllocator::new(&graph, &probs, config(7));
    for ev in &events {
        let _ = oracle.process(ev);
    }

    let server_cfg = ServerConfig {
        online: config(7),
        queue_depth: 16,
        durability: Some(DurabilityConfig::new(&dir)),
        ..ServerConfig::default()
    };
    let batches_before = tirm_obs::registry::WAL_BATCH_EVENTS.snapshot();
    let since_ns = flight::now_ns();
    let ((), report) = serve(&graph, &probs, server_cfg, |handle| {
        // Every frame is on the wire before any response is read: the
        // handler admits the burst while the writer is still logging
        // and applying the first arrival.
        let mut wire = Vec::new();
        for ev in &events {
            write_frame(&mut wire, Request::Mutate(ev.clone()).encode().as_bytes()).unwrap();
        }
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(&wire).unwrap();
        for ev in &events {
            let frame = read_frame(&mut stream)
                .unwrap()
                .expect("one response per frame");
            let response = Response::decode(&frame).unwrap();
            assert!(
                matches!(response, Response::Accepted { .. }),
                "{ev:?} not admitted: {response:?}"
            );
        }
    })
    .unwrap();
    let batches_after = tirm_obs::registry::WAL_BATCH_EVENTS.snapshot();
    std::fs::remove_dir_all(&dir).ok();

    let n = events.len() as u64;
    assert_eq!(report.wal_seq, n);
    assert_eq!(report.rejected, 1, "the duplicate arrival");
    assert_eq!(
        batches_after.sum - batches_before.sum,
        n,
        "every frame is logged exactly once"
    );
    let fsyncs = batches_after.count - batches_before.count;
    assert!(
        fsyncs < n,
        "a backlogged writer must group-commit: {fsyncs} fsyncs for {n} events"
    );

    let mut stages = vec![Vec::new(); events.len()];
    for e in flight::dump_events() {
        if e.start_ns >= since_ns && (1..=n).contains(&e.trace) {
            stages[e.trace as usize - 1].push(e.stage);
        }
    }
    let lifecycle = [
        Stage::Admit,
        Stage::Queue,
        Stage::WalAppend,
        Stage::Fsync,
        Stage::Apply,
        Stage::Publish,
    ];
    let mut rejected = 0;
    for (i, seen) in stages.iter().enumerate() {
        let missing: Vec<Stage> = lifecycle
            .iter()
            .copied()
            .filter(|s| !seen.contains(s))
            .collect();
        if missing == [Stage::Publish] {
            rejected += 1;
        } else {
            assert!(missing.is_empty(), "trace {} lacks {missing:?}", i + 1);
        }
    }
    assert_eq!(rejected, 1, "only the rejected duplicate skips publish");

    assert!(
        report.final_snapshot.same_allocation(&oracle.snapshot()),
        "the group-committing server diverged from the in-process replay"
    );
}

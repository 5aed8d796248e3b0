//! `online-replay`: a long EPINIONS event stream (arrivals, top-ups,
//! departures, regret queries; at most 8 live ads; 40% of arrivals
//! resume a departed campaign) fed straight into
//! `OnlineAllocator::process` under the serving stack's own
//! configuration. Reconciliation, warm RR reuse and the shard pool do
//! the work — no sockets, no queue, no disk. The unit operation is one
//! `process` call.

use crate::{stats, Ctx, Pass};
use tirm_core::{
    evaluate, tirm_allocate_seeded, AdSeeds, Advertiser, Allocation, Attention, ProblemInstance,
};
use tirm_obs::flight;
use tirm_online::{EventKind, OnlineAllocator, OnlineConfig};
use tirm_topics::CtpTable;
use tirm_workloads::{
    final_population, Dataset, DatasetKind, EventStreamSpec, LogEvent, ScaleConfig,
};

/// EPINIONS at scale 0.08: 960 nodes — the serving stack's dev scale.
const SCALE: f64 = 0.08;
const KAPPA: u32 = 2;
/// The graph is the same for every workload seed (the server binary's
/// default dataset seed); the seed drives the stream and the allocator.
const DATASET_SEED: u64 = 0x0e5e_17f1;
const THREADS: usize = 2;
/// Set-ups per run (median reported). One takes about a ms of CPU, so
/// many are cheap; spread over longer, their median follows the host's
/// speed less.
const SETUPS: usize = 100;
/// Events per nominal second of `--seconds` (1800 at 12 s: on two vCPUs
/// their `process` wall time fills about `--seconds`).
const EVENTS_PER_SECOND: f64 = 150.0;
const EVAL_SEED: u64 = 0xe7a1;

/// The scale configuration the serving config is derived from.
fn scale() -> ScaleConfig {
    ScaleConfig {
        scale: SCALE,
        eval_runs: REGRET_RUNS,
        threads: THREADS,
    }
}

/// The dataset both serving workloads run on, timed as a span (returns
/// the CPU seconds it took).
pub fn dataset(ctx: &Ctx<'_>, req: u64) -> (Dataset, f64) {
    ctx.tracer
        .time_cpu("tirm_workloads", "Dataset::generate", req, || {
            Dataset::generate(DatasetKind::Epinions, &scale(), DATASET_SEED)
        })
}

/// `events` stream events from the workload seed, budgets mapped onto
/// the generated graph.
pub fn stream(ctx: &Ctx<'_>, dataset: &Dataset, events: usize, req: u64) -> (Vec<LogEvent>, f64) {
    ctx.tracer
        .time_cpu("tirm_workloads", "EventStreamSpec::generate", req, || {
            EventStreamSpec::for_dataset(DatasetKind::Epinions, events, ctx.seed)
                .generate(dataset.size_ratio)
        })
}

/// The serving stack's allocator configuration for this workload.
pub fn config(ctx: &Ctx<'_>) -> OnlineConfig {
    tirm_server::serving_online_config(DatasetKind::Epinions, &scale(), KAPPA, 0.0, ctx.seed)
}

/// The batch problem on the ads `log` leaves live, in arrival order.
fn final_problem<'d>(dataset: &'d Dataset, log: &[LogEvent]) -> (ProblemInstance<'d>, Vec<u64>) {
    let finals = final_population(log);
    let n = dataset.graph.num_nodes();
    let ads: Vec<Advertiser> = finals
        .iter()
        .map(|f| Advertiser::new(f.budget, f.cpe, f.topics.clone()))
        .collect();
    let probs: Vec<Vec<f32>> = finals
        .iter()
        .map(|f| dataset.topic_probs.project(&f.topics))
        .collect();
    let ctp = CtpTable::direct(finals.iter().map(|f| vec![f.ctp; n]).collect());
    let problem = ProblemInstance::new(
        &dataset.graph,
        ads,
        probs,
        ctp,
        Attention::Uniform(KAPPA),
        0.0,
    );
    (problem, finals.iter().map(|f| f.id).collect())
}

/// Checks `alloc` (the online side's final allocation) against batch
/// TIRM on the final population with the same id-derived seed plans —
/// the replay ≡ batch anchor. Sets `core.problem_s`.
pub fn check_anchor(
    ctx: &Ctx<'_>,
    pass: &mut Pass,
    dataset: &Dataset,
    log: &[LogEvent],
    alloc: &Allocation,
    cfg: &OnlineConfig,
) {
    let ((problem, ids), problem_s) =
        ctx.tracer.time("tirm_core", "ProblemInstance::new", 0, || {
            final_problem(dataset, log)
        });
    pass.set("core.problem_s", problem_s);
    if ids.is_empty() || alloc.num_ads() != ids.len() {
        pass.check(false, || {
            format!(
                "{} ads allocated, {} live in the log",
                alloc.num_ads(),
                ids.len()
            )
        });
        return;
    }
    let valid = alloc.validate(&problem);
    pass.check(valid.is_ok(), || {
        format!("final allocation invalid: {valid:?}")
    });
    let plan: Vec<AdSeeds> = ids
        .iter()
        .map(|&id| AdSeeds::for_ad_id(cfg.tirm.seed, id))
        .collect();
    let ((batch, _), _) = ctx.tracer.time("tirm_core", "tirm_allocate_seeded", 0, || {
        tirm_allocate_seeded(&problem, cfg.tirm, &plan)
    });
    let same = (0..ids.len()).all(|a| batch.seeds(a) == alloc.seeds(a));
    pass.check(same, || {
        "final allocation differs from batch TIRM on the final population".into()
    });
}

/// Events between quality checkpoints.
const REGRET_EVERY: usize = 25;
/// MC cascades per quality checkpoint.
const REGRET_RUNS: usize = 1_000;

/// The quality of the standing allocation over a stream: the MC relative
/// regret (fixed eval seed) after every [`REGRET_EVERY`]-th event,
/// averaged. A single end state holds at most eight ads and swings with
/// the seed; the average over the stream repeats.
#[derive(Default)]
pub struct RegretTrack {
    values: Vec<f64>,
    eval_s: f64,
}

impl RegretTrack {
    /// Evaluates `allocator`'s standing allocation against the ads the
    /// processed `prefix` leaves live, when `prefix` ends on a
    /// checkpoint. Call after each event, outside any timed window.
    pub fn observe(
        &mut self,
        ctx: &Ctx<'_>,
        dataset: &Dataset,
        prefix: &[LogEvent],
        allocator: &OnlineAllocator<'_>,
    ) {
        if prefix.is_empty() || prefix.len() % REGRET_EVERY != 0 {
            return;
        }
        let (problem, ids) = final_problem(dataset, prefix);
        if ids.is_empty() {
            return;
        }
        let alloc = allocator.allocation();
        let (ev, secs) = ctx
            .tracer
            .time("tirm_diffusion", "evaluate", prefix.len() as u64, || {
                evaluate(&problem, &alloc, REGRET_RUNS, EVAL_SEED, THREADS)
            });
        self.values.push(ev.regret.relative_regret());
        self.eval_s += secs;
    }

    /// Sets `regret_rel` (the mean) and `diffusion.eval_s` (total MC
    /// time); a stream that never had a live ad at a checkpoint fails.
    pub fn report(&self, pass: &mut Pass) {
        pass.check(!self.values.is_empty(), || {
            "no quality checkpoint had live ads".into()
        });
        pass.set("regret_rel", stats::mean(&self.values));
        pass.set("diffusion.eval_s", self.eval_s);
    }
}

pub fn run(ctx: &Ctx<'_>) -> Pass {
    let mut pass = Pass::default();
    let tracer = ctx.tracer;
    let events = (ctx.seconds * EVENTS_PER_SECOND).round().max(20.0) as usize;
    let cfg = config(ctx);

    // Set-up, several times, on the CPU clock: dataset + stream
    // generation + allocator.
    let mut setup = Vec::new();
    let mut dataset_s = Vec::new();
    for i in 0..SETUPS as u64 - 1 {
        let (d, gen_s) = dataset(ctx, i);
        let (log, log_s) = stream(ctx, &d, events, i);
        let (a, new_s) = tracer.time_cpu("tirm_online", "OnlineAllocator::new", i, || {
            OnlineAllocator::new(&d.graph, &d.topic_probs, cfg.clone())
        });
        std::hint::black_box((&a, &log));
        dataset_s.push(gen_s);
        setup.push(gen_s + log_s + new_s);
    }
    let last = SETUPS as u64 - 1;
    let (data, gen_s) = dataset(ctx, last);
    let (log, log_s) = stream(ctx, &data, events, last);
    let (mut allocator, new_s) =
        tracer.time_cpu("tirm_online", "OnlineAllocator::new", last, || {
            OnlineAllocator::new(&data.graph, &data.topic_probs, cfg.clone())
        });
    dataset_s.push(gen_s);
    setup.push(gen_s + log_s + new_s);
    pass.set("setup_s", stats::median(&setup));
    pass.set("workloads.dataset_s", stats::median(&dataset_s));

    // The measured window: every event through `process`, timed alone —
    // end to end by the process CPU time it costs (steal-free), per
    // layer also by wall clock.
    let before = tirm_obs::snapshot();
    let mut all_ms = Vec::with_capacity(log.len());
    let mut wall_ms = Vec::with_capacity(log.len());
    let mut by_kind: Vec<(EventKind, Vec<f64>)> =
        EventKind::ALL.iter().map(|&k| (k, Vec::new())).collect();
    let mut snapshot_us = Vec::new();
    let mut quality = RegretTrack::default();
    for (i, e) in log.iter().enumerate() {
        pass.attempted += 1;
        let kind = e.event.kind();
        let start = flight::now_ns();
        let cpu0 = crate::cpu_ns();
        let out = allocator.process(&e.event);
        let ms = (crate::cpu_ns() - cpu0) as f64 / 1e6;
        let end = flight::now_ns();
        tracer.record(
            "tirm_online",
            format!("process:{}", kind.name()),
            0,
            i as u64,
            start,
            end,
        );
        wall_ms.push((end - start) as f64 / 1e6);
        all_ms.push(ms);
        if let Some((_, v)) = by_kind.iter_mut().find(|(k, _)| *k == kind) {
            v.push(ms);
        }
        if let Err(err) = &out {
            pass.check(false, || format!("event {i} rejected: {err}"));
        }
        // The traced pass also times the publish copy a server makes
        // after every applied mutation (outside the process timing).
        if tracer.enabled() && kind.is_mutation() && out.is_ok() {
            let start = flight::now_ns();
            let snap = allocator.snapshot();
            let end = flight::now_ns();
            std::hint::black_box(snap);
            tracer.record("tirm_online", "snapshot", 0, i as u64, start, end);
            snapshot_us.push((end - start) as f64 / 1e3);
        }
        quality.observe(ctx, &data, &log[..=i], &allocator);
    }
    let after = tirm_obs::snapshot();
    // High-water RSS of set-up and the measured window, before the probes
    // and the batch anchor allocate on their own.
    pass.set("peak_rss_mb", crate::peak_rss_mb());
    let busy_s: f64 = all_ms.iter().sum::<f64>() / 1e3;
    quality.report(&mut pass);
    pass.set("op_ms_p50", stats::median(&all_ms));
    pass.set_op_tail(&all_ms);
    pass.set("ops_per_s", all_ms.len() as f64 / busy_s);
    pass.set("op.wall_ms_p50", stats::median(&wall_ms));
    if let Some(t) = stats::tail(&wall_ms) {
        pass.set("op.wall_ms_tail", t.value);
    }

    let kind = |k: EventKind| -> &[f64] {
        by_kind
            .iter()
            .find(|(kk, _)| *kk == k)
            .map_or(&[][..], |(_, v)| v.as_slice())
    };
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
    pass.set(
        "online.query_us_p50",
        stats::median(kind(EventKind::RegretQuery)) * 1e3,
    );
    pass.set("online.snapshot_us_p50", stats::median(&snapshot_us));
    let st = allocator.stats();
    pass.set("online.full_reconciles", st.full_reallocations as f64);
    pass.set("online.delta_reconciles", st.delta_reallocations as f64);
    let reconciles = (st.full_reallocations + st.delta_reallocations).max(1) as f64;
    pass.set(
        "online.delta_share",
        st.delta_reallocations as f64 / reconciles,
    );
    pass.set("online.fresh_rr_sets", st.fresh_rr_sets as f64);
    pass.set("online.shard_reclaims", st.shard_reclaims as f64);
    pass.set("online.pool_evictions", allocator.pool_evictions() as f64);
    pass.set("online.memory_mb", allocator.memory_bytes() as f64 / 1e6);
    let sampled = stats::counter_delta(&before, &after, "tirm_rrset_rr_sets_sampled_total");
    pass.set("rrset.sets", sampled as f64);

    if tracer.enabled() {
        let probe = probe_first_arrival(ctx, &data, &log, &cfg);
        pass.set("rrset.sample_sets_per_s", probe.sets_per_s);
        pass.set("rrset.kpt_ms", probe.kpt_ms);
        // The probe's rate is per wall second, so the share is of the
        // wall time `process` took.
        let busy_wall_s = wall_ms.iter().sum::<f64>() / 1e3;
        pass.set(
            "rrset.sampling_share",
            sampled as f64 / probe.sets_per_s / busy_wall_s,
        );
        pass.set("rrset.scan_mentries_per_s", crate::probe::scan(ctx));
    }

    // Correctness and quality, outside the window.
    let alloc = allocator.allocation();
    pass.set("core.seeds", alloc.total_seeds() as f64);
    check_anchor(ctx, &mut pass, &data, &log, &alloc, &cfg);
    eprintln!(
        "online-replay: {} events, {:.1} events/s, {} full + {} delta reconciliations, \
         {} fresh RR sets",
        log.len(),
        all_ms.len() as f64 / busy_s,
        st.full_reallocations,
        st.delta_reallocations,
        st.fresh_rr_sets
    );
    pass
}

/// The rrset probe on the first arrival's topic projection, with the
/// serving configuration's θ cap, layout policy and thread count.
pub fn probe_first_arrival(
    ctx: &Ctx<'_>,
    dataset: &Dataset,
    log: &[LogEvent],
    cfg: &OnlineConfig,
) -> crate::probe::RrsetProbe {
    let topics = log
        .iter()
        .find_map(|e| match &e.event {
            tirm_online::OnlineEvent::AdArrival { topics, .. } => Some(topics.clone()),
            _ => None,
        })
        .expect("the stream has an arrival");
    let probs = dataset.topic_probs.project(&topics);
    let sets = cfg.tirm.max_theta_per_ad.unwrap_or(100_000);
    crate::probe::rrset(ctx, &dataset.graph, &probs, &cfg.tirm, sets)
}

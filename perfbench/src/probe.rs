//! Standalone calls into the rrset layer, made by traced passes outside
//! every timed window: they turn counts the workload reports (RR sets
//! drawn, KPT samples) into estimated time.

use crate::{stats, Ctx};
use std::sync::Arc;
use tirm_core::TirmOptions;
use tirm_graph::DiGraph;
use tirm_rrset::{
    FastPath, KptEstimator, ParallelSampler, RrSampler, SamplingConfig, SamplingLayout,
    WeightedRrCollection,
};

/// Repetitions per probe; the probe reports their median.
const REPEATS: usize = 5;

/// What [`rrset`] measured.
pub struct RrsetProbe {
    /// RR sets per second into the collection type TIRM samples into.
    pub sets_per_s: f64,
    /// Wall time of one cold `KptEstimator::estimate_with(1, …)`.
    pub kpt_ms: f64,
    /// KPT estimation samples drawn per second by that call.
    pub kpt_samples_per_s: f64,
}

/// Times `ParallelSampler::sample_into_with` (batches of `sets`) and a
/// cold KPT estimate on `graph` under `probs`, with the layout policy,
/// thread count and ℓ of `opts`.
pub fn rrset(
    ctx: &Ctx<'_>,
    graph: &DiGraph,
    probs: &[f32],
    opts: &TirmOptions,
    sets: usize,
) -> RrsetProbe {
    let n = graph.num_nodes();
    let layout = Arc::new(if opts.relabel.enabled_for(n) {
        SamplingLayout::degree_ordered(graph)
    } else {
        SamplingLayout::identity()
    });
    let fast = FastPath::new(layout, graph, probs);
    let sampler = RrSampler::new(graph, probs);
    let mut rates = Vec::new();
    let mut kpt_ms = Vec::new();
    let mut kpt_rates = Vec::new();
    for r in 0..REPEATS as u64 {
        let seed = crate::mix(ctx.seed, 0x5a3d ^ r);
        let mut engine = ParallelSampler::new(SamplingConfig::new(opts.threads, seed), n);
        let mut sink = WeightedRrCollection::new(n);
        let (drawn, secs) =
            ctx.tracer
                .time("tirm_rrset", "ParallelSampler::sample_into_with", r, || {
                    engine.sample_into_with(&sampler, Some(&fast), sets.max(1), &mut sink)
                });
        rates.push(drawn as f64 / secs);
        let mut kpt = KptEstimator::with_config(
            RrSampler::new(graph, probs),
            opts.ell,
            SamplingConfig::new(opts.threads, seed ^ 0xabcd),
        );
        let (est, secs) = ctx
            .tracer
            .time("tirm_rrset", "KptEstimator::estimate_with", r, || {
                kpt.estimate_with(1, Some(&fast))
            });
        std::hint::black_box(est);
        kpt_ms.push(secs * 1e3);
        kpt_rates.push(kpt.samples_used() as f64 / secs);
    }
    RrsetProbe {
        sets_per_s: stats::median(&rates),
        kpt_ms: stats::median(&kpt_ms),
        kpt_samples_per_s: stats::median(&kpt_rates),
    }
}

/// The perf suite's postings-scan probe (million posting entries per
/// second over a synthetic index), median of a few calls.
pub fn scan(ctx: &Ctx<'_>) -> f64 {
    let rates: Vec<f64> = (0..3)
        .map(|r| {
            ctx.tracer
                .time(
                    "tirm_rrset",
                    "postings_scan_probe",
                    r,
                    tirm_bench::suite::postings_scan_probe,
                )
                .0
        })
        .collect();
    stats::median(&rates)
}

//! TIM sample-size machinery (Tang et al., SIGMOD 2014 — reviewed in §5.1
//! of the paper) reimplemented from its defining formulas:
//!
//! * **KPT estimation** — a lower bound on `OPT_s` obtained by sampling
//!   RR sets in geometrically growing batches and testing the statistic
//!   `κ(R) = 1 − (1 − w(R)/m)^s`, where `w(R)` is the number of arcs
//!   entering nodes of `R`. The widths are cached as a prefix of one
//!   fixed per-seed stream, so an estimate is a pure function of `s`;
//!   [`KptEstimator`] therefore memoizes it by `s`, and a long-lived
//!   owner that re-attaches the detached [`KptState`] (TIRM's warm
//!   reruns ask for the same `s` values event after event) pays a lookup
//!   instead of an O(samples) fold. The memo travels with the state and
//!   is dropped when ℓ changes.
//! * **`L(s, ε)` / θ** — the paper's Eq. 5: with
//!   `λ(s) = (8 + 2ε)·n·(ℓ·ln n + ln C(n,s) + ln 2)/ε²`, any
//!   `θ ≥ λ(s)/OPT_s` gives the spread-estimation guarantee of
//!   Proposition 2 (and Theorem 6 for TIRM's growing collections).
//! * **`tim_select`** — complete TIM: estimate KPT, sample θ sets, pick
//!   `s` seeds by greedy max-cover. Used to validate the machinery and as
//!   the influence-maximization substrate baseline.

use crate::collection::RrCollection;
use crate::fastpath::FastPath;
use crate::parallel::{ParallelSampler, SamplingConfig};
use crate::sampler::RrSampler;
use crate::special::ln_choose;
use tirm_graph::NodeId;

/// Computes `λ(s)` and `θ(s, opt_lb)` for a fixed graph-size/accuracy
/// configuration.
#[derive(Clone, Debug)]
pub struct SampleBound {
    n: usize,
    /// Accuracy parameter ε (the paper uses 0.1 for quality runs, 0.2 for
    /// scalability runs).
    pub eps: f64,
    /// Confidence parameter ℓ (failure probability `n^{-ℓ}`).
    pub ell: f64,
    /// Hard cap on θ so adversarial inputs cannot exhaust memory; `None`
    /// disables the cap. Capping is recorded by [`SampleBound::theta`]'s
    /// second return component.
    pub max_theta: Option<usize>,
}

impl SampleBound {
    /// Standard configuration (`ℓ = 1`).
    pub fn new(n: usize, eps: f64) -> Self {
        assert!(n > 1 && eps > 0.0 && eps < 1.0);
        SampleBound {
            n,
            eps,
            ell: 1.0,
            max_theta: Some(20_000_000),
        }
    }

    /// `λ(s) = (8 + 2ε) n (ℓ ln n + ln C(n,s) + ln 2) / ε²` (Eq. 5
    /// numerator).
    pub fn lambda(&self, s: usize) -> f64 {
        let n = self.n as f64;
        (8.0 + 2.0 * self.eps)
            * n
            * (self.ell * n.ln() + ln_choose(self.n as u64, s as u64) + 2f64.ln())
            / (self.eps * self.eps)
    }

    /// Required RR-set count `θ = ⌈λ(s)/opt_lb⌉`, clamped to at least 1 and
    /// to `max_theta` when configured. Returns `(θ, was_capped)`.
    pub fn theta(&self, s: usize, opt_lb: f64) -> (usize, bool) {
        assert!(opt_lb >= 1.0, "OPT lower bound below 1 is impossible");
        let raw = (self.lambda(s) / opt_lb).ceil();
        let raw = if raw.is_finite() {
            raw as usize
        } else {
            usize::MAX
        };
        match self.max_theta {
            Some(cap) if raw > cap => (cap, true),
            _ => (raw.max(1), false),
        }
    }
}

/// Iterative KPT estimation with cached sample widths, so that re-querying
/// with a larger seed count `s` (TIRM grows `s_i` over time) reuses all
/// previously sampled sets. Estimation batches are drawn through a
/// [`ParallelSampler`], so the geometric rounds scale with cores; with
/// `threads = 1` the width sequence is identical to the old serial draw.
///
/// Because the width cache is always a prefix of one fixed per-seed
/// stream, [`KptEstimator::estimate`] is a *pure function of `s`* for a
/// given `(sampler, ell, config)` — the result never depends on which
/// estimates were asked for earlier. The online serving layer leans on
/// this: it detaches the width cache ([`KptEstimator::into_state`]) when
/// an allocation run ends and re-attaches it
/// ([`KptEstimator::from_state`]) on the next run, so repeated
/// re-allocations of a long-lived ad never redraw estimation samples yet
/// return bit-identical estimates. Purity is also what licenses the
/// per-`s` memo the state carries: a re-asked `s` is a lookup, not a
/// refold of the widths.
pub struct KptEstimator<'a> {
    sampler: RrSampler<'a>,
    m: usize,
    ell: f64,
    /// `w(R)` of every estimation sample drawn so far.
    widths: Vec<u64>,
    engine: ParallelSampler,
    /// Sum of in-degrees per node, precomputed once.
    indeg: Vec<u32>,
    /// Estimates computed so far, sorted by `s` (valid for `ell`).
    memo: Vec<(usize, f64)>,
    /// Estimates folded from the widths since this estimator was built or
    /// re-attached (memo misses).
    computed: usize,
    /// Estimates answered from the memo since then.
    reused: usize,
}

impl<'a> KptEstimator<'a> {
    /// Creates a serial estimator drawing its own RR samples via `sampler`.
    pub fn new(sampler: RrSampler<'a>, ell: f64, seed: u64) -> Self {
        Self::with_config(sampler, ell, SamplingConfig::serial(seed))
    }

    /// Creates an estimator drawing its samples through a parallel engine
    /// with the given configuration. Any `max_theta` cap is ignored: the
    /// estimator's geometric rounds assume every requested width arrives,
    /// and a short-fill would corrupt the KPT statistic (θ caps are for
    /// collection memory, which estimation samples never occupy).
    pub fn with_config(sampler: RrSampler<'a>, ell: f64, config: SamplingConfig) -> Self {
        let g = sampler.graph();
        let indeg = (0..g.num_nodes() as NodeId)
            .map(|v| g.in_degree(v) as u32)
            .collect();
        let config = SamplingConfig {
            max_theta: None,
            ..config
        };
        KptEstimator {
            sampler,
            m: g.num_edges(),
            ell,
            widths: Vec::new(),
            engine: ParallelSampler::new(config, g.num_nodes()),
            indeg,
            memo: Vec::new(),
            computed: 0,
            reused: 0,
        }
    }

    /// Tops the width cache up to `target` samples (one engine batch).
    fn fill_widths(&mut self, target: usize, fast: Option<&FastPath>) {
        if self.widths.len() >= target {
            return;
        }
        let need = target - self.widths.len();
        let indeg = &self.indeg;
        let batch = self
            .engine
            .sample_map_with(&self.sampler, fast, need, |set| {
                set.iter().map(|&v| indeg[v as usize] as u64).sum::<u64>()
            });
        self.widths.extend(batch);
    }

    /// KPT lower bound on `OPT_s` (Tang et al. Algorithm 2). Always ≥ 1.
    ///
    /// Samples in geometric rounds `i = 1, 2, …, log₂(n) − 1`; in round `i`
    /// it uses `c_i = (6ℓ ln n + 6 ln log₂ n) · 2^i` samples and accepts as
    /// soon as the mean of `κ(R) = 1 − (1 − w(R)/m)^s` exceeds `2^{-i}`.
    pub fn estimate(&mut self, s: usize) -> f64 {
        self.estimate_with(s, None)
    }

    /// [`Self::estimate`], optionally drawing its batches through a
    /// precomputed [`FastPath`]. Bit-identical result either way — the
    /// fast route preserves the width stream exactly, so mixing plain
    /// and fast calls against one estimator is sound. A repeated `s` is
    /// answered from the memo without touching the widths.
    pub fn estimate_with(&mut self, s: usize, fast: Option<&FastPath>) -> f64 {
        match self.memo.binary_search_by_key(&s, |&(k, _)| k) {
            Ok(pos) => {
                self.reused += 1;
                self.memo[pos].1
            }
            Err(pos) => {
                self.computed += 1;
                let kpt = self.compute(s, fast);
                self.memo.insert(pos, (s, kpt));
                kpt
            }
        }
    }

    /// The KPT rounds themselves. One running sum folds the widths across
    /// rounds: round `i` continues the fold of round `i − 1` over
    /// `widths[c_{i−1}..c_i]`, which adds the same terms in the same order
    /// as re-summing `widths[..c_i]` from zero, so it is bit-identical.
    fn compute(&mut self, s: usize, fast: Option<&FastPath>) -> f64 {
        let n = self.sampler.graph().num_nodes();
        if self.m == 0 {
            return 1.0;
        }
        // `s as i32` would wrap for s ≥ 2³¹ (collapsing KPT to 1).
        // Saturating changes nothing below that; above it the estimate is
        // KPT(2³¹ − 1), still a lower bound on OPT_s because OPT_s grows
        // with s.
        let exp = i32::try_from(s).unwrap_or(i32::MAX);
        let log2n = (n as f64).log2();
        let rounds = log2n.floor() as i32 - 1;
        let base = 6.0 * self.ell * (n as f64).ln() + 6.0 * log2n.max(1.0).ln();
        let mut sum = 0.0f64;
        let mut summed = 0usize;
        for i in 1..=rounds.max(1) {
            let ci = (base * 2f64.powi(i)).ceil() as usize;
            self.fill_widths(ci, fast);
            for &w in &self.widths[summed..ci] {
                let frac = (w as f64 / self.m as f64).min(1.0);
                sum += 1.0 - (1.0 - frac).powi(exp);
            }
            summed = ci;
            if sum / ci as f64 > 1.0 / 2f64.powi(i) {
                return (n as f64 * sum / (2.0 * ci as f64)).max(1.0);
            }
        }
        1.0
    }

    /// Number of estimation samples drawn so far (diagnostics).
    pub fn samples_used(&self) -> usize {
        self.widths.len()
    }

    /// Estimates folded from the widths since this estimator was built or
    /// re-attached — memo misses.
    pub fn estimates_computed(&self) -> usize {
        self.computed
    }

    /// Estimates answered from the memo since this estimator was built or
    /// re-attached.
    pub fn estimates_reused(&self) -> usize {
        self.reused
    }

    /// Detaches the estimator's persistent capital — the width cache,
    /// the sampling-engine stream position and the estimate memo — for
    /// storage by a long-lived owner across borrow scopes.
    pub fn into_state(self) -> KptState {
        KptState {
            widths: self.widths,
            engine: self.engine,
            memo: self.memo,
            memo_ell: self.ell,
        }
    }

    /// Rebuilds an estimator around previously detached state. The
    /// sampler must project the same graph/probabilities and the state
    /// must come from an estimator with the same configuration, or the
    /// width stream would be inconsistent. A memo taken under another ℓ
    /// is dropped (the rounds' sample counts depend on ℓ).
    pub fn from_state(sampler: RrSampler<'a>, ell: f64, mut state: KptState) -> Self {
        let g = sampler.graph();
        let indeg = (0..g.num_nodes() as NodeId)
            .map(|v| g.in_degree(v) as u32)
            .collect();
        if state.memo_ell.to_bits() != ell.to_bits() {
            state.memo = Vec::new();
        }
        KptEstimator {
            sampler,
            m: g.num_edges(),
            ell,
            widths: state.widths,
            engine: state.engine,
            indeg,
            memo: state.memo,
            computed: 0,
            reused: 0,
        }
    }
}

/// Detached [`KptEstimator`] capital: the cached sample widths, the
/// estimation engine's stream position and the estimate memo. Owning
/// this (instead of the estimator itself) avoids tying a long-lived
/// structure to the graph borrow inside `RrSampler`.
pub struct KptState {
    widths: Vec<u64>,
    engine: ParallelSampler,
    /// `(s, KPT(s))` sorted by `s`, computed under ℓ = `memo_ell`.
    memo: Vec<(usize, f64)>,
    memo_ell: f64,
}

impl KptState {
    /// Bytes held: the width cache, the estimation engine's O(n)
    /// per-shard workspaces and the estimate memo.
    pub fn memory_bytes(&self) -> usize {
        self.widths.capacity() * 8
            + self.engine.memory_bytes()
            + self.memo.capacity() * std::mem::size_of::<(usize, f64)>()
    }

    /// Drops the estimate memo (a pure cache: the next estimator
    /// recomputes the same values from the widths).
    pub fn clear_memo(&mut self) {
        self.memo = Vec::new();
    }

    /// The serializable view for checkpointing: the cached widths and
    /// the estimation engine's stream position.
    pub fn export_parts(&self) -> (&[u64], crate::parallel::SamplerState) {
        (&self.widths, self.engine.export_state())
    }

    /// Rebuilds detached KPT capital from checkpointed parts, over a
    /// graph with `num_nodes` nodes.
    pub fn from_parts(
        widths: Vec<u64>,
        engine: &crate::parallel::SamplerState,
        num_nodes: usize,
    ) -> Result<KptState, String> {
        Ok(KptState {
            widths,
            engine: ParallelSampler::from_state(engine, num_nodes)?,
            memo: Vec::new(),
            memo_ell: f64::NAN,
        })
    }
}

/// Result of a full TIM run.
#[derive(Clone, Debug)]
pub struct TimResult {
    /// Chosen seeds in selection order.
    pub seeds: Vec<NodeId>,
    /// Coverage-based spread estimate `n · F_R(S)`.
    pub spread_estimate: f64,
    /// RR sets sampled in phase 2.
    pub theta: usize,
    /// KPT lower bound used.
    pub kpt: f64,
}

/// Complete TIM influence maximization: pick `s` seeds maximizing expected
/// spread under IC with arc probabilities `probs` (serial sampling).
pub fn tim_select(sampler: &RrSampler<'_>, s: usize, eps: f64, seed: u64) -> TimResult {
    tim_select_with(sampler, s, eps, SamplingConfig::serial(seed))
}

/// [`tim_select`] with an explicit sampling configuration: both the KPT
/// estimation batches and the θ-sample phase run through a
/// [`ParallelSampler`]. `threads = 1` reproduces [`tim_select`] exactly.
pub fn tim_select_with(
    sampler: &RrSampler<'_>,
    s: usize,
    eps: f64,
    config: SamplingConfig,
) -> TimResult {
    let g = sampler.graph();
    let n = g.num_nodes();
    let kpt_config = SamplingConfig {
        seed: config.seed ^ 0x9e37_79b9,
        ..config
    };
    let mut kpt_est = KptEstimator::with_config(*sampler, 1.0, kpt_config);
    let kpt = kpt_est.estimate(s);
    let mut bound = SampleBound::new(n, eps);
    if config.max_theta.is_some() {
        bound.max_theta = config.max_theta;
    }
    let (theta, _capped) = bound.theta(s, kpt);

    let mut coll = RrCollection::new(n);
    let mut engine = ParallelSampler::new(config, n);
    engine.sample_into(sampler, theta, &mut coll);
    let mut seeds = Vec::with_capacity(s);
    let mut covered_total = 0u64;
    for _ in 0..s {
        match coll.argmax_cov(|v| !seeds.contains(&v)) {
            Some((v, c)) => {
                covered_total += c as u64;
                coll.cover_node(v);
                seeds.push(v);
            }
            None => break,
        }
    }
    TimResult {
        seeds,
        spread_estimate: n as f64 * covered_total as f64 / theta as f64,
        theta,
        kpt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tirm_diffusion::mc_spread;
    use tirm_graph::generators;

    #[test]
    fn lambda_grows_with_s_and_shrinks_with_eps() {
        let b1 = SampleBound::new(1000, 0.1);
        assert!(b1.lambda(10) > b1.lambda(1));
        let b2 = SampleBound::new(1000, 0.2);
        assert!(b2.lambda(10) < b1.lambda(10));
    }

    #[test]
    fn theta_caps_and_floors() {
        let mut b = SampleBound::new(100, 0.2);
        b.max_theta = Some(500);
        let (t, capped) = b.theta(5, 1.0);
        assert_eq!(t, 500);
        assert!(capped);
        let (t2, capped2) = b.theta(1, 1e12);
        assert_eq!(t2, 1);
        assert!(!capped2);
    }

    #[test]
    fn kpt_never_exceeds_opt_on_star() {
        // Star hub with p = 0.5, n = 101: OPT_1 = 1 + 100·0.5 = 51. KPT is
        // driven by *random*-seed spread, so on a star it is very loose
        // (the TIM paper's fallback of 1 is expected) — but it must stay a
        // valid lower bound.
        let g = generators::star(101);
        let probs = vec![0.5f32; g.num_edges()];
        let sampler = RrSampler::new(&g, &probs);
        let mut est = KptEstimator::new(sampler, 1.0, 3);
        let kpt = est.estimate(1);
        assert!((1.0..=51.0 * 1.3).contains(&kpt), "KPT {kpt} out of range");
    }

    #[test]
    fn kpt_reasonably_tight_on_er() {
        // On an ER graph random seeds are representative, so KPT should be
        // a non-trivial fraction of the spread TIM's own seed achieves.
        let g = generators::erdos_renyi(500, 4000, 2);
        let probs = vec![0.15f32; g.num_edges()];
        let sampler = RrSampler::new(&g, &probs);
        let mut est = KptEstimator::new(sampler, 1.0, 4);
        let kpt = est.estimate(10);
        let r = tim_select(&sampler, 10, 0.2, 8);
        let opt_proxy = mc_spread(&g, &probs, &r.seeds, None, 5_000, 1);
        assert!(kpt >= 1.0);
        assert!(
            kpt <= opt_proxy * 1.2,
            "KPT {kpt} exceeds achievable spread {opt_proxy}"
        );
        assert!(
            kpt >= opt_proxy / 50.0,
            "KPT {kpt} uselessly loose vs {opt_proxy}"
        );
    }

    #[test]
    fn kpt_ignores_max_theta_cap() {
        // A θ cap on the estimator's config must not short-fill the width
        // cache (that would panic in `estimate`) — caps guard collection
        // memory, which estimation samples never occupy.
        let g = generators::erdos_renyi(300, 1200, 2);
        let probs = vec![0.1f32; g.num_edges()];
        let sampler = RrSampler::new(&g, &probs);
        let mut capped = SamplingConfig::new(2, 9);
        capped.max_theta = Some(10);
        let mut est = KptEstimator::with_config(sampler, 1.0, capped);
        let with_cap = est.estimate(5);
        let mut uncapped = KptEstimator::with_config(sampler, 1.0, SamplingConfig::new(2, 9));
        assert_eq!(with_cap, uncapped.estimate(5));
    }

    #[test]
    fn estimate_is_pure_in_s_and_state_round_trips() {
        let g = generators::erdos_renyi(300, 1500, 5);
        let probs = vec![0.1f32; g.num_edges()];
        let sampler = RrSampler::new(&g, &probs);
        // Purity: asking for s=5 after s=1 gives the same value as asking
        // for s=5 first (the width cache is a prefix of one fixed stream).
        let mut warmed = KptEstimator::new(sampler, 1.0, 9);
        let _ = warmed.estimate(1);
        let via_history = warmed.estimate(5);
        let mut fresh = KptEstimator::new(sampler, 1.0, 9);
        assert_eq!(fresh.estimate(5), via_history);
        // State round trip: detach + re-attach preserves estimates and
        // never redraws cached widths.
        let used = warmed.samples_used();
        let state = warmed.into_state();
        assert!(state.memory_bytes() >= used * 8);
        let mut back = KptEstimator::from_state(sampler, 1.0, state);
        assert_eq!(back.samples_used(), used);
        assert_eq!(back.estimate(5), via_history);
        assert_eq!(back.samples_used(), used, "cache hit, no new draws");
    }

    #[test]
    fn kpt_exponent_saturates_past_i32() {
        // `powi(s as i32)` wrapped at s = 2³¹ and collapsed KPT to 1; a
        // saturated exponent keeps KPT(2³¹) = KPT(2³¹ − 1).
        let g = generators::erdos_renyi(500, 4000, 2);
        let probs = vec![0.15f32; g.num_edges()];
        let sampler = RrSampler::new(&g, &probs);
        let mut est = KptEstimator::new(sampler, 1.0, 4);
        let below = est.estimate(i32::MAX as usize);
        assert!(below > 1.0, "KPT(2³¹ − 1) = {below} should be non-trivial");
        for s in [1usize << 31, 1 << 40, usize::MAX] {
            let mut fresh = KptEstimator::new(sampler, 1.0, 4);
            assert_eq!(fresh.estimate(s).to_bits(), below.to_bits(), "s = {s}");
        }
    }

    #[test]
    fn memo_answers_match_a_fresh_estimator_in_any_order() {
        let g = generators::erdos_renyi(300, 1500, 5);
        let probs = vec![0.1f32; g.num_edges()];
        let sampler = RrSampler::new(&g, &probs);
        let asks = [7usize, 1, 300, 2, 7, 40, 1, 1 << 20, 3, 40, 300, 2];
        let distinct = {
            let mut d = asks.to_vec();
            d.sort_unstable();
            d.dedup();
            d.len()
        };
        let mut memo = KptEstimator::new(sampler, 1.0, 9);
        for &s in &asks {
            let mut fresh = KptEstimator::new(sampler, 1.0, 9);
            assert_eq!(
                memo.estimate(s).to_bits(),
                fresh.estimate(s).to_bits(),
                "s = {s}"
            );
        }
        assert_eq!(memo.estimates_computed(), distinct);
        assert_eq!(memo.estimates_reused(), asks.len() - distinct);

        // The memo survives detach/re-attach under the same ℓ …
        let used = memo.samples_used();
        let mut back = KptEstimator::from_state(sampler, 1.0, memo.into_state());
        for &s in &asks {
            let mut fresh = KptEstimator::new(sampler, 1.0, 9);
            assert_eq!(back.estimate(s).to_bits(), fresh.estimate(s).to_bits());
        }
        assert_eq!(back.estimates_computed(), 0, "every ask is a memo hit");
        assert_eq!(back.samples_used(), used);

        // … and is dropped under another ℓ, which changes the rounds.
        let mut other = KptEstimator::from_state(sampler, 2.0, back.into_state());
        let mut fresh = KptEstimator::new(sampler, 2.0, 9);
        assert_eq!(other.estimate(7).to_bits(), fresh.estimate(7).to_bits());
        assert_eq!(other.estimates_computed(), 1);

        // Clearing the memo frees its bytes and changes no answer.
        let mut state = other.into_state();
        let with_memo = state.memory_bytes();
        state.clear_memo();
        assert!(state.memory_bytes() < with_memo);
        let mut cleared = KptEstimator::from_state(sampler, 2.0, state);
        assert_eq!(cleared.estimate(7).to_bits(), fresh.estimate(7).to_bits());
        assert_eq!(cleared.estimates_computed(), 1);
    }

    /// The pre-memo estimate: every round re-sums `widths[..c_i]` from
    /// zero. Draws through the estimator's own width cache.
    fn per_round_reference(est: &mut KptEstimator<'_>, s: usize) -> f64 {
        let n = est.sampler.graph().num_nodes();
        let exp = i32::try_from(s).unwrap_or(i32::MAX);
        let log2n = (n as f64).log2();
        let rounds = log2n.floor() as i32 - 1;
        let base = 6.0 * est.ell * (n as f64).ln() + 6.0 * log2n.max(1.0).ln();
        for i in 1..=rounds.max(1) {
            let ci = (base * 2f64.powi(i)).ceil() as usize;
            est.fill_widths(ci, None);
            let mut sum = 0.0f64;
            for &w in &est.widths[..ci] {
                let frac = (w as f64 / est.m as f64).min(1.0);
                sum += 1.0 - (1.0 - frac).powi(exp);
            }
            if sum / ci as f64 > 1.0 / 2f64.powi(i) {
                return (n as f64 * sum / (2.0 * ci as f64)).max(1.0);
            }
        }
        1.0
    }

    #[test]
    fn running_sum_matches_per_round_recompute() {
        // Sparse and dense graphs, so acceptance lands in early and late
        // rounds alike.
        for (g, p) in [
            (generators::erdos_renyi(400, 800, 3), 0.02f32),
            (generators::erdos_renyi(400, 4000, 3), 0.1),
            (generators::star(200), 0.3),
        ] {
            let probs = vec![p; g.num_edges()];
            let sampler = RrSampler::new(&g, &probs);
            for s in [1usize, 2, 5, 33, 1000, 1 << 31] {
                let mut reference = KptEstimator::new(sampler, 1.0, 21);
                let want = per_round_reference(&mut reference, s);
                let mut est = KptEstimator::new(sampler, 1.0, 21);
                assert_eq!(est.estimate(s).to_bits(), want.to_bits(), "s = {s}");
            }
        }
    }

    #[test]
    fn kpt_monotone_in_s() {
        let g = generators::erdos_renyi(300, 1500, 5);
        let probs = vec![0.1f32; g.num_edges()];
        let sampler = RrSampler::new(&g, &probs);
        let mut est = KptEstimator::new(sampler, 1.0, 9);
        let k1 = est.estimate(1);
        let k5 = est.estimate(5);
        let k20 = est.estimate(20);
        assert!(k5 >= k1 * 0.99, "{k5} vs {k1}");
        assert!(k20 >= k5 * 0.99, "{k20} vs {k5}");
    }

    #[test]
    fn tim_finds_the_hub() {
        let g = generators::star(60);
        let probs = vec![0.4f32; g.num_edges()];
        let sampler = RrSampler::new(&g, &probs);
        let r = tim_select(&sampler, 1, 0.2, 7);
        assert_eq!(r.seeds, vec![0], "hub must be the best single seed");
        // σ({0}) = 1 + 59·0.4 = 24.6; the estimate must be within ε·OPT-ish.
        assert!(
            (r.spread_estimate - 24.6).abs() < 3.0,
            "estimate {}",
            r.spread_estimate
        );
    }

    #[test]
    fn tim_spread_estimate_matches_mc() {
        let g = generators::preferential_attachment(400, 3, 0.2, 1);
        let probs = vec![0.08f32; g.num_edges()];
        let sampler = RrSampler::new(&g, &probs);
        let r = tim_select(&sampler, 5, 0.2, 11);
        assert_eq!(r.seeds.len(), 5);
        let mc = mc_spread(&g, &probs, &r.seeds, None, 20_000, 5);
        let rel = (r.spread_estimate - mc).abs() / mc.max(1.0);
        assert!(
            rel < 0.15,
            "coverage estimate {} vs MC {} (rel {rel})",
            r.spread_estimate,
            mc
        );
    }
}

//! The arithmetic the benchmark reports with: order statistics, the tail
//! percentile, registry deltas, the epoch ↔ mutation join and span self
//! time. Pure functions over plain data, pinned by the tests below.

use tirm_obs::{HistogramSnapshot, RegistrySnapshot};

/// Nearest-rank percentile (`p` in 0..=100) of ascending `sorted`
/// samples: the smallest sample with at least `p`% of all samples at or
/// below it. `None` when there are no samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(sorted[rank - 1])
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank median; 0 when empty (callers gate on sample counts).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0).unwrap_or(0.0)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A tail reading: the value, which percentile it is, and how many
/// samples it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at the tail rank.
    pub value: f64,
    /// The percentile that rank is (100 · rank / samples).
    pub pct: f64,
    /// Total samples.
    pub samples: usize,
}

/// The highest percentile that has at least [`TAIL_BEYOND`] samples
/// beyond it: nearest rank `n − 10` of `n` samples. `None` below eleven
/// samples, where no percentile qualifies.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    let pct = 100.0 * rank as f64 / n as f64;
    let s = sorted(samples);
    Some(Tail {
        value: s[rank - 1],
        pct,
        samples: n,
    })
}

/// A counter's growth between two registry snapshots (0 when the name is
/// unknown). The registry is process-global, so every reading the
/// benchmark takes from it is a before/after difference.
pub fn counter_delta(before: &RegistrySnapshot, after: &RegistrySnapshot, name: &str) -> u64 {
    let get = |s: &RegistrySnapshot| {
        s.counters
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0, |(_, _, v)| *v)
    };
    get(after).saturating_sub(get(before))
}

/// The samples a histogram gained between two snapshots, summed over
/// every row of `family` whose label value is in `labels` (all rows of
/// the family when `labels` is empty).
pub fn histogram_delta(
    before: &RegistrySnapshot,
    after: &RegistrySnapshot,
    family: &str,
    labels: &[&str],
) -> HistogramSnapshot {
    let pick = |s: &RegistrySnapshot| {
        let mut acc = HistogramSnapshot::default();
        for (f, label, _, h) in &s.histograms {
            let wanted = labels.is_empty() || label.is_some_and(|(_, v)| labels.contains(&v));
            if *f == family && wanted {
                acc.merge(h);
            }
        }
        acc
    };
    let (b, a) = (pick(before), pick(after));
    let mut d = HistogramSnapshot::default();
    for (i, c) in d.counts.iter_mut().enumerate() {
        *c = a.counts[i].saturating_sub(b.counts[i]);
    }
    d.count = a.count.saturating_sub(b.count);
    d.sum = a.sum.saturating_sub(b.sum);
    d
}

/// When each mutation became visible, from epoch-stamped responses. On a
/// fresh state dir with in-order delivery of valid events, the snapshot
/// at epoch `e` has applied exactly mutations `1..=e`, so the first
/// response carrying epoch `≥ k` is when mutation `k` became visible.
#[derive(Clone, Debug, Default)]
pub struct Visibility {
    /// `visible_at[k - 1]`: first observation covering mutation `k`.
    visible_at: Vec<Option<u64>>,
    /// Highest epoch observed so far.
    max_seen: u64,
}

impl Visibility {
    /// Tracks mutations `1..=mutations`.
    pub fn new(mutations: usize) -> Visibility {
        Visibility {
            visible_at: vec![None; mutations],
            max_seen: 0,
        }
    }

    /// Records a response with `epoch` observed at `at_ns`.
    pub fn observe(&mut self, epoch: u64, at_ns: u64) {
        if epoch <= self.max_seen {
            return;
        }
        let upto = (epoch as usize).min(self.visible_at.len());
        for slot in &mut self.visible_at[self.max_seen as usize..upto] {
            *slot = Some(at_ns);
        }
        self.max_seen = epoch;
    }

    /// When mutation `k` (1-based) became visible.
    pub fn visible_at(&self, k: u64) -> Option<u64> {
        self.visible_at.get((k as usize).checked_sub(1)?).copied()?
    }
}

/// Completion gaps of mutations `ks` on the clock `vis` was stamped
/// with: how far the clock moved from the previous completion (`start`
/// for the first) to each mutation's visibility, in ms, and the span
/// from `start` to the last completion, in seconds. Mutations that never
/// became visible are skipped. Several made visible by one observation
/// share it: all but the first get a gap of 0.
pub fn completion_gaps(
    vis: &Visibility,
    ks: std::ops::RangeInclusive<u64>,
    start: u64,
) -> (Vec<f64>, f64) {
    let mut prev = start;
    let mut gaps = Vec::new();
    for k in ks {
        if let Some(at) = vis.visible_at(k) {
            gaps.push(at.saturating_sub(prev) as f64 / 1e6);
            prev = prev.max(at);
        }
    }
    (gaps, (prev - start) as f64 / 1e9)
}

/// Total length of the union of half-open intervals `[start, end)`.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// `iv` clipped to `within` (empty intervals come back as `(x, x)`).
pub fn clip(iv: (u64, u64), within: (u64, u64)) -> (u64, u64) {
    let s = iv.0.clamp(within.0, within.1);
    let e = iv.1.clamp(within.0, within.1);
    (s, e.max(s))
}

/// A span's self time: its duration minus the part of it that its
/// children's intervals cover.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let clipped: Vec<(u64, u64)> = children.iter().map(|&c| clip(c, span)).collect();
    (span.1 - span.0) - union_len(&clipped)
}

/// Splits `root` among layers of intervals by precedence: each instant
/// of `root` goes to the first layer (in slice order) that has an
/// interval covering it. Returns one total per layer plus a final entry
/// for the instants no layer covers; the entries sum to `root`'s length.
pub fn attribute(root: (u64, u64), layers: &[Vec<(u64, u64)>]) -> Vec<u64> {
    let mut out = Vec::with_capacity(layers.len() + 1);
    let mut claimed: Vec<(u64, u64)> = Vec::new();
    for layer in layers {
        let mine: Vec<(u64, u64)> = layer.iter().map(|&iv| clip(iv, root)).collect();
        let before = union_len(&claimed);
        claimed.extend(mine);
        out.push(union_len(&claimed) - before);
    }
    out.push((root.1 - root.0) - union_len(&claimed));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tirm_obs::HISTOGRAM_BUCKETS;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 91.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None, "ten samples leave no percentile");
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).expect("eleven samples qualify");
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&hundred).expect("tail of 100");
        assert_eq!((t.value, t.pct, t.samples), (90.0, 90.0, 100));
        let beyond = hundred.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
        // The reading is the nearest-rank percentile it claims to be.
        let s = sorted(&hundred);
        assert_eq!(percentile(&s, t.pct), Some(t.value));
        let t = tail(&(0..1000).map(f64::from).collect::<Vec<_>>()).expect("tail of 1000");
        assert_eq!(t.pct, 99.0);
    }

    fn registry(counter: u64, hist: &[(usize, u64)], sum: u64) -> RegistrySnapshot {
        let mut h = HistogramSnapshot::default();
        for &(bucket, c) in hist {
            h.counts[bucket] = c;
            h.count += c;
        }
        h.sum = sum;
        let mut other = HistogramSnapshot::default();
        other.counts[HISTOGRAM_BUCKETS - 1] = 7;
        other.count = 7;
        other.sum = 1_000_000;
        RegistrySnapshot {
            counters: vec![("c_total", "", counter)],
            histograms: vec![
                ("lat", Some(("kind", "a")), "", h),
                ("lat", Some(("kind", "b")), "", other),
            ],
            ..RegistrySnapshot::default()
        }
    }

    #[test]
    fn registry_readings_are_deltas() {
        let before = registry(40, &[(3, 2)], 100);
        let after = registry(45, &[(3, 5), (4, 1)], 460);
        assert_eq!(counter_delta(&before, &after, "c_total"), 5);
        assert_eq!(counter_delta(&before, &after, "missing"), 0);
        let d = histogram_delta(&before, &after, "lat", &["a"]);
        assert_eq!((d.count, d.sum), (4, 360));
        assert_eq!((d.counts[3], d.counts[4]), (3, 1));
        assert_eq!(d.mean(), 90.0);
        // The unchanged row contributes nothing to an all-rows delta.
        let all = histogram_delta(&before, &after, "lat", &[]);
        assert_eq!((all.count, all.sum), (4, 360));
    }

    #[test]
    fn epoch_k_makes_mutation_k_visible() {
        let mut v = Visibility::new(5);
        v.observe(0, 10);
        assert_eq!(v.visible_at(1), None);
        v.observe(2, 20);
        v.observe(1, 25); // stale response: changes nothing
        v.observe(4, 30);
        assert_eq!(v.visible_at(1), Some(20));
        assert_eq!(v.visible_at(2), Some(20));
        assert_eq!(v.visible_at(3), Some(30));
        assert_eq!(v.visible_at(4), Some(30));
        assert_eq!(v.visible_at(5), None);
        assert_eq!(v.visible_at(0), None);
        v.observe(9, 40); // beyond the tracked range: clamps
        assert_eq!(v.visible_at(5), Some(40));
    }

    #[test]
    fn completion_gaps_run_from_the_previous_visibility() {
        let mut v = Visibility::new(5);
        v.observe(2, 1_000_000); // mutations 1 and 2 at 1 ms
        v.observe(3, 4_000_000);
        v.observe(5, 10_000_000); // 4 and 5 together at 10 ms
        let (gaps, span) = completion_gaps(&v, 2..=5, 500_000);
        assert_eq!(gaps, vec![0.5, 3.0, 6.0, 0.0]);
        assert!((span - 0.0095).abs() < 1e-12);
        // A mutation never made visible is skipped.
        let (gaps, span) = completion_gaps(&Visibility::new(3), 1..=3, 7);
        assert!(gaps.is_empty());
        assert_eq!(span, 0.0);
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 25), (3, 3)]), 20);
        // Overlapping children count once; parts outside the span don't.
        assert_eq!(self_time((10, 110), &[(0, 30), (20, 40), (100, 200)]), 60);
        assert_eq!(self_time((0, 50), &[]), 50);
        assert_eq!(self_time((0, 50), &[(0, 50)]), 0);
    }

    #[test]
    fn attribution_follows_precedence_and_sums_to_root() {
        let root = (0, 100);
        let layers = vec![
            vec![(60, 80)],           // highest precedence
            vec![(50, 70), (90, 95)], // loses 60..70 to the first layer
            vec![(0, 55)],            // loses 50..55 to the second
        ];
        let a = attribute(root, &layers);
        assert_eq!(a, vec![20, 15, 50, 15]);
        assert_eq!(a.iter().sum::<u64>(), 100);
    }
}

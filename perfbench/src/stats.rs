//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! rule, span self time and the ratios the reports derive from them.

use symbist_defects::SimOutcome;

/// Percentiles tried for the tail, in per mille, highest first: 99.9,
/// 99.5, then every whole percentile down to the median.
fn tail_ladder() -> impl Iterator<Item = usize> {
    [999, 995]
        .into_iter()
        .chain((50..=99).rev().map(|p| p * 10))
}

/// Samples that must lie beyond a percentile before it may be reported
/// as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Linear-interpolation quantile (`q` in `[0, 1]`) of an unsorted sample;
/// `None` when the sample is empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of an unsorted sample; `None` when it is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. `95.0`.
    pub pct: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Samples strictly beyond that rank.
    pub beyond: usize,
    /// Sample size.
    pub n: usize,
}

/// The highest percentile of [`tail_ladder`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, by nearest rank: the `p`-th
/// percentile is the `ceil(p/100 · n)`-th smallest sample and the samples
/// ranked after it are "beyond". `None` when even the median lacks them.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    tail_ladder().find_map(|permille| {
        let rank = (permille * n).div_ceil(1000);
        let beyond = n - rank;
        (rank >= 1 && beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            pct: permille as f64 / 10.0,
            value: sorted[rank - 1],
            beyond,
            n,
        })
    })
}

/// Self time of a span over `[start, end)`: its duration minus the part
/// of that interval covered by the union of its children's intervals
/// (children may overlap each other or stick out of the parent).
pub fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut run: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    (end - start) - covered
}

/// Busy time over available time: `busy / (threads · wall)`; 0 when no
/// time was available.
pub fn busy_ratio(busy: f64, threads: usize, wall: f64) -> f64 {
    let available = threads as f64 * wall;
    if available > 0.0 {
        busy / available
    } else {
        0.0
    }
}

/// Failed operations over attempted ones; 0 when nothing was attempted.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// `part / whole`, 0 when the whole is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The factor that takes a time measured between two host-speed probes
/// to reference speed: the probe's nominal seconds over the mean of the
/// probe seconds on either side; 0 when the probes took no time.
pub fn speed_factor(nominal: f64, before: f64, after: f64) -> f64 {
    share(nominal, (before + after) / 2.0)
}

/// FNV-1a over a stream of words: the verdict digest two commits compare.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one defect's verdict: index, detected, detection cycle.
    pub fn push_verdict(&mut self, index: usize, outcome: &SimOutcome) {
        self.push(index as u64);
        match outcome.completed() {
            Some(o) => {
                self.push(u64::from(o.detected));
                self.push(o.detection_cycle.map_or(u64::MAX, u64::from));
            }
            None => self.push(u64::MAX - 1),
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&v), 2.5);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // n = 20: p50 has rank 10 and exactly 10 samples beyond; p75 only 5.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&v).expect("twenty samples give a median tail");
        assert_eq!((t.pct, t.value, t.beyond, t.n), (50.0, 10.0, 10, 20));

        // n = 200: p95 has rank 190 and 10 beyond; p98 only 4.
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&v).expect("two hundred samples");
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 190.0, 10));

        // n = 1000: p99 has rank 990 and 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| (t.pct, t.beyond)), Some((99.0, 10)));

        // n = 97: p90 has rank 88 and 9 beyond; p89 has rank 87 and 10.
        let v: Vec<f64> = (1..=97).map(f64::from).collect();
        assert_eq!(
            tail(&v).map(|t| (t.pct, t.value, t.beyond)),
            Some((89.0, 87.0, 10))
        );

        // Nineteen samples leave only nine beyond the median: no tail.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0.0, 10.0, &[]), 10.0);
        // Disjoint children.
        assert_eq!(self_time(0.0, 10.0, &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // Overlapping children count once.
        assert_eq!(self_time(0.0, 10.0, &[(1.0, 4.0), (2.0, 5.0)]), 6.0);
        // A child sticking out of the parent is clipped to it.
        assert_eq!(self_time(0.0, 10.0, &[(8.0, 12.0), (-2.0, 1.0)]), 7.0);
        // A child entirely outside covers nothing.
        assert_eq!(self_time(0.0, 10.0, &[(11.0, 12.0)]), 10.0);
        // Children covering everything leave no self time.
        assert_eq!(self_time(0.0, 10.0, &[(0.0, 6.0), (5.0, 10.0)]), 0.0);
    }

    #[test]
    fn ratios_guard_their_denominators() {
        assert_eq!(busy_ratio(3.0, 2, 2.0), 0.75);
        assert_eq!(busy_ratio(1.0, 2, 0.0), 0.0);
        assert_eq!(failed_frac(0, 40), 0.0);
        assert_eq!(failed_frac(2, 8), 0.25);
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(share(1.0, 0.0), 0.0);
    }

    #[test]
    fn speed_factor_scales_to_the_probes_mean() {
        // Probes of 0.2 s and 0.3 s against a 0.1 s nominal: the host ran
        // at 0.4 x reference, so 1 s measured is 0.4 s at reference speed.
        assert_eq!(speed_factor(0.1, 0.2, 0.3), 0.4);
        // A host at reference speed leaves times unchanged.
        assert_eq!(speed_factor(0.25, 0.25, 0.25), 1.0);
        // Probes that took no time give no factor.
        assert_eq!(speed_factor(0.1, 0.0, 0.0), 0.0);
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let of = |words: &[u64]| {
            let mut d = Digest::default();
            words.iter().for_each(|&w| d.push(w));
            d.hex()
        };
        assert_eq!(of(&[1, 2]), of(&[1, 2]));
        assert_ne!(of(&[1, 2]), of(&[2, 1]));
        assert_eq!(of(&[]).len(), 16);
    }
}

//! Similarity and distance metrics (Section 3.2 and Appendix A).
//!
//! BOND only requires the aggregate to be *associative, monotonic and
//! commutative* in its per-dimension contributions; the
//! [`DecomposableMetric`] trait captures exactly that: a metric is a sum of
//! per-dimension contributions, and the best matches are either the largest
//! (similarity) or the smallest (distance) sums.

use serde::{Deserialize, Serialize};

/// Whether the best matches have the largest or the smallest scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Top-k = the k largest scores (similarity metrics).
    Maximize,
    /// Top-k = the k smallest scores (distance metrics).
    Minimize,
}

impl Objective {
    /// `true` when `a` is a strictly better score than `b` under this
    /// objective.
    #[inline]
    pub fn better(&self, a: f64, b: f64) -> bool {
        match self {
            Objective::Maximize => a > b,
            Objective::Minimize => a < b,
        }
    }
}

/// The closed set of per-dimension contribution shapes the vectorized scan
/// kernels in `bond-core` know how to compute without a virtual call per
/// cell. A metric that matches one of these shapes advertises it through
/// [`DecomposableMetric::kernel_op`]; everything else (including user
/// metrics) keeps the `None` default and runs the portable per-contribution
/// loop.
///
/// The shapes mirror the four concrete metrics of the paper: `min(v, q)`
/// for histogram intersection, `(v − q)²` for squared Euclidean, and their
/// per-dimension-weighted variants. The borrowed weight slices keep the
/// enum allocation-free on the query path.
#[derive(Debug, Clone, Copy)]
pub enum KernelOp<'a> {
    /// `min(value, query)` — histogram intersection (Definition 1).
    Min,
    /// `(value − query)²` — squared Euclidean distance (Definition 2).
    SquaredDiff,
    /// `w_dim · min(value, query)` — weighted histogram intersection.
    WeightedMin(&'a [f64]),
    /// `w_dim · (value − query)²` — weighted squared Euclidean
    /// (Definition 3).
    WeightedSquaredDiff(&'a [f64]),
}

impl KernelOp<'_> {
    /// Evaluates the shape for one dimension — the scalar reference the
    /// vector kernels must match bit for bit.
    #[inline]
    pub fn apply(&self, dim: usize, value: f64, query: f64) -> f64 {
        match self {
            KernelOp::Min => value.min(query),
            KernelOp::SquaredDiff => {
                let d = value - query;
                d * d
            }
            KernelOp::WeightedMin(w) => w[dim] * value.min(query),
            KernelOp::WeightedSquaredDiff(w) => {
                let d = value - query;
                w[dim] * d * d
            }
        }
    }
}

/// A metric that decomposes into a sum of per-dimension contributions:
/// `S(x, q) = Σ_i contribution(i, x_i, q_i)`.
///
/// This is the "associative and monotonic aggregate function S" of the
/// paper's Section 3.1; commutativity over the dimensions is what lets BOND
/// process them in any order (Section 5.1).
pub trait DecomposableMetric: Send + Sync {
    /// Whether larger or smaller scores are better.
    fn objective(&self) -> Objective;

    /// The contribution of a single dimension to the total score.
    fn contribution(&self, dim: usize, value: f64, query: f64) -> f64;

    /// The exact score between a stored vector and the query.
    ///
    /// The default implementation sums [`DecomposableMetric::contribution`]
    /// over all dimensions; metrics may override it with a tighter loop.
    fn score(&self, vector: &[f64], query: &[f64]) -> f64 {
        debug_assert_eq!(vector.len(), query.len());
        vector.iter().zip(query).enumerate().map(|(d, (&v, &q))| self.contribution(d, v, q)).sum()
    }

    /// The score restricted to a subset of dimensions (used to accumulate
    /// partial scores `S(x⁻, q⁻)` over the scanned prefix).
    fn partial_score(&self, dims: &[usize], vector: &[f64], query: &[f64]) -> f64 {
        dims.iter().map(|&d| self.contribution(d, vector[d], query[d])).sum()
    }

    /// The *best* contribution dimension `dim` can make for any value in
    /// `[lo, hi]`: the maximum over the interval for a similarity metric,
    /// the minimum for a distance metric.
    ///
    /// This is the per-dimension building block of zone-map-style
    /// whole-segment bounds ([`DecomposableMetric::envelope_best_score`]).
    /// The default is deliberately vacuous (`+∞` / `0`), which makes
    /// envelope pruning a no-op rather than unsafe for metrics that do not
    /// override it.
    fn best_contribution(&self, dim: usize, lo: f64, hi: f64, query: f64) -> f64 {
        let _ = (dim, lo, hi, query);
        match self.objective() {
            Objective::Maximize => f64::INFINITY,
            Objective::Minimize => 0.0,
        }
    }

    /// The *worst* contribution dimension `dim` can make for any value in
    /// `[lo, hi]`: the minimum over the interval for a similarity metric,
    /// the maximum for a distance metric.
    ///
    /// Together with [`DecomposableMetric::best_contribution`] this brackets
    /// the exact contribution of any value known only up to an interval —
    /// the building block of safe pruning on quantized codes, where a cell
    /// index stands for the interval `[cell_lower, cell_upper]`. The default
    /// is vacuous in the *pessimistic* direction (`−∞` / `+∞`), which makes
    /// interval filters degenerate to "keep everything" rather than unsafe
    /// for metrics that do not override it.
    fn worst_contribution(&self, dim: usize, lo: f64, hi: f64, query: f64) -> f64 {
        let _ = (dim, lo, hi, query);
        match self.objective() {
            Objective::Maximize => f64::NEG_INFINITY,
            Objective::Minimize => f64::INFINITY,
        }
    }

    /// Fills `pairs` with the interleaved `[best, worst]` contribution of
    /// every quantization cell of one dimension: `pairs[2*c]` and
    /// `pairs[2*c + 1]` bracket the contribution any value inside
    /// `bounds[c] = (lo, hi)` can make. Exactly the values of calling
    /// [`DecomposableMetric::best_contribution`] /
    /// [`DecomposableMetric::worst_contribution`] per cell — but as **one**
    /// virtual call per dimension instead of two per cell: inside this
    /// provided body `self` is the concrete metric, so the per-cell bound
    /// math inlines. The quantized filter builds its per-level LUTs
    /// through this for every dimension of every segment scan.
    fn fill_contribution_pairs(
        &self,
        dim: usize,
        bounds: &[(f64, f64)],
        query: f64,
        pairs: &mut [f64],
    ) {
        debug_assert_eq!(bounds.len() * 2, pairs.len());
        for (pair, &(lo, hi)) in pairs.chunks_exact_mut(2).zip(bounds) {
            pair[0] = self.best_contribution(dim, lo, hi, query);
            pair[1] = self.worst_contribution(dim, lo, hi, query);
        }
    }

    /// An *optimistic* bound on the score of any vector inside the
    /// per-dimension value envelope `[mins_i, maxs_i]`: no vector in the box
    /// can score better than this under the metric's objective. Comparing it
    /// against the current pruning bound κ decides whether a whole segment
    /// can be skipped without touching its data (zone-map pruning).
    fn envelope_best_score(&self, query: &[f64], mins: &[f64], maxs: &[f64]) -> f64 {
        debug_assert_eq!(query.len(), mins.len());
        debug_assert_eq!(query.len(), maxs.len());
        query.iter().enumerate().map(|(d, &q)| self.best_contribution(d, mins[d], maxs[d], q)).sum()
    }

    /// An optimistic score bound derived from the *total-mass* envelope
    /// alone: no vector whose coordinate sum `T(x)` lies in
    /// `[mass_lo, mass_hi]` can score better than this against a query with
    /// coordinate sum `query_sum` over `dims` dimensions. `None` when the
    /// metric admits no such bound (the default).
    ///
    /// Zone-map segment skipping combines this with
    /// [`DecomposableMetric::envelope_best_score`]; the tighter of the two
    /// wins.
    fn mass_best_score(
        &self,
        query_sum: f64,
        mass_lo: f64,
        mass_hi: f64,
        dims: usize,
    ) -> Option<f64> {
        let _ = (query_sum, mass_lo, mass_hi, dims);
        None
    }

    /// A short human-readable name (used in experiment reports).
    fn name(&self) -> &'static str;

    /// The vectorizable shape of [`DecomposableMetric::contribution`], when
    /// it has one. Metrics that return `Some` promise that
    /// [`KernelOp::apply`] computes *exactly* the same `f64` as
    /// `contribution` for every `(dim, value, query)` — the SIMD kernels
    /// rely on that to stay bit-identical to the scalar path. The default
    /// is `None`: opaque metrics always take the portable loop.
    fn kernel_op(&self) -> Option<KernelOp<'_>> {
        None
    }
}

/// Histogram intersection (Definition 1):
/// `Sim(h, q) = Σ_i min(h_i, q_i)`, a similarity in `[0, 1]` for normalized
/// histograms. Reported in the paper (after Swain & Ballard) to be superior
/// to Euclidean distance for color histograms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramIntersection;

impl DecomposableMetric for HistogramIntersection {
    fn objective(&self) -> Objective {
        Objective::Maximize
    }

    #[inline]
    fn contribution(&self, _dim: usize, value: f64, query: f64) -> f64 {
        value.min(query)
    }

    fn score(&self, vector: &[f64], query: &[f64]) -> f64 {
        vector.iter().zip(query).map(|(&v, &q)| v.min(q)).sum()
    }

    #[inline]
    fn best_contribution(&self, _dim: usize, _lo: f64, hi: f64, query: f64) -> f64 {
        // min(v, q) is non-decreasing in v, so the interval's top is best.
        hi.min(query)
    }

    #[inline]
    fn worst_contribution(&self, _dim: usize, lo: f64, _hi: f64, query: f64) -> f64 {
        // ... and the interval's bottom is worst.
        lo.min(query)
    }

    fn mass_best_score(
        &self,
        query_sum: f64,
        _mass_lo: f64,
        mass_hi: f64,
        _dims: usize,
    ) -> Option<f64> {
        // Σ min(h_i, q_i) ≤ min(T(h), T(q)) ≤ min(mass_hi, T(q)).
        Some(mass_hi.min(query_sum))
    }

    fn name(&self) -> &'static str {
        "histogram_intersection"
    }

    fn kernel_op(&self) -> Option<KernelOp<'_>> {
        Some(KernelOp::Min)
    }
}

/// Squared Euclidean distance (Definition 2):
/// `δ(v, q) = Σ_i (v_i − q_i)²`, a distance (smaller is better). The paper
/// uses the squared form to avoid the square root; the ranking is identical
/// because the square root is monotonic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SquaredEuclidean;

impl DecomposableMetric for SquaredEuclidean {
    fn objective(&self) -> Objective {
        Objective::Minimize
    }

    #[inline]
    fn contribution(&self, _dim: usize, value: f64, query: f64) -> f64 {
        let d = value - query;
        d * d
    }

    fn score(&self, vector: &[f64], query: &[f64]) -> f64 {
        vector
            .iter()
            .zip(query)
            .map(|(&v, &q)| {
                let d = v - q;
                d * d
            })
            .sum()
    }

    #[inline]
    fn best_contribution(&self, _dim: usize, lo: f64, hi: f64, query: f64) -> f64 {
        // (v − q)² is minimized at the point of [lo, hi] closest to q.
        // `max`/`min` instead of `clamp`: identical for the ordered cell
        // bounds this receives, but free of `clamp`'s panicking assert —
        // which would keep the batched LUT build from vectorizing.
        let d = query.max(lo).min(hi) - query;
        d * d
    }

    #[inline]
    fn worst_contribution(&self, _dim: usize, lo: f64, hi: f64, query: f64) -> f64 {
        // ... and maximized at the endpoint farthest from q.
        let dl = lo - query;
        let dh = hi - query;
        (dl * dl).max(dh * dh)
    }

    fn mass_best_score(
        &self,
        query_sum: f64,
        mass_lo: f64,
        mass_hi: f64,
        dims: usize,
    ) -> Option<f64> {
        if dims == 0 {
            return None;
        }
        // Cauchy–Schwarz (the paper's Lemma 2 over all dimensions):
        // δ(v, q) ≥ (T(v) − T(q))² / N, minimized at the T(v) in
        // [mass_lo, mass_hi] closest to T(q).
        let d = query_sum.clamp(mass_lo, mass_hi) - query_sum;
        Some(d * d / dims as f64)
    }

    fn name(&self) -> &'static str {
        "squared_euclidean"
    }

    fn kernel_op(&self) -> Option<KernelOp<'_>> {
        Some(KernelOp::SquaredDiff)
    }
}

impl SquaredEuclidean {
    /// The similarity form of Equation 3: `Sim(v, q) = 1 − sqrt(δ(v, q)/N)`.
    /// Used by multi-feature queries to put Euclidean components on the same
    /// `[0, 1]` similarity scale as histogram intersection.
    pub fn similarity_from_distance(distance: f64, dims: usize) -> f64 {
        if dims == 0 {
            return 1.0;
        }
        1.0 - (distance / dims as f64).sqrt()
    }

    /// Inverse of [`SquaredEuclidean::similarity_from_distance`].
    pub fn distance_from_similarity(similarity: f64, dims: usize) -> f64 {
        let s = 1.0 - similarity;
        s * s * dims as f64
    }
}

/// A weighted-histogram-intersection metric: `Σ w_i · min(h_i, q_i)`.
///
/// The paper's weighted examples use Euclidean distance; this metric rounds
/// out the weighted story for the similarity side and powers weighted
/// multi-feature color queries.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedHistogramIntersection {
    weights: Vec<f64>,
}

impl WeightedHistogramIntersection {
    /// Creates the metric; weights must be non-negative and finite.
    pub fn new(weights: Vec<f64>) -> Result<Self, String> {
        if weights.is_empty() {
            return Err("weight vector must not be empty".into());
        }
        if weights.iter().any(|&w| w < 0.0 || !w.is_finite()) {
            return Err("weights must be finite and non-negative".into());
        }
        Ok(WeightedHistogramIntersection { weights })
    }

    /// The per-dimension weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl DecomposableMetric for WeightedHistogramIntersection {
    fn objective(&self) -> Objective {
        Objective::Maximize
    }

    #[inline]
    fn contribution(&self, dim: usize, value: f64, query: f64) -> f64 {
        self.weights[dim] * value.min(query)
    }

    #[inline]
    fn best_contribution(&self, dim: usize, _lo: f64, hi: f64, query: f64) -> f64 {
        self.weights[dim] * hi.min(query)
    }

    #[inline]
    fn worst_contribution(&self, dim: usize, lo: f64, _hi: f64, query: f64) -> f64 {
        self.weights[dim] * lo.min(query)
    }

    fn name(&self) -> &'static str {
        "weighted_histogram_intersection"
    }

    fn kernel_op(&self) -> Option<KernelOp<'_>> {
        Some(KernelOp::WeightedMin(&self.weights))
    }
}

/// Weighted squared Euclidean distance (Definition 3, Appendix A):
/// `δ_w(v, q) = Σ_i w_i (v_i − q_i)²`.
///
/// A query in a dimensional subspace is the special case where the weights
/// of the irrelevant dimensions are zero (Section 8.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightedSquaredEuclidean {
    weights: Vec<f64>,
}

impl WeightedSquaredEuclidean {
    /// Creates the metric from per-dimension weights. Negative weights are
    /// rejected (they would break monotonicity of the aggregate).
    pub fn new(weights: Vec<f64>) -> Result<Self, String> {
        if weights.is_empty() {
            return Err("weight vector must not be empty".into());
        }
        if weights.iter().any(|&w| w < 0.0 || !w.is_finite()) {
            return Err("weights must be finite and non-negative".into());
        }
        Ok(WeightedSquaredEuclidean { weights })
    }

    /// Weights normalized so that they sum to the dimensionality `N`, the
    /// convention under which Equation 3 still defines a similarity.
    pub fn normalized(weights: Vec<f64>) -> Result<Self, String> {
        let n = weights.len() as f64;
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err("weights must have a positive sum".into());
        }
        let scaled = weights.iter().map(|w| w * n / total).collect();
        WeightedSquaredEuclidean::new(scaled)
    }

    /// A subspace query: weight 1 on the selected dimensions, 0 elsewhere.
    pub fn subspace(dims: usize, selected: &[usize]) -> Result<Self, String> {
        let mut weights = vec![0.0; dims];
        for &d in selected {
            if d >= dims {
                return Err(format!("subspace dimension {d} out of range {dims}"));
            }
            weights[d] = 1.0;
        }
        WeightedSquaredEuclidean::new(weights)
    }

    /// The per-dimension weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl DecomposableMetric for WeightedSquaredEuclidean {
    fn objective(&self) -> Objective {
        Objective::Minimize
    }

    #[inline]
    fn contribution(&self, dim: usize, value: f64, query: f64) -> f64 {
        let d = value - query;
        self.weights[dim] * d * d
    }

    #[inline]
    fn best_contribution(&self, dim: usize, lo: f64, hi: f64, query: f64) -> f64 {
        // `max`/`min` instead of `clamp` — see `SquaredEuclidean`
        let d = query.max(lo).min(hi) - query;
        self.weights[dim] * d * d
    }

    #[inline]
    fn worst_contribution(&self, dim: usize, lo: f64, hi: f64, query: f64) -> f64 {
        // the farther edge's contribution, rounded exactly like
        // `contribution` — `(w·d)·d`, not `w·(d·d)`, which can land one ulp
        // below the contribution of a value inside the interval
        let w = self.weights[dim];
        let dl = lo - query;
        let dh = hi - query;
        (w * dl * dl).max(w * dh * dh)
    }

    fn name(&self) -> &'static str {
        "weighted_squared_euclidean"
    }

    fn kernel_op(&self) -> Option<KernelOp<'_>> {
        Some(KernelOp::WeightedSquaredDiff(&self.weights))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_better() {
        assert!(Objective::Maximize.better(0.9, 0.1));
        assert!(!Objective::Maximize.better(0.1, 0.9));
        assert!(Objective::Minimize.better(0.1, 0.9));
        assert!(!Objective::Minimize.better(0.2, 0.2));
    }

    #[test]
    fn histogram_intersection_paper_example() {
        // h3 and q from the worked example in Section 4.2.
        let q = [0.7, 0.15, 0.1, 0.05];
        let h3 = [0.8, 0.1, 0.05, 0.05];
        let m = HistogramIntersection;
        let s = m.score(&h3, &q);
        assert!((s - 0.9).abs() < 1e-12);
        assert_eq!(m.objective(), Objective::Maximize);
        // identical histograms intersect to T(h) = 1
        assert!((m.score(&q, &q) - 1.0).abs() < 1e-12);
        // partial score over the first two dims: min(0.8,0.7)+min(0.1,0.15)
        assert!((m.partial_score(&[0, 1], &h3, &q) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn squared_euclidean_basics() {
        let m = SquaredEuclidean;
        assert_eq!(m.objective(), Objective::Minimize);
        let v = [0.0, 0.5, 1.0];
        let q = [0.0, 0.0, 0.0];
        assert!((m.score(&v, &q) - 1.25).abs() < 1e-12);
        assert_eq!(m.score(&v, &v), 0.0);
        assert!((m.contribution(1, 0.5, 0.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn similarity_transform_round_trips() {
        let dims = 16;
        for d in [0.0, 0.5, 4.0, 16.0] {
            let s = SquaredEuclidean::similarity_from_distance(d, dims);
            let back = SquaredEuclidean::distance_from_similarity(s, dims);
            assert!((back - d).abs() < 1e-9);
        }
        assert_eq!(SquaredEuclidean::similarity_from_distance(0.0, 0), 1.0);
        // zero distance -> similarity 1, max distance N -> similarity 0
        assert_eq!(SquaredEuclidean::similarity_from_distance(0.0, 8), 1.0);
        assert_eq!(SquaredEuclidean::similarity_from_distance(8.0, 8), 0.0);
    }

    #[test]
    fn weighted_euclidean_reduces_to_unweighted() {
        let w = WeightedSquaredEuclidean::new(vec![1.0; 4]).unwrap();
        let v = [0.1, 0.2, 0.3, 0.4];
        let q = [0.4, 0.3, 0.2, 0.1];
        assert!((w.score(&v, &q) - SquaredEuclidean.score(&v, &q)).abs() < 1e-12);
    }

    #[test]
    fn weighted_euclidean_validation_and_normalization() {
        assert!(WeightedSquaredEuclidean::new(vec![]).is_err());
        assert!(WeightedSquaredEuclidean::new(vec![-1.0]).is_err());
        assert!(WeightedSquaredEuclidean::new(vec![f64::NAN]).is_err());
        assert!(WeightedSquaredEuclidean::normalized(vec![0.0, 0.0]).is_err());

        let w = WeightedSquaredEuclidean::normalized(vec![1.0, 3.0]).unwrap();
        assert!((w.weights().iter().sum::<f64>() - 2.0).abs() < 1e-12);
        assert!((w.weights()[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn subspace_is_zero_one_weights() {
        let w = WeightedSquaredEuclidean::subspace(4, &[1, 3]).unwrap();
        assert_eq!(w.weights(), &[0.0, 1.0, 0.0, 1.0]);
        let v = [9.0, 0.5, 9.0, 0.25];
        let q = [0.0, 0.0, 0.0, 0.0];
        // only dims 1 and 3 count
        assert!((w.score(&v, &q) - (0.25 + 0.0625)).abs() < 1e-12);
        assert!(WeightedSquaredEuclidean::subspace(4, &[4]).is_err());
    }

    #[test]
    fn envelope_bounds_dominate_every_boxed_vector() {
        // deterministic pseudo-random boxes + vectors inside them
        let mut seed = 0xA5A5_5A5A_1234_5678u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let dims = 6;
        let weighted = WeightedSquaredEuclidean::new(vec![2.0, 0.5, 1.0, 0.0, 3.0, 1.0]).unwrap();
        for _ in 0..200 {
            let q: Vec<f64> = (0..dims).map(|_| next()).collect();
            let mins: Vec<f64> = (0..dims).map(|_| next() * 0.5).collect();
            let maxs: Vec<f64> = mins.iter().map(|&m| m + next() * 0.5).collect();
            let v: Vec<f64> =
                mins.iter().zip(&maxs).map(|(&lo, &hi)| lo + next() * (hi - lo)).collect();
            let hist_bound = HistogramIntersection.envelope_best_score(&q, &mins, &maxs);
            assert!(HistogramIntersection.score(&v, &q) <= hist_bound + 1e-12);
            let euclid_bound = SquaredEuclidean.envelope_best_score(&q, &mins, &maxs);
            assert!(SquaredEuclidean.score(&v, &q) >= euclid_bound - 1e-12);
            let weighted_bound = weighted.envelope_best_score(&q, &mins, &maxs);
            assert!(weighted.score(&v, &q) >= weighted_bound - 1e-12);
        }
    }

    #[test]
    fn interval_contributions_bracket_every_boxed_value() {
        // for any value v in [lo, hi]:
        //   worst ≤ contribution(v) ≤ best   (Maximize)
        //   best ≤ contribution(v) ≤ worst   (Minimize)
        let mut seed = 0x1357_9BDF_2468_ACE0u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let w_hist = WeightedHistogramIntersection::new(vec![2.0, 0.5, 0.0, 3.0]).unwrap();
        let w_euc = WeightedSquaredEuclidean::new(vec![2.0, 0.5, 0.0, 3.0]).unwrap();
        for _ in 0..500 {
            let d = (next() * 4.0) as usize % 4;
            let q = next() * 2.0 - 0.5;
            let lo = next() * 2.0 - 0.5;
            let hi = lo + next();
            let v = lo + next() * (hi - lo);
            let eps = 1e-12;
            let h = HistogramIntersection.contribution(d, v, q);
            assert!(HistogramIntersection.worst_contribution(d, lo, hi, q) <= h + eps);
            assert!(h <= HistogramIntersection.best_contribution(d, lo, hi, q) + eps);
            let e = SquaredEuclidean.contribution(d, v, q);
            assert!(SquaredEuclidean.best_contribution(d, lo, hi, q) <= e + eps);
            assert!(e <= SquaredEuclidean.worst_contribution(d, lo, hi, q) + eps);
            let wh = w_hist.contribution(d, v, q);
            assert!(w_hist.worst_contribution(d, lo, hi, q) <= wh + eps);
            assert!(wh <= w_hist.best_contribution(d, lo, hi, q) + eps);
            let we = w_euc.contribution(d, v, q);
            assert!(w_euc.best_contribution(d, lo, hi, q) <= we + eps);
            assert!(we <= w_euc.worst_contribution(d, lo, hi, q) + eps);
        }
        // the default is vacuous per objective
        struct Opaque(Objective);
        impl DecomposableMetric for Opaque {
            fn objective(&self) -> Objective {
                self.0
            }
            fn contribution(&self, _d: usize, v: f64, q: f64) -> f64 {
                v * q
            }
            fn name(&self) -> &'static str {
                "opaque"
            }
        }
        assert_eq!(
            Opaque(Objective::Maximize).worst_contribution(0, 0.0, 1.0, 0.5),
            f64::NEG_INFINITY
        );
        assert_eq!(Opaque(Objective::Minimize).worst_contribution(0, 0.0, 1.0, 0.5), f64::INFINITY);
    }

    #[test]
    fn mass_bounds_dominate_every_vector_in_the_mass_range() {
        // histogram intersection: score ≤ min(T(h), T(q))
        let q = [0.5, 0.3, 0.2];
        let q_sum: f64 = q.iter().sum();
        let h = [0.1, 0.2, 0.1]; // T(h) = 0.4
        let bound = HistogramIntersection.mass_best_score(q_sum, 0.0, 0.4, 3).unwrap();
        assert!((bound - 0.4).abs() < 1e-12);
        assert!(HistogramIntersection.score(&h, &q) <= bound + 1e-12);
        // squared Euclidean: δ ≥ (T(v) − T(q))² / N
        let v = [0.0, 0.1, 0.0]; // T(v) = 0.1
        let bound = SquaredEuclidean.mass_best_score(q_sum, 0.0, 0.2, 3).unwrap();
        assert!((bound - (0.8 * 0.8) / 3.0).abs() < 1e-12);
        assert!(SquaredEuclidean.score(&v, &q) >= bound - 1e-12);
        // T(q) inside the mass range: the Euclidean mass bound is vacuous
        assert_eq!(SquaredEuclidean.mass_best_score(q_sum, 0.5, 2.0, 3), Some(0.0));
        assert_eq!(SquaredEuclidean.mass_best_score(q_sum, 0.5, 2.0, 0), None);
        // weighted metrics keep the conservative default
        let w = WeightedSquaredEuclidean::new(vec![1.0; 3]).unwrap();
        assert_eq!(w.mass_best_score(q_sum, 0.0, 0.2, 3), None);
    }

    #[test]
    fn envelope_bound_is_tight_at_the_box_boundary() {
        // query inside the box: best distance 0, best intersection min(max, q)
        let q = [0.5, 0.2];
        let mins = [0.4, 0.0];
        let maxs = [0.6, 0.1];
        assert!((SquaredEuclidean.envelope_best_score(&q, &mins, &maxs) - 0.01).abs() < 1e-12);
        assert!((HistogramIntersection.envelope_best_score(&q, &mins, &maxs) - 0.6).abs() < 1e-12);
        // default implementation is vacuous per objective
        struct Opaque(Objective);
        impl DecomposableMetric for Opaque {
            fn objective(&self) -> Objective {
                self.0
            }
            fn contribution(&self, _d: usize, v: f64, q: f64) -> f64 {
                v * q
            }
            fn name(&self) -> &'static str {
                "opaque"
            }
        }
        assert_eq!(
            Opaque(Objective::Maximize).envelope_best_score(&q, &mins, &maxs),
            f64::INFINITY
        );
        assert_eq!(Opaque(Objective::Minimize).envelope_best_score(&q, &mins, &maxs), 0.0);
    }

    #[test]
    fn kernel_ops_match_contributions_exactly() {
        // KernelOp::apply must be *bit-identical* to contribution — the
        // SIMD kernels inherit their correctness proof from this.
        let wh = WeightedHistogramIntersection::new(vec![2.0, 0.5, 0.0, 3.0]).unwrap();
        let we = WeightedSquaredEuclidean::new(vec![2.0, 0.5, 0.0, 3.0]).unwrap();
        let metrics: Vec<&dyn DecomposableMetric> =
            vec![&HistogramIntersection, &SquaredEuclidean, &wh, &we];
        let mut seed = 0xDEAD_BEEF_CAFE_1234u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for m in metrics {
            let op = m.kernel_op().expect("all four concrete metrics vectorize");
            for _ in 0..200 {
                let d = (next() * 4.0) as usize % 4;
                let v = next() * 2.0 - 0.5;
                let q = next() * 2.0 - 0.5;
                assert_eq!(
                    op.apply(d, v, q).to_bits(),
                    m.contribution(d, v, q).to_bits(),
                    "{}: kernel op diverges at dim {d}, v={v}, q={q}",
                    m.name()
                );
            }
        }
        // opaque metrics keep the None default
        struct Opaque;
        impl DecomposableMetric for Opaque {
            fn objective(&self) -> Objective {
                Objective::Maximize
            }
            fn contribution(&self, _d: usize, v: f64, q: f64) -> f64 {
                v * q
            }
            fn name(&self) -> &'static str {
                "opaque"
            }
        }
        assert!(Opaque.kernel_op().is_none());
    }

    #[test]
    fn weighted_skew_changes_ranking() {
        // Under uniform weights v1 is closer; with weight on dim 0, v2 wins.
        let q = [0.0, 0.0];
        let v1 = [0.3, 0.1];
        let v2 = [0.1, 0.4];
        let uniform = WeightedSquaredEuclidean::new(vec![1.0, 1.0]).unwrap();
        assert!(uniform.score(&v1, &q) < uniform.score(&v2, &q));
        let skewed = WeightedSquaredEuclidean::new(vec![10.0, 0.1]).unwrap();
        assert!(skewed.score(&v2, &q) < skewed.score(&v1, &q));
    }
}

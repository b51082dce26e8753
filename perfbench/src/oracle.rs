//! Brute-force answers and the checks that compare served answers to them.
//!
//! The oracle scores every row of the generated table — no pruning, no
//! codes, no partitions — summing each row's per-dimension contributions
//! in the order the engine's `Uniform` plan uses, so `Uniform` exact
//! answers can be required to match bit for bit. Plans that reorder
//! dimensions (`Feedback`) may drift by an ULP and are held to rank
//! exactness instead.

use std::cmp::Ordering;

use bond::Scored;
use bond_exec::RuleKind;
use vdstore::{Bitmap, DecomposedTable};

/// The two scoring functions the workloads serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreFn {
    /// Histogram intersection `Σ min(x, q)`; larger is better.
    Intersection,
    /// Squared Euclidean distance `Σ (x − q)²`; smaller is better.
    SquaredEuclidean,
}

impl ScoreFn {
    /// The scoring function of an unweighted rule.
    ///
    /// # Panics
    ///
    /// On a weighted rule, which no workload serves.
    pub fn of(rule: &RuleKind) -> ScoreFn {
        match rule {
            RuleKind::HistogramHq | RuleKind::HistogramHh => ScoreFn::Intersection,
            RuleKind::EuclideanEq | RuleKind::EuclideanEv => ScoreFn::SquaredEuclidean,
            other => panic!("no oracle for rule {}", other.name()),
        }
    }

    #[inline]
    fn contribution(self, x: f64, q: f64) -> f64 {
        match self {
            ScoreFn::Intersection => x.min(q),
            ScoreFn::SquaredEuclidean => {
                let d = x - q;
                d * d
            }
        }
    }

    /// Total order on `(score, row)`: better score first, then lower row.
    pub fn cmp(self, a: &Scored, b: &Scored) -> Ordering {
        let by_score = match self {
            ScoreFn::Intersection => b.score.total_cmp(&a.score),
            ScoreFn::SquaredEuclidean => a.score.total_cmp(&b.score),
        };
        by_score.then(a.row.cmp(&b.row))
    }
}

/// Every row's score for `query`, summing dimensions in `order`.
pub fn scores(table: &DecomposedTable, f: ScoreFn, query: &[f64], order: &[usize]) -> Vec<f64> {
    let mut acc = vec![0.0f64; table.rows()];
    for &d in order {
        let column = table.column(d).expect("order holds the table's dimensions").values();
        let q = query[d];
        for (a, &x) in acc.iter_mut().zip(column) {
            *a += f.contribution(x, q);
        }
    }
    acc
}

/// One row's score, summed in `order`.
pub fn row_score(
    table: &DecomposedTable,
    f: ScoreFn,
    row: u32,
    query: &[f64],
    order: &[usize],
) -> f64 {
    order.iter().fold(0.0, |acc, &d| {
        let x = table.column(d).expect("order holds the table's dimensions").values()[row as usize];
        acc + f.contribution(x, query[d])
    })
}

/// The exact top `k` rows of `scores` among the rows `filter` admits, best
/// first under [`ScoreFn::cmp`].
pub fn topk(f: ScoreFn, scores: &[f64], k: usize, filter: Option<&Bitmap>) -> Vec<Scored> {
    let mut all: Vec<Scored> = scores
        .iter()
        .enumerate()
        .filter(|(r, _)| filter.is_none_or(|b| b.get(*r as u32)))
        .map(|(r, &score)| Scored { row: r as u32, score })
        .collect();
    let k = k.min(all.len());
    if k == 0 {
        return Vec::new();
    }
    all.select_nth_unstable_by(k - 1, |a, b| f.cmp(a, b));
    all.truncate(k);
    all.shrink_to_fit();
    all.sort_by(|a, b| f.cmp(a, b));
    all
}

/// `Uniform` exact answers: the same rows with bit-identical scores in the
/// same order.
///
/// # Errors
///
/// The first position that differs.
pub fn check_identical(hits: &[Scored], expected: &[Scored]) -> Result<(), String> {
    if hits.len() != expected.len() {
        return Err(format!("{} hits, expected {}", hits.len(), expected.len()));
    }
    for (i, (h, e)) in hits.iter().zip(expected).enumerate() {
        if h.row != e.row || h.score.to_bits() != e.score.to_bits() {
            return Err(format!(
                "rank {i}: got row {} score {:e}, expected row {} score {:e}",
                h.row, h.score, e.row, e.score
            ));
        }
    }
    Ok(())
}

/// Whether two scores agree up to summation-order drift.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Stats-driven exact answers: each rank holds the expected row, or a row
/// whose true score (`rescore`) ties the expected one up to summation
/// drift, and each reported score is the row's score up to that drift.
///
/// # Errors
///
/// The first rank that breaks the rule.
pub fn check_rank_exact(
    hits: &[Scored],
    expected: &[Scored],
    rescore: impl Fn(u32) -> f64,
) -> Result<(), String> {
    if hits.len() != expected.len() {
        return Err(format!("{} hits, expected {}", hits.len(), expected.len()));
    }
    let mut seen = std::collections::HashSet::new();
    for (i, (h, e)) in hits.iter().zip(expected).enumerate() {
        if !seen.insert(h.row) {
            return Err(format!("rank {i}: row {} repeated", h.row));
        }
        let truth = if h.row == e.row { e.score } else { rescore(h.row) };
        if !close(h.score, truth) || !close(truth, e.score) {
            return Err(format!(
                "rank {i}: got row {} score {:e} (true {:e}), expected row {} score {:e}",
                h.row, h.score, truth, e.row, e.score
            ));
        }
    }
    Ok(())
}

/// recall@k: the share of the exact answer's rows the hits contain.
pub fn recall(hits: &[Scored], exact: &[Scored]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let found = exact.iter().filter(|e| hits.iter().any(|h| h.row == e.row)).count();
    found as f64 / exact.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> DecomposedTable {
        let vectors: Vec<Vec<f64>> = (0..50)
            .map(|r| vec![(r % 7) as f64 / 7.0, (r % 5) as f64 / 5.0, (r * 3 % 11) as f64 / 11.0])
            .collect();
        DecomposedTable::from_vectors("oracle", &vectors).unwrap()
    }

    #[test]
    fn topk_orders_by_score_then_row() {
        let f = ScoreFn::SquaredEuclidean;
        let s = [3.0, 1.0, 1.0, 0.5, 9.0];
        let top = topk(f, &s, 3, None);
        let rows: Vec<u32> = top.iter().map(|h| h.row).collect();
        assert_eq!(rows, vec![3, 1, 2]);
        let best = topk(ScoreFn::Intersection, &s, 2, None);
        assert_eq!(best.iter().map(|h| h.row).collect::<Vec<_>>(), vec![4, 0]);
        let filter = Bitmap::from_rows(5, &[0, 2, 4]);
        let filtered = topk(f, &s, 2, Some(&filter));
        assert_eq!(filtered.iter().map(|h| h.row).collect::<Vec<_>>(), vec![2, 0]);
    }

    #[test]
    fn oracle_rejects_a_corrupted_answer() {
        let t = table();
        let f = ScoreFn::SquaredEuclidean;
        let q = t.row(4).unwrap();
        let order = [2, 0, 1];
        let s = scores(&t, f, &q, &order);
        let exact = topk(f, &s, 5, None);
        assert_eq!(check_identical(&exact, &exact), Ok(()));
        let rescore = |r: u32| row_score(&t, f, r, &q, &order);
        assert_eq!(check_rank_exact(&exact, &exact, rescore), Ok(()));

        // a wrong row at the last rank
        let mut wrong_row = exact.clone();
        let outsider = topk(f, &s, 50, None).last().unwrap().row;
        wrong_row[4] = Scored { row: outsider, score: rescore(outsider) };
        assert!(check_identical(&wrong_row, &exact).is_err());
        assert!(check_rank_exact(&wrong_row, &exact, rescore).is_err());

        // the right row with a perturbed score
        let mut wrong_score = exact.clone();
        wrong_score[0].score += 1e-3;
        assert!(check_identical(&wrong_score, &exact).is_err());
        assert!(check_rank_exact(&wrong_score, &exact, rescore).is_err());

        // one ULP passes rank exactness but not bit identity
        let mut ulp = exact.clone();
        ulp[1].score = f64::from_bits(ulp[1].score.to_bits() + 1);
        assert!(check_identical(&ulp, &exact).is_err());
        assert_eq!(check_rank_exact(&ulp, &exact, rescore), Ok(()));

        // a short answer
        assert!(check_rank_exact(&exact[..4], &exact, rescore).is_err());
    }

    #[test]
    fn row_score_matches_the_column_scan() {
        let t = table();
        let q = t.row(9).unwrap();
        let order = [1, 2, 0];
        for f in [ScoreFn::Intersection, ScoreFn::SquaredEuclidean] {
            let s = scores(&t, f, &q, &order);
            for r in [0u32, 9, 31] {
                assert_eq!(s[r as usize].to_bits(), row_score(&t, f, r, &q, &order).to_bits());
            }
        }
    }

    #[test]
    fn recall_counts_shared_rows() {
        let exact = [Scored { row: 1, score: 0.0 }, Scored { row: 2, score: 0.0 }];
        let hits = [Scored { row: 2, score: 0.1 }, Scored { row: 5, score: 0.2 }];
        assert_eq!(recall(&hits, &exact), 0.5);
    }
}

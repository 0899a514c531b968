//! §6.4 Dimensionality reduction: automatic explanation-attribute
//! selection.
//!
//! The paper applies filter-based feature selection "by computing
//! correlation or mutual information scores" but defers the automatic
//! variant to future work, relying on users to drop attributes manually.
//! This module implements the automatic filter: attributes are ranked by
//! how strongly they associate with the *per-tuple influence* signal over
//! the outlier input groups —
//!
//! * continuous attributes: absolute Pearson correlation between the
//!   attribute and the tuple influences;
//! * discrete attributes: the ANOVA-style between-group variance ratio
//!   (η², "correlation ratio") of influences grouped by code.
//!
//! Both scores live in `[0, 1]`; an attribute that carries no information
//! about which tuples are influential scores near 0 and can be dropped
//! before the (exponential-in-attributes) predicate search begins.

use crate::error::Result;
use crate::scorer::Scorer;
use scorpion_table::Column;
use std::collections::HashMap;

/// An attribute with its influence-association score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttrScore {
    /// Attribute index.
    pub attr: usize,
    /// Association with the influence signal, in `[0, 1]`.
    pub score: f64,
}

/// Scores each candidate attribute's association with per-tuple influence
/// over the outlier groups, descending.
pub fn rank_attributes(scorer: &Scorer<'_>, attrs: &[usize]) -> Result<Vec<AttrScore>> {
    // Pool (row, influence) pairs across outlier groups.
    let mut rows: Vec<u32> = Vec::new();
    let mut infs: Vec<f64> = Vec::new();
    for g in 0..scorer.n_outliers() {
        rows.extend_from_slice(scorer.outlier_rows(g));
        infs.extend(scorer.outlier_tuple_influences(g));
    }
    let mut out = Vec::with_capacity(attrs.len());
    for &attr in attrs {
        let score = match scorer.table().column(attr)? {
            Column::Num(vals) => {
                let xs: Vec<f64> = rows.iter().map(|&r| vals[r as usize]).collect();
                pearson(&xs, &infs).abs()
            }
            Column::Cat(cat) => {
                let codes: Vec<u32> = rows.iter().map(|&r| cat.codes()[r as usize]).collect();
                correlation_ratio(&codes, &infs)
            }
        };
        out.push(AttrScore { attr, score: if score.is_finite() { score } else { 0.0 } });
    }
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.attr.cmp(&b.attr)));
    Ok(out)
}

/// Keeps the `k` most influence-associated attributes.
pub fn select_attributes(scorer: &Scorer<'_>, attrs: &[usize], k: usize) -> Result<Vec<usize>> {
    let ranked = rank_attributes(scorer, attrs)?;
    Ok(ranked.into_iter().take(k.max(1)).map(|a| a.attr).collect())
}

/// Pearson correlation coefficient; 0 for degenerate inputs.
fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if xs.len() < 2 || xs.len() != ys.len() {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (x, y) in xs.iter().zip(ys) {
        let (dx, dy) = (x - mx, y - my);
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

/// η²: the fraction of influence variance explained by the grouping into
/// codes (between-group sum of squares over total sum of squares).
fn correlation_ratio(codes: &[u32], ys: &[f64]) -> f64 {
    if codes.len() < 2 || codes.len() != ys.len() {
        return 0.0;
    }
    let n = ys.len() as f64;
    let mean = ys.iter().sum::<f64>() / n;
    let total_ss: f64 = ys.iter().map(|y| (y - mean) * (y - mean)).sum();
    if total_ss <= 0.0 {
        return 0.0;
    }
    let mut groups: HashMap<u32, (f64, f64)> = HashMap::new(); // code -> (sum, n)
    for (c, y) in codes.iter().zip(ys) {
        let e = groups.entry(*c).or_insert((0.0, 0.0));
        e.0 += y;
        e.1 += 1.0;
    }
    let between_ss: f64 = groups
        .values()
        .map(|(sum, cnt)| {
            let gm = sum / cnt;
            cnt * (gm - mean) * (gm - mean)
        })
        .sum();
    (between_ss / total_ss).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InfluenceParams;
    use crate::scorer::GroupSpec;
    use scorpion_agg::Sum;
    use scorpion_table::{group_by, Field, Schema, Table, TableBuilder, Value};

    /// `x` drives the outlier values; `noise` (continuous) and `tag`
    /// (discrete) are uninformative.
    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::disc("g"),
            Field::cont("x"),
            Field::cont("noise"),
            Field::disc("tag"),
            Field::disc("culprit"),
            Field::cont("v"),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..400 {
            let x = (i as f64 * 7.7) % 100.0;
            let noise = (i as f64 * 13.1) % 50.0;
            let tag = ["a", "b"][i % 2];
            let hot = (30.0..60.0).contains(&x);
            let culprit = if hot { "bad" } else { "good" };
            let v = if hot { 90.0 } else { 5.0 };
            b.push_row(vec![
                Value::from("o"),
                Value::from(x),
                Value::from(noise),
                Value::from(tag),
                Value::from(culprit),
                Value::from(v),
            ])
            .unwrap();
        }
        b.build()
    }

    fn scorer(t: &Table) -> Scorer<'_> {
        let g = group_by(t, &[0]).unwrap();
        Scorer::new(
            t,
            &Sum,
            5,
            vec![GroupSpec { rows: g.rows(0).to_vec(), error: 1.0 }],
            vec![],
            InfluenceParams::default(),
        )
        .unwrap()
    }

    #[test]
    fn culprit_and_x_outrank_noise_and_tag() {
        let t = table();
        let s = scorer(&t);
        let ranked = rank_attributes(&s, &[1, 2, 3, 4]).unwrap();
        let score_of = |attr: usize| ranked.iter().find(|a| a.attr == attr).unwrap().score;
        // The discrete culprit flag perfectly explains influence.
        assert!(score_of(4) > 0.95, "culprit score {}", score_of(4));
        // Uninformative attributes score near zero.
        assert!(score_of(2) < 0.2, "noise score {}", score_of(2));
        assert!(score_of(3) < 0.2, "tag score {}", score_of(3));
        // And the ranking reflects it.
        assert_eq!(ranked[0].attr, 4);
    }

    #[test]
    fn select_keeps_top_k() {
        let t = table();
        let s = scorer(&t);
        let kept = select_attributes(&s, &[1, 2, 3, 4], 2).unwrap();
        assert_eq!(kept.len(), 2);
        assert!(kept.contains(&4));
        assert!(!kept.contains(&2) || !kept.contains(&3));
    }

    #[test]
    fn pearson_basics() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0); // zero variance
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0); // degenerate
    }

    #[test]
    fn correlation_ratio_basics() {
        // Codes perfectly separate ys.
        let eta = correlation_ratio(&[0, 0, 1, 1], &[1.0, 1.0, 5.0, 5.0]);
        assert!((eta - 1.0).abs() < 1e-12);
        // Codes carry no information.
        let eta = correlation_ratio(&[0, 1, 0, 1], &[1.0, 1.0, 5.0, 5.0]);
        assert!(eta < 1e-12);
        // Constant ys.
        assert_eq!(correlation_ratio(&[0, 1], &[3.0, 3.0]), 0.0);
    }
}

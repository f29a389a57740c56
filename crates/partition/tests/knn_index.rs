//! The indexed k-NN case memory against the linear scan it replaced:
//! random interleaved `record`/`predict` streams over all five model
//! families must give bit-identical predictions and nearest distances.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_partition::features::QueryFeatures;
use pg_partition::knn::KnnRegressor;
use pg_partition::model::{CostVector, SolutionModel};
use pg_query::classify::QueryKind;
use proptest::prelude::*;

/// The oracle: filter the family, collect, stable sort by distance,
/// truncate to k, then weight by inverse distance in that order.
#[derive(Default)]
struct Scan {
    cases: Vec<(QueryFeatures, SolutionModel, CostVector)>,
}

impl Scan {
    fn predict_detailed(
        &self,
        k: usize,
        features: &QueryFeatures,
        model: &SolutionModel,
    ) -> Option<(CostVector, f64)> {
        let mut near: Vec<(f64, &CostVector)> = self
            .cases
            .iter()
            .filter(|c| c.1.family() == model.family())
            .map(|c| (features.distance(&c.0), &c.2))
            .collect();
        if near.is_empty() {
            return None;
        }
        near.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        near.truncate(k.max(1));
        let nearest = near[0].0;
        let mut acc = CostVector::default();
        let mut wsum = 0.0;
        for (d, actual) in &near {
            let w = 1.0 / (d + 1e-6);
            acc = acc.add(&actual.scale(w));
            wsum += w;
        }
        Some((acc.scale(1.0 / wsum), nearest))
    }
}

fn bits(p: Option<(CostVector, f64)>) -> Option<[u64; 5]> {
    p.map(|(c, d)| [c.energy_j, c.time_s, c.bytes, c.ops, d].map(f64::to_bits))
}

/// Features from a deliberately small pool, so exact duplicates are
/// common. `mean_hops` of 1.0 and 3.0 sit at exactly equal distance from
/// a query at 2.0 (the vector scales hops by 1/4, exactly representable).
fn features() -> impl Strategy<Value = QueryFeatures> {
    (
        prop_oneof![
            Just(QueryKind::Simple),
            Just(QueryKind::Aggregate),
            Just(QueryKind::Complex)
        ],
        any::<bool>(),
        prop_oneof![Just(1usize), Just(10), Just(11)],
        prop_oneof![Just(1.0f64), Just(2.0), Just(3.0)],
        prop_oneof![Just(100usize), Just(400)],
        prop_oneof![Just(0.0f64), Just(10.0)],
    )
        .prop_map(
            |(kind, continuous, members, mean_hops, network_size, epoch_s)| QueryFeatures {
                kind,
                continuous,
                members,
                mean_hops,
                network_size,
                epoch_s,
            },
        )
}

#[derive(Debug, Clone)]
enum Op {
    Record(QueryFeatures, usize, f64),
    Predict(QueryFeatures, usize),
}

/// Three records to one prediction.
fn op() -> impl Strategy<Value = Op> {
    (0usize..4, features(), 0usize..5, 0.001f64..10.0).prop_map(|(r, f, m, e)| {
        if r == 0 {
            Op::Predict(f, m)
        } else {
            Op::Record(f, m, e)
        }
    })
}

fn model(i: usize, f: &QueryFeatures) -> SolutionModel {
    SolutionModel::candidates(f.members)[i]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn index_matches_the_linear_scan_bit_for_bit(
        k in 0usize..=8,
        ops in prop::collection::vec(op(), 1..200),
    ) {
        let mut knn = KnnRegressor::new();
        knn.k = k;
        let mut scan = Scan::default();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Record(f, m, e) => {
                    let actual = CostVector {
                        energy_j: e,
                        time_s: e * 3.0 + i as f64,
                        bytes: 1000.0 / e,
                        ops: i as f64,
                    };
                    knn.record(f, model(m, &f), actual);
                    scan.cases.push((f, model(m, &f), actual));
                }
                Op::Predict(f, m) => {
                    let model = model(m, &f);
                    prop_assert_eq!(
                        bits(knn.predict_detailed(&f, &model)),
                        bits(scan.predict_detailed(k, &f, &model)),
                        "op {} ({} cases)", i, scan.cases.len()
                    );
                    prop_assert_eq!(
                        knn.family_count(&model),
                        scan.cases.iter().filter(|c| c.1.family() == model.family()).count()
                    );
                }
            }
        }
        prop_assert_eq!(knn.len(), scan.cases.len());
    }
}

/// Distinct vectors at exactly equal distance interleave oldest first,
/// across groups as well as within one.
#[test]
fn equal_distance_ties_break_oldest_first_across_groups() {
    let at = |mean_hops: f64| QueryFeatures {
        kind: QueryKind::Aggregate,
        continuous: false,
        members: 10,
        mean_hops,
        network_size: 100,
        epoch_s: 0.0,
    };
    let cost = |e: f64| CostVector {
        energy_j: e,
        time_s: e,
        bytes: e,
        ops: e,
    };
    let query = at(2.0);
    for k in 1..=6 {
        let mut knn = KnnRegressor::new();
        knn.k = k;
        let mut scan = Scan::default();
        for (i, hops) in [3.0, 1.0, 3.0, 1.0, 1.0, 3.0, 3.0].into_iter().enumerate() {
            let c = (at(hops), SolutionModel::BaseStation, cost(i as f64 + 1.0));
            knn.record(c.0, c.1, c.2);
            scan.cases.push(c);
        }
        assert_eq!(
            bits(knn.predict_detailed(&query, &SolutionModel::BaseStation)),
            bits(scan.predict_detailed(k, &query, &SolutionModel::BaseStation)),
            "k = {k}"
        );
    }
}

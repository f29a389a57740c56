//! A k-nearest-neighbour cost regressor over execution history.
//!
//! §4 commits to "standard machine learning techniques … on the data to
//! select the right approach for a given query", with the estimate-vs-
//! actual feedback loop making the system adaptive. Case-based regression
//! (the Pythia approach [14]) fits exactly: each executed query deposits a
//! `(features, model, actual cost)` case; predicting the cost of a model
//! for a new query averages the k nearest cases of the same model family,
//! weighted by inverse distance.
//!
//! The memory is an exact index, not a scan. Each model family groups its
//! cases by the bit pattern of their [`QueryFeatures::vector`]; a group
//! keeps `(seq, actual)` pairs in insertion order, so every case of a
//! group sits at the same distance from any query. A prediction computes
//! one distance per group and keeps the k smallest `(distance, seq)`
//! pairs, each group offering at most its k oldest cases. Ties in distance
//! therefore break oldest first — the order a stable sort of every
//! same-family case by distance gives, and the reason distance-0
//! neighbours never age (see [`crate::learn`]). One prediction costs
//! O(distinct vectors in the family × k), however long the history.

use crate::features::{vector_distance, QueryFeatures, FEATURE_DIM};
use crate::model::{CostVector, SolutionModel, FAMILIES};
use std::collections::HashMap;

/// The cases of one family that share one feature vector.
#[derive(Debug, Clone)]
struct Group {
    vector: [f64; FEATURE_DIM],
    /// `(seq, actual)` in insertion order, so `seq` ascends.
    cases: Vec<(usize, CostVector)>,
}

/// The cases of one model family.
#[derive(Debug, Clone, Default)]
struct Family {
    groups: Vec<Group>,
    /// Group position by the exact bit pattern of its vector.
    index: HashMap<[u64; FEATURE_DIM], usize>,
    len: usize,
}

/// The case memory.
#[derive(Debug, Clone, Default)]
pub struct KnnRegressor {
    families: [Family; FAMILIES],
    len: usize,
    /// Neighbourhood size.
    pub k: usize,
}

impl KnnRegressor {
    /// Empty memory with `k = 5`.
    pub fn new() -> Self {
        KnnRegressor {
            k: 5,
            ..KnnRegressor::default()
        }
    }

    /// Number of stored cases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the memory empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cases stored for one model family.
    pub fn family_count(&self, model: &SolutionModel) -> usize {
        self.families[model.family()].len
    }

    /// Deposit a case.
    pub fn record(&mut self, features: QueryFeatures, model: SolutionModel, actual: CostVector) {
        let vector = features.vector();
        let fam = &mut self.families[model.family()];
        let at = *fam
            .index
            .entry(vector.map(f64::to_bits))
            .or_insert_with(|| {
                fam.groups.push(Group {
                    vector,
                    cases: Vec::new(),
                });
                fam.groups.len() - 1
            });
        fam.groups[at].cases.push((self.len, actual));
        fam.len += 1;
        self.len += 1;
    }

    /// Predict the cost of running `model` on a query with `features`:
    /// inverse-distance-weighted mean of the k nearest same-family cases.
    /// `None` when no history exists for the family.
    pub fn predict(&self, features: &QueryFeatures, model: &SolutionModel) -> Option<CostVector> {
        self.predict_detailed(features, model).map(|(c, _)| c)
    }

    /// [`KnnRegressor::predict`], additionally returning the distance of
    /// the nearest case — the caller's confidence signal (a prediction
    /// extrapolated from a far-away case should defer to the analytic
    /// estimator).
    pub fn predict_detailed(
        &self,
        features: &QueryFeatures,
        model: &SolutionModel,
    ) -> Option<(CostVector, f64)> {
        let fam = &self.families[model.family()];
        if fam.len == 0 {
            return None;
        }
        let k = self.k.max(1);
        let query = features.vector();
        // The k smallest `(distance, seq)` pairs, ascending.
        let mut near: Vec<(f64, usize, &CostVector)> = Vec::with_capacity(k.min(fam.len));
        for g in &fam.groups {
            let d = vector_distance(&query, &g.vector);
            let before = |&(nd, ns, _): &(f64, usize, &CostVector), seq: usize| {
                nd < d || (nd == d && ns < seq)
            };
            for (seq, actual) in g.cases.iter().take(k) {
                if near.len() == k {
                    // A later case of this group has a larger seq, so once
                    // one misses the top k, all the rest miss it too.
                    if near.last().is_some_and(|last| before(last, *seq)) {
                        break;
                    }
                    near.pop();
                }
                let at = near.partition_point(|e| before(e, *seq));
                near.insert(at, (d, *seq, actual));
            }
        }
        let nearest = near[0].0;
        let mut acc = CostVector::default();
        let mut wsum = 0.0;
        for (d, _, actual) in &near {
            let w = 1.0 / (d + 1e-6);
            acc = acc.add(&actual.scale(w));
            wsum += w;
        }
        Some((acc.scale(1.0 / wsum), nearest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_query::classify::QueryKind;

    fn feats(members: usize, kind: QueryKind) -> QueryFeatures {
        QueryFeatures {
            kind,
            continuous: false,
            members,
            mean_hops: 2.0,
            network_size: 100,
            epoch_s: 0.0,
        }
    }

    fn cost(e: f64) -> CostVector {
        CostVector {
            energy_j: e,
            time_s: e * 10.0,
            bytes: e * 1000.0,
            ops: e * 1e6,
        }
    }

    #[test]
    fn empty_memory_predicts_nothing() {
        let knn = KnnRegressor::new();
        assert_eq!(
            knn.predict(
                &feats(10, QueryKind::Aggregate),
                &SolutionModel::BaseStation
            ),
            None
        );
    }

    #[test]
    fn exact_replay_returns_recorded_cost() {
        let mut knn = KnnRegressor::new();
        let f = feats(10, QueryKind::Aggregate);
        knn.record(f, SolutionModel::BaseStation, cost(1.0));
        let p = knn.predict(&f, &SolutionModel::BaseStation).unwrap();
        assert!((p.energy_j - 1.0).abs() < 1e-6);
    }

    #[test]
    fn families_do_not_cross_contaminate() {
        let mut knn = KnnRegressor::new();
        let f = feats(10, QueryKind::Aggregate);
        knn.record(f, SolutionModel::BaseStation, cost(1.0));
        assert_eq!(knn.predict(&f, &SolutionModel::InNetworkTree), None);
        assert_eq!(knn.family_count(&SolutionModel::BaseStation), 1);
        assert_eq!(knn.family_count(&SolutionModel::InNetworkTree), 0);
    }

    #[test]
    fn nearer_cases_dominate_the_prediction() {
        let mut knn = KnnRegressor::new();
        knn.k = 2;
        // Near case (same member count) cheap; far case expensive.
        knn.record(
            feats(10, QueryKind::Aggregate),
            SolutionModel::BaseStation,
            cost(1.0),
        );
        knn.record(
            feats(10_000, QueryKind::Aggregate),
            SolutionModel::BaseStation,
            cost(100.0),
        );
        let p = knn
            .predict(
                &feats(11, QueryKind::Aggregate),
                &SolutionModel::BaseStation,
            )
            .unwrap();
        assert!(p.energy_j < 10.0, "near case must dominate: {}", p.energy_j);
    }

    #[test]
    fn k_limits_the_neighbourhood() {
        let mut knn = KnnRegressor::new();
        knn.k = 1;
        let f = feats(10, QueryKind::Aggregate);
        knn.record(f, SolutionModel::BaseStation, cost(1.0));
        knn.record(
            feats(500, QueryKind::Aggregate),
            SolutionModel::BaseStation,
            cost(50.0),
        );
        let p = knn.predict(&f, &SolutionModel::BaseStation).unwrap();
        assert!((p.energy_j - 1.0).abs() < 1e-3, "k=1 uses only the nearest");
    }

    /// The linear scan the index replaced: every same-family case, stable
    /// sorted by distance, truncated to k.
    fn scan(
        cases: &[(QueryFeatures, SolutionModel, CostVector)],
        k: usize,
        features: &QueryFeatures,
        model: &SolutionModel,
    ) -> Option<(CostVector, f64)> {
        let mut near: Vec<(f64, &CostVector)> = cases
            .iter()
            .filter(|c| c.1.family() == model.family())
            .map(|c| (features.distance(&c.0), &c.2))
            .collect();
        if near.is_empty() {
            return None;
        }
        near.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        near.truncate(k.max(1));
        let mut acc = CostVector::default();
        let mut wsum = 0.0;
        for (d, actual) in &near {
            let w = 1.0 / (d + 1e-6);
            acc = acc.add(&actual.scale(w));
            wsum += w;
        }
        Some((acc.scale(1.0 / wsum), near[0].0))
    }

    fn bits(p: Option<(CostVector, f64)>) -> Option<[u64; 5]> {
        p.map(|(c, d)| [c.energy_j, c.time_s, c.bytes, c.ops, d].map(f64::to_bits))
    }

    #[test]
    fn long_history_keeps_one_group_per_distinct_vector() {
        let vectors = [
            feats(10, QueryKind::Aggregate),
            feats(40, QueryKind::Aggregate),
            feats(1, QueryKind::Simple),
            feats(99, QueryKind::Complex),
            QueryFeatures {
                continuous: true,
                epoch_s: 10.0,
                ..feats(10, QueryKind::Aggregate)
            },
            QueryFeatures {
                mean_hops: 3.0,
                ..feats(10, QueryKind::Aggregate)
            },
        ];
        let models = SolutionModel::candidates(10);
        let probes = [
            vectors[0],
            vectors[3],
            feats(20, QueryKind::Aggregate),
            QueryFeatures {
                mean_hops: 2.5,
                ..feats(10, QueryKind::Aggregate)
            },
        ];
        let mut knn = KnnRegressor::new();
        let mut cases = Vec::new();
        for i in 0..100_000usize {
            let c = (
                vectors[(i / 5 + i / 7) % 6],
                models[i % 5],
                cost(i as f64 + 1.0),
            );
            knn.record(c.0, c.1, c.2);
            cases.push(c);
            if [0, 999, 99_999].contains(&i) {
                for model in &models {
                    for probe in &probes {
                        assert_eq!(
                            bits(knn.predict_detailed(probe, model)),
                            bits(scan(&cases, knn.k, probe, model)),
                            "{} after {} cases",
                            model.name(),
                            i + 1
                        );
                    }
                }
            }
        }
        assert_eq!(knn.len(), 100_000);
        for (f, family) in knn.families.iter().enumerate() {
            assert_eq!(family.groups.len(), vectors.len(), "family {f}");
            assert_eq!(family.len, 20_000);
        }
    }
}

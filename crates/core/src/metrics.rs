//! Link-quality metrics and per-episode reports (paper §7.1 "Evaluation
//! Metrics").
//!
//! Quality of a candidate set `C` against ground truth `G`:
//! `P = |C ∩ G| / |C|`, `R = |C ∩ G| / |G|`, `F = 2PR / (P + R)`.

use std::collections::HashSet;
use std::hash::BuildHasher;

use alex_rdf::Link;
use serde::{Deserialize, Serialize};

/// Precision / recall / F-measure of a candidate link set.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct Quality {
    /// `|C ∩ G| / |C|`; defined as 1.0 for an empty candidate set (no
    /// wrong links shown to the user).
    pub precision: f64,
    /// `|C ∩ G| / |G|`; defined as 1.0 for an empty ground truth.
    pub recall: f64,
    /// Harmonic mean of precision and recall; 0.0 when both are 0.
    pub f1: f64,
}

impl Quality {
    /// Computes quality of `candidates` against `ground_truth`; the two
    /// sets may use different hashers.
    pub fn compute<S: BuildHasher, T: BuildHasher>(
        candidates: &HashSet<Link, S>,
        ground_truth: &HashSet<Link, T>,
    ) -> Self {
        let correct = candidates.iter().filter(|l| ground_truth.contains(l));
        Self::from_counts(correct.count(), candidates.len(), ground_truth.len())
    }

    /// Quality from the counts alone: `correct` of `candidates` links are
    /// in a ground truth of `truth` links.
    pub fn from_counts(correct: usize, candidates: usize, truth: usize) -> Self {
        let correct = correct as f64;
        let precision = if candidates == 0 {
            1.0
        } else {
            correct / candidates as f64
        };
        let recall = if truth == 0 {
            1.0
        } else {
            correct / truth as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Self {
            precision,
            recall,
            f1,
        }
    }
}

/// What happened during one feedback episode (one policy-evaluation /
/// policy-improvement iteration).
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct EpisodeReport {
    /// Episode number; 0 is the pre-feedback baseline.
    pub episode: usize,
    /// Link quality at the end of the episode.
    pub quality: Quality,
    /// Candidate links at the end of the episode.
    pub candidates: usize,
    /// Feedback items actually processed (≤ configured episode size when
    /// candidates run out).
    pub feedback_items: usize,
    /// Negative feedback items received.
    pub negative_feedback: usize,
    /// Links added by exploration during the episode.
    pub links_added: usize,
    /// Links removed (negative feedback + rollbacks) during the episode.
    pub links_removed: usize,
    /// Symmetric difference with the previous episode's candidate set.
    pub changed_links: usize,
    /// Wall-clock duration of the episode in milliseconds.
    pub duration_ms: f64,
}

impl EpisodeReport {
    /// Fraction of this episode's feedback that was negative (Fig 6b, 10c);
    /// 0 when no feedback was processed.
    pub fn negative_fraction(&self) -> f64 {
        if self.feedback_items == 0 {
            0.0
        } else {
            self.negative_feedback as f64 / self.feedback_items as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_rdf::{Interner, IriId};

    fn link(i: &Interner, n: usize) -> Link {
        Link::new(
            IriId(i.intern(&format!("l{n}"))),
            IriId(i.intern(&format!("r{n}"))),
        )
    }

    #[test]
    fn perfect_candidates() {
        let i = Interner::new();
        let gt: HashSet<Link> = (0..4).map(|n| link(&i, n)).collect();
        let q = Quality::compute(&gt.clone(), &gt);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.recall, 1.0);
        assert_eq!(q.f1, 1.0);
    }

    #[test]
    fn partial_overlap() {
        let i = Interner::new();
        let gt: HashSet<Link> = (0..4).map(|n| link(&i, n)).collect();
        // 2 correct + 2 wrong candidates.
        let cand: HashSet<Link> = (2..6).map(|n| link(&i, n)).collect();
        let q = Quality::compute(&cand, &gt);
        assert_eq!(q.precision, 0.5);
        assert_eq!(q.recall, 0.5);
        assert_eq!(q.f1, 0.5);
    }

    #[test]
    fn empty_edge_cases() {
        let i = Interner::new();
        let gt: HashSet<Link> = (0..4).map(|n| link(&i, n)).collect();
        let empty = HashSet::new();
        let q = Quality::compute(&empty, &gt);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.recall, 0.0);
        assert_eq!(q.f1, 0.0);
        let q = Quality::compute(&gt, &empty);
        assert_eq!(q.precision, 0.0);
        assert_eq!(q.recall, 1.0);
        let q = Quality::compute(&empty, &empty);
        assert_eq!(q.f1, 1.0);
    }

    #[test]
    fn negative_fraction() {
        let r = EpisodeReport {
            episode: 1,
            quality: Quality {
                precision: 1.0,
                recall: 1.0,
                f1: 1.0,
            },
            candidates: 10,
            feedback_items: 20,
            negative_feedback: 5,
            links_added: 0,
            links_removed: 0,
            changed_links: 0,
            duration_ms: 0.0,
        };
        assert!((r.negative_fraction() - 0.25).abs() < 1e-12);
        let r = EpisodeReport {
            feedback_items: 0,
            negative_feedback: 0,
            ..r
        };
        assert_eq!(r.negative_fraction(), 0.0);
    }

    #[test]
    fn report_serializes() {
        let r = EpisodeReport {
            episode: 2,
            quality: Quality {
                precision: 0.9,
                recall: 0.8,
                f1: 0.85,
            },
            candidates: 100,
            feedback_items: 50,
            negative_feedback: 10,
            links_added: 7,
            links_removed: 3,
            changed_links: 10,
            duration_ms: 12.5,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: EpisodeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}

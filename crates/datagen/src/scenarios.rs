//! The paper's dataset pairs (Table 1 and §7) as generation scenarios.
//!
//! Every experiment in the paper links one of the multi-domain datasets
//! (DBpedia, OpenCyc) with a domain dataset (NYTimes, Drugbank, Lexvo,
//! Semantic Web Dogfood, NBA extracts) or with the other multi-domain
//! dataset. Each scenario fixes the dataset profiles, the entity-kind
//! mixture, the (scaled-down) ground-truth size, and the starting quality
//! of the initial candidate links as read off the paper's figures.

use crate::generator::PairSpec;
use crate::profile::{DatasetProfile, EntityKind};

/// One dataset pair from the paper's evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PaperPair {
    /// Figure 2(a): good starting precision, bad recall.
    DbpediaNytimes,
    /// Figure 2(b): bad starting precision, very good recall.
    DbpediaDrugbank,
    /// Figure 2(c): both low.
    DbpediaLexvo,
    /// Figure 3(a).
    OpencycNytimes,
    /// Figure 3(b).
    OpencycDrugbank,
    /// Figure 3(c).
    OpencycLexvo,
    /// Figure 4(a): specific-domain, publications.
    DbpediaSwdf,
    /// Figure 4(b): specific-domain, publications.
    OpencycSwdf,
    /// Figure 4(c): specific-domain, NBA players.
    DbpediaNbaNytimes,
    /// Figure 4(d): specific-domain, NBA players.
    OpencycNbaNytimes,
    /// Figure 8 (Appendix B): the two multi-domain datasets.
    DbpediaOpencyc,
}

impl PaperPair {
    /// Every pair, in paper order.
    pub const ALL: [PaperPair; 11] = [
        PaperPair::DbpediaNytimes,
        PaperPair::DbpediaDrugbank,
        PaperPair::DbpediaLexvo,
        PaperPair::OpencycNytimes,
        PaperPair::OpencycDrugbank,
        PaperPair::OpencycLexvo,
        PaperPair::DbpediaSwdf,
        PaperPair::OpencycSwdf,
        PaperPair::DbpediaNbaNytimes,
        PaperPair::OpencycNbaNytimes,
        PaperPair::DbpediaOpencyc,
    ];

    /// Display label matching the paper's figure captions.
    pub fn label(self) -> &'static str {
        match self {
            PaperPair::DbpediaNytimes => "DBpedia - NYTimes",
            PaperPair::DbpediaDrugbank => "DBpedia - Drugbank",
            PaperPair::DbpediaLexvo => "DBpedia - Lexvo",
            PaperPair::OpencycNytimes => "OpenCyc - NYTimes",
            PaperPair::OpencycDrugbank => "OpenCyc - Drugbank",
            PaperPair::OpencycLexvo => "OpenCyc - Lexvo",
            PaperPair::DbpediaSwdf => "DBpedia - Semantic Web Dogfood",
            PaperPair::OpencycSwdf => "OpenCyc - Semantic Web Dogfood",
            PaperPair::DbpediaNbaNytimes => "DBpedia (NBA) - NYTimes",
            PaperPair::OpencycNbaNytimes => "OpenCyc (NBA) - NYTimes",
            PaperPair::DbpediaOpencyc => "DBpedia - OpenCyc",
        }
    }

    /// Starting (precision, recall) of the initial candidate set, read off
    /// the episode-0 points of the paper's figures.
    pub fn initial_quality(self) -> (f64, f64) {
        match self {
            PaperPair::DbpediaNytimes => (0.85, 0.20),
            PaperPair::DbpediaDrugbank => (0.28, 0.96),
            PaperPair::DbpediaLexvo => (0.35, 0.30),
            PaperPair::OpencycNytimes => (0.80, 0.25),
            PaperPair::OpencycDrugbank => (0.40, 0.90),
            PaperPair::OpencycLexvo => (0.45, 0.35),
            PaperPair::DbpediaSwdf => (0.90, 0.80),
            PaperPair::OpencycSwdf => (0.85, 0.50),
            PaperPair::DbpediaNbaNytimes => (0.90, 0.50),
            PaperPair::OpencycNbaNytimes => (0.85, 0.45),
            PaperPair::DbpediaOpencyc => (0.90, 0.30),
        }
    }

    /// Whether the paper evaluates this pair in the specific-domain setting
    /// (episode size 10) rather than batch mode (episode size 1000).
    pub fn is_specific_domain(self) -> bool {
        matches!(
            self,
            PaperPair::DbpediaSwdf
                | PaperPair::OpencycSwdf
                | PaperPair::DbpediaNbaNytimes
                | PaperPair::OpencycNbaNytimes
        )
    }

    fn base_overlap(self) -> usize {
        // Paper ground truths scaled to laptop size; the small
        // specific-domain pairs keep their real sizes.
        match self {
            PaperPair::DbpediaNytimes => 550,
            PaperPair::DbpediaDrugbank => 150,
            PaperPair::DbpediaLexvo => 220,
            PaperPair::OpencycNytimes => 150,
            PaperPair::OpencycDrugbank => 60,
            PaperPair::OpencycLexvo => 60,
            PaperPair::DbpediaSwdf => 60,
            PaperPair::OpencycSwdf => 35,
            PaperPair::DbpediaNbaNytimes => 93,
            PaperPair::OpencycNbaNytimes => 35,
            PaperPair::DbpediaOpencyc => 1_000,
        }
    }

    fn profiles(self) -> (DatasetProfile, DatasetProfile) {
        match self {
            PaperPair::DbpediaNytimes | PaperPair::DbpediaNbaNytimes => {
                (DatasetProfile::dbpedia(), DatasetProfile::nytimes())
            }
            PaperPair::DbpediaDrugbank => (DatasetProfile::dbpedia(), DatasetProfile::drugbank()),
            PaperPair::DbpediaLexvo => (DatasetProfile::dbpedia(), DatasetProfile::lexvo()),
            PaperPair::OpencycNytimes | PaperPair::OpencycNbaNytimes => {
                (DatasetProfile::opencyc(), DatasetProfile::nytimes())
            }
            PaperPair::OpencycDrugbank => (DatasetProfile::opencyc(), DatasetProfile::drugbank()),
            PaperPair::OpencycLexvo => (DatasetProfile::opencyc(), DatasetProfile::lexvo()),
            PaperPair::DbpediaSwdf => (DatasetProfile::dbpedia(), DatasetProfile::swdogfood()),
            PaperPair::OpencycSwdf => (DatasetProfile::opencyc(), DatasetProfile::swdogfood()),
            PaperPair::DbpediaOpencyc => (DatasetProfile::dbpedia(), DatasetProfile::opencyc()),
        }
    }

    fn kinds(self) -> Vec<(EntityKind, f64)> {
        match self {
            PaperPair::DbpediaNytimes | PaperPair::OpencycNytimes => vec![
                (EntityKind::Person, 0.5),
                (EntityKind::Organization, 0.25),
                (EntityKind::Place, 0.25),
            ],
            PaperPair::DbpediaDrugbank | PaperPair::OpencycDrugbank => vec![
                (EntityKind::Drug, 0.8),
                (EntityKind::Organization, 0.1),
                (EntityKind::Person, 0.1),
            ],
            PaperPair::DbpediaLexvo | PaperPair::OpencycLexvo => {
                vec![(EntityKind::Language, 0.8), (EntityKind::Place, 0.2)]
            }
            PaperPair::DbpediaSwdf | PaperPair::OpencycSwdf => vec![
                (EntityKind::Conference, 0.4),
                (EntityKind::Organization, 0.4),
                (EntityKind::Person, 0.2),
            ],
            PaperPair::DbpediaNbaNytimes | PaperPair::OpencycNbaNytimes => {
                vec![(EntityKind::Player, 1.0)]
            }
            PaperPair::DbpediaOpencyc => vec![
                (EntityKind::Person, 0.3),
                (EntityKind::Organization, 0.2),
                (EntityKind::Place, 0.2),
                (EntityKind::Drug, 0.1),
                (EntityKind::Language, 0.1),
                (EntityKind::Conference, 0.1),
            ],
        }
    }

    /// Builds the generation spec at `scale` (1.0 = the default laptop
    /// size; larger values stress-test).
    pub fn spec(self, scale: f64, seed: u64) -> PairSpec {
        assert!(scale > 0.0, "scale must be positive");
        let overlap = ((self.base_overlap() as f64 * scale).round() as usize).max(10);
        let (left, right) = self.profiles();
        // The left (multi-domain) dataset is much larger than the overlap;
        // the right dataset is dominated by it.
        let left_extra = (overlap * 2).max(30);
        let right_extra = overlap.max(15);
        PairSpec {
            name: self.label().to_owned(),
            left,
            right,
            overlap,
            left_extra,
            right_extra,
            kinds: self.kinds(),
            seed,
        }
    }

    /// Episode size the paper would use for this pair (§7.2), scaled to the
    /// synthetic ground-truth size: batch mode uses a fixed fraction of the
    /// ground truth per episode (the paper's 1000 of 10 968 ≈ 9%; we use
    /// 25% because the scaled-down candidate sets need proportionally more
    /// cleanup feedback per link to converge in a paper-like number of
    /// episodes), the specific-domain setting uses the paper's literal 10.
    pub fn suggested_episode_size(self, scale: f64) -> usize {
        if self.is_specific_domain() {
            10
        } else {
            let overlap = (self.base_overlap() as f64 * scale).round();
            ((overlap * 0.25).round() as usize).max(25)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;

    #[test]
    fn all_pairs_have_consistent_metadata() {
        for p in PaperPair::ALL {
            assert!(!p.label().is_empty());
            let (pr, rc) = p.initial_quality();
            assert!(pr > 0.0 && pr <= 1.0, "{p:?}");
            assert!(rc > 0.0 && rc <= 1.0, "{p:?}");
            let spec = p.spec(1.0, 1);
            assert!(spec.overlap >= 10);
            assert!(!spec.kinds.is_empty());
            assert!(p.suggested_episode_size(1.0) >= 10);
        }
    }

    #[test]
    fn specific_domain_flags_match_paper() {
        assert!(PaperPair::DbpediaSwdf.is_specific_domain());
        assert!(PaperPair::DbpediaNbaNytimes.is_specific_domain());
        assert!(!PaperPair::DbpediaNytimes.is_specific_domain());
        assert!(!PaperPair::DbpediaOpencyc.is_specific_domain());
    }

    #[test]
    fn scale_scales_overlap() {
        let s1 = PaperPair::DbpediaNytimes.spec(1.0, 1);
        let s2 = PaperPair::DbpediaNytimes.spec(2.0, 1);
        assert_eq!(s2.overlap, s1.overlap * 2);
        let tiny = PaperPair::OpencycNbaNytimes.spec(0.01, 1);
        assert_eq!(tiny.overlap, 10, "overlap is floored");
    }

    #[test]
    fn smallest_pair_generates() {
        let pair = generate(&PaperPair::OpencycNbaNytimes.spec(1.0, 7));
        assert_eq!(pair.truth.len(), 35);
        assert!(pair.left.subject_count() > pair.truth.len());
    }

    #[test]
    fn batch_episode_size_tracks_ratio() {
        // ~9% of the scaled ground truth, mirroring 1000/10968.
        let e = PaperPair::DbpediaNytimes.suggested_episode_size(1.0);
        assert!((130..=145).contains(&e), "episode size {e}");
        assert_eq!(PaperPair::DbpediaNbaNytimes.suggested_episode_size(1.0), 10);
    }
}

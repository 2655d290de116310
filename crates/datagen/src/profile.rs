//! Dataset profiles: how one synthetic knowledge base renders the shared
//! world of individuals through its own vocabulary, typing discipline, and
//! noise level.

use crate::noise::StringNoise;

/// The kind of real-world individual an entity describes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EntityKind {
    /// A person (journalist, politician, …).
    Person,
    /// An organization or company.
    Organization,
    /// A geographic location.
    Place,
    /// A pharmaceutical drug.
    Drug,
    /// A human language.
    Language,
    /// A scientific conference or workshop.
    Conference,
    /// An NBA basketball player.
    Player,
}

impl EntityKind {
    /// All kinds, for iteration in tests and mixtures.
    pub const ALL: [EntityKind; 7] = [
        EntityKind::Person,
        EntityKind::Organization,
        EntityKind::Place,
        EntityKind::Drug,
        EntityKind::Language,
        EntityKind::Conference,
        EntityKind::Player,
    ];

    /// A readable class-name fragment.
    pub fn class_name(self) -> &'static str {
        match self {
            EntityKind::Person => "Person",
            EntityKind::Organization => "Organization",
            EntityKind::Place => "Place",
            EntityKind::Drug => "Drug",
            EntityKind::Language => "Language",
            EntityKind::Conference => "Conference",
            EntityKind::Player => "BasketballPlayer",
        }
    }
}

/// Predicate IRIs a dataset uses for each logical attribute. Different
/// datasets use *different* predicates for the same attribute — that
/// heterogeneity is exactly what ALEX's feature keys range over.
#[derive(Clone, Debug)]
pub struct Vocabulary {
    /// Primary human-readable name.
    pub label: String,
    /// Secondary name, when the dataset materializes aliases.
    pub alt_label: Option<String>,
    /// Birth/founding year (integer-ish).
    pub year: String,
    /// Precise date, when the dataset stores one.
    pub date: Option<String>,
    /// A numeric magnitude (mass, population, …).
    pub quantity: Option<String>,
    /// A short identifying code (ISO code, formula, …).
    pub code: Option<String>,
    /// An affiliation string (team, employer, venue).
    pub affiliation: Option<String>,
    /// Class namespace for `rdf:type` objects.
    pub class_ns: String,
    /// The dataset's catch-all top class (`owl:Thing`, `skos:Concept`, …).
    /// Datasets use *different* top-class IRIs — as the real LOD datasets
    /// do — so the `(rdf:type, rdf:type)` feature only fires for pairs
    /// whose domain classes genuinely resemble each other, matching the
    /// paper's observation that θ-filtering removes ~95% of all pairs.
    pub top_class: String,
    /// How this dataset spells class names.
    pub class_style: ClassStyle,
}

/// Naming convention a dataset uses for its `rdf:type` classes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClassStyle {
    /// Plain readable names: `Person`.
    Plain,
    /// Short opaque codes: `nyt_per`.
    Coded,
    /// Concept-suffixed names: `PersonConcept`.
    Suffixed,
}

impl ClassStyle {
    /// Renders a kind's class local name in this style.
    pub fn render(self, kind: EntityKind) -> String {
        match self {
            ClassStyle::Plain => kind.class_name().to_owned(),
            ClassStyle::Coded => {
                let code: String = kind.class_name().chars().take(3).collect();
                format!("x_{}", code.to_lowercase())
            }
            ClassStyle::Suffixed => format!("{}Concept", kind.class_name()),
        }
    }
}

impl Vocabulary {
    /// A vocabulary rooted at `ns` using DBpedia-style predicate spellings.
    pub fn dbpedia_style(ns: &str) -> Self {
        Self {
            label: format!("{ns}/ontology/name"),
            alt_label: Some(format!("{ns}/ontology/alias")),
            year: format!("{ns}/ontology/year"),
            date: Some(format!("{ns}/ontology/birthDate")),
            quantity: Some(format!("{ns}/ontology/quantity")),
            code: Some(format!("{ns}/ontology/code")),
            affiliation: Some(format!("{ns}/ontology/affiliation")),
            class_ns: format!("{ns}/class/"),
            top_class: alex_rdf::vocab::OWL_THING.to_owned(),
            class_style: ClassStyle::Plain,
        }
    }

    /// A vocabulary using element-style spellings (NYTimes-like).
    pub fn elements_style(ns: &str) -> Self {
        Self {
            label: format!("{ns}/elements/fullName"),
            alt_label: None,
            year: format!("{ns}/elements/yearOfBirth"),
            date: Some(format!("{ns}/elements/dateOfBirth")),
            quantity: Some(format!("{ns}/elements/mentionCount")),
            code: None,
            affiliation: Some(format!("{ns}/elements/associatedWith")),
            class_ns: format!("{ns}/classes/"),
            top_class: "http://www.w3.org/2004/02/skos/core#Concept".to_owned(),
            class_style: ClassStyle::Coded,
        }
    }

    /// A terse property-style vocabulary (OpenCyc-like).
    pub fn concept_style(ns: &str) -> Self {
        Self {
            label: format!("{ns}/prettyString"),
            alt_label: Some(format!("{ns}/denotation")),
            year: format!("{ns}/startYear"),
            date: None,
            quantity: Some(format!("{ns}/magnitude")),
            code: Some(format!("{ns}/identifier")),
            affiliation: Some(format!("{ns}/relatedTo")),
            class_ns: format!("{ns}/concept/"),
            top_class: format!("{ns}/concept/Individual"),
            class_style: ClassStyle::Suffixed,
        }
    }
}

/// Everything that shapes one dataset's rendering of the shared world.
#[derive(Clone, Debug)]
pub struct DatasetProfile {
    /// Display name ("DBpedia").
    pub name: String,
    /// IRI namespace root (`"http://dbpedia.org"`).
    pub namespace: String,
    /// Predicate vocabulary.
    pub vocab: Vocabulary,
    /// String-attribute noise.
    pub noise: StringNoise,
    /// Probability of silently dropping each non-label attribute.
    pub missing_attr: f64,
    /// Probability a year is off by one.
    pub year_jitter: f64,
    /// Whether numbers are stored as plain strings (a common LOD
    /// heterogeneity that exercises lexical coercion in the similarity
    /// layer).
    pub numbers_as_strings: bool,
}

impl DatasetProfile {
    /// DBpedia-like: rich vocabulary, mild extraction noise.
    pub fn dbpedia() -> Self {
        Self {
            name: "DBpedia".into(),
            namespace: "http://dbpedia.example.org".into(),
            vocab: Vocabulary::dbpedia_style("http://dbpedia.example.org"),
            noise: StringNoise::MILD,
            missing_attr: 0.15,
            year_jitter: 0.05,
            numbers_as_strings: false,
        }
    }

    /// OpenCyc-like: curated concepts, terse vocabulary, very clean strings.
    pub fn opencyc() -> Self {
        Self {
            name: "OpenCyc".into(),
            namespace: "http://opencyc.example.org".into(),
            vocab: Vocabulary::concept_style("http://opencyc.example.org"),
            noise: StringNoise {
                typo: 0.05,
                reorder: 0.02,
                abbreviate: 0.02,
                case_flip: 0.03,
            },
            missing_attr: 0.30,
            year_jitter: 0.02,
            numbers_as_strings: false,
        }
    }

    /// NYTimes-like: editorial data, moderate noise, numbers as strings.
    pub fn nytimes() -> Self {
        Self {
            name: "NYTimes".into(),
            namespace: "http://nytimes.example.org".into(),
            vocab: Vocabulary::elements_style("http://nytimes.example.org"),
            noise: StringNoise {
                typo: 0.06,
                reorder: 0.25,
                abbreviate: 0.03,
                case_flip: 0.04,
            },
            missing_attr: 0.25,
            year_jitter: 0.08,
            numbers_as_strings: true,
        }
    }

    /// Drugbank-like: codes and formulas, light noise.
    pub fn drugbank() -> Self {
        Self {
            name: "Drugbank".into(),
            namespace: "http://drugbank.example.org".into(),
            vocab: Vocabulary::dbpedia_style("http://drugbank.example.org"),
            noise: StringNoise {
                typo: 0.08,
                reorder: 0.0,
                abbreviate: 0.0,
                case_flip: 0.10,
            },
            missing_attr: 0.10,
            year_jitter: 0.02,
            numbers_as_strings: false,
        }
    }

    /// Lexvo-like: language labels, heavy multilingual drift.
    pub fn lexvo() -> Self {
        Self {
            name: "Lexvo".into(),
            namespace: "http://lexvo.example.org".into(),
            vocab: Vocabulary::elements_style("http://lexvo.example.org"),
            noise: StringNoise {
                typo: 0.18,
                reorder: 0.05,
                abbreviate: 0.04,
                case_flip: 0.10,
            },
            missing_attr: 0.20,
            year_jitter: 0.10,
            numbers_as_strings: true,
        }
    }

    /// Semantic-Web-Dogfood-like: publications metadata, quite clean.
    pub fn swdogfood() -> Self {
        Self {
            name: "SemanticWebDogfood".into(),
            namespace: "http://swdf.example.org".into(),
            vocab: Vocabulary::dbpedia_style("http://swdf.example.org"),
            noise: StringNoise {
                typo: 0.05,
                reorder: 0.05,
                abbreviate: 0.08,
                case_flip: 0.02,
            },
            missing_attr: 0.10,
            year_jitter: 0.02,
            numbers_as_strings: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabularies_differ_between_profiles() {
        let a = DatasetProfile::dbpedia();
        let b = DatasetProfile::nytimes();
        assert_ne!(a.vocab.label, b.vocab.label);
        assert_ne!(a.namespace, b.namespace);
    }

    #[test]
    fn class_names_cover_all_kinds() {
        for k in EntityKind::ALL {
            assert!(!k.class_name().is_empty());
        }
    }

    #[test]
    fn profiles_have_sane_probabilities() {
        for p in [
            DatasetProfile::dbpedia(),
            DatasetProfile::opencyc(),
            DatasetProfile::nytimes(),
            DatasetProfile::drugbank(),
            DatasetProfile::lexvo(),
            DatasetProfile::swdogfood(),
        ] {
            assert!((0.0..=1.0).contains(&p.missing_attr), "{}", p.name);
            assert!((0.0..=1.0).contains(&p.year_jitter), "{}", p.name);
            assert!((0.0..=1.0).contains(&p.noise.typo), "{}", p.name);
        }
    }
}

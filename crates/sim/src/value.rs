//! The type-dispatching value similarity function (paper §4.1).

use alex_rdf::{Interner, Literal, Term};
use serde::{Deserialize, Serialize, Value};

use crate::numeric::{date_similarity, half_life_similarity, numeric_similarity};
use crate::string;

/// Half-difference of the `HalfLife` numeric mode: numbers this far apart
/// score 0.5.
const NUMERIC_HALF_DIFF: f64 = 2.0;

/// Half-life, in days, of the date-similarity decay.
pub(crate) const DATE_HALF_LIFE_DAYS: f64 = 365.0;

/// Which numeric comparison [`value_similarity`] uses.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum NumericSim {
    /// Scale-relative ratio similarity (`1 − |a−b| / max(|a|,|b|)`). Good
    /// for measurements; useless for identifiers like years.
    Ratio,
    /// Difference-relative exponential decay with a half-difference of 2.0
    /// (see [`crate::numeric::half_life_similarity`]). The default: sharp
    /// enough that most numeric attribute pairs fall below the paper's
    /// θ = 0.3 filter, as §6.1 requires.
    #[default]
    HalfLife,
}

/// Serialized as `"ratio"` or `"half_life"`.
impl Serialize for NumericSim {
    fn to_value(&self) -> Value {
        let name = match self {
            NumericSim::Ratio => "ratio",
            NumericSim::HalfLife => "half_life",
        };
        Value::String(name.to_owned())
    }
}

impl Deserialize for NumericSim {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v.as_str() {
            Some("ratio") => Ok(NumericSim::Ratio),
            Some("half_life") => Ok(NumericSim::HalfLife),
            _ => Err(serde::Error::new(format!(
                "expected \"ratio\" or \"half_life\", got {}",
                v.to_json_string(false)
            ))),
        }
    }
}

/// Configuration for [`value_similarity`]: the numeric mode, the one
/// setting an experiment varies (the ablation's D1 row runs `Ratio`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct SimConfig {
    /// Numeric comparison mode.
    pub numeric: NumericSim,
}

/// Case-insensitive string comparison, used for all string-ish pairs:
/// equal strings score 1, numbers written as strings compare numerically,
/// and anything else scores `max(Levenshtein, TokenJaccard)` over the
/// lowercased strings.
///
/// The maximum is robust to both typos (edit distance stays high) and
/// word reorderings (token overlap stays high), the two dominant noise
/// modes in linked-data labels, while unrelated strings score low on
/// *both* components and are θ-filtered. Lowercasing matches how links
/// in LOD ground truths treat labels.
pub(crate) fn string_sim(cfg: &SimConfig, a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    // Numbers serialized as strings ("1984" vs "1985") must compare
    // numerically, not by edit distance — otherwise every year pair looks
    // 75% similar and the θ-filter loses all discrimination.
    if let (Ok(x), Ok(y)) = (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
        return numeric_sim(cfg, x, y);
    }
    let (a, b) = (a.to_lowercase(), b.to_lowercase());
    string::levenshtein_similarity(&a, &b).max(string::token_jaccard(&a, &b))
}

/// Extracts the "local name" of an IRI: the segment after the last `#` or
/// `/`, with `_`/`-` left intact (tokenizers split them later).
pub fn iri_local_name(iri: &str) -> &str {
    let after_hash = iri.rsplit('#').next().unwrap_or(iri);
    after_hash.rsplit('/').next().unwrap_or(after_hash)
}

/// The generic, type-dispatching similarity between two RDF terms
/// (paper §4.1). Returns a finite score in `[0, 1]`.
///
/// Dispatch rules:
///
/// * IRI vs IRI — `1.0` on identity, otherwise string similarity of the
///   local names (resources with equal local names in different namespaces
///   are *similar*, not equal).
/// * string vs string (plain or language-tagged) — case-insensitive
///   `max(Levenshtein, TokenJaccard)`, with a numeric shortcut for numbers
///   written as strings.
/// * integer/float vs integer/float — the configured numeric mode
///   (difference-relative half-life decay by default).
/// * date vs date — exponential day-distance decay (half-life 365 days).
/// * boolean vs boolean — exact.
/// * string vs any literal, and IRI vs literal — string similarity over
///   lexical forms (real knowledge bases often store numbers, dates and
///   resources as plain strings on one side).
/// * anything else — `0.0`.
pub fn value_similarity(a: &Term, b: &Term, interner: &Interner, cfg: &SimConfig) -> f64 {
    match (a, b) {
        (Term::Iri(x), Term::Iri(y)) => {
            if x == y {
                1.0
            } else {
                let sx = interner.resolve(x.0);
                let sy = interner.resolve(y.0);
                string_sim(cfg, iri_local_name(&sx), iri_local_name(&sy))
            }
        }
        (Term::Literal(x), Term::Literal(y)) => literal_similarity(x, y, interner, cfg),
        // IRI vs literal: compare local name against lexical form;
        // heterogeneous KBs often use a string where the other uses a
        // resource.
        (Term::Iri(x), Term::Literal(y)) | (Term::Literal(y), Term::Iri(x)) => {
            let sx = interner.resolve(x.0);
            let sy = y.lexical(interner);
            string_sim(cfg, iri_local_name(&sx), &sy)
        }
    }
}

pub(crate) fn numeric_sim(cfg: &SimConfig, a: f64, b: f64) -> f64 {
    match cfg.numeric {
        NumericSim::Ratio => numeric_similarity(a, b),
        NumericSim::HalfLife => half_life_similarity(a, b, NUMERIC_HALF_DIFF),
    }
}

fn literal_similarity(a: &Literal, b: &Literal, interner: &Interner, cfg: &SimConfig) -> f64 {
    use Literal::*;
    match (a, b) {
        (Str(x), Str(y)) => {
            if x == y {
                1.0
            } else {
                string_sim(cfg, &interner.resolve(*x), &interner.resolve(*y))
            }
        }
        (Str(x), LangStr { value: y, .. })
        | (LangStr { value: x, .. }, Str(y))
        | (LangStr { value: x, .. }, LangStr { value: y, .. }) => {
            if x == y {
                1.0
            } else {
                string_sim(cfg, &interner.resolve(*x), &interner.resolve(*y))
            }
        }
        (Integer(x), Integer(y)) => numeric_sim(cfg, *x as f64, *y as f64),
        (Integer(x), Float(y)) | (Float(y), Integer(x)) => numeric_sim(cfg, *x as f64, y.get()),
        (Float(x), Float(y)) => numeric_sim(cfg, x.get(), y.get()),
        (Date(x), Date(y)) => date_similarity(*x, *y, DATE_HALF_LIFE_DAYS),
        (Boolean(x), Boolean(y)) => {
            if x == y {
                1.0
            } else {
                0.0
            }
        }
        // Cross-family: coerce through lexical forms when one side is a string.
        (x, y) => {
            let stringish = |l: &Literal| matches!(l, Str(_) | LangStr { .. });
            if stringish(x) || stringish(y) {
                string_sim(cfg, &x.lexical(interner), &y.lexical(interner))
            } else {
                0.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_rdf::{Date, IriId};

    fn setup() -> (std::sync::Arc<Interner>, SimConfig) {
        (Interner::new_shared(), SimConfig::default())
    }

    fn s(i: &Interner, v: &str) -> Term {
        Literal::str(i, v).into()
    }

    #[test]
    fn identical_strings_score_one() {
        let (i, cfg) = setup();
        assert_eq!(
            value_similarity(&s(&i, "LeBron James"), &s(&i, "LeBron James"), &i, &cfg),
            1.0
        );
    }

    #[test]
    fn case_insensitive_strings() {
        let (i, cfg) = setup();
        assert_eq!(
            value_similarity(&s(&i, "LeBron James"), &s(&i, "lebron james"), &i, &cfg),
            1.0
        );
    }

    #[test]
    fn reordered_tokens_score_high_with_hybrid() {
        let (i, cfg) = setup();
        let v = value_similarity(&s(&i, "James LeBron"), &s(&i, "LeBron James"), &i, &cfg);
        assert_eq!(v, 1.0); // token jaccard saves the day
    }

    #[test]
    fn numbers_use_half_life_by_default() {
        let (i, cfg) = setup();
        let a: Term = Literal::Integer(1984).into();
        let b: Term = Literal::float(1986.0).into();
        let v = value_similarity(&a, &b, &i, &cfg);
        assert!(
            (v - 0.5).abs() < 1e-9,
            "two years apart with half-diff 2 is 0.5, got {v}"
        );
        // Six years apart is effectively dissimilar — below θ = 0.3.
        let c: Term = Literal::Integer(1990).into();
        assert!(value_similarity(&a, &c, &i, &cfg) < 0.15);
    }

    #[test]
    fn ratio_mode_is_available() {
        let (i, mut cfg) = setup();
        cfg.numeric = NumericSim::Ratio;
        let a: Term = Literal::Integer(8).into();
        let b: Term = Literal::float(10.0).into();
        let v = value_similarity(&a, &b, &i, &cfg);
        assert!((v - 0.8).abs() < 1e-9);
    }

    #[test]
    fn dates_decay() {
        let (i, cfg) = setup();
        let a: Term = Literal::Date(Date::new(1984, 12, 30).unwrap()).into();
        let b: Term = Literal::Date(Date::new(1984, 12, 30).unwrap()).into();
        assert_eq!(value_similarity(&a, &b, &i, &cfg), 1.0);
        let c: Term = Literal::Date(Date::new(1990, 12, 30).unwrap()).into();
        let v = value_similarity(&a, &c, &i, &cfg);
        assert!(v < 0.05, "six years apart should be near zero, got {v}");
    }

    #[test]
    fn booleans_exact() {
        let (i, cfg) = setup();
        let t: Term = Literal::Boolean(true).into();
        let f: Term = Literal::Boolean(false).into();
        assert_eq!(value_similarity(&t, &t, &i, &cfg), 1.0);
        assert_eq!(value_similarity(&t, &f, &i, &cfg), 0.0);
    }

    #[test]
    fn iri_local_names() {
        assert_eq!(
            iri_local_name("http://dbpedia.org/resource/LeBron_James"),
            "LeBron_James"
        );
        assert_eq!(
            iri_local_name("http://www.w3.org/2002/07/owl#Thing"),
            "Thing"
        );
        assert_eq!(iri_local_name("no-slashes"), "no-slashes");
    }

    #[test]
    fn iris_compare_by_local_name() {
        let (i, cfg) = setup();
        let a: Term = IriId(i.intern("http://dbpedia.org/resource/LeBron_James")).into();
        let b: Term = IriId(i.intern("http://rdf.freebase.com/ns/LeBron_James")).into();
        assert_eq!(value_similarity(&a, &a, &i, &cfg), 1.0);
        assert_eq!(value_similarity(&a, &b, &i, &cfg), 1.0); // same local name
        let c: Term = IriId(i.intern("http://dbpedia.org/resource/Kobe_Bryant")).into();
        assert!(value_similarity(&a, &c, &i, &cfg) < 0.8);
    }

    #[test]
    fn lexical_coercion_bridges_types() {
        let (i, cfg) = setup();
        let n: Term = Literal::Integer(1984).into();
        let st = s(&i, "1984");
        assert_eq!(value_similarity(&n, &st, &i, &cfg), 1.0);
    }

    #[test]
    fn incompatible_without_coercion_anchor() {
        let (i, cfg) = setup();
        // bool vs date: neither side is stringish, so no coercion applies.
        let b: Term = Literal::Boolean(true).into();
        let d: Term = Literal::Date(Date::new(2000, 1, 1).unwrap()).into();
        assert_eq!(value_similarity(&b, &d, &i, &cfg), 0.0);
    }
}

//! Property tests: every similarity metric is a bounded, symmetric,
//! reflexive-at-one function.

use alex_rdf::{Date, Interner, Literal, Term};
use alex_sim::{numeric, string, value_similarity, NumericSim, SimConfig, ValueTable};
use proptest::collection::vec;
use proptest::prelude::*;

fn arb_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~éλ]{0,24}").unwrap()
}

prop_compose! {
    fn arb_date()(year in 1i32..=2500, month in 1u8..=12, day in 1u8..=28) -> Date {
        Date::new(year, month, day).unwrap()
    }
}

fn arb_term() -> impl Strategy<Value = TermSpec> {
    prop_oneof![
        arb_text().prop_map(TermSpec::Str),
        any::<i64>().prop_map(TermSpec::Int),
        (-1.0e9f64..1.0e9).prop_map(TermSpec::Float),
        any::<bool>().prop_map(TermSpec::Bool),
        arb_date().prop_map(TermSpec::Date),
        "[a-z]{1,10}".prop_map(|s| TermSpec::Iri(format!("http://ex/{s}"))),
    ]
}

/// A char for the edit-distance kernels: half the time from a 3-letter
/// alphabet (long runs of repeats, many matches), otherwise printable
/// ASCII, non-ASCII letters (some of which change length when lowercased),
/// or any Unicode scalar value.
fn arb_char() -> impl Strategy<Value = char> {
    (0u8..10, any::<u32>()).prop_map(|(pick, x)| match pick {
        0..=4 => ['a', 'b', 'é'][x as usize % 3],
        5..=6 => char::from(b' ' + (x % 95) as u8),
        7..=8 => ['λ', 'ß', 'İ', '日', '😀'][x as usize % 5],
        _ => char::from_u32(x % 0x11_0000).unwrap_or('\u{FFFD}'),
    })
}

/// Text for the threshold kernel: empty, numeric-looking, longer than one
/// 64-bit word, or any mix of the edit-distance chars (non-ASCII
/// included), often sharing a prefix with a second draw.
fn arb_kernel_text() -> impl Strategy<Value = String> {
    prop_oneof![
        (0usize..1).prop_map(|_| String::new()),
        (-1.0e6f64..1.0e6).prop_map(|x| format!(" {x} ")),
        vec(arb_char(), 0..100).prop_map(|cs| cs.into_iter().collect()),
        (arb_text(), arb_text()).prop_map(|(a, b)| format!("{a} {b} {a}{b}")),
        arb_text(),
    ]
}

/// A term for the threshold kernel: mostly text, sometimes another kind.
fn arb_kernel_term() -> impl Strategy<Value = TermSpec> {
    prop_oneof![
        arb_kernel_text().prop_map(TermSpec::Str),
        arb_kernel_text().prop_map(TermSpec::Str),
        arb_kernel_text().prop_map(TermSpec::Str),
        arb_term(),
    ]
}

fn arb_threshold() -> impl Strategy<Value = f64> {
    (0usize..5, 0.0f64..1.0).prop_map(|(k, x)| [0.0, 0.3, 0.85, 1.0, x][k])
}

#[derive(Clone, Debug)]
enum TermSpec {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    Date(Date),
    Iri(String),
}

impl TermSpec {
    fn build(&self, i: &Interner) -> Term {
        match self {
            TermSpec::Str(s) => Literal::str(i, s).into(),
            TermSpec::Int(v) => Literal::Integer(*v).into(),
            TermSpec::Float(v) => Literal::float(*v).into(),
            TermSpec::Bool(v) => Literal::Boolean(*v).into(),
            TermSpec::Date(d) => Literal::Date(*d).into(),
            TermSpec::Iri(s) => alex_rdf::IriId(i.intern(s)).into(),
        }
    }
}

proptest! {
    #[test]
    fn string_metrics_bounded_symmetric_reflexive(a in arb_text(), b in arb_text()) {
        let metrics: [fn(&str, &str) -> f64; 2] =
            [string::levenshtein_similarity, string::token_jaccard];
        for (k, m) in metrics.into_iter().enumerate() {
            let ab = m(&a, &b);
            let ba = m(&b, &a);
            prop_assert!((0.0..=1.0).contains(&ab), "metric {k} out of range: {ab}");
            prop_assert!((ab - ba).abs() < 1e-12, "metric {k} asymmetric: {ab} vs {ba}");
            let aa = m(&a, &a);
            prop_assert!((aa - 1.0).abs() < 1e-12, "metric {k} not reflexive on {a:?}: {aa}");
        }
    }

    /// The bit-parallel kernel returns the dynamic program's distance on
    /// arbitrary strings of 0–150 chars, both argument orders — shorter
    /// sides on both sides of the 64-char word.
    #[test]
    fn bit_parallel_levenshtein_matches_dp(a in vec(arb_char(), 0..150), b in vec(arb_char(), 0..150)) {
        let want = string::levenshtein_dp(&a, &b);
        prop_assert_eq!(string::levenshtein_chars(&a, &b), want);
        prop_assert_eq!(string::levenshtein_chars(&b, &a), want);
    }

    /// Same, with both lengths near the word size, so patterns of exactly
    /// 63, 64 and 65 chars come up often.
    #[test]
    fn bit_parallel_levenshtein_matches_dp_near_word_size(
        a in vec(arb_char(), 58..70),
        b in vec(arb_char(), 58..70),
    ) {
        let want = string::levenshtein_dp(&a, &b);
        prop_assert_eq!(string::levenshtein_chars(&a, &b), want);
        prop_assert_eq!(string::levenshtein_chars(&b, &a), want);
    }

    /// A value table over two arbitrary terms scores them exactly as the
    /// plain function does in canonical order, in both numeric modes.
    #[test]
    fn value_table_matches_value_similarity(a in arb_term(), b in arb_term()) {
        let i = Interner::new_shared();
        let (ta, tb) = (a.build(&i), b.build(&i));
        let (lo, hi) = if ta <= tb { (ta, tb) } else { (tb, ta) };
        for numeric in [NumericSim::Ratio, NumericSim::HalfLife] {
            let cfg = SimConfig { numeric };
            let table = ValueTable::new(cfg, &i, [ta, tb]);
            let got = table.similarity(table.id(&ta).unwrap(), table.id(&tb).unwrap());
            let want = value_similarity(&lo, &hi, &i, &cfg);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{numeric:?}: {ta:?} vs {tb:?}");
        }
    }

    #[test]
    fn levenshtein_triangle_inequality(a in arb_text(), b in arb_text(), c in arb_text()) {
        let ab = string::levenshtein(&a, &b);
        let bc = string::levenshtein(&b, &c);
        let ac = string::levenshtein(&a, &c);
        prop_assert!(ac <= ab + bc);
    }

    #[test]
    fn numeric_similarity_bounded_symmetric(a in -1.0e12f64..1.0e12, b in -1.0e12f64..1.0e12) {
        let ab = numeric::numeric_similarity(a, b);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ab - numeric::numeric_similarity(b, a)).abs() < 1e-12);
        prop_assert!((numeric::numeric_similarity(a, a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn date_similarity_bounded_monotone(a in arb_date(), b in arb_date(), c in arb_date()) {
        let half = 365.0;
        let ab = numeric::date_similarity(a, b, half);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ab - numeric::date_similarity(b, a, half)).abs() < 1e-12);
        prop_assert_eq!(numeric::date_similarity(a, a, half), 1.0);
        // Closer dates never score lower.
        if a.days_between(b) <= a.days_between(c) {
            prop_assert!(ab + 1e-12 >= numeric::date_similarity(a, c, half));
        }
    }

    #[test]
    fn numeric_similarity_total_over_all_floats(a in any::<f64>(), b in any::<f64>()) {
        // `any::<f64>()` includes NaN, ±infinity, subnormals, and ±0 —
        // the metric must stay a total function into [0, 1].
        let ab = numeric::numeric_similarity(a, b);
        prop_assert!((0.0..=1.0).contains(&ab), "{a} vs {b} -> {ab}");
        let ba = numeric::numeric_similarity(b, a);
        prop_assert!((ab - ba).abs() < 1e-12, "asymmetric: {ab} vs {ba}");
    }

    #[test]
    fn half_life_similarity_total_over_all_floats(
        a in any::<f64>(),
        b in any::<f64>(),
        half in any::<f64>(),
    ) {
        let ab = numeric::half_life_similarity(a, b, half);
        prop_assert!((0.0..=1.0).contains(&ab), "{a} vs {b} (hl {half}) -> {ab}");
        let ba = numeric::half_life_similarity(b, a, half);
        prop_assert!((ab - ba).abs() < 1e-12, "asymmetric: {ab} vs {ba}");
    }

    #[test]
    fn date_similarity_total_over_extreme_dates_and_half_lives(
        ya in -9999i32..=9999, yb in -9999i32..=9999,
        month in 1u8..=12, day in 1u8..=28,
        half in any::<f64>(),
    ) {
        let a = Date::new(ya, month, day).unwrap();
        let b = Date::new(yb, month, day).unwrap();
        let ab = numeric::date_similarity(a, b, half);
        prop_assert!((0.0..=1.0).contains(&ab), "{a:?} vs {b:?} (hl {half}) -> {ab}");
        let ba = numeric::date_similarity(b, a, half);
        prop_assert!((ab - ba).abs() < 1e-12);
        // Equal dates score 1.0 for any usable half-life.
        if half.is_finite() && half > 0.0 {
            prop_assert_eq!(numeric::date_similarity(a, a, half), 1.0);
        }
    }

    #[test]
    fn value_similarity_bounded_symmetric_reflexive(a in arb_term(), b in arb_term()) {
        let i = Interner::new_shared();
        let cfg = SimConfig::default();
        let ta = a.build(&i);
        let tb = b.build(&i);
        let ab = value_similarity(&ta, &tb, &i, &cfg);
        let ba = value_similarity(&tb, &ta, &i, &cfg);
        prop_assert!((0.0..=1.0).contains(&ab), "out of range: {ab} for {a:?} {b:?}");
        prop_assert!(ab.is_finite());
        prop_assert!((ab - ba).abs() < 1e-12, "asymmetric: {ab} vs {ba} for {a:?} {b:?}");
        let aa = value_similarity(&ta, &ta, &i, &cfg);
        prop_assert!((aa - 1.0).abs() < 1e-12, "not reflexive on {a:?}: {aa}");
    }
}

// The threshold kernel decides most comparisons from a bound, so its
// exactness gets many more cases than the metrics above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `similarity_at_least` returns the bits of `similarity` (and of the
    /// plain function in canonical order) exactly when that score is at
    /// least the threshold, and `None` otherwise — through the table and
    /// through a scorer that reuses its pattern along a row.
    #[test]
    fn similarity_at_least_is_exact_at_and_above_the_threshold(
        a in arb_kernel_term(),
        b in arb_kernel_term(),
        c in arb_kernel_term(),
        t in arb_threshold(),
    ) {
        let i = Interner::new_shared();
        let terms = [a.build(&i), b.build(&i), c.build(&i)];
        let cfg = SimConfig::default();
        let table = ValueTable::new(cfg, &i, terms);
        let scorer = table.scorer();
        for x in &terms {
            for y in &terms {
                let (ix, iy) = (table.id(x).unwrap(), table.id(y).unwrap());
                let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
                let want = value_similarity(lo, hi, &i, &cfg);
                prop_assert_eq!(table.similarity(ix, iy).to_bits(), want.to_bits());
                let want = (want >= t).then_some(want.to_bits());
                let got = table.similarity_at_least(ix, iy, t).map(f64::to_bits);
                prop_assert_eq!(got, want, "{:?} vs {:?} at {}", x, y, t);
                let got = scorer.similarity_at_least(ix, iy, t).map(f64::to_bits);
                prop_assert_eq!(got, want, "scorer: {:?} vs {:?} at {}", x, y, t);
            }
        }
    }

    /// The histogram bound never exceeds the edit distance, including
    /// long runs of one char that saturate its counts.
    #[test]
    fn histogram_bound_never_exceeds_levenshtein(
        a in vec(arb_char(), 0..100),
        b in vec(arb_char(), 0..100),
        run in 0usize..40,
    ) {
        let mut a = a;
        a.extend(std::iter::repeat_n('a', run));
        let (ha, hb) = (string::CharHistogram::new(&a), string::CharHistogram::new(&b));
        let want = string::levenshtein_dp(&a, &b);
        prop_assert!(ha.distance_bound(a.len(), &hb, b.len()) <= want);
        prop_assert!(hb.distance_bound(b.len(), &ha, a.len()) <= want);
    }
}

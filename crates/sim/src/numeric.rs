//! Numeric and date similarity, normalized to `[0, 1]`.

use alex_rdf::Date;

/// Ratio similarity between two real numbers:
/// `1 − |a − b| / max(|a|, |b|)`, clamped to `[0, 1]`.
///
/// Equal values (including `0 ~ 0`) score `1.0`; opposite signs score `0.0`.
/// Non-finite inputs score `0.0` unless both are identical infinities.
pub fn numeric_similarity(a: f64, b: f64) -> f64 {
    if !a.is_finite() || !b.is_finite() {
        return if a == b { 1.0 } else { 0.0 };
    }
    if a == b {
        return 1.0;
    }
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        return 1.0;
    }
    // `a - b` can overflow to infinity for mixed signs near `f64::MAX`;
    // `1 − ∞` clamps to 0, so no NaN can escape.
    (1.0 - (a - b).abs() / denom).clamp(0.0, 1.0)
}

/// Exponential half-life decay over a non-negative distance, hardened so
/// every input — including NaN, infinities, and degenerate half-lives —
/// maps into `[0, 1]`.
///
/// A half-life that is zero, negative, or non-finite decays instantly:
/// only a distance of exactly `0` scores `1.0`. Without that guard,
/// `0 / 0` would leak NaN out of an innocent-looking similarity call.
fn half_life_decay(distance: f64, half_life: f64) -> f64 {
    if !distance.is_finite() || distance < 0.0 {
        // NaN, infinite, or negative distance: nothing meaningful to compare.
        return 0.0;
    }
    if !(half_life.is_finite() && half_life > 0.0) {
        return if distance == 0.0 { 1.0 } else { 0.0 };
    }
    (-(std::f64::consts::LN_2) * distance / half_life)
        .exp()
        .clamp(0.0, 1.0)
}

/// Date similarity with exponential decay in the day distance:
/// `exp(−ln 2 · days / half_life_days)`.
///
/// At `days == 0` the score is `1.0`; at `days == half_life_days` it is
/// `0.5`. A half-life of ~365 days works well for birth/publication dates,
/// where off-by-a-few-days is common in noisy knowledge bases but years
/// apart means different entities. The full supported date range (years
/// ±9999, ~7.3M days apart at the extremes) stays clamped in `[0, 1]`,
/// and a degenerate (zero/negative/non-finite) half-life scores `1.0`
/// for equal dates and `0.0` otherwise instead of propagating NaN.
pub fn date_similarity(a: Date, b: Date, half_life_days: f64) -> f64 {
    half_life_decay(a.days_between(b) as f64, half_life_days)
}

/// Absolute-difference similarity with exponential decay:
/// `2^(−|a − b| / half_diff)`.
///
/// Where [`numeric_similarity`] is scale-relative (useless for values like
/// years, where 1984 and 1985 are 99.9% "similar" yet denote different
/// people), this metric is difference-relative: at `|a − b| == half_diff`
/// the score is 0.5, and values a couple of half-differences apart fall
/// below any reasonable θ. This is what makes numeric features pass the
/// paper's θ-filter only for genuinely close values (§6.1 reports a 95%
/// space reduction, which requires most attribute pairs to score < θ).
/// Like [`date_similarity`], every edge case — NaN/infinite operands,
/// overflowing `a − b`, degenerate `half_diff` — stays in `[0, 1]`.
pub fn half_life_similarity(a: f64, b: f64, half_diff: f64) -> f64 {
    if !a.is_finite() || !b.is_finite() {
        return if a == b { 1.0 } else { 0.0 };
    }
    // `a - b` can overflow to infinity when the signs differ near
    // `f64::MAX`; the decay helper maps an infinite distance to 0.
    half_life_decay((a - b).abs(), half_diff)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn numeric_identity_and_symmetry() {
        close(numeric_similarity(5.0, 5.0), 1.0);
        close(numeric_similarity(0.0, 0.0), 1.0);
        close(numeric_similarity(3.0, 4.0), numeric_similarity(4.0, 3.0));
    }

    #[test]
    fn numeric_known_values() {
        close(numeric_similarity(8.0, 10.0), 0.8);
        close(numeric_similarity(-5.0, 5.0), 0.0);
        close(numeric_similarity(0.0, 10.0), 0.0);
        close(numeric_similarity(1984.0, 1985.0), 1.0 - 1.0 / 1985.0);
    }

    #[test]
    fn numeric_non_finite() {
        close(numeric_similarity(f64::NAN, 1.0), 0.0);
        close(numeric_similarity(f64::INFINITY, f64::INFINITY), 1.0);
        close(numeric_similarity(f64::INFINITY, f64::NEG_INFINITY), 0.0);
    }

    #[test]
    fn date_decay() {
        let a = Date::new(2000, 1, 1).unwrap();
        close(date_similarity(a, a, 365.0), 1.0);
        let b = Date::new(2001, 1, 1).unwrap(); // exactly 366 days (2000 is leap)
        let s = date_similarity(a, b, 366.0);
        close(s, 0.5);
        // Monotone decreasing with distance.
        let c = Date::new(2010, 1, 1).unwrap();
        assert!(date_similarity(a, c, 365.0) < s);
    }

    #[test]
    fn half_life_similarity_discriminates_years() {
        close(half_life_similarity(1984.0, 1984.0, 2.0), 1.0);
        close(half_life_similarity(1984.0, 1986.0, 2.0), 0.5);
        assert!(half_life_similarity(1984.0, 1990.0, 2.0) < 0.15);
        // Symmetric and bounded.
        close(
            half_life_similarity(3.0, 9.0, 2.0),
            half_life_similarity(9.0, 3.0, 2.0),
        );
        close(half_life_similarity(f64::NAN, 1.0, 2.0), 0.0);
    }

    #[test]
    fn numeric_extremes_never_escape_the_unit_interval() {
        // Mixed signs at the edge of the representable range: a − b
        // overflows to infinity internally.
        close(numeric_similarity(f64::MAX, -f64::MAX), 0.0);
        close(
            numeric_similarity(f64::MIN_POSITIVE, -f64::MIN_POSITIVE),
            0.0,
        );
        // Subnormal near-zero ratios.
        let tiny = f64::MIN_POSITIVE / 4.0;
        let s = numeric_similarity(tiny, tiny * 2.0);
        assert!((0.0..=1.0).contains(&s), "{s}");
        close(numeric_similarity(-0.0, 0.0), 1.0);
    }

    #[test]
    fn degenerate_half_lives_do_not_leak_nan() {
        let a = Date::new(2000, 1, 1).unwrap();
        let b = Date::new(2000, 6, 1).unwrap();
        for hl in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let same = date_similarity(a, a, hl);
            let diff = date_similarity(a, b, hl);
            assert!((0.0..=1.0).contains(&same), "half-life {hl}: {same}");
            assert!((0.0..=1.0).contains(&diff), "half-life {hl}: {diff}");
            let v = half_life_similarity(3.0, 4.0, hl);
            assert!((0.0..=1.0).contains(&v), "half-life {hl}: {v}");
        }
        // ∞ half-life is a legitimate "never decays" request for unequal
        // but finite distances — except we treat it as degenerate, which
        // still yields a bounded score.
        let v = half_life_similarity(f64::MAX, -f64::MAX, 2.0);
        close(v, 0.0);
    }

    #[test]
    fn far_apart_dates_stay_clamped() {
        let a = Date::new(-9999, 1, 1).unwrap();
        let b = Date::new(9999, 12, 31).unwrap();
        let s = date_similarity(a, b, 365.0);
        assert!((0.0..=1.0).contains(&s), "{s}");
        close(s, 0.0); // ~7.3M days: decays to numerically exact zero
        close(date_similarity(a, a, 365.0), 1.0);
    }
}

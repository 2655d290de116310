//! String similarity metrics, all normalized to `[0, 1]`.
//!
//! All metrics operate on Unicode scalar values (not bytes), compare
//! case-insensitively where noted, and cost `O(|a|·|b|)` or better — fine
//! for attribute values, which are short.

/// Levenshtein edit distance between two strings, counted over chars.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_chars(&a, &b)
}

/// [`levenshtein`] over pre-collected char slices, so callers comparing
/// the same string many times (the value table) collect its chars once.
///
/// When the shorter string has at most 64 chars this runs the
/// bit-parallel algorithm of Myers (JACM 1999), `O(|long|)` word
/// operations; longer pairs fall back to [`levenshtein_dp`]. Both return
/// the same distance.
pub fn levenshtein_chars(a: &[char], b: &[char]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        long.len()
    } else if short.len() <= 64 {
        levenshtein_bit_parallel(short, long)
    } else {
        levenshtein_dp(short, long)
    }
}

/// Levenshtein distance by the classic two-row dynamic program;
/// `O(|a|·|b|)` time, `O(min)` space. The reference the bit-parallel
/// kernel is tested against, and the path for patterns over 64 chars.
pub fn levenshtein_dp(a: &[char], b: &[char]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, sc) in short.iter().enumerate() {
            let sub = prev[j] + usize::from(lc != sc);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Myers' bit-vector edit distance in Hyyrö's formulation: one machine
/// word holds a whole DP column of `pattern` (1 to 64 chars) as vertical
/// +1/−1 delta bits, and each char of `text` advances the column with a
/// constant number of word operations. `dist` tracks the bottom cell.
fn levenshtein_bit_parallel(pattern: &[char], text: &[char]) -> usize {
    debug_assert!((1..=64).contains(&pattern.len()));
    // Match masks: bit i of peq(c) is set when pattern[i] == c. ASCII
    // chars index a table; the rare others search a short list.
    let mut ascii = [0u64; 128];
    let mut other: Vec<(char, u64)> = Vec::new();
    for (i, &c) in pattern.iter().enumerate() {
        let bit = 1u64 << i;
        if c.is_ascii() {
            ascii[c as usize] |= bit;
        } else if let Some(slot) = other.iter_mut().find(|(k, _)| *k == c) {
            slot.1 |= bit;
        } else {
            other.push((c, bit));
        }
    }
    let peq = |c: char| {
        if c.is_ascii() {
            ascii[c as usize]
        } else {
            other
                .iter()
                .find(|(k, _)| *k == c)
                .map_or(0, |&(_, mask)| mask)
        }
    };
    let last = 1u64 << (pattern.len() - 1);
    let (mut pv, mut mv) = (!0u64, 0u64);
    let mut dist = pattern.len();
    for &c in text {
        let eq = peq(c);
        let xv = eq | mv;
        let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & last != 0 {
            dist += 1;
        } else if mh & last != 0 {
            dist -= 1;
        }
        // Row 0 of the DP grows by one per text char, so a +1 shifts in.
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    dist
}

/// Normalized Levenshtein similarity: `1 − dist / max_len`, in `[0, 1]`.
///
/// Empty-vs-empty is defined as `1.0`.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_similarity_chars(&a, &b)
}

/// [`levenshtein_similarity`] over pre-collected char slices.
pub fn levenshtein_similarity_chars(a: &[char], b: &[char]) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein_chars(a, b) as f64 / max_len as f64
}

/// Jaro similarity, in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_chars(&a, &b)
}

/// [`jaro`] over pre-collected char slices.
pub fn jaro_chars(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_taken = vec![false; b.len()];
    let mut matches: Vec<char> = Vec::new();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_taken[j] && b[j] == ca {
                b_taken[j] = true;
                matches.push(ca);
                break;
            }
        }
    }
    let m = matches.len();
    if m == 0 {
        return 0.0;
    }
    // Transpositions: compare matched sequences in order.
    let b_matches: Vec<char> = b
        .iter()
        .zip(&b_taken)
        .filter(|(_, &t)| t)
        .map(|(&c, _)| c)
        .collect();
    let t = matches
        .iter()
        .zip(&b_matches)
        .filter(|(x, y)| x != y)
        .count() as f64
        / 2.0;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro-Winkler similarity with the standard prefix scale `p = 0.1` and a
/// prefix cap of 4, in `[0, 1]`.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_winkler_chars(&a, &b)
}

/// [`jaro_winkler`] over pre-collected char slices.
pub fn jaro_winkler_chars(a: &[char], b: &[char]) -> f64 {
    let j = jaro_chars(a, b);
    let prefix = a
        .iter()
        .zip(b.iter())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    (j + prefix * 0.1 * (1.0 - j)).min(1.0)
}

/// Splits a string into lowercase alphanumeric tokens.
pub fn tokens(s: &str) -> Vec<String> {
    s.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_lowercase)
        .collect()
}

/// The token *set* of a string: [`tokens`], sorted and deduplicated —
/// the precomputed form [`token_jaccard_sorted`] consumes.
pub fn token_set(s: &str) -> Vec<String> {
    let mut t = tokens(s);
    t.sort_unstable();
    t.dedup();
    t
}

/// Jaccard similarity over the lowercase token *sets* of the two strings.
///
/// Empty-vs-empty is `1.0`; empty-vs-nonempty is `0.0`.
pub fn token_jaccard(a: &str, b: &str) -> f64 {
    token_jaccard_sorted(&token_set(a), &token_set(b))
}

/// [`token_jaccard`] over precomputed sorted, deduplicated token sets —
/// token strings, or any ids that map one-to-one onto them.
///
/// Intersection and union sizes are integers counted by a sorted merge, so
/// the result is bit-identical to the hash-set formulation.
pub fn token_jaccard_sorted<T: Ord>(ta: &[T], tb: &[T]) -> f64 {
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    let mut inter = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < ta.len() && j < tb.len() {
        match ta[i].cmp(&tb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = ta.len() + tb.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// The sorted, deduplicated trigram set of a string (lowercased, with
/// `^`/`$` padding) — the precomputed form [`trigram_jaccard_sorted`]
/// consumes.
pub fn trigram_set(s: &str) -> Vec<[char; 3]> {
    let padded: Vec<char> = std::iter::once('^')
        .chain(s.to_lowercase().chars())
        .chain(std::iter::once('$'))
        .collect();
    let mut grams: Vec<[char; 3]> = padded.windows(3).map(|w| [w[0], w[1], w[2]]).collect();
    grams.sort_unstable();
    grams.dedup();
    grams
}

/// Jaccard similarity over lowercase character trigrams (with `^`/`$`
/// padding so short strings still produce grams).
pub fn trigram_jaccard(a: &str, b: &str) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    trigram_jaccard_sorted(&trigram_set(a), &trigram_set(b))
}

/// [`trigram_jaccard`] over precomputed trigram sets of two **non-empty**
/// strings (the empty-string cases are decided on the raw strings before
/// grams exist; callers with precomputed forms handle them the same way).
pub fn trigram_jaccard_sorted(ga: &[[char; 3]], gb: &[[char; 3]]) -> f64 {
    let mut inter = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < ga.len() && j < gb.len() {
        match ga[i].cmp(&gb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = ga.len() + gb.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Monge-Elkan similarity: for each token of the shorter side, take its
/// best match (by normalized Levenshtein) among the other side's tokens,
/// and average. Symmetrized by evaluating both directions and taking the
/// mean. Strong on multi-token names where individual tokens carry typos.
pub fn monge_elkan(a: &str, b: &str) -> f64 {
    monge_elkan_tokens(&token_chars(a), &token_chars(b))
}

/// The chars of each of [`tokens`], in order — the precomputed form
/// [`monge_elkan_tokens`] consumes.
pub fn token_chars(s: &str) -> Vec<Vec<char>> {
    tokens(s).iter().map(|t| t.chars().collect()).collect()
}

/// [`monge_elkan`] over precomputed *ordered* token char lists
/// (duplicates preserved — the directed averages weight repeated tokens).
pub fn monge_elkan_tokens<T: AsRef<[char]>>(ta: &[T], tb: &[T]) -> f64 {
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    fn directed<T: AsRef<[char]>>(xs: &[T], ys: &[T]) -> f64 {
        let total: f64 = xs
            .iter()
            .map(|x| {
                ys.iter()
                    .map(|y| levenshtein_similarity_chars(x.as_ref(), y.as_ref()))
                    .fold(0.0f64, f64::max)
            })
            .sum();
        total / xs.len() as f64
    }
    (directed(ta, tb) + directed(tb, ta)) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        // Unicode-aware: one char substitution, not several byte edits.
        assert_eq!(levenshtein("café", "cafe"), 1);
    }

    /// The bit-parallel kernel and the dynamic program agree on patterns
    /// at and around the 64-char word, where the kernel hands over.
    #[test]
    fn levenshtein_kernels_agree_at_word_boundary() {
        for n in [1usize, 2, 63, 64, 65, 100] {
            let a: Vec<char> = (0..n).map(|i| ['a', 'b', 'c', 'é'][i * 7 % 4]).collect();
            let mut b = a.clone();
            b.rotate_left(n / 3);
            b.push('λ');
            b.remove(0);
            assert_eq!(levenshtein_chars(&a, &b), levenshtein_dp(&a, &b), "n = {n}");
            assert_eq!(levenshtein_chars(&a, &a), 0);
            assert_eq!(levenshtein_chars(&a, &[]), n);
        }
    }

    #[test]
    fn levenshtein_similarity_normalization() {
        close(levenshtein_similarity("", ""), 1.0);
        close(levenshtein_similarity("abc", "abc"), 1.0);
        close(levenshtein_similarity("abc", "xyz"), 0.0);
        close(levenshtein_similarity("kitten", "sitting"), 1.0 - 3.0 / 7.0);
    }

    #[test]
    fn jaro_known_values() {
        close(jaro("martha", "marhta"), 0.944_444_444_444_444_4);
        close(jaro("dixon", "dicksonx"), 0.766_666_666_666_666_7);
        close(jaro("", ""), 1.0);
        close(jaro("a", ""), 0.0);
        close(jaro("abc", "abc"), 1.0);
        close(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_known_values() {
        close(jaro_winkler("martha", "marhta"), 0.961_111_111_111_111_1);
        close(jaro_winkler("dixon", "dicksonx"), 0.813_333_333_333_333_3);
        // Prefix bonus never exceeds 1.
        close(jaro_winkler("same", "same"), 1.0);
    }

    #[test]
    fn tokenization() {
        assert_eq!(
            tokens("LeBron James, 2013 NBA-MVP!"),
            vec!["lebron", "james", "2013", "nba", "mvp"]
        );
        assert!(tokens("---").is_empty());
    }

    #[test]
    fn token_jaccard_behaviour() {
        close(token_jaccard("LeBron James", "james lebron"), 1.0);
        close(token_jaccard("a b", "b c"), 1.0 / 3.0);
        close(token_jaccard("", ""), 1.0);
        close(token_jaccard("a", ""), 0.0);
        close(token_jaccard("...", "..."), 1.0); // both tokenless
    }

    #[test]
    fn monge_elkan_behaviour() {
        close(monge_elkan("LeBron James", "lebron james"), 1.0);
        // Per-token typo: stays high where token jaccard collapses.
        let me = monge_elkan("lebrn james", "lebron james");
        assert!(me > 0.85, "{me}");
        assert!(token_jaccard("lebrn james", "lebron james") < 0.5);
        // Unrelated names score low.
        assert!(monge_elkan("prandel korth", "zyx wvu") < 0.5);
        close(monge_elkan("", ""), 1.0);
        close(monge_elkan("a", ""), 0.0);
        // Symmetric.
        close(
            monge_elkan("alpha beta gamma", "beta alpha"),
            monge_elkan("beta alpha", "alpha beta gamma"),
        );
    }

    #[test]
    fn precomputed_forms_match_direct_metrics() {
        let cases = [
            ("lebron james", "james lebron raymone"),
            ("kitten", "sitting"),
            ("", ""),
            ("one", ""),
            ("café crème", "cafe creme"),
            ("a a b", "a b b"),
        ];
        for (a, b) in cases {
            let (ca, cb): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
            assert_eq!(
                levenshtein_similarity(a, b).to_bits(),
                levenshtein_similarity_chars(&ca, &cb).to_bits()
            );
            assert_eq!(
                jaro_winkler(a, b).to_bits(),
                jaro_winkler_chars(&ca, &cb).to_bits()
            );
            assert_eq!(
                token_jaccard(a, b).to_bits(),
                token_jaccard_sorted(&token_set(a), &token_set(b)).to_bits()
            );
            assert_eq!(
                monge_elkan(a, b).to_bits(),
                monge_elkan_tokens(&token_chars(a), &token_chars(b)).to_bits()
            );
            if !a.is_empty() && !b.is_empty() {
                assert_eq!(
                    trigram_jaccard(a, b).to_bits(),
                    trigram_jaccard_sorted(&trigram_set(a), &trigram_set(b)).to_bits()
                );
            }
        }
    }

    #[test]
    fn trigram_jaccard_behaviour() {
        close(trigram_jaccard("abc", "abc"), 1.0);
        assert!(trigram_jaccard("night", "nacht") > 0.0);
        assert!(trigram_jaccard("night", "nacht") < 0.5);
        close(trigram_jaccard("", ""), 1.0);
        close(trigram_jaccard("", "x"), 0.0);
        // Case-insensitive.
        close(trigram_jaccard("ABC", "abc"), 1.0);
    }
}

//! The two string metrics the value similarity combines, normalized
//! Levenshtein and token Jaccard, both normalized to `[0, 1]`.
//!
//! Both operate on Unicode scalar values (not bytes) and cost
//! `O(|a|·|b|)` or better — fine for attribute values, which are short.
//! A [`CharHistogram`] bounds the edit distance from below without
//! computing it.

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
    match Pattern::new(short) {
        Some(pattern) => pattern.distance(long),
        None if short.is_empty() => long.len(),
        None => levenshtein_dp(short, long),
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

/// A string of 1 to 64 chars prepared for Myers' bit-vector edit distance
/// (JACM 1999): its match masks, built once and reused against any
/// number of texts.
#[derive(Clone, Debug)]
pub(crate) struct Pattern {
    /// Bit `i` of `ascii[c]` is set when `pattern[i] == c`; the rare
    /// non-ASCII chars keep their masks in a short list.
    ascii: [u64; 128],
    other: Vec<(char, u64)>,
    len: usize,
}

impl Pattern {
    /// The pattern of `chars`, or `None` when it is empty or longer than
    /// one 64-bit word.
    pub(crate) fn new(chars: &[char]) -> Option<Self> {
        if !(1..=64).contains(&chars.len()) {
            return None;
        }
        let mut ascii = [0u64; 128];
        let mut other: Vec<(char, u64)> = Vec::new();
        for (i, &c) in chars.iter().enumerate() {
            let bit = 1u64 << i;
            if c.is_ascii() {
                ascii[c as usize] |= bit;
            } else if let Some(slot) = other.iter_mut().find(|(k, _)| *k == c) {
                slot.1 |= bit;
            } else {
                other.push((c, bit));
            }
        }
        Some(Self {
            ascii,
            other,
            len: chars.len(),
        })
    }

    fn peq(&self, c: char) -> u64 {
        if c.is_ascii() {
            self.ascii[c as usize]
        } else {
            self.other
                .iter()
                .find(|(k, _)| *k == c)
                .map_or(0, |&(_, mask)| mask)
        }
    }

    /// The Levenshtein distance between the pattern and `text` (of any
    /// length), in Hyyrö's formulation: one machine word holds a whole DP
    /// column of the pattern as vertical +1/−1 delta bits, and each char
    /// of `text` advances the column with a constant number of word
    /// operations. `dist` tracks the bottom cell.
    pub(crate) fn distance(&self, text: &[char]) -> usize {
        let last = 1u64 << (self.len - 1);
        let (mut pv, mut mv) = (!0u64, 0u64);
        let mut dist = self.len;
        for &c in text {
            let eq = self.peq(c);
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
}

/// A string's chars counted in 64 classes (each ASCII letter and digit
/// its own class, every other char hashed into the remaining 28), each
/// count saturating at 15: 32 bytes of two 4-bit counts each.
///
/// Two histograms give a lower bound on the edit distance of their
/// strings ([`CharHistogram::distance_bound`]): an insertion, deletion or
/// substitution changes the surplus of each side's classes over the
/// other's by at most one char.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CharHistogram([u8; 32]);

impl CharHistogram {
    /// The histogram of `chars`.
    pub fn new(chars: &[char]) -> Self {
        let mut counts = [0u8; 32];
        for &c in chars {
            let class = match c {
                'a'..='z' => c as usize - 'a' as usize,
                '0'..='9' => 26 + (c as usize - '0' as usize),
                _ => 36 + c as usize % 28,
            };
            let shift = class % 2 * 4;
            let byte = &mut counts[class / 2];
            if (*byte >> shift) & 0xF < 15 {
                *byte += 1 << shift;
            }
        }
        Self(counts)
    }

    /// A lower bound on the Levenshtein distance between this histogram's
    /// string, of `len` chars, and `other`'s, of `other_len` chars.
    ///
    /// The bag distance of two strings — the larger of their surpluses,
    /// `Σ max(0, a[c] − b[c])` and the reverse — never exceeds their edit
    /// distance, and counting by class and saturating only shrink each
    /// surplus. The two true surpluses differ by exactly the length
    /// difference, so the longer side's is also at least the shorter
    /// side's counted surplus plus that difference.
    #[inline]
    pub fn distance_bound(&self, len: usize, other: &Self, other_len: usize) -> usize {
        // Per byte, each side's surplus over its two classes (at most 30),
        // in a loop the compiler turns into a few vector instructions.
        let (mut mine, mut theirs) = ([0u8; 32], [0u8; 32]);
        for i in 0..32 {
            let (a, b) = (self.0[i], other.0[i]);
            let (a_lo, a_hi, b_lo, b_hi) = (a & 0xF, a >> 4, b & 0xF, b >> 4);
            mine[i] = a_lo.saturating_sub(b_lo) + a_hi.saturating_sub(b_hi);
            theirs[i] = b_lo.saturating_sub(a_lo) + b_hi.saturating_sub(a_hi);
        }
        let (mine, theirs) = (byte_sum(&mine), byte_sum(&theirs));
        if len >= other_len {
            mine.max(theirs + (len - other_len))
        } else {
            theirs.max(mine + (other_len - len))
        }
    }
}

/// The sum of 32 bytes of at most 30 each: four words added lane by lane
/// (at most 120 a lane), then the lanes folded in pairs and summed by one
/// multiplication.
fn byte_sum(bytes: &[u8; 32]) -> usize {
    let lanes = bytes
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
        .sum::<u64>();
    const EVEN: u64 = 0x00FF_00FF_00FF_00FF;
    let pairs = (lanes & EVEN) + ((lanes >> 8) & EVEN);
    (pairs.wrapping_mul(0x0001_0001_0001_0001) >> 48) as usize
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
                token_jaccard(a, b).to_bits(),
                token_jaccard_sorted(&token_set(a), &token_set(b)).to_bits()
            );
        }
    }
}

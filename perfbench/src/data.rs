//! Workload inputs: the DBpedia–NYTimes datagen pair written as `.nt`
//! files, its ground truth, and the initial candidate links at Figure
//! 2(a)'s starting quality. Everything derives from the data seed.

use std::path::{Path, PathBuf};

use alex_datagen::{degrade, generate, PaperPair};
use alex_rdf::{ntriples, Interner, Link, Store};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::span;

/// Initial candidate-link quality (precision, recall) of Figure 2(a), as
/// the `exp_*` binaries use it. PARIS's own output is not used: above the
/// paper's 0.95 cut it yields almost no links on the synthetic pair.
pub const INITIAL_QUALITY: (f64, f64) = (0.85, 0.20);

/// Links as `(left IRI, right IRI)` pairs.
pub type Pairs = Vec<(String, String)>;

/// One generated dataset pair on disk.
pub struct Dataset {
    pub left: PathBuf,
    pub right: PathBuf,
    /// Ground-truth sameAs links as IRI pairs, sorted.
    pub truth: Vec<(String, String)>,
    /// Initial candidate links as IRI pairs, in `degrade` order.
    pub initial: Vec<(String, String)>,
    pub left_triples: usize,
    pub right_triples: usize,
}

/// Generates the pair at `scale` from `seed`, writes `left.nt` and
/// `right.nt` into `dir`, and derives the initial links from `seed`.
pub fn write_dataset(dir: &Path, scale: f64, seed: u64) -> std::io::Result<Dataset> {
    std::fs::create_dir_all(dir)?;
    let pair = generate(&PaperPair::DbpediaNytimes.spec(scale, seed));
    let left = dir.join("left.nt");
    let right = dir.join("right.nt");
    std::fs::write(&left, ntriples::write_string(&pair.left))?;
    std::fs::write(&right, ntriples::write_string(&pair.right))?;
    let as_iris = |l: &Link| {
        (
            pair.left.iri_str(l.left).to_string(),
            pair.right.iri_str(l.right).to_string(),
        )
    };
    let mut truth: Vec<(String, String)> = pair.truth.iter().map(as_iris).collect();
    truth.sort();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C_0A11);
    let (p0, r0) = INITIAL_QUALITY;
    let initial = degrade(&pair.truth, p0, r0, &mut rng)
        .iter()
        .map(as_iris)
        .collect();
    Ok(Dataset {
        left,
        right,
        truth,
        initial,
        left_triples: pair.left.len(),
        right_triples: pair.right.len(),
    })
}

/// Both stores parsed from the `.nt` files with `ntriples::read_str`, in
/// the order the server loads them (left, then right, one interner), so
/// IRI ids agree with a server session built from the same files.
pub fn load(ds: &Dataset) -> (Store, Store) {
    let _span = span("rdf", "rdf.load");
    let interner = Interner::new_shared();
    let mut left = Store::new(interner.clone());
    let mut right = Store::new(interner);
    for (path, store) in [(&ds.left, &mut left), (&ds.right, &mut right)] {
        let text = std::fs::read_to_string(path).expect("reading generated dataset");
        ntriples::read_str(&text, store).expect("generated dataset parses");
    }
    (left, right)
}

/// IRI pairs as links of the loaded stores.
pub fn links(pairs: &[(String, String)], left: &Store, right: &Store) -> Vec<Link> {
    pairs
        .iter()
        .map(|(l, r)| Link::new(left.intern_iri(l), right.intern_iri(r)))
        .collect()
}

/// JSON array of `[left, right]` IRI pairs.
pub fn pairs_json(pairs: &[(String, String)]) -> String {
    let items: Vec<String> = pairs
        .iter()
        .map(|(l, r)| format!("[{}, {}]", json_str(l), json_str(r)))
        .collect();
    format!("[{}]", items.join(", "))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

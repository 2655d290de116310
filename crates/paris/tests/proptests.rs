//! Property-based tests for the PARIS linker.

use std::collections::{HashMap, HashSet};

use alex_core::parallel::Executor;
use alex_paris::{blocking, functionality::FunctionalityTable, ParisConfig, ParisLinker};
use alex_rdf::{Interner, IriId, Literal, Store};
use alex_sim::{SimConfig, ValueTable};
use proptest::prelude::*;

/// How a team's IRIs appear in the two stores, which decides the path an
/// attribute pair `team(x, y)`, `club(x', y')` takes through `eq(y, y')`.
#[derive(Clone, Copy, Debug)]
enum TeamIris {
    /// Each side names and describes its own IRI: `(y, y')` is a
    /// candidate pair, so `eq` is the belief in it.
    Own,
    /// Each side describes the *other* side's IRI: only `(y', y)` is a
    /// candidate pair, so `eq` is the reversed belief.
    Mirrored,
    /// Both sides use and describe one IRI: `eq` is 1.0 on identity.
    Shared,
}

fn arb_team() -> impl Strategy<Value = TeamIris> {
    (0u8..3).prop_map(|k| match k {
        0 => TeamIris::Own,
        1 => TeamIris::Mirrored,
        _ => TeamIris::Shared,
    })
}

/// A random world: `names.len()` people rendered into both stores with
/// shared birth years and names, plus per-side extra attributes. Where
/// `typos` says so, the right name loses its last char and the right year
/// is one off; where `aliases` says so, the left name is also given in
/// upper case. With `teams`, person `i` also
/// references team `i % teams.len()` by IRI on both sides, and every team
/// entity has its own name literal.
fn build_stores(
    names: &[String],
    extra_left: usize,
    teams: &[TeamIris],
    typos: &[bool],
    aliases: &[bool],
) -> (Store, Store, Vec<(IriId, IriId)>) {
    let interner = Interner::new_shared();
    let mut left = Store::new(interner.clone());
    let mut right = Store::new(interner.clone());
    let name_l = left.intern_iri("l/name");
    let name_r = right.intern_iri("r/label");
    let year_l = left.intern_iri("l/year");
    let born_r = right.intern_iri("r/born");
    let team_l = left.intern_iri("l/team");
    let club_r = right.intern_iri("r/club");
    let team_name_l = left.intern_iri("l/teamName");
    let title_r = right.intern_iri("r/title");

    let mut team_iris = Vec::new();
    for (j, &kind) in teams.iter().enumerate() {
        let own = (
            left.intern_iri(&format!("l/t{j}")),
            right.intern_iri(&format!("r/t{j}")),
        );
        let shared = left.intern_iri(&format!("s/t{j}"));
        let (y, y2, described) = match kind {
            TeamIris::Own => (own.0, own.1, own),
            TeamIris::Mirrored => (own.0, own.1, (own.1, own.0)),
            TeamIris::Shared => (shared, shared, (shared, shared)),
        };
        let title = format!("athletic club number {j}");
        left.insert_literal(described.0, team_name_l, Literal::str(&interner, &title));
        right.insert_literal(described.1, title_r, Literal::str(&interner, &title));
        team_iris.push((y, y2));
    }

    let mut gt = Vec::new();
    for (i, nm) in names.iter().enumerate() {
        let l = left.intern_iri(&format!("l/e{i}"));
        let r = right.intern_iri(&format!("r/e{i}"));
        left.insert_literal(l, name_l, Literal::str(&interner, nm));
        if aliases.get(i).copied().unwrap_or(false) {
            let alias = nm.to_uppercase();
            left.insert_literal(l, name_l, Literal::str(&interner, &alias));
        }
        left.insert_literal(l, year_l, Literal::Integer(1900 + i as i64));
        let typo = typos.get(i).copied().unwrap_or(false);
        let label = if typo { &nm[..nm.len() - 1] } else { nm };
        right.insert_literal(r, name_r, Literal::str(&interner, label));
        let born = 1900 + i as i64 + i64::from(typo);
        right.insert_literal(r, born_r, Literal::Integer(born));
        if !team_iris.is_empty() {
            let (y, y2) = team_iris[i % team_iris.len()];
            left.insert_iri(l, team_l, y);
            right.insert_iri(r, club_r, y2);
        }
        gt.push((l, r));
    }
    for k in 0..extra_left {
        let l = left.intern_iri(&format!("l/x{k}"));
        left.insert_literal(
            l,
            name_l,
            Literal::str(&interner, &format!("unique extra {k}")),
        );
    }
    (left, right, gt)
}

fn arb_names() -> impl Strategy<Value = Vec<String>> {
    // Distinct multi-token names.
    proptest::collection::hash_set("[a-z]{4,9} [a-z]{4,9}", 1..12)
        .prop_map(|s| s.into_iter().collect())
}

/// The parameters of [`build_stores`].
#[derive(Clone, Debug)]
struct World {
    names: Vec<String>,
    extra: usize,
    teams: Vec<TeamIris>,
    typos: Vec<bool>,
    aliases: Vec<bool>,
}

impl World {
    fn stores(&self) -> (Store, Store) {
        let (left, right, _) = build_stores(
            &self.names,
            self.extra,
            &self.teams,
            &self.typos,
            &self.aliases,
        );
        (left, right)
    }
}

prop_compose! {
    /// A world with extra left entities, team references, typos and
    /// aliases.
    fn arb_world()(
        names in arb_names(),
        extra in 0usize..4,
        teams in proptest::collection::vec(arb_team(), 0..4),
        typos in proptest::collection::vec(any::<bool>(), 0..12),
        aliases in proptest::collection::vec(any::<bool>(), 0..12),
    ) -> World {
        World { names, extra, teams, typos, aliases }
    }
}

/// Blocking on a fresh value table over both stores.
fn candidates(
    left: &Store,
    right: &Store,
    max_block: usize,
    threads: usize,
) -> Vec<(IriId, IriId)> {
    let table = ValueTable::from_stores(Default::default(), left, right);
    blocking::candidate_pairs_with(left, right, &table, max_block, &Executor::new(threads))
}

/// Links as `(left, right, score bits)` and learned alignments as
/// `(left, right, weight bits)`, in output order.
type Bits = (Vec<(IriId, IriId, u64)>, Vec<(IriId, IriId, u64)>);

fn run_bits(left: &Store, right: &Store, threads: usize) -> Bits {
    let out = ParisLinker::new(ParisConfig {
        threads,
        ..Default::default()
    })
    .run(left, right);
    let links = out
        .links
        .iter()
        .map(|s| (s.link.left, s.link.right, s.score.to_bits()))
        .collect();
    let weights = out
        .alignments
        .iter()
        .map(|(l, r, w)| (l, r, w.to_bits()))
        .collect();
    (links, weights)
}

/// The blocking and fixpoint as they ran before the evidence table and
/// the interned blocking keys: blocking keys built per triple, and every
/// round re-scoring every attribute pair of every candidate pair against
/// `HashMap`s of beliefs and alignments. Kept as a test oracle only.
mod reference {
    use super::*;
    use alex_rdf::{Link, ScoredLink, Term};
    use alex_sim::string::tokens;
    use alex_sim::ValueId;

    #[derive(Clone, PartialEq, Eq, Hash)]
    enum Key {
        Whole(String),
        Token(String),
    }

    fn keys_of(store: &Store, term: &Term) -> Vec<Key> {
        let lit = match term {
            Term::Literal(l) => l,
            Term::Iri(id) => {
                let iri = store.iri_str(*id);
                let local = alex_sim::iri_local_name(&iri).to_lowercase();
                if local.is_empty() {
                    return Vec::new();
                }
                return vec![Key::Whole(local)];
            }
        };
        match lit {
            Literal::Str(_) | Literal::LangStr { .. } => {
                let text = lit.lexical(store.interner()).to_lowercase();
                if text.is_empty() {
                    return Vec::new();
                }
                let mut keys = vec![Key::Whole(text.clone())];
                for tok in tokens(&text) {
                    if tok.len() >= 3 {
                        keys.push(Key::Token(tok));
                    }
                }
                keys
            }
            Literal::Integer(_) | Literal::Float(_) | Literal::Date(_) => {
                vec![Key::Whole(lit.lexical(store.interner()).to_string())]
            }
            Literal::Boolean(_) => Vec::new(),
        }
    }

    fn index(store: &Store, max_block_size: usize) -> HashMap<Key, Vec<IriId>> {
        let mut idx: HashMap<Key, HashSet<IriId>> = HashMap::new();
        for t in store.iter() {
            for key in keys_of(store, &t.object) {
                idx.entry(key).or_default().insert(t.subject);
            }
        }
        idx.into_iter()
            .filter(|(_, v)| v.len() <= max_block_size)
            .map(|(k, v)| (k, v.into_iter().collect()))
            .collect()
    }

    pub fn candidate_pairs(left: &Store, right: &Store, max_block: usize) -> Vec<(IriId, IriId)> {
        let left_idx = index(left, max_block);
        let right_idx = index(right, max_block);
        let mut out = Vec::new();
        for (key, ls) in &left_idx {
            if let Some(rs) = right_idx.get(key) {
                for &l in ls {
                    for &r in rs {
                        out.push((l, r));
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Pairs below this belief carry no weight in alignment estimation
    /// (the crate's `MATCH_CUTOFF`).
    const MATCH_CUTOFF: f64 = 0.05;

    type Scores = HashMap<(IriId, IriId), f64>;

    fn object_eq(
        y: ValueId,
        y2: ValueId,
        scores: &Scores,
        cfg: &ParisConfig,
        table: &ValueTable,
    ) -> f64 {
        match (table.term(y), table.term(y2)) {
            (Term::Iri(a), Term::Iri(b)) => {
                if a == b {
                    1.0
                } else {
                    scores
                        .get(&(a, b))
                        .copied()
                        .unwrap_or_else(|| scores.get(&(b, a)).copied().unwrap_or(0.0))
                }
            }
            _ => {
                let s = table.similarity(y, y2);
                if s >= cfg.literal_threshold {
                    s
                } else {
                    0.0
                }
            }
        }
    }

    fn assign(scores: &Scores, mutual_best: bool) -> Vec<ScoredLink> {
        let mut best_left: HashMap<IriId, (IriId, f64)> = HashMap::new();
        let mut best_right: HashMap<IriId, (IriId, f64)> = HashMap::new();
        let mut ordered: Vec<(&(IriId, IriId), &f64)> = scores.iter().collect();
        ordered.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for (&(l, r), &s) in ordered {
            if s <= 0.0 {
                continue;
            }
            let bl = best_left.entry(l).or_insert((r, s));
            if s > bl.1 {
                *bl = (r, s);
            }
            let br = best_right.entry(r).or_insert((l, s));
            if s > br.1 {
                *br = (l, s);
            }
        }
        let mut out: Vec<ScoredLink> = best_left
            .into_iter()
            .filter(|&(l, (r, _))| {
                !mutual_best || best_right.get(&r).is_some_and(|&(bl, _)| bl == l)
            })
            .map(|(l, (r, s))| ScoredLink::new(Link::new(l, r), s))
            .collect();
        out.sort_unstable_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap()
                .then_with(|| a.link.cmp(&b.link))
        });
        out
    }

    /// [`ParisLinker::run`]'s links and learned alignments, computed by
    /// the per-round loop.
    pub fn run(left: &Store, right: &Store, cfg: &ParisConfig) -> Bits {
        let table = ValueTable::from_stores(SimConfig::default(), left, right);
        let fun_left = FunctionalityTable::build(left);
        let fun_right = FunctionalityTable::build(right);
        let pairs = candidate_pairs(left, right, cfg.max_block_size);
        let rows: Vec<_> = pairs
            .iter()
            .map(|&(l, r)| {
                (
                    table.attributes(&left.entity(l)),
                    table.attributes(&right.entity(r)),
                )
            })
            .collect();

        let mut scores: Scores = HashMap::new();
        // `None` is the uniform prior of the first round.
        let mut learned: Option<Scores> = None;
        for _round in 0..cfg.iterations.max(1) {
            let align = |lp: IriId, rp: IriId| match &learned {
                None => cfg.initial_alignment.clamp(0.0, 1.0),
                Some(m) => m.get(&(lp, rp)).copied().unwrap_or(0.0),
            };
            let mut next: Scores = HashMap::new();
            for (&(l, r), (el, er)) in pairs.iter().zip(&rows) {
                let mut best: HashMap<(IriId, IriId), f64> = HashMap::new();
                for &(lp, ly) in el {
                    for &(rp, ry) in er {
                        let a = align(lp, rp);
                        if a <= 0.0 {
                            continue;
                        }
                        let eq = object_eq(ly, ry, &scores, cfg, &table);
                        if eq <= 0.0 {
                            continue;
                        }
                        let ident = fun_left.ifun(lp).max(fun_right.ifun(rp));
                        let evidence = a * ident * eq;
                        let slot = best.entry((lp, rp)).or_insert(0.0);
                        if evidence > *slot {
                            *slot = evidence;
                        }
                    }
                }
                let mut evidence: Vec<((IriId, IriId), f64)> = best.into_iter().collect();
                evidence.sort_unstable_by_key(|&(k, _)| k);
                let miss: f64 = evidence.iter().map(|&(_, e)| 1.0 - e).product();
                let p = 1.0 - miss;
                if p > 0.0 {
                    next.insert((l, r), p);
                }
            }
            scores = next;

            let mut numer: Scores = HashMap::new();
            let mut denom: HashMap<IriId, f64> = HashMap::new();
            for (&(l, r), (el, er)) in pairs.iter().zip(&rows) {
                let belief = scores.get(&(l, r)).copied().unwrap_or(0.0);
                if belief < MATCH_CUTOFF {
                    continue;
                }
                let w = belief * belief;
                for &(lp, ly) in el {
                    *denom.entry(lp).or_insert(0.0) += w;
                    let mut best: HashMap<IriId, f64> = HashMap::new();
                    for &(rp, ry) in er {
                        let eq = object_eq(ly, ry, &scores, cfg, &table);
                        if eq > 0.0 {
                            let slot = best.entry(rp).or_insert(0.0);
                            if eq > *slot {
                                *slot = eq;
                            }
                        }
                    }
                    let mut best: Vec<(IriId, f64)> = best.into_iter().collect();
                    best.sort_unstable_by_key(|&(rp, _)| rp);
                    for (rp, eq) in best {
                        *numer.entry((lp, rp)).or_insert(0.0) += w * eq;
                    }
                }
            }
            learned = Some(
                numer
                    .into_iter()
                    .filter_map(|((lp, rp), n)| {
                        let d = denom.get(&lp).copied().unwrap_or(0.0);
                        (d > 0.0).then(|| ((lp, rp), (n / d).clamp(0.0, 1.0)))
                    })
                    .collect(),
            );
        }

        let links = assign(&scores, cfg.mutual_best)
            .iter()
            .map(|s| (s.link.left, s.link.right, s.score.to_bits()))
            .collect();
        let mut weights: Vec<(IriId, IriId, u64)> = learned
            .unwrap_or_default()
            .into_iter()
            .map(|((l, r), w)| (l, r, w.to_bits()))
            .collect();
        weights.sort_unstable();
        (links, weights)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Functionality and inverse functionality are always in (0, 1].
    #[test]
    fn functionality_bounds(world in arb_world()) {
        let (left, _) = world.stores();
        let table = FunctionalityTable::build(&left);
        for p in left.predicates() {
            let f = table.fun(p);
            let inv = table.ifun(p);
            prop_assert!(f > 0.0 && f <= 1.0, "fun {f}");
            prop_assert!(inv > 0.0 && inv <= 1.0, "ifun {inv}");
            prop_assert!(table.triples(p) > 0);
        }
    }

    /// Blocking always proposes every exact-shared-name pair.
    #[test]
    fn blocking_finds_exact_shares(names in arb_names(), teams in proptest::collection::vec(arb_team(), 0..4)) {
        let (left, right, gt) = build_stores(&names, 0, &teams, &[], &[]);
        let pairs: HashSet<(IriId, IriId)> = candidates(&left, &right, 50, 1).into_iter().collect();
        for (l, r) in gt {
            prop_assert!(pairs.contains(&(l, r)), "missing exact pair");
        }
    }

    /// Blocking over interned per-value keys returns exactly the pairs of
    /// per-triple string keys, whole-value and token keys kept apart,
    /// including which oversized buckets are dropped.
    #[test]
    fn blocking_matches_reference(world in arb_world(), max_block in 1usize..20) {
        let (left, right) = world.stores();
        prop_assert_eq!(
            candidates(&left, &right, max_block, 1),
            reference::candidate_pairs(&left, &right, max_block)
        );
    }

    /// The final assignment is functional in both directions when
    /// `mutual_best` is on: no entity appears in two links.
    #[test]
    fn assignment_is_one_to_one(world in arb_world()) {
        let (left, right) = world.stores();
        let out = ParisLinker::new(ParisConfig::default()).run(&left, &right);
        let mut lefts = HashSet::new();
        let mut rights = HashSet::new();
        for s in &out.links {
            prop_assert!((0.0..=1.0).contains(&s.score), "score {}", s.score);
            prop_assert!(lefts.insert(s.link.left), "left entity linked twice");
            prop_assert!(rights.insert(s.link.right), "right entity linked twice");
        }
    }

    /// On clean exact-name worlds, PARIS achieves perfect recall of the
    /// ground truth.
    #[test]
    fn perfect_world_perfect_recall(names in arb_names()) {
        let (left, right, gt) = build_stores(&names, 0, &[], &[], &[]);
        let out = ParisLinker::new(ParisConfig::default()).run(&left, &right);
        let links: HashSet<_> = out.links.iter().map(|s| (s.link.left, s.link.right)).collect();
        for (l, r) in gt {
            prop_assert!(links.contains(&(l, r)), "missing clean link");
        }
    }

    /// PARIS is deterministic: two runs produce identical output, bit for
    /// bit, including the learned alignments.
    #[test]
    fn deterministic(world in arb_world()) {
        let (left, right) = world.stores();
        prop_assert_eq!(run_bits(&left, &right, 0), run_bits(&left, &right, 0));
    }

    /// Parallel blocking is identical to the 1-thread run: the merged
    /// candidate list is sorted and deduplicated, so the worker count
    /// cannot leak into the output.
    #[test]
    fn parallel_blocking_matches_serial(world in arb_world()) {
        let (left, right) = world.stores();
        prop_assert_eq!(candidates(&left, &right, 50, 1), candidates(&left, &right, 50, 4));
    }

    /// The full PARIS pipeline — blocking, evidence build, equivalence
    /// fixpoint, and alignment estimation — is bit-identical across thread
    /// counts, including every link score and alignment weight.
    #[test]
    fn parallel_pipeline_matches_serial(world in arb_world()) {
        let (left, right) = world.stores();
        prop_assert_eq!(run_bits(&left, &right, 1), run_bits(&left, &right, 4));
    }

    /// [`ParisLinker::run`] reproduces the per-round reference loop bit
    /// for bit: links, scores and learned alignment weights. Team
    /// references send IRI pairs through the belief lookup, forward and
    /// reversed, and through identity; typos put literal similarities
    /// strictly between the threshold and 1; aliases give a left entity
    /// two values of one predicate, each counted in the alignment.
    #[test]
    fn run_matches_reference_fixpoint(world in arb_world()) {
        let (left, right) = world.stores();
        let cfg = ParisConfig::default();
        prop_assert_eq!(run_bits(&left, &right, 0), reference::run(&left, &right, &cfg));
    }
}

//! Property-based tests for ALEX's core data structures and invariants.

use std::collections::HashSet;

use alex_core::parallel::Executor;
use alex_core::{
    round_robin, AlexConfig, CandidateSet, ExplorationSpace, FeatureKey, FeatureSet, Policy,
    QTable, Quality, DEFAULT_MAX_BLOCK,
};
use alex_rdf::{Interner, IriId, Link, Literal, Store};
use alex_sim::{SimConfig, ValueTable};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn link(i: &Interner, a: u32, b: u32) -> Link {
    Link::new(
        IriId(i.intern(&format!("l{a}"))),
        IriId(i.intern(&format!("r{b}"))),
    )
}

// ---------------------------------------------------------------- candidates

#[derive(Clone, Debug)]
enum SetOp {
    Insert(u32, u32),
    Remove(u32, u32),
}

fn arb_ops() -> impl Strategy<Value = Vec<SetOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u32..20, 0u32..20).prop_map(|(a, b)| SetOp::Insert(a, b)),
            (0u32..20, 0u32..20).prop_map(|(a, b)| SetOp::Remove(a, b)),
        ],
        0..200,
    )
}

proptest! {
    /// CandidateSet behaves exactly like a HashSet under arbitrary
    /// insert/remove interleavings (model-based test of the swap-remove
    /// index maintenance).
    #[test]
    fn candidate_set_matches_model(ops in arb_ops()) {
        let interner = Interner::new();
        let mut set = CandidateSet::new();
        let mut model: HashSet<Link> = HashSet::new();
        for op in ops {
            match op {
                SetOp::Insert(a, b) => {
                    let l = link(&interner, a, b);
                    prop_assert_eq!(set.insert(l), model.insert(l));
                }
                SetOp::Remove(a, b) => {
                    let l = link(&interner, a, b);
                    prop_assert_eq!(set.remove(l), model.remove(&l));
                }
            }
            prop_assert_eq!(set.len(), model.len());
        }
        prop_assert_eq!(set.to_set(), model);
    }

    /// Sampling only ever returns members.
    #[test]
    fn candidate_sample_is_member(pairs in proptest::collection::vec((0u32..30, 0u32..30), 1..40), seed in 0u64..1000) {
        let interner = Interner::new();
        let set = CandidateSet::from_links(pairs.iter().map(|&(a, b)| link(&interner, a, b)));
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let s = set.sample(&mut rng).unwrap();
            prop_assert!(set.contains(s));
        }
    }

    // ---------------------------------------------------------------- partition

    /// Round-robin partitioning is a partition: disjoint, covering, and
    /// balanced to within one element.
    #[test]
    fn round_robin_is_balanced_partition(n_subjects in 0usize..200, n_parts in 1usize..40) {
        let interner = Interner::new();
        let subjects: Vec<IriId> =
            (0..n_subjects).map(|k| IriId(interner.intern(&format!("s{k}")))).collect();
        let parts = round_robin(&subjects, n_parts);
        prop_assert_eq!(parts.len(), n_parts);
        let mut seen = HashSet::new();
        for p in &parts {
            for s in p {
                prop_assert!(seen.insert(*s), "duplicate subject");
            }
        }
        prop_assert_eq!(seen.len(), n_subjects);
        let min = parts.iter().map(Vec::len).min().unwrap();
        let max = parts.iter().map(Vec::len).max().unwrap();
        prop_assert!(max - min <= 1);
    }

    // ---------------------------------------------------------------- Q table

    /// Q(s,a) is always the arithmetic mean of the appended rewards.
    #[test]
    fn q_is_mean_of_returns(rewards in proptest::collection::vec(-5.0f64..5.0, 1..50)) {
        let interner = Interner::new();
        let s = link(&interner, 0, 0);
        let a = alex_core::FeatureKey::new(IriId(interner.intern("p")), IriId(interner.intern("q")));
        let mut q = QTable::new();
        for &r in &rewards {
            q.append(s, a, r);
        }
        let mean = rewards.iter().sum::<f64>() / rewards.len() as f64;
        prop_assert!((q.q(s, a).unwrap() - mean).abs() < 1e-9);
        prop_assert_eq!(q.observations(s, a), rewards.len() as u32);
    }

    // ---------------------------------------------------------------- metrics

    /// Quality stays in bounds and F is the harmonic mean.
    #[test]
    fn quality_bounds_and_f1(correct in 0usize..50, wrong in 0usize..50, missed in 0usize..50) {
        let interner = Interner::new();
        let mut cands = HashSet::new();
        let mut truth = HashSet::new();
        for k in 0..correct {
            let l = link(&interner, k as u32, k as u32);
            cands.insert(l);
            truth.insert(l);
        }
        for k in 0..wrong {
            cands.insert(link(&interner, 100 + k as u32, 200 + k as u32));
        }
        for k in 0..missed {
            truth.insert(link(&interner, 300 + k as u32, 300 + k as u32));
        }
        let q = Quality::compute(&cands, &truth);
        prop_assert!((0.0..=1.0).contains(&q.precision));
        prop_assert!((0.0..=1.0).contains(&q.recall));
        prop_assert!((0.0..=1.0).contains(&q.f1));
        if q.precision + q.recall > 0.0 {
            let expect = 2.0 * q.precision * q.recall / (q.precision + q.recall);
            prop_assert!((q.f1 - expect).abs() < 1e-12);
        }
        prop_assert!(q.f1 <= q.precision.max(q.recall) + 1e-12);
    }
}

// ------------------------------------------------------------------- space

/// Generates a small two-store world with `n` named entity pairs.
fn build_world(names: &[String]) -> (Store, Store, Vec<IriId>) {
    let interner = Interner::new_shared();
    let mut left = Store::new(interner.clone());
    let mut right = Store::new(interner.clone());
    let name_l = left.intern_iri("l/name");
    let year_l = left.intern_iri("l/year");
    let name_r = right.intern_iri("r/label");
    let year_r = right.intern_iri("r/born");
    let mut subjects = Vec::new();
    for (i, nm) in names.iter().enumerate() {
        let ls = left.intern_iri(&format!("l/e{i}"));
        left.insert_literal(ls, name_l, Literal::str(&interner, nm));
        left.insert_literal(ls, year_l, Literal::Integer(1900 + (i as i64 % 70)));
        subjects.push(ls);
        let rs = right.intern_iri(&format!("r/e{i}"));
        right.insert_literal(rs, name_r, Literal::str(&interner, nm));
        right.insert_literal(rs, year_r, Literal::Integer(1900 + (i as i64 % 70)));
    }
    (left, right, subjects)
}

/// One attribute per word on every entity of the wide world.
const WIDE_WORDS: [&str; 8] = [
    "red", "green", "blue", "amber", "violet", "ochre", "teal", "umber",
];
const WIDE_RIGHT_PREDICATES: usize = 13;

/// A world whose entities have one attribute per `WIDE_WORDS` entry, with
/// the right-side predicate of each value rotated per entity, so the pairs
/// carry up to 8 × 13 = 104 distinct predicate pairs: more key ids than a
/// range entry's key mask has bits.
fn build_wide_world(names: &[String]) -> (Store, Store, Vec<IriId>) {
    let interner = Interner::new_shared();
    let mut left = Store::new(interner.clone());
    let mut right = Store::new(interner.clone());
    let mut subjects = Vec::new();
    for (i, nm) in names.iter().enumerate() {
        let ls = left.intern_iri(&format!("l/e{i}"));
        let rs = right.intern_iri(&format!("r/e{i}"));
        for (j, word) in WIDE_WORDS.iter().enumerate() {
            let value = format!("{nm} {word}");
            let lp = left.intern_iri(&format!("l/p{j}"));
            let rp = right.intern_iri(&format!("r/q{}", (j + 3 * i) % WIDE_RIGHT_PREDICATES));
            left.insert_literal(ls, lp, Literal::str(&interner, &value));
            right.insert_literal(rs, rp, Literal::str(&interner, &value));
        }
        subjects.push(ls);
    }
    (left, right, subjects)
}

fn arb_names() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-z]{3,8} [a-z]{3,8}", 2..15)
}

/// The documented `explore_from` predicate on full feature sets: every
/// feature `cand` shares with `state` scores at least the state's score
/// minus `step`, and at least `⌈n/2⌉` (and 2, when `n ≥ 2`) of the
/// state's `n` features are shared, the explored `key` included.
fn qualifies(state: &FeatureSet, cand: &FeatureSet, key: FeatureKey, step: f64) -> bool {
    let n = state.len();
    let required = n.div_ceil(2).max(2.min(n));
    let mut shared = 0usize;
    for sf in state.features() {
        if sf.key == key {
            shared += 1;
            continue;
        }
        match cand.score_of(sf.key) {
            Some(cv) if cv >= sf.score - step => shared += 1,
            Some(_) => return false,
            None => {}
        }
    }
    shared >= required
}

/// From every state of `space`, `explore_from` returns exactly the links
/// of `explore` over the same range that satisfy [`qualifies`], in the
/// same order: candidate insertion order drives sampling.
fn check_explore_from_filters_explore(space: &ExplorationSpace, step: f64) {
    for state_link in space.links() {
        let state = space.feature_set(state_link).unwrap();
        for f in state.features() {
            let want: Vec<Link> = space
                .explore(f.key, f.score, step)
                .into_iter()
                .filter(|&l| qualifies(&state, &space.feature_set(l).unwrap(), f.key, step))
                .collect();
            assert_eq!(space.explore_from(&state, f.key, step), want);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `explore_from` results always (1) exist in the space, (2) satisfy
    /// the explored-feature range, and (3) satisfy the shared-feature
    /// lower bounds — checked against a brute-force scan of the space.
    #[test]
    fn explore_from_matches_spec(names in arb_names(), step in 0.01f64..0.3) {
        let (left, right, subjects) = build_world(&names);
        let space = ExplorationSpace::build(
            &left, &right, &subjects, &SimConfig::default(), 0.3, DEFAULT_MAX_BLOCK,
        );
        let Some(state_link) = space.links().next() else { return Ok(()); };
        let state: FeatureSet = space.feature_set(state_link).unwrap();
        for f in state.features() {
            let got: HashSet<Link> = space.explore_from(&state, f.key, step).into_iter().collect();
            // Soundness: every result satisfies the documented conditions.
            for l in &got {
                let cand = space.feature_set(*l).expect("result is in space");
                let v = cand.score_of(f.key).expect("result has the explored feature");
                prop_assert!(v >= f.score - step - 1e-12 && v <= f.score + step + 1e-12);
                for sf in state.features() {
                    if let Some(cv) = cand.score_of(sf.key) {
                        prop_assert!(cv >= sf.score - step - 1e-12,
                            "shared feature below bound: {cv} < {} - {step}", sf.score);
                    }
                }
            }
            // Completeness against brute force over the whole space.
            let n = state.len();
            let required = n.div_ceil(2).max(2.min(n));
            for l in space.links() {
                if got.contains(&l) {
                    continue;
                }
                let cand = space.feature_set(l).unwrap();
                let Some(v) = cand.score_of(f.key) else { continue };
                if !(v >= f.score - step && v <= f.score + step) {
                    continue;
                }
                let mut shared = 0usize;
                let mut violated = false;
                for sf in state.features() {
                    if sf.key == f.key {
                        shared += 1;
                        continue;
                    }
                    match cand.score_of(sf.key) {
                        Some(cv) if cv >= sf.score - step => shared += 1,
                        Some(_) => violated = true,
                        None => {}
                    }
                }
                prop_assert!(
                    violated || shared < required,
                    "brute force found a qualifying link the range query missed: {l:?}"
                );
            }
        }
    }

    /// `explore_from` is the ordered filter of `explore` by the documented
    /// predicate, from every state of the space.
    #[test]
    fn explore_from_is_ordered_filter_of_explore(names in arb_names(), step in 0.01f64..0.3) {
        let (left, right, subjects) = build_world(&names);
        let space = ExplorationSpace::build(
            &left, &right, &subjects, &SimConfig::default(), 0.3, DEFAULT_MAX_BLOCK,
        );
        check_explore_from_filters_explore(&space, step);
    }

    /// The same, over a space with more feature keys than the range
    /// entries' key mask has bits, so states hold keys the mask cannot
    /// see and the prefilter must count them as possibly shared.
    #[test]
    fn explore_from_past_the_key_mask_width(
        names in proptest::collection::vec("[a-z]{3,8} [a-z]{3,8}", 13..18),
        step in 0.01f64..0.3,
    ) {
        let (left, right, subjects) = build_wide_world(&names);
        let space = ExplorationSpace::build(
            &left, &right, &subjects, &SimConfig::default(), 0.3, DEFAULT_MAX_BLOCK,
        );
        prop_assert!(space.feature_key_count() > 64, "only {} keys", space.feature_key_count());
        check_explore_from_filters_explore(&space, step);
    }

    /// Feature sets in a built space always respect θ and uniqueness.
    #[test]
    fn space_feature_sets_respect_theta(names in arb_names(), theta in 0.1f64..0.9) {
        let (left, right, subjects) = build_world(&names);
        let space = ExplorationSpace::build(
            &left, &right, &subjects, &SimConfig::default(), theta, DEFAULT_MAX_BLOCK,
        );
        for l in space.links() {
            let fs = space.feature_set(l).unwrap();
            prop_assert!(!fs.is_empty());
            let mut keys = HashSet::new();
            for f in fs.features() {
                prop_assert!(f.score >= theta && f.score <= 1.0 + 1e-12, "score {}", f.score);
                prop_assert!(keys.insert(f.key), "duplicate key");
            }
        }
    }

    /// Every feature set the table-scored space build keeps equals the
    /// reference `FeatureSet::build` over `value_similarity`, bit for bit.
    #[test]
    fn space_feature_sets_match_reference_build(names in arb_names(), theta in 0.1f64..0.9) {
        let (left, right, subjects) = build_world(&names);
        let sim = SimConfig::default();
        let space = ExplorationSpace::build(&left, &right, &subjects, &sim, theta, DEFAULT_MAX_BLOCK);
        for l in space.links() {
            let want = FeatureSet::build(
                &left.entity(l.left), &right.entity(l.right), left.interner(), &sim, theta,
            );
            let got = space.feature_set(l).unwrap();
            prop_assert_eq!(want.as_ref(), Some(&got));
            for (a, b) in want.unwrap().features().iter().zip(got.features()) {
                prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }

    /// Parallel space construction is bit-identical to the serial run:
    /// same links in the same order, same feature keys, and the same
    /// score bits (the `ALEX_THREADS=1` oracle of `alex-core::parallel`).
    #[test]
    fn parallel_space_build_matches_serial(names in arb_names(), theta in 0.1f64..0.9) {
        let (left, right, subjects) = build_world(&names);
        let serial = ExplorationSpace::build_with(
            &left, &right, &subjects, theta, DEFAULT_MAX_BLOCK,
            &Executor::new(1), &ValueTable::from_stores(SimConfig::default(), &left, &right),
        );
        let parallel = ExplorationSpace::build_with(
            &left, &right, &subjects, theta, DEFAULT_MAX_BLOCK,
            &Executor::new(4), &ValueTable::from_stores(SimConfig::default(), &left, &right),
        );
        prop_assert_eq!(serial.len(), parallel.len());
        prop_assert_eq!(serial.feature_key_count(), parallel.feature_key_count());
        let s_links: Vec<Link> = serial.links().collect();
        let p_links: Vec<Link> = parallel.links().collect();
        prop_assert_eq!(&s_links, &p_links);
        for l in s_links {
            let sf = serial.feature_set(l).unwrap();
            let pf = parallel.feature_set(l).unwrap();
            prop_assert_eq!(sf.len(), pf.len());
            for (a, b) in sf.features().iter().zip(pf.features()) {
                prop_assert_eq!(a.key, b.key);
                prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }

    /// The convenience `build` wrapper (auto-resolved executor, private
    /// table) matches an explicit executor + externally shared table, so
    /// sharing the table changes no result.
    #[test]
    fn cached_space_build_matches_wrapper(names in arb_names(), theta in 0.1f64..0.9) {
        let (left, right, subjects) = build_world(&names);
        let plain = ExplorationSpace::build(
            &left, &right, &subjects, &SimConfig::default(), theta, DEFAULT_MAX_BLOCK,
        );
        let table = ValueTable::from_stores(SimConfig::default(), &left, &right);
        let cached = ExplorationSpace::build_with(
            &left, &right, &subjects, theta, DEFAULT_MAX_BLOCK, &Executor::new(2), &table,
        );
        prop_assert_eq!(plain.len(), cached.len());
        for (l, l2) in plain.links().zip(cached.links()) {
            prop_assert_eq!(l, l2);
            let a = plain.feature_set(l).unwrap();
            let b = cached.feature_set(l2).unwrap();
            prop_assert_eq!(a.len(), b.len());
            for (fa, fb) in a.features().iter().zip(b.features()) {
                prop_assert_eq!(fa.key, fb.key);
                prop_assert_eq!(fa.score.to_bits(), fb.score.to_bits());
            }
        }
    }

    /// The ε-greedy policy never returns an action outside the state's
    /// feature set, and returns None only for empty feature sets.
    #[test]
    fn policy_actions_come_from_state(names in arb_names(), eps in 0.0f64..0.99, seed in 0u64..500) {
        let (left, right, subjects) = build_world(&names);
        let space = ExplorationSpace::build(
            &left, &right, &subjects, &SimConfig::default(), 0.3, DEFAULT_MAX_BLOCK,
        );
        let Some(state_link) = space.links().next() else { return Ok(()); };
        let fs = space.feature_set(state_link).unwrap();
        let keys: HashSet<_> = fs.keys().collect();
        let policy = Policy::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..30 {
            let a = policy.choose(state_link, &fs, eps, &mut rng).unwrap();
            prop_assert!(keys.contains(&a));
        }
    }
}

// ----------------------------------------------------------------- engine

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine invariants hold under arbitrary feedback sequences:
    /// blacklisted links are never candidates, and stats add up.
    #[test]
    fn engine_invariants_under_random_feedback(
        names in arb_names(),
        verdicts in proptest::collection::vec(any::<bool>(), 1..100),
        seed in 0u64..100,
    ) {
        let (left, right, subjects) = build_world(&names);
        let cfg = AlexConfig::default();
        let space = ExplorationSpace::build(
            &left, &right, &subjects, &cfg.sim, cfg.theta, DEFAULT_MAX_BLOCK,
        );
        let initial: Vec<Link> = space.links().take(3).collect();
        if initial.is_empty() {
            return Ok(());
        }
        let mut engine = alex_core::PartitionEngine::new(space, initial, cfg, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        for verdict in verdicts {
            let Some(l) = engine.candidates().sample(&mut rng) else { break };
            engine.process_feedback(l, verdict);
            // Blacklist and candidates are disjoint.
            for b in engine.blacklist() {
                prop_assert!(!engine.candidates().contains(*b));
            }
        }
        let stats = engine.end_episode();
        prop_assert!(stats.negative_feedback <= stats.feedback_items);
    }
}

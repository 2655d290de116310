//! Integration test: a SessionSnapshot survives the full persistence
//! cycle — capture → JSON → fresh process (fresh stores and interner,
//! datasets reloaded from their N-Triples serialization) → restore —
//! with identical candidates, blacklist, and config.

use std::collections::HashSet;

use alex_core::{AlexConfig, AlexDriver, ExactOracle, SessionSnapshot};
use alex_rdf::{ntriples, Interner, Link, Literal, Store};

fn world() -> (Store, Store, HashSet<Link>) {
    let interner = Interner::new_shared();
    let mut left = Store::new(interner.clone());
    let mut right = Store::new(interner.clone());
    let name_l = left.intern_iri("http://l/name");
    let name_r = right.intern_iri("http://r/label");
    let mut truth = HashSet::new();
    for i in 0..12 {
        let l = left.intern_iri(&format!("http://l/e{i}"));
        let r = right.intern_iri(&format!("http://r/e{i}"));
        let nm = format!("entity number {i}");
        left.insert_literal(l, name_l, Literal::str(&interner, &nm));
        right.insert_literal(r, name_r, Literal::str(&interner, &nm));
        truth.insert(Link::new(l, r));
    }
    (left, right, truth)
}

fn cfg() -> AlexConfig {
    AlexConfig {
        episode_size: 20,
        partitions: 2,
        max_episodes: 4,
        seed: alex_rdf::test_seed(17),
        ..Default::default()
    }
}

/// Renders both stores to N-Triples text and parses them back into a
/// completely fresh interner, as a restart would.
fn reload(left: &Store, right: &Store) -> (Store, Store) {
    let fresh = Interner::new_shared();
    let mut left2 = Store::new(fresh.clone());
    let mut right2 = Store::new(fresh.clone());
    ntriples::read_str(&ntriples::write_string(left), &mut left2).unwrap();
    ntriples::read_str(&ntriples::write_string(right), &mut right2).unwrap();
    (left2, right2)
}

#[test]
fn snapshot_restores_identically_against_reloaded_stores() {
    let (left, right, truth) = world();
    let initial: Vec<Link> = truth.iter().take(4).copied().collect();
    let mut driver = AlexDriver::new(&left, &right, &initial, cfg()).unwrap();
    let oracle = ExactOracle::new(truth.clone());
    driver.run(&oracle, &truth);

    let mut snap = SessionSnapshot::capture(&driver, &left, &right);
    // A non-empty blacklist so all three sections are exercised.
    snap.blacklist
        .push(("http://l/e0".into(), "http://r/e5".into()));
    snap.blacklist.sort();
    let json = snap.to_json();

    // "New process": parse the JSON and reload the datasets from text.
    let back = SessionSnapshot::from_json(&json).unwrap();
    assert_eq!(
        back, snap,
        "snapshot must round-trip through JSON unchanged"
    );

    let (left2, right2) = reload(&left, &right);
    let restored = back.restore(&left2, &right2).unwrap();

    // Interned ids differ across interners, so compare by IRI string.
    let mut restored_candidates: Vec<(String, String)> = restored
        .candidate_links()
        .into_iter()
        .map(|l| {
            (
                left2.iri_str(l.left).to_string(),
                right2.iri_str(l.right).to_string(),
            )
        })
        .collect();
    restored_candidates.sort();
    assert_eq!(restored_candidates, snap.candidates);
    assert_eq!(restored.config(), &snap.config);

    // Re-capturing the restored driver reproduces the snapshot exactly.
    let recaptured = SessionSnapshot::capture(&restored, &left2, &right2);
    assert_eq!(recaptured.candidates, snap.candidates);
    assert_eq!(recaptured.blacklist, snap.blacklist);
    assert_eq!(recaptured.config, snap.config);
}

#[test]
fn config_fields_survive_json_round_trip() {
    let (left, right, truth) = world();
    let initial: Vec<Link> = truth.iter().take(2).copied().collect();
    let mut config = cfg();
    config.theta = 0.42;
    config.epsilon = 0.25;
    config.blacklist_threshold = 3;
    let driver = AlexDriver::new(&left, &right, &initial, config.clone()).unwrap();

    let snap = SessionSnapshot::capture(&driver, &left, &right);
    let back = SessionSnapshot::from_json(&snap.to_json()).unwrap();
    assert_eq!(back.config.theta, 0.42);
    assert_eq!(back.config.epsilon, 0.25);
    assert_eq!(back.config.blacklist_threshold, 3);
    assert_eq!(back.config, config);
}

/// A datagen session checkpointed at every episode boundary — capture,
/// JSON, parse, restore — and curated further stays the uninterrupted
/// session: after every episode both hold the same candidates and every
/// engine the same state fingerprint.
#[test]
fn checkpoint_at_every_episode_boundary_matches_the_uninterrupted_run() {
    use alex_datagen::{degrade, generate, PaperPair};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let pair = generate(&PaperPair::DbpediaNytimes.spec(0.25, 42));
    let mut rng = StdRng::seed_from_u64(alex_rdf::test_seed(42));
    let mut initial = degrade(&pair.truth, 0.85, 0.2, &mut rng);
    initial.sort();
    let cfg = AlexConfig {
        episode_size: 10,
        partitions: 2,
        seed: 7,
        ..Default::default()
    };
    let (left, right) = (&pair.left, &pair.right);
    let oracle = ExactOracle::new(pair.truth.clone());
    let state = |d: &AlexDriver| {
        let mut links: Vec<Link> = d.candidate_links().into_iter().collect();
        links.sort();
        let fps: Vec<u64> = d.engines().iter().map(|e| e.state_fingerprint()).collect();
        (links, fps)
    };
    let mut uninterrupted = AlexDriver::new(left, right, &initial, cfg.clone()).unwrap();
    let mut checkpointed = AlexDriver::new(left, right, &initial, cfg).unwrap();
    let mut rollbacks = 0;
    for episode in 1..=25 {
        rollbacks += uninterrupted.step(&oracle).rollbacks;
        let json = SessionSnapshot::capture(&checkpointed, left, right).to_json();
        checkpointed = SessionSnapshot::from_json(&json)
            .unwrap()
            .restore(left, right)
            .unwrap();
        checkpointed.step(&oracle);
        assert_eq!(
            state(&checkpointed),
            state(&uninterrupted),
            "episode {episode}: the checkpointed session diverged"
        );
    }
    assert!(rollbacks > 0, "the run must exercise rollback");
}

/// Point queries about `entities` (IRIs of either dataset), as subject
/// and as object, through the session's live federation and through a
/// federation built fresh from its candidate links, must agree answer for
/// answer. Returns how many answers crossed a sameAs link.
fn assert_live_answers_match_rebuilt(
    session: &alex_core::LiveSession,
    entities: &[String],
    when: &str,
) -> usize {
    let mut rebuilt = alex_query::FederatedEngine::with_config(
        vec![
            ("left".into(), &session.left),
            ("right".into(), &session.right),
        ],
        session.driver().config().federation,
    );
    rebuilt.add_links(session.driver().candidate_links());
    let live = session.federation();
    let mut crossed = 0;
    for iri in entities {
        for query in [
            format!("SELECT ?p ?o WHERE {{ <{iri}> ?p ?o }}"),
            format!("SELECT ?s ?p WHERE {{ ?s ?p <{iri}> }}"),
        ] {
            let answers = live.execute_str(&query).unwrap();
            assert_eq!(
                answers,
                rebuilt.execute_str(&query).unwrap(),
                "{when}: {query}"
            );
            crossed += answers.iter().filter(|a| !a.links.is_empty()).count();
        }
    }
    crossed
}

/// Runs `episodes` feedback episodes on `session` — eight candidates
/// spread over the sorted set each, judged against `truth` — and after
/// each one compares live and rebuilt answers about every entity whose
/// links changed and a few whose links did not. Returns the links changed
/// and the answers that crossed a sameAs link.
fn curate_and_compare(
    session: &mut alex_core::LiveSession,
    truth: &HashSet<Link>,
    episodes: usize,
    when: &str,
) -> (usize, usize) {
    let (mut changed, mut crossed) = (0, 0);
    for episode in 1..=episodes {
        let before = session.driver().candidate_links();
        let mut candidates: Vec<Link> = before.iter().copied().collect();
        candidates.sort();
        let stride = (candidates.len() / 8).max(1);
        let batch: Vec<(Link, bool)> = (candidates.iter().step_by(stride).take(8))
            .map(|&l| (l, truth.contains(&l)))
            .collect();
        session.feedback_episode(&batch).unwrap();
        let after = session.driver().candidate_links();
        let mut probe: Vec<Link> = before.symmetric_difference(&after).copied().collect();
        changed += probe.len();
        probe.extend(candidates.iter().take(4));
        crossed += assert_live_answers_match_rebuilt(
            session,
            &entity_iris(session, &probe),
            &format!("{when}, episode {episode}"),
        );
    }
    (changed, crossed)
}

/// Both entities' IRIs of every link, sorted and deduplicated.
fn entity_iris(session: &alex_core::LiveSession, links: &[Link]) -> Vec<String> {
    let mut out: Vec<String> = (links.iter())
        .flat_map(|l| {
            [
                session.left.iri_str(l.left).to_string(),
                session.right.iri_str(l.right).to_string(),
            ]
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// A durable datagen session keeps one query index, patched by each
/// episode's link changes rather than rebuilt per query. After every
/// feedback episode, after recovery replays the write-ahead log, and
/// through episodes on the recovered session, it answers point queries
/// exactly as an index built fresh from the candidate links does.
#[test]
fn live_query_index_answers_like_a_rebuilt_one_through_episodes_and_recovery() {
    use alex_core::durability::recover_session;
    use alex_core::store::WalOptions;
    use alex_core::LiveSession;
    use alex_datagen::{degrade, generate, PaperPair};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let pair = generate(&PaperPair::DbpediaNytimes.spec(0.25, 42));
    let mut rng = StdRng::seed_from_u64(alex_rdf::test_seed(42));
    let mut initial = degrade(&pair.truth, 0.85, 0.2, &mut rng);
    initial.sort();
    let cfg = AlexConfig {
        episode_size: 10,
        partitions: 2,
        seed: 7,
        ..Default::default()
    };
    let driver = AlexDriver::new(&pair.left, &pair.right, &initial, cfg).unwrap();
    let truth = pair.truth;
    let mut session = LiveSession::new(pair.left, pair.right, driver);
    let root = std::env::temp_dir().join(format!("alex-live-index-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    session
        .make_durable(&root, "s1", Some(WalOptions::default()), 0)
        .unwrap();

    let (changed, crossed) = curate_and_compare(&mut session, &truth, 20, "live");
    assert!(changed > 0, "the episodes must change the links");
    assert!(crossed > 0, "some answers must cross a sameAs link");

    let sorted = |session: &LiveSession| {
        let mut links: Vec<Link> = session.driver().candidate_links().into_iter().collect();
        links.sort();
        links
    };
    let live_entities = entity_iris(&session, &sorted(&session));
    drop(session);
    let mut recovered = recover_session(&root, "s1", WalOptions::default(), 0)
        .unwrap()
        .session;
    let entities = entity_iris(&recovered, &sorted(&recovered));
    assert_eq!(entities, live_entities);
    let crossed = assert_live_answers_match_rebuilt(&recovered, &entities, "after recovery");
    assert!(crossed > 0, "recovered answers must cross sameAs links");
    let (changed, _) = curate_and_compare(&mut recovered, &truth, 5, "recovered");
    assert!(changed > 0, "the recovered session must keep curating");
    let _ = std::fs::remove_dir_all(&root);
}

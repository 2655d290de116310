//! `explore_from` on the DBpedia–NYTimes schema: one feature key covers
//! nearly every pair, spread over hundreds of key subsets, so each key's
//! range list is split into many runs. From a fixed sample of states in
//! every partition, `explore` must return its range in score order, and
//! `explore_from` exactly the links of `explore` over the same range that
//! satisfy the documented predicate, in the same order.

use alex_bench::runner::{build_env, RunParams};
use alex_core::{ExplorationSpace, FeatureKey, FeatureSet};
use alex_datagen::PaperPair;
use alex_rdf::Link;

/// States sampled per partition, evenly spaced over its pair order.
const STATES: usize = 24;

/// The documented `explore_from` predicate: every feature `cand` shares
/// with `state` scores at least the state's score minus `step`, and at
/// least `⌈n/2⌉` (and 2, when `n ≥ 2`) of the state's `n` features are
/// shared, the explored `key` included.
fn qualifies(state: &FeatureSet, cand: &FeatureSet, key: FeatureKey, step: f64) -> bool {
    let n = state.len();
    let mut shared = 0usize;
    for sf in state.features() {
        match cand.score_of(sf.key) {
            _ if sf.key == key => shared += 1,
            Some(cv) if cv >= sf.score - step => shared += 1,
            Some(_) => return false,
            None => {}
        }
    }
    shared >= n.div_ceil(2).max(2.min(n))
}

fn check_sampled_states(space: &ExplorationSpace, step: f64) -> usize {
    let links: Vec<Link> = space.links().collect();
    let mut found = 0;
    for &state_link in links.iter().step_by(links.len().div_ceil(STATES).max(1)) {
        let state = space.feature_set(state_link).unwrap();
        for f in state.features() {
            let all = space.explore(f.key, f.score, step);
            let scores: Vec<f64> = all
                .iter()
                .map(|&l| space.score_of(l, f.key).unwrap())
                .collect();
            assert!(
                scores.windows(2).all(|w| w[0] <= w[1]),
                "explore out of score order"
            );
            let want: Vec<Link> = all
                .into_iter()
                .filter(|&l| qualifies(&state, &space.feature_set(l).unwrap(), f.key, step))
                .collect();
            let got = space.explore_from(&state, f.key, step);
            assert_eq!(
                got, want,
                "state {state_link:?}, key {:?}, step {step}",
                f.key
            );
            found += got.len();
        }
    }
    found
}

#[test]
fn explore_from_is_the_ordered_filter_of_explore_on_generated_data() {
    // Scale 1, data seed 42: the figures' own dataset.
    let env = build_env(PaperPair::DbpediaNytimes, RunParams::default(), |_| {});
    let driver = env.driver();
    assert_eq!(driver.engines().len(), 8);
    let mut found = 0;
    for engine in driver.engines() {
        let space = engine.space();
        assert!(
            space.feature_key_count() > 10,
            "{} keys",
            space.feature_key_count()
        );
        for step in [env.config.step_size, 0.2] {
            found += check_sampled_states(space, step);
        }
    }
    assert!(found > 0, "no state found any link");
}

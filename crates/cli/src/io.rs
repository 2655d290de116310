//! File loading/saving helpers shared by the CLI commands.

use std::path::Path;
use std::sync::Arc;

use alex_rdf::{ntriples, turtle, Interner, Link, Store};

/// Loads an RDF file into a store sharing `interner`, dispatching on the
/// file extension (`.nt` → N-Triples, `.ttl`/`.turtle` → Turtle,
/// `.alexdb` → the binary snapshot format written by `alex compact`,
/// which skips text parsing entirely).
pub fn load_store(path: &str, interner: &Arc<Interner>) -> Result<Store, String> {
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    if ext == "alexdb" {
        return alex_core::store::read_store_file(Path::new(path), interner)
            .map_err(|e| format!("reading {path}: {e}"));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut store = Store::new(Arc::clone(interner));
    match ext {
        "ttl" | "turtle" => {
            turtle::read_str(&text, &mut store).map_err(|e| format!("parsing {path}: {e}"))?;
        }
        _ => {
            ntriples::read_str(&text, &mut store).map_err(|e| format!("parsing {path}: {e}"))?;
        }
    }
    Ok(store)
}

/// Loads `owl:sameAs` links from an RDF file: every triple with the
/// `owl:sameAs` predicate and an IRI object becomes a link.
pub fn load_links(path: &str, interner: &Arc<Interner>) -> Result<Vec<Link>, String> {
    let store = load_store(path, interner)?;
    let same_as = store.intern_iri(alex_rdf::vocab::OWL_SAME_AS);
    let links: Vec<Link> = store
        .match_pattern(None, Some(same_as), None)
        .filter_map(|t| t.object.as_iri().map(|o| Link::new(t.subject, o)))
        .collect();
    if links.is_empty() {
        return Err(format!("{path} contains no owl:sameAs links"));
    }
    Ok(links)
}

/// Writes links as `owl:sameAs` N-Triples.
pub fn save_links(
    path: &str,
    links: impl IntoIterator<Item = Link>,
    interner: &Arc<Interner>,
) -> Result<usize, String> {
    let mut store = Store::new(Arc::clone(interner));
    let mut n = 0;
    for link in links {
        let triple = link.to_triple(&store);
        if store.insert(triple) {
            n += 1;
        }
    }
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    let text = match ext {
        "ttl" | "turtle" => turtle::write_string(&store),
        _ => ntriples::write_string(&store),
    };
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
    Ok(n)
}

/// Checks `args` against the flags `alex <command>` accepts: each of
/// `values` takes the argument after it, each of `switches` stands alone.
/// An unknown `--flag`, or a value flag followed by nothing or by another
/// flag, is a usage error naming it.
pub fn check_flags(
    command: &str,
    args: &[String],
    values: &[&str],
    switches: &[&str],
) -> Result<(), String> {
    let known = |a: &str| values.contains(&a) || switches.contains(&a);
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") || switches.contains(&arg.as_str()) {
            continue;
        }
        if !values.contains(&arg.as_str()) {
            return Err(format!(
                "unknown flag {arg} for `alex {command}` (see `alex help`)"
            ));
        }
        if args.next_if(|value| !known(value)).is_none() {
            return Err(format!("{arg} needs a value (see `alex help`)"));
        }
    }
    Ok(())
}

/// Pulls the value following `--flag` out of `args`.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == flag).map(|w| w[1].clone())
}

/// Pulls every value following any occurrence of `--flag`.
pub fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    args.windows(2)
        .filter(|w| w[0] == flag)
        .map(|w| w[1].clone())
        .collect()
}

/// Positional arguments (everything not a flag or a flag value).
pub fn positionals(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = true;
            continue;
        }
        out.push(a.clone());
    }
    out
}

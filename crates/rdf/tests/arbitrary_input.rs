//! Arbitrary-input property tests for the N-Triples and Turtle readers:
//! any text, valid or not, ASCII or not, loads or returns an [`RdfError`]
//! — neither reader panics.

use alex_rdf::{ntriples, turtle, Interner, RdfError, Store};
use proptest::collection::vec;
use proptest::prelude::*;

/// Grammar fragments of both syntaxes (N-Triples is a subset of Turtle).
const TOKENS: &[&str] = &[
    "@prefix ex: <http://ex/> .\n",
    "PREFIX ex: <http://ex/>\n",
    "@prefix",
    "PREFIX",
    "@base",
    "BASE",
    "<http://ex/s> <http://ex/p> \"o\" .\n",
    "<http://ex/s>",
    "<",
    ">",
    "ex:",
    "ex:a",
    ":",
    "_:b",
    "_:",
    "[",
    "]",
    ";",
    ",",
    ".",
    "a ",
    "\"x\"",
    "\"",
    "\"\"\"",
    "'",
    "@en",
    "@",
    "^^",
    "^^<http://www.w3.org/2001/XMLSchema#integer>",
    "^^<http://www.w3.org/2001/XMLSchema#date>",
    "xsd:integer",
    "42",
    "-1.5e3",
    "2020-02-30",
    "true",
    "#",
    "\\u00e9",
    "\\U0001F600",
    "\\u",
    "\\",
];

/// Text from pieces: grammar fragments, multi-byte chars, arbitrary
/// Unicode scalar values, printable ASCII and whitespace.
fn token_soup() -> impl Strategy<Value = String> {
    vec((0u8..8, any::<u32>()), 0..48).prop_map(|pieces| {
        let mut out = String::new();
        for (pick, x) in pieces {
            let x = x as usize;
            match pick {
                0..=3 => out.push_str(TOKENS[x % TOKENS.len()]),
                4 => out.push(['⽆', 'é', 'λ', 'ß', 'İ', '日', '😀', '\u{FFFD}'][x % 8]),
                5 => out.push(char::from_u32(x as u32 % 0x11_0000).unwrap_or('\u{FFFD}')),
                6 => out.push(char::from(b' ' + (x % 95) as u8)),
                _ => out.push([' ', '\n', '\t'][x % 3]),
            }
        }
        out
    })
}

fn arbitrary_chars() -> impl Strategy<Value = String> {
    vec(any::<u32>(), 0..64).prop_map(|xs| {
        xs.into_iter()
            .map(|x| char::from_u32(x % 0x11_0000).unwrap_or('\u{FFFD}'))
            .collect()
    })
}

/// Both readers return; a parse error points inside the input.
fn check(text: &str) {
    for read in [ntriples::read_str, turtle::read_str] {
        let mut store = Store::new(Interner::new_shared());
        if let Err(RdfError::Parse { line, column, .. }) = read(text, &mut store) {
            let lines = text.split('\n').count();
            assert!(
                (1..=lines).contains(&line) && column >= 1,
                "line {line} column {column} of {text:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn token_soup_loads_or_errors(text in token_soup()) {
        check(&text);
    }

    #[test]
    fn arbitrary_chars_load_or_error(text in arbitrary_chars()) {
        check(&text);
    }
}

/// Keywords compared against a slice that ends inside a multi-byte char
/// panicked the Turtle reader.
#[test]
fn multi_byte_chars_after_a_keyword_prefix_are_errors() {
    for text in ["@pre⽆", "PREF日", "BAS😀", "@bas⽆ <x> ."] {
        check(text);
    }
}

/// `[ … ]` nesting past the depth limit is an error, not a stack
/// overflow; nesting within it still loads.
#[test]
fn deep_blank_node_nesting_is_an_error() {
    let nested = |n: usize| {
        format!(
            "<http://s> <http://p> {}\"x\"{} .",
            "[ <http://p> ".repeat(n),
            " ]".repeat(n)
        )
    };
    let mut store = Store::new(Interner::new_shared());
    assert_eq!(turtle::read_str(&nested(60), &mut store).unwrap(), 61);
    for n in [80, 100_000] {
        let mut store = Store::new(Interner::new_shared());
        assert!(turtle::read_str(&nested(n), &mut store).is_err());
    }
}

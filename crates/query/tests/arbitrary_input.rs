//! Arbitrary-input property tests for the SPARQL parser: any text, valid
//! or not, ASCII or not, parses or returns a [`ParseError`] — it never
//! panics.

use alex_query::{parse, ParseError};
use proptest::collection::vec;
use proptest::prelude::*;

/// Grammar fragments, so that generated text gets past the first keyword
/// and reaches the term, filter and modifier parsers.
const TOKENS: &[&str] = &[
    "SELECT ?s WHERE { ",
    "SELECT * WHERE {",
    "PREFIX ex: <http://ex/> ",
    "?s ?p ?o . ",
    "select",
    "DISTINCT",
    "WHERE",
    "{",
    "}",
    "?x",
    "?",
    "<",
    ">",
    "<http://ex/p>",
    "ex:",
    "ex:a",
    ":",
    ".",
    "FILTER",
    "(",
    ")",
    "OPTIONAL",
    "UNION",
    "ORDER BY",
    "ASC",
    "DESC",
    "LIMIT",
    "OFFSET",
    "10",
    "1.5",
    "-3",
    "\"",
    "\"lit\"",
    "\\",
    "@en",
    "^^",
    "true",
    "false",
    "a",
    "lang",
    "CONTAINS",
    "STRSTARTS",
    ",",
    "=",
    "!=",
    "<=",
    "!",
    "&&",
    "||",
    "#",
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

/// The parse returns; an error points at a char boundary of the input.
fn check(text: &str) {
    if let Err(ParseError { position, message }) = parse(text) {
        assert!(
            text.is_char_boundary(position),
            "{message} at byte {position} of {text:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn token_soup_parses_or_errors(text in token_soup()) {
        check(&text);
    }

    #[test]
    fn arbitrary_chars_parse_or_error(chars in vec(any::<u32>(), 0..64)) {
        let text: String = chars
            .into_iter()
            .map(|x| char::from_u32(x % 0x11_0000).unwrap_or('\u{FFFD}'))
            .collect();
        check(&text);
    }
}

/// The inputs that panicked the parser before it stepped over whole chars:
/// a keyword compared against a slice ending inside a multi-byte char, and
/// name and IRI loops that advanced one byte per char.
#[test]
fn multi_byte_chars_after_keywords_and_names_are_errors() {
    for text in [
        "lang ⽆",
        "SELECT ?x WHERE { ?x ?p ?o } LIMIT ⽆",
        "SELECT ?é WHERE { ?é ?p ?o }",
        "SELECT ?x WHERE { <http://ex/ü> ?p ?x }",
        "PREFIX é: <http://ex/日> SELECT ?x WHERE { é:ß ?p ?x }",
        "SELECT ?x WHERE { ex日:a ?p ?x }",
    ] {
        check(text);
    }
    let q = parse("PREFIX é: <http://ex/日> SELECT ?ä WHERE { é:ß <http://ex/ü> ?ä }").unwrap();
    assert_eq!(q.select[0].0, "ä");
}

/// Filter nesting past the depth limit is an error, not a stack overflow;
/// nesting within it still parses.
#[test]
fn deep_filter_nesting_is_an_error() {
    for open in ["(", "!", "!("] {
        let deep = format!(
            "SELECT ?x WHERE {{ ?x ?p ?o FILTER({}",
            open.repeat(100_000)
        );
        assert!(parse(&deep).is_err());
    }
    let nested = |n: usize| {
        format!(
            "SELECT ?x WHERE {{ ?x ?p ?o FILTER({}?x = 1{}) }}",
            "(".repeat(n),
            ")".repeat(n)
        )
    };
    parse(&nested(60)).unwrap();
    assert!(parse(&nested(80)).is_err());
}

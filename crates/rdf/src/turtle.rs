//! A Turtle 1.1 subset parser.
//!
//! N-Triples covers machine-generated dumps, but most hand-published LOD
//! data ships as Turtle. This parser covers the subset those files use in
//! practice:
//!
//! * `@prefix` / `PREFIX` and `@base` / `BASE` directives;
//! * predicate lists (`;`) and object lists (`,`);
//! * the `a` keyword for `rdf:type`;
//! * IRIs, prefixed names, blank-node labels, and anonymous blank nodes
//!   with property lists (`[ … ]`);
//! * string literals with language tags and datatypes, plus the numeric
//!   (`42`, `1.5`, `1e3`) and boolean shorthands.
//!
//! Out of scope (rejected with a clear error, not silently mangled):
//! collections `( … )`, triple-quoted long strings, and RDF-star.

use crate::error::RdfError;
use crate::ntriples::typed_literal;
use crate::store::Store;
use crate::term::{IriId, Literal, Term, Triple};
use crate::vocab;

/// Deepest nesting of `[ … ]` property lists. Each level is a few stack
/// frames, so unbounded `[ p [ p [ …` would overflow the stack.
const MAX_BLANK_DEPTH: usize = 64;

/// Parses a Turtle document into `store`. Returns the number of *new*
/// triples inserted.
pub fn read_str(input: &str, store: &mut Store) -> crate::Result<usize> {
    let mut p = TurtleParser {
        input,
        pos: 0,
        line: 1,
        base: String::new(),
        prefixes: std::collections::HashMap::new(),
        blank_counter: 0,
        blank_depth: 0,
        inserted: 0,
    };
    p.parse_document(store)?;
    Ok(p.inserted)
}

struct TurtleParser<'a> {
    input: &'a str,
    pos: usize,
    line: usize,
    base: String,
    prefixes: std::collections::HashMap<String, String>,
    blank_counter: usize,
    /// `[ … ]` lists open around the current position.
    blank_depth: usize,
    inserted: usize,
}

impl<'a> TurtleParser<'a> {
    fn err(&self, message: impl Into<String>) -> RdfError {
        let line_start = self.input[..self.pos].rfind('\n').map_or(0, |i| i + 1);
        RdfError::Parse {
            line: self.line,
            column: self.input[line_start..self.pos].chars().count() + 1,
            token: crate::error::offending_token(self.rest()),
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        if c == '\n' {
            self.line += 1;
        }
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.rest().is_empty()
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> crate::Result<()> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{c}'")))
        }
    }

    fn eat_keyword_ci(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let r = self.rest();
        // Compare bytes: `r[..kw.len()]` may end inside a multi-byte char.
        // An ASCII keyword only matches ASCII bytes, so a match ends on a
        // char boundary.
        let head = r.as_bytes().get(..kw.len());
        if head.is_some_and(|h| h.eq_ignore_ascii_case(kw.as_bytes())) {
            let next = r[kw.len()..].chars().next();
            if next.is_none_or(|c| c.is_whitespace() || c == '<' || c == ':') {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn parse_document(&mut self, store: &mut Store) -> crate::Result<()> {
        while !self.at_end() {
            if self.eat_keyword_ci("@prefix") || self.eat_keyword_ci("PREFIX") {
                self.parse_prefix()?;
                continue;
            }
            if self.eat_keyword_ci("@base") || self.eat_keyword_ci("BASE") {
                self.base = self.parse_iri_ref()?;
                let _ = self.eat('.');
                continue;
            }
            self.parse_statement(store)?;
        }
        Ok(())
    }

    fn parse_prefix(&mut self) -> crate::Result<()> {
        self.skip_ws();
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == '.')
        {
            self.bump();
        }
        let name = self.input[start..self.pos].to_owned();
        self.expect(':')?;
        let iri = self.parse_iri_ref()?;
        self.prefixes.insert(name, iri);
        let _ = self.eat('.');
        Ok(())
    }

    fn parse_iri_ref(&mut self) -> crate::Result<String> {
        self.skip_ws();
        self.expect('<')?;
        let start = self.pos;
        loop {
            match self.peek() {
                Some('>') => break,
                Some('\n') => return Err(self.err("newline inside IRI")),
                Some(_) => {
                    self.bump();
                }
                None => return Err(self.err("unterminated IRI")),
            }
        }
        let raw = &self.input[start..self.pos];
        self.bump(); // '>'
                     // Relative IRIs resolve against @base (simple concatenation — full
                     // RFC 3986 resolution is out of scope and unused by LOD dumps).
        if raw.contains(':') || self.base.is_empty() {
            Ok(raw.to_owned())
        } else {
            Ok(format!("{}{raw}", self.base))
        }
    }

    fn parse_statement(&mut self, store: &mut Store) -> crate::Result<()> {
        let subject = self.parse_subject(store)?;
        self.parse_predicate_object_list(subject, store)?;
        self.expect('.')
    }

    fn parse_subject(&mut self, store: &mut Store) -> crate::Result<IriId> {
        self.skip_ws();
        match self.peek() {
            Some('<') => {
                let iri = self.parse_iri_ref()?;
                Ok(store.intern_iri(&iri))
            }
            Some('_') => self.parse_blank_label(store),
            Some('[') => self.parse_anon_blank(store),
            Some(_) => {
                let iri = self.parse_prefixed_name()?;
                Ok(store.intern_iri(&iri))
            }
            None => Err(self.err("expected subject")),
        }
    }

    fn parse_blank_label(&mut self, store: &mut Store) -> crate::Result<IriId> {
        self.expect('_')?;
        self.expect(':')?;
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '-')
        {
            self.bump();
        }
        if self.pos == start {
            return Err(self.err("empty blank node label"));
        }
        Ok(store.intern_iri(&format!("_:{}", &self.input[start..self.pos])))
    }

    /// `[ p o ; … ]` — allocates a fresh blank node and asserts its
    /// property list.
    fn parse_anon_blank(&mut self, store: &mut Store) -> crate::Result<IriId> {
        self.expect('[')?;
        if self.blank_depth == MAX_BLANK_DEPTH {
            return Err(self.err("blank node property lists nested too deeply"));
        }
        self.blank_counter += 1;
        let node = store.intern_iri(&format!("_:anon{}", self.blank_counter));
        self.skip_ws();
        if self.peek() != Some(']') {
            self.blank_depth += 1;
            let list = self.parse_predicate_object_list(node, store);
            self.blank_depth -= 1;
            list?;
        }
        self.expect(']')?;
        Ok(node)
    }

    fn parse_prefixed_name(&mut self) -> crate::Result<String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == '.')
        {
            self.bump();
        }
        let prefix = &self.input[start..self.pos];
        if self.peek() != Some(':') {
            self.pos = start;
            return Err(self.err("expected prefixed name"));
        }
        self.bump(); // ':'
        let local_start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == '.' || c == '%')
        {
            self.bump();
        }
        // A trailing '.' is the statement terminator, not part of the name.
        let mut local_end = self.pos;
        if self.input[local_start..local_end].ends_with('.') {
            local_end -= 1;
            self.pos = local_end;
        }
        let local = &self.input[local_start..local_end];
        let base = self
            .prefixes
            .get(prefix)
            .ok_or_else(|| self.err(format!("unknown prefix '{prefix}:'")))?;
        Ok(format!("{base}{local}"))
    }

    fn parse_predicate_object_list(
        &mut self,
        subject: IriId,
        store: &mut Store,
    ) -> crate::Result<()> {
        loop {
            let predicate = self.parse_predicate(store)?;
            loop {
                let object = self.parse_object(store)?;
                if store.insert(Triple {
                    subject,
                    predicate,
                    object,
                }) {
                    self.inserted += 1;
                }
                if !self.eat(',') {
                    break;
                }
            }
            if !self.eat(';') {
                return Ok(());
            }
            // Turtle allows a dangling ';' before '.' or ']'.
            self.skip_ws();
            if matches!(self.peek(), Some('.') | Some(']') | None) {
                return Ok(());
            }
        }
    }

    fn parse_predicate(&mut self, store: &mut Store) -> crate::Result<IriId> {
        self.skip_ws();
        if self.rest().starts_with('a')
            && self.rest()[1..]
                .chars()
                .next()
                .is_some_and(|c| c.is_whitespace())
        {
            self.bump();
            return Ok(store.intern_iri(vocab::RDF_TYPE));
        }
        match self.peek() {
            Some('<') => {
                let iri = self.parse_iri_ref()?;
                Ok(store.intern_iri(&iri))
            }
            _ => {
                let iri = self.parse_prefixed_name()?;
                Ok(store.intern_iri(&iri))
            }
        }
    }

    fn parse_object(&mut self, store: &mut Store) -> crate::Result<Term> {
        self.skip_ws();
        match self.peek() {
            Some('<') => {
                let iri = self.parse_iri_ref()?;
                Ok(Term::Iri(store.intern_iri(&iri)))
            }
            Some('_') => Ok(Term::Iri(self.parse_blank_label(store)?)),
            Some('[') => Ok(Term::Iri(self.parse_anon_blank(store)?)),
            Some('(') => Err(self.err("RDF collections '(…)' are not supported")),
            Some('"') => {
                if self.rest().starts_with("\"\"\"") {
                    return Err(self.err("triple-quoted strings are not supported"));
                }
                self.parse_string_literal(store).map(Term::Literal)
            }
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => {
                self.parse_numeric_literal().map(Term::Literal)
            }
            _ => {
                if self.eat_keyword_ci("true") {
                    return Ok(Term::Literal(Literal::Boolean(true)));
                }
                if self.eat_keyword_ci("false") {
                    return Ok(Term::Literal(Literal::Boolean(false)));
                }
                let iri = self.parse_prefixed_name()?;
                Ok(Term::Iri(store.intern_iri(&iri)))
            }
        }
    }

    fn parse_string_literal(&mut self, store: &Store) -> crate::Result<Literal> {
        self.expect('"')?;
        let mut value = String::new();
        loop {
            match self.bump() {
                Some('"') => break,
                Some('\\') => {
                    let esc = self.bump().ok_or_else(|| self.err("truncated escape"))?;
                    value.push(match esc {
                        't' => '\t',
                        'n' => '\n',
                        'r' => '\r',
                        'b' => '\u{8}',
                        'f' => '\u{c}',
                        'u' => self.unicode_escape(4)?,
                        'U' => self.unicode_escape(8)?,
                        other => other,
                    });
                }
                Some('\n') => return Err(self.err("newline in single-quoted string")),
                Some(c) => value.push(c),
                None => return Err(self.err("unterminated string literal")),
            }
        }
        if self.peek() == Some('@') {
            self.bump();
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '-')
            {
                self.bump();
            }
            if self.pos == start {
                return Err(self.err("empty language tag"));
            }
            let lang = self.input[start..self.pos].to_ascii_lowercase();
            return Ok(Literal::LangStr {
                value: store.interner().intern(&value),
                lang: store.interner().intern(&lang),
            });
        }
        if self.rest().starts_with("^^") {
            self.pos += 2;
            let dt = match self.peek() {
                Some('<') => self.parse_iri_ref()?,
                _ => self.parse_prefixed_name()?,
            };
            return typed_literal(&value, &dt, store);
        }
        Ok(Literal::Str(store.interner().intern(&value)))
    }

    fn unicode_escape(&mut self, digits: usize) -> crate::Result<char> {
        let mut code = 0u32;
        for _ in 0..digits {
            let c = self
                .bump()
                .ok_or_else(|| self.err("truncated unicode escape"))?;
            code = code * 16 + c.to_digit(16).ok_or_else(|| self.err("bad hex digit"))?;
        }
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode scalar"))
    }

    fn parse_numeric_literal(&mut self) -> crate::Result<Literal> {
        let start = self.pos;
        if matches!(self.peek(), Some('+') | Some('-')) {
            self.bump();
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                self.bump();
            } else if c == '.' && !is_float {
                // A '.' followed by a digit is a decimal point; otherwise
                // it terminates the statement.
                if self.rest()[1..]
                    .chars()
                    .next()
                    .is_some_and(|d| d.is_ascii_digit())
                {
                    is_float = true;
                    self.bump();
                } else {
                    break;
                }
            } else if (c == 'e' || c == 'E') && self.pos > start {
                is_float = true;
                self.bump();
                if matches!(self.peek(), Some('+') | Some('-')) {
                    self.bump();
                }
            } else {
                break;
            }
        }
        let text = &self.input[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Literal::float)
                .map_err(|_| self.err(format!("invalid numeric literal {text:?}")))
        } else {
            text.parse::<i64>()
                .map(Literal::Integer)
                .map_err(|_| self.err(format!("invalid numeric literal {text:?}")))
        }
    }
}

/// Serializes `store` as compact Turtle: prefix declarations for the most
/// common namespaces, grouped subjects with `;`-separated predicates and
/// `,`-separated objects.
pub fn write_string(store: &Store) -> String {
    use std::collections::HashMap;
    use std::fmt::Write as _;

    // Harvest candidate namespaces (IRI up to the last '/' or '#') from
    // predicates and frequently used IRIs.
    let mut ns_count: HashMap<String, usize> = HashMap::new();
    let mut note = |iri: &str| {
        if let Some(cut) = iri.rfind(['#', '/']) {
            let (ns, local) = iri.split_at(cut + 1);
            if !local.is_empty()
                && local
                    .chars()
                    .all(|c| c.is_alphanumeric() || c == '_' || c == '-')
            {
                *ns_count.entry(ns.to_owned()).or_insert(0) += 1;
            }
        }
    };
    for t in store.iter() {
        note(&store.iri_str(t.subject));
        note(&store.iri_str(t.predicate));
        if let Term::Iri(o) = t.object {
            note(&store.iri_str(o));
        }
    }
    let mut namespaces: Vec<(String, usize)> =
        ns_count.into_iter().filter(|(_, c)| *c >= 3).collect();
    namespaces.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    namespaces.truncate(16);
    let prefix_of: HashMap<String, String> = namespaces
        .iter()
        .enumerate()
        .map(|(i, (ns, _))| (ns.clone(), format!("ns{i}")))
        .collect();

    let render_iri = |iri: &str| -> String {
        if iri.starts_with("_:") {
            return iri.to_owned();
        }
        if let Some(cut) = iri.rfind(['#', '/']) {
            let (ns, local) = iri.split_at(cut + 1);
            if !local.is_empty()
                && local
                    .chars()
                    .all(|c| c.is_alphanumeric() || c == '_' || c == '-')
            {
                if let Some(p) = prefix_of.get(ns) {
                    return format!("{p}:{local}");
                }
            }
        }
        format!("<{iri}>")
    };

    let mut out = String::new();
    for (ns, _) in &namespaces {
        let _ = writeln!(out, "@prefix {}: <{}> .", prefix_of[ns], ns);
    }
    if !namespaces.is_empty() {
        out.push('\n');
    }

    // Group triples by subject, preserving first-appearance order.
    let rdf_type = store.interner().get(vocab::RDF_TYPE).map(IriId);
    for subject in store.subjects() {
        let entity = store.entity(subject);
        if entity.is_empty() {
            continue;
        }
        let _ = write!(out, "{}", render_iri(&store.iri_str(subject)));
        // Group by predicate, preserving order.
        let mut by_pred: Vec<(IriId, Vec<&Term>)> = Vec::new();
        for a in &entity.attributes {
            match by_pred.iter_mut().find(|(p, _)| *p == a.predicate) {
                Some((_, objs)) => objs.push(&a.object),
                None => by_pred.push((a.predicate, vec![&a.object])),
            }
        }
        for (pi, (pred, objects)) in by_pred.iter().enumerate() {
            let sep = if pi == 0 { " " } else { " ;\n    " };
            let pred_str = if rdf_type == Some(*pred) {
                "a".to_owned()
            } else {
                render_iri(&store.iri_str(*pred))
            };
            let _ = write!(out, "{sep}{pred_str} ");
            for (oi, object) in objects.iter().enumerate() {
                if oi > 0 {
                    let _ = write!(out, " , ");
                }
                match object {
                    Term::Iri(o) => {
                        let _ = write!(out, "{}", render_iri(&store.iri_str(*o)));
                    }
                    Term::Literal(l) => {
                        let _ = write!(out, "{}", crate::ntriples::literal_to_string(l, store));
                    }
                }
            }
        }
        out.push_str(" .\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Interner;
    use crate::term::LiteralKind;

    fn parse(input: &str) -> Store {
        let mut store = Store::new(Interner::new_shared());
        read_str(input, &mut store).unwrap_or_else(|e| panic!("parse failed: {e}\n{input}"));
        store
    }

    #[test]
    fn basic_statement() {
        let s = parse("<http://a> <http://p> <http://b> .");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn prefixes_and_a_keyword() {
        let s = parse(
            "@prefix ex: <http://example.org/> .\n\
             PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             ex:alice a foaf:Person .",
        );
        let t = s.iter().next().unwrap();
        assert_eq!(&*s.iri_str(t.subject), "http://example.org/alice");
        assert_eq!(&*s.iri_str(t.predicate), vocab::RDF_TYPE);
        assert_eq!(
            &*s.iri_str(t.object.as_iri().unwrap()),
            "http://xmlns.com/foaf/0.1/Person"
        );
    }

    #[test]
    fn predicate_and_object_lists() {
        let s = parse(
            "@prefix ex: <http://ex/> .\n\
             ex:a ex:p ex:b , ex:c ;\n\
                  ex:q \"v\" ;\n\
                  ex:r 1 , 2 , 3 .",
        );
        assert_eq!(s.len(), 6);
        let a = s.intern_iri("http://ex/a");
        let r = s.intern_iri("http://ex/r");
        assert_eq!(s.objects(a, r).count(), 3);
    }

    #[test]
    fn dangling_semicolon() {
        let s = parse("@prefix ex: <http://ex/> . ex:a ex:p ex:b ; .");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn literals_all_shapes() {
        let s = parse(
            "@prefix ex: <http://ex/> .\n\
             @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n\
             ex:a ex:str \"hello\" ;\n\
                  ex:lang \"bonjour\"@FR ;\n\
                  ex:int 42 ;\n\
                  ex:neg -7 ;\n\
                  ex:dec 2.5 ;\n\
                  ex:exp 1e3 ;\n\
                  ex:bool true ;\n\
                  ex:typed \"1984-12-30\"^^xsd:date ;\n\
                  ex:typed2 \"99\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
        );
        let a = s.intern_iri("http://ex/a");
        let kinds: Vec<LiteralKind> = s
            .match_pattern(Some(a), None, None)
            .filter_map(|t| t.object.as_literal().map(Literal::kind))
            .collect();
        assert_eq!(
            kinds,
            vec![
                LiteralKind::Str,
                LiteralKind::LangStr,
                LiteralKind::Integer,
                LiteralKind::Integer,
                LiteralKind::Float,
                LiteralKind::Float,
                LiteralKind::Boolean,
                LiteralKind::Date,
                LiteralKind::Integer,
            ]
        );
    }

    #[test]
    fn blank_nodes_labeled_and_anonymous() {
        let s = parse(
            "@prefix ex: <http://ex/> .\n\
             _:b1 ex:p ex:a .\n\
             ex:a ex:knows [ ex:name \"Anon\" ; ex:age 3 ] .",
        );
        assert_eq!(s.len(), 4);
        // The anonymous node carries its property list.
        let name = s.intern_iri("http://ex/name");
        let anon: Vec<_> = s.match_pattern(None, Some(name), None).collect();
        assert_eq!(anon.len(), 1);
        assert!(s.iri_str(anon[0].subject).starts_with("_:anon"));
    }

    #[test]
    fn base_resolution() {
        let s = parse("@base <http://ex/res/> . <alice> <http://p> <bob> .");
        let t = s.iter().next().unwrap();
        assert_eq!(&*s.iri_str(t.subject), "http://ex/res/alice");
        assert_eq!(&*s.iri_str(t.object.as_iri().unwrap()), "http://ex/res/bob");
    }

    #[test]
    fn comments_and_whitespace() {
        let s = parse(
            "# header comment\n\
             @prefix ex: <http://ex/> . # trailing\n\
             ex:a # mid-statement comment\n\
               ex:p ex:b .",
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn prefixed_name_before_terminating_dot() {
        let s = parse("@prefix ex: <http://ex/> . ex:a ex:p ex:b.");
        let t = s.iter().next().unwrap();
        assert_eq!(&*s.iri_str(t.object.as_iri().unwrap()), "http://ex/b");
    }

    #[test]
    fn errors_are_reported_with_lines() {
        let cases = [
            "@prefix ex: <http://ex/> .\nex:a unknown:p ex:b .",
            "<http://a> <http://p> ( 1 2 ) .",
            "<http://a> <http://p> \"\"\"long\"\"\" .",
            "<http://a> <http://p> \"unterminated .",
            "<http://a> <http://p> .",
            "<http://a> <http://p> <http://b>",
        ];
        for c in cases {
            let mut store = Store::new(Interner::new_shared());
            let err = read_str(c, &mut store);
            assert!(err.is_err(), "should reject: {c}");
        }
        let mut store = Store::new(Interner::new_shared());
        let err = read_str(
            "<http://a> <http://p> <http://b> .\n<http://a> oops",
            &mut store,
        )
        .unwrap_err();
        match err {
            RdfError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_carry_column_and_token() {
        let mut store = Store::new(Interner::new_shared());
        let err = read_str(
            "<http://a> <http://p> <http://b> .\n<http://a> <http://q> ( 1 2 ) .",
            &mut store,
        )
        .unwrap_err();
        match &err {
            RdfError::Parse {
                line,
                column,
                token,
                ..
            } => {
                assert_eq!(*line, 2);
                assert_eq!(*column, 23, "column points at the '('");
                assert_eq!(token, "(");
            }
            other => panic!("unexpected {other:?}"),
        }
        let rendered = err.to_string();
        assert!(rendered.contains("line 2"), "{rendered}");
        assert!(rendered.contains("column"), "{rendered}");
    }

    #[test]
    fn error_positions_are_correct_on_crlf_input() {
        let mut store = Store::new(Interner::new_shared());
        // Same document as errors_carry_column_and_token, but CRLF-ended:
        // the '\r' before the line break must not shift line or column.
        let err = read_str(
            "<http://a> <http://p> <http://b> .\r\n<http://a> <http://q> ( 1 2 ) .\r\n",
            &mut store,
        )
        .unwrap_err();
        match &err {
            RdfError::Parse {
                line,
                column,
                token,
                ..
            } => {
                assert_eq!(*line, 2);
                assert_eq!(*column, 23, "same column as the LF-only case");
                assert_eq!(token, "(");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_columns_count_chars_not_bytes() {
        let mut store = Store::new(Interner::new_shared());
        // 24 chars but 27 bytes precede the '(' ('é' is 2 bytes, '火' 3):
        // a byte-offset column would report 28.
        let err = read_str("<http://é/火> <http://p> ( 1 ) .", &mut store).unwrap_err();
        match &err {
            RdfError::Parse { column, token, .. } => {
                assert_eq!(*column, 25, "column counts characters, not bytes");
                assert_eq!(token, "(");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn writer_round_trips() {
        let src = parse(
            "@prefix ex: <http://ex/> .\n\
             @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n\
             ex:a a ex:Person ; ex:name \"Alice \\\"A\\\"\" , \"Ali\"@en ; ex:age 30 .\n\
             ex:b ex:knows ex:a ; ex:score 2.5 ; ex:ok true ; ex:born \"1984-12-30\"^^xsd:date .",
        );
        let text = write_string(&src);
        let back = parse(&text);
        assert_eq!(back.len(), src.len(), "turtle output:\n{text}");
        for t in src.iter() {
            // Note: ids are interner-shared, so triples compare directly.
            assert!(back.contains(t), "missing {t:?} in:\n{text}");
        }
        // Output is actually compact: prefixes used, subject grouped.
        assert!(text.contains("@prefix"));
        assert!(text.contains(" ;\n"));
        assert!(text.contains(" , "));
    }

    #[test]
    fn writer_handles_blank_nodes_and_bare_iris() {
        let mut store = Store::new(Interner::new_shared());
        let b = store.intern_iri("_:b1");
        let p = store.intern_iri("p-without-namespace");
        store.insert_iri(b, p, b);
        let text = write_string(&store);
        let back = parse(&text);
        assert_eq!(back.len(), 1, "output:\n{text}");
    }

    #[test]
    fn ntriples_output_is_valid_turtle() {
        // N-Triples is a Turtle subset: our serializer's output must parse.
        let mut original = Store::new(Interner::new_shared());
        let a = original.intern_iri("http://ex/a");
        let p = original.intern_iri("http://ex/p");
        original.insert_literal(a, p, Literal::str(original.interner(), "x \"quoted\""));
        original.insert_literal(a, p, Literal::Integer(5));
        let text = crate::ntriples::write_string(&original);
        let reparsed = parse(&text);
        assert_eq!(reparsed.len(), original.len());
    }
}

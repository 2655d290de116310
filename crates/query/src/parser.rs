//! A recursive-descent parser for the SPARQL subset.
//!
//! Grammar (informal):
//!
//! ```text
//! query    := prefix* "SELECT" "DISTINCT"? (var+ | "*") "WHERE" "{" body "}" ("LIMIT" int)?
//! prefix   := "PREFIX" NAME ":" "<" IRI ">"
//! body     := (triple "." | filter)*           -- final "." optional
//! triple   := term term term
//! term     := var | iri | prefixed | literal
//! filter   := "FILTER" "(" expr ")"
//! expr     := or-expr with &&, ||, !, comparisons, CONTAINS(), STRSTARTS()
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::ast::{
    CompareOp, FilterExpr, FilterOperand, Group, LiteralSpec, OrderKey, PatternTerm, Query,
    TriplePattern, Variable,
};

/// A parse failure, with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the query string.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest nesting of `(` and `!` a filter may have. Each level is a few
/// stack frames, so an unbounded `((((…` would overflow the stack.
const MAX_FILTER_DEPTH: usize = 64;

/// Parses one query.
pub fn parse(input: &str) -> Result<Query, ParseError> {
    Parser {
        input,
        pos: 0,
        prefixes: HashMap::new(),
        depth: 0,
    }
    .parse_query()
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    prefixes: HashMap<String, String>,
    /// Filter nesting of the expression being parsed.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        loop {
            let r = self.rest();
            let trimmed = r.trim_start();
            self.pos += r.len() - trimmed.len();
            if self.rest().starts_with('#') {
                match self.rest().find('\n') {
                    Some(n) => self.pos += n + 1,
                    None => self.pos = self.input.len(),
                }
            } else {
                break;
            }
        }
    }

    /// Advances past the longest prefix of the rest whose chars satisfy
    /// `keep`, one whole char at a time.
    fn skip_while(&mut self, keep: impl Fn(char) -> bool) {
        let r = self.rest();
        self.pos += r.find(|c: char| !keep(c)).unwrap_or(r.len());
    }

    /// Whether the rest starts with the ASCII keyword `kw`, ignoring ASCII
    /// case. Compares bytes: `r[..kw.len()]` may end inside a multi-byte
    /// char, while an ASCII keyword only matches ASCII bytes, so a match
    /// ends on a char boundary.
    fn at_keyword(&self, kw: &str) -> bool {
        let head = self.rest().as_bytes().get(..kw.len());
        head.is_some_and(|h| h.eq_ignore_ascii_case(kw.as_bytes()))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let r = self.rest();
        if self.at_keyword(kw) {
            // Keywords must not run into identifier characters.
            let after = r[kw.len()..].chars().next();
            if after.is_none_or(|c| !c.is_alphanumeric() && c != '_') {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(sym) {
            self.pos += sym.len();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), ParseError> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{sym}'")))
        }
    }

    fn parse_query(mut self) -> Result<Query, ParseError> {
        while self.eat_keyword("PREFIX") {
            self.parse_prefix()?;
        }
        if !self.eat_keyword("SELECT") {
            return Err(self.err("expected SELECT"));
        }
        let distinct = self.eat_keyword("DISTINCT");
        let mut select = Vec::new();
        if !self.eat_symbol("*") {
            while let Some(v) = self.try_parse_var()? {
                select.push(v);
            }
            if select.is_empty() {
                return Err(self.err("expected projection variables or '*'"));
            }
        }
        if !self.eat_keyword("WHERE") {
            return Err(self.err("expected WHERE"));
        }
        self.expect_symbol("{")?;
        let mut patterns = Vec::new();
        let mut filters = Vec::new();
        let mut optionals = Vec::new();
        let mut unions = Vec::new();
        loop {
            self.skip_ws();
            if self.eat_symbol("}") {
                break;
            }
            if self.eat_keyword("FILTER") {
                self.expect_symbol("(")?;
                filters.push(self.parse_or_expr()?);
                self.expect_symbol(")")?;
                let _ = self.eat_symbol(".");
                continue;
            }
            if self.eat_keyword("OPTIONAL") {
                optionals.push(self.parse_group()?);
                let _ = self.eat_symbol(".");
                continue;
            }
            self.skip_ws();
            if self.rest().starts_with('{') {
                let a = self.parse_group()?;
                if !self.eat_keyword("UNION") {
                    return Err(self.err("expected UNION after group"));
                }
                let b = self.parse_group()?;
                unions.push((a, b));
                let _ = self.eat_symbol(".");
                continue;
            }
            let subject = self.parse_term()?;
            let predicate = self.parse_term()?;
            let object = self.parse_term()?;
            if matches!(predicate, PatternTerm::Literal(_)) {
                return Err(self.err("literal in predicate position"));
            }
            patterns.push(TriplePattern {
                subject,
                predicate,
                object,
            });
            let _ = self.eat_symbol(".");
        }
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            if !self.eat_keyword("BY") {
                return Err(self.err("expected BY after ORDER"));
            }
            loop {
                self.skip_ws();
                if self.eat_keyword("ASC") {
                    self.expect_symbol("(")?;
                    let var = self
                        .try_parse_var()?
                        .ok_or_else(|| self.err("ASC needs a variable"))?;
                    self.expect_symbol(")")?;
                    order_by.push(OrderKey {
                        var,
                        descending: false,
                    });
                } else if self.eat_keyword("DESC") {
                    self.expect_symbol("(")?;
                    let var = self
                        .try_parse_var()?
                        .ok_or_else(|| self.err("DESC needs a variable"))?;
                    self.expect_symbol(")")?;
                    order_by.push(OrderKey {
                        var,
                        descending: true,
                    });
                } else if let Some(var) = self.try_parse_var()? {
                    order_by.push(OrderKey {
                        var,
                        descending: false,
                    });
                } else {
                    break;
                }
            }
            if order_by.is_empty() {
                return Err(self.err("ORDER BY needs at least one key"));
            }
        }
        let mut limit = None;
        let mut offset = None;
        loop {
            if limit.is_none() && self.eat_keyword("LIMIT") {
                limit = Some(self.parse_unsigned()?);
            } else if offset.is_none() && self.eat_keyword("OFFSET") {
                offset = Some(self.parse_unsigned()?);
            } else {
                break;
            }
        }
        self.skip_ws();
        if !self.rest().is_empty() {
            return Err(self.err("trailing content after query"));
        }
        if patterns.is_empty() && unions.is_empty() {
            return Err(self.err("query has no triple patterns"));
        }
        // Projection and order variables must occur in the body.
        let body_vars: std::collections::HashSet<Variable> = Query {
            select: vec![],
            distinct,
            patterns: patterns.clone(),
            filters: filters.clone(),
            optionals: optionals.clone(),
            unions: unions.clone(),
            order_by: vec![],
            offset,
            limit,
        }
        .all_variables()
        .into_iter()
        .collect();
        for v in &select {
            if !body_vars.contains(v) {
                return Err(self.err(format!("projected variable {v} not used in WHERE clause")));
            }
        }
        for k in &order_by {
            if !body_vars.contains(&k.var) {
                return Err(self.err(format!(
                    "ORDER BY variable {} not used in WHERE clause",
                    k.var
                )));
            }
        }
        Ok(Query {
            select,
            distinct,
            patterns,
            filters,
            optionals,
            unions,
            order_by,
            offset,
            limit,
        })
    }

    /// Parses a `{ patterns/filters }` group (no nesting inside groups).
    fn parse_group(&mut self) -> Result<Group, ParseError> {
        self.expect_symbol("{")?;
        let mut group = Group::default();
        loop {
            self.skip_ws();
            if self.eat_symbol("}") {
                break;
            }
            if self.eat_keyword("FILTER") {
                self.expect_symbol("(")?;
                group.filters.push(self.parse_or_expr()?);
                self.expect_symbol(")")?;
                let _ = self.eat_symbol(".");
                continue;
            }
            if self.rest().starts_with('{') || self.at_keyword("OPTIONAL") {
                return Err(self.err("nested groups are not supported"));
            }
            let subject = self.parse_term()?;
            let predicate = self.parse_term()?;
            let object = self.parse_term()?;
            if matches!(predicate, PatternTerm::Literal(_)) {
                return Err(self.err("literal in predicate position"));
            }
            group.patterns.push(TriplePattern {
                subject,
                predicate,
                object,
            });
            let _ = self.eat_symbol(".");
        }
        if group.patterns.is_empty() {
            return Err(self.err("empty group"));
        }
        Ok(group)
    }

    fn parse_prefix(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        let start = self.pos;
        self.skip_while(|c| c.is_alphanumeric() || c == '_' || c == '-');
        let name = self.input[start..self.pos].to_owned();
        self.expect_symbol(":")?;
        self.expect_symbol("<")?;
        let iri_start = self.pos;
        self.skip_while(|c| c != '>');
        let iri = self.input[iri_start..self.pos].to_owned();
        self.expect_symbol(">")?;
        self.prefixes.insert(name, iri);
        Ok(())
    }

    fn try_parse_var(&mut self) -> Result<Option<Variable>, ParseError> {
        self.skip_ws();
        if !self.rest().starts_with('?') {
            return Ok(None);
        }
        self.pos += 1;
        let start = self.pos;
        self.skip_while(|c| c.is_alphanumeric() || c == '_');
        if self.pos == start {
            return Err(self.err("empty variable name"));
        }
        Ok(Some(Variable(self.input[start..self.pos].to_owned())))
    }

    fn parse_term(&mut self) -> Result<PatternTerm, ParseError> {
        self.skip_ws();
        if let Some(v) = self.try_parse_var()? {
            return Ok(PatternTerm::Var(v));
        }
        let r = self.rest();
        if r.starts_with('<') {
            self.pos += 1;
            let start = self.pos;
            self.skip_while(|c| c != '>');
            let iri = self.input[start..self.pos].to_owned();
            self.expect_symbol(">")?;
            return Ok(PatternTerm::Iri(iri));
        }
        if r.starts_with('"') {
            return Ok(PatternTerm::Literal(self.parse_string_literal()?));
        }
        if r.starts_with(|c: char| c.is_ascii_digit() || c == '-' || c == '+') {
            return Ok(PatternTerm::Literal(self.parse_number()?));
        }
        if self.eat_keyword("true") {
            return Ok(PatternTerm::Literal(LiteralSpec::Boolean(true)));
        }
        if self.eat_keyword("false") {
            return Ok(PatternTerm::Literal(LiteralSpec::Boolean(false)));
        }
        if self.eat_keyword("a") {
            return Ok(PatternTerm::Iri(alex_rdf::vocab::RDF_TYPE.to_owned()));
        }
        // prefixed name: prefix:local
        let start = self.pos;
        self.skip_while(|c| c.is_alphanumeric() || c == '_' || c == '-');
        if self.rest().starts_with(':') {
            let prefix = self.input[start..self.pos].to_owned();
            self.pos += 1;
            let local_start = self.pos;
            self.skip_while(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == '.');
            let local = &self.input[local_start..self.pos];
            let base = self
                .prefixes
                .get(&prefix)
                .ok_or_else(|| self.err(format!("unknown prefix '{prefix}:'")))?;
            return Ok(PatternTerm::Iri(format!("{base}{local}")));
        }
        self.pos = start;
        Err(self.err("expected variable, IRI, prefixed name, or literal"))
    }

    fn parse_string_literal(&mut self) -> Result<LiteralSpec, ParseError> {
        self.expect_symbol("\"")?;
        let mut value = String::new();
        loop {
            let Some(c) = self.rest().chars().next() else {
                return Err(self.err("unterminated string literal"));
            };
            self.pos += c.len_utf8();
            match c {
                '"' => break,
                '\\' => {
                    let Some(esc) = self.rest().chars().next() else {
                        return Err(self.err("truncated escape"));
                    };
                    self.pos += esc.len_utf8();
                    value.push(match esc {
                        'n' => '\n',
                        't' => '\t',
                        'r' => '\r',
                        other => other,
                    });
                }
                c => value.push(c),
            }
        }
        if self.rest().starts_with('@') {
            self.pos += 1;
            let start = self.pos;
            self.skip_while(|c| c.is_ascii_alphanumeric() || c == '-');
            let lang = self.input[start..self.pos].to_ascii_lowercase();
            if lang.is_empty() {
                return Err(self.err("empty language tag"));
            }
            return Ok(LiteralSpec::LangStr(value, lang));
        }
        if self.rest().starts_with("^^") {
            self.pos += 2;
            let dt = match self.parse_term()? {
                PatternTerm::Iri(iri) => iri,
                _ => return Err(self.err("expected datatype IRI after ^^")),
            };
            use alex_rdf::vocab as v;
            return match dt.as_str() {
                v::XSD_INTEGER | v::XSD_INT | v::XSD_LONG => value
                    .parse::<i64>()
                    .map(LiteralSpec::Integer)
                    .map_err(|_| self.err("invalid integer literal")),
                v::XSD_DOUBLE | v::XSD_FLOAT | v::XSD_DECIMAL => value
                    .parse::<f64>()
                    .map(LiteralSpec::Float)
                    .map_err(|_| self.err("invalid float literal")),
                v::XSD_BOOLEAN => match value.as_str() {
                    "true" | "1" => Ok(LiteralSpec::Boolean(true)),
                    "false" | "0" => Ok(LiteralSpec::Boolean(false)),
                    _ => Err(self.err("invalid boolean literal")),
                },
                v::XSD_DATE => Ok(LiteralSpec::Date(value)),
                _ => Ok(LiteralSpec::Str(value)),
            };
        }
        Ok(LiteralSpec::Str(value))
    }

    fn parse_number(&mut self) -> Result<LiteralSpec, ParseError> {
        self.skip_ws();
        let start = self.pos;
        if self.rest().starts_with('-') || self.rest().starts_with('+') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.rest().chars().next() {
            if c.is_ascii_digit() {
                self.pos += 1;
            } else if c == '.'
                && !is_float
                && self.rest()[1..].starts_with(|d: char| d.is_ascii_digit())
            {
                is_float = true;
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.input[start..self.pos];
        if text.is_empty() || text == "-" || text == "+" {
            return Err(self.err("expected number"));
        }
        if is_float {
            text.parse::<f64>()
                .map(LiteralSpec::Float)
                .map_err(|_| self.err("invalid float"))
        } else {
            text.parse::<i64>()
                .map(LiteralSpec::Integer)
                .map_err(|_| self.err("invalid integer"))
        }
    }

    fn parse_unsigned(&mut self) -> Result<usize, ParseError> {
        self.skip_ws();
        let start = self.pos;
        self.skip_while(|c| c.is_ascii_digit());
        self.input[start..self.pos]
            .parse()
            .map_err(|_| self.err("expected unsigned integer"))
    }

    fn parse_or_expr(&mut self) -> Result<FilterExpr, ParseError> {
        let mut left = self.parse_and_expr()?;
        while self.eat_symbol("||") {
            let right = self.parse_and_expr()?;
            left = FilterExpr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and_expr(&mut self) -> Result<FilterExpr, ParseError> {
        let mut left = self.parse_unary_expr()?;
        while self.eat_symbol("&&") {
            let right = self.parse_unary_expr()?;
            left = FilterExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_unary_expr(&mut self) -> Result<FilterExpr, ParseError> {
        if self.depth == MAX_FILTER_DEPTH {
            return Err(self.err("filter nested too deeply"));
        }
        self.depth += 1;
        let expr = self.parse_unary_operand();
        self.depth -= 1;
        expr
    }

    fn parse_unary_operand(&mut self) -> Result<FilterExpr, ParseError> {
        self.skip_ws();
        if self.rest().starts_with('!') && !self.rest().starts_with("!=") {
            self.pos += 1;
            return Ok(FilterExpr::Not(Box::new(self.parse_unary_expr()?)));
        }
        if self.eat_symbol("(") {
            let e = self.parse_or_expr()?;
            self.expect_symbol(")")?;
            return Ok(e);
        }
        if self.eat_keyword("CONTAINS") {
            self.expect_symbol("(")?;
            let var = self
                .try_parse_var()?
                .ok_or_else(|| self.err("CONTAINS needs a variable"))?;
            self.expect_symbol(",")?;
            let needle = match self.parse_string_literal()? {
                LiteralSpec::Str(s) => s,
                _ => return Err(self.err("CONTAINS needs a plain string")),
            };
            self.expect_symbol(")")?;
            return Ok(FilterExpr::Contains { var, needle });
        }
        if self.eat_keyword("STRSTARTS") {
            self.expect_symbol("(")?;
            let var = self
                .try_parse_var()?
                .ok_or_else(|| self.err("STRSTARTS needs a variable"))?;
            self.expect_symbol(",")?;
            let prefix = match self.parse_string_literal()? {
                LiteralSpec::Str(s) => s,
                _ => return Err(self.err("STRSTARTS needs a plain string")),
            };
            self.expect_symbol(")")?;
            return Ok(FilterExpr::StrStarts { var, prefix });
        }
        // comparison: operand op operand
        let left = self.parse_operand()?;
        let op = self.parse_compare_op()?;
        let right = self.parse_operand()?;
        Ok(FilterExpr::Compare { left, op, right })
    }

    fn parse_operand(&mut self) -> Result<FilterOperand, ParseError> {
        self.skip_ws();
        if let Some(v) = self.try_parse_var()? {
            return Ok(FilterOperand::Var(v));
        }
        if self.rest().starts_with('"') {
            return Ok(FilterOperand::Literal(self.parse_string_literal()?));
        }
        if self.eat_keyword("true") {
            return Ok(FilterOperand::Literal(LiteralSpec::Boolean(true)));
        }
        if self.eat_keyword("false") {
            return Ok(FilterOperand::Literal(LiteralSpec::Boolean(false)));
        }
        Ok(FilterOperand::Literal(self.parse_number()?))
    }

    fn parse_compare_op(&mut self) -> Result<CompareOp, ParseError> {
        self.skip_ws();
        for (sym, op) in [
            ("!=", CompareOp::Ne),
            ("<=", CompareOp::Le),
            (">=", CompareOp::Ge),
            ("=", CompareOp::Eq),
            ("<", CompareOp::Lt),
            (">", CompareOp::Gt),
        ] {
            if self.eat_symbol(sym) {
                return Ok(op);
            }
        }
        Err(self.err("expected comparison operator"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_select() {
        let q = parse(
            "SELECT ?name WHERE { ?p <http://ex/name> ?name . ?p <http://ex/age> 30 . } LIMIT 5",
        )
        .unwrap();
        assert_eq!(q.select.len(), 1);
        assert_eq!(q.patterns.len(), 2);
        assert_eq!(q.limit, Some(5));
        assert!(!q.distinct);
    }

    #[test]
    fn parses_prefixes_and_a() {
        let q = parse(
            "PREFIX ex: <http://ex/>\n\
             SELECT DISTINCT * WHERE { ?p a ex:Person . ?p ex:name \"Alice\" }",
        )
        .unwrap();
        assert!(q.distinct);
        assert!(q.select.is_empty());
        match &q.patterns[0].predicate {
            PatternTerm::Iri(iri) => assert_eq!(iri, alex_rdf::vocab::RDF_TYPE),
            other => panic!("unexpected {other:?}"),
        }
        match &q.patterns[0].object {
            PatternTerm::Iri(iri) => assert_eq!(iri, "http://ex/Person"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_typed_and_lang_literals() {
        let q = parse(
            "SELECT ?x WHERE { \
               ?x <http://p> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> . \
               ?x <http://q> \"hi\"@EN . \
               ?x <http://r> 2.5 . \
               ?x <http://s> true . \
             }",
        )
        .unwrap();
        assert_eq!(
            q.patterns[0].object,
            PatternTerm::Literal(LiteralSpec::Integer(42))
        );
        assert_eq!(
            q.patterns[1].object,
            PatternTerm::Literal(LiteralSpec::LangStr("hi".into(), "en".into()))
        );
        assert_eq!(
            q.patterns[2].object,
            PatternTerm::Literal(LiteralSpec::Float(2.5))
        );
        assert_eq!(
            q.patterns[3].object,
            PatternTerm::Literal(LiteralSpec::Boolean(true))
        );
    }

    #[test]
    fn parses_filters() {
        let q = parse(
            "SELECT ?x ?y WHERE { ?x <http://p> ?y . \
             FILTER(?y > 10 && ?y <= 20) \
             FILTER(CONTAINS(?x, \"james\") || !STRSTARTS(?x, \"zz\")) }",
        )
        .unwrap();
        assert_eq!(q.filters.len(), 2);
        match &q.filters[0] {
            FilterExpr::And(a, b) => {
                assert!(matches!(
                    **a,
                    FilterExpr::Compare {
                        op: CompareOp::Gt,
                        ..
                    }
                ));
                assert!(matches!(
                    **b,
                    FilterExpr::Compare {
                        op: CompareOp::Le,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &q.filters[1] {
            FilterExpr::Or(a, b) => {
                assert!(matches!(**a, FilterExpr::Contains { .. }));
                assert!(matches!(**b, FilterExpr::Not(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_ne_filter() {
        let q = parse("SELECT ?x WHERE { ?x <http://p> ?y . FILTER(?y != 3) }").unwrap();
        assert!(matches!(
            q.filters[0],
            FilterExpr::Compare {
                op: CompareOp::Ne,
                ..
            }
        ));
    }

    #[test]
    fn rejects_malformed_queries() {
        for bad in [
            "",
            "SELECT WHERE { ?x <p> ?y }",
            "SELECT ?x { ?x <p> ?y }",
            "SELECT ?x WHERE { ?x <p> }",
            "SELECT ?x WHERE { ?x \"lit\" ?y }",
            "SELECT ?z WHERE { ?x <http://p> ?y }",
            "SELECT ?x WHERE { ?x <http://p> ?y } garbage",
            "SELECT ?x WHERE { }",
            "SELECT ?x WHERE { ?x unknown:p ?y }",
            "SELECT ?x WHERE { ?x <http://p> ?y . FILTER(?y >) }",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn parses_order_by_offset() {
        let q =
            parse("SELECT ?x WHERE { ?x <http://p> ?y } ORDER BY DESC(?y) ?x LIMIT 5 OFFSET 10")
                .unwrap();
        assert_eq!(q.order_by.len(), 2);
        assert!(q.order_by[0].descending);
        assert!(!q.order_by[1].descending);
        assert_eq!(q.limit, Some(5));
        assert_eq!(q.offset, Some(10));
        // OFFSET before LIMIT also parses.
        let q = parse("SELECT ?x WHERE { ?x <http://p> ?y } OFFSET 2 LIMIT 3").unwrap();
        assert_eq!((q.offset, q.limit), (Some(2), Some(3)));
        // ORDER BY with an unused variable is rejected.
        assert!(parse("SELECT ?x WHERE { ?x <http://p> ?y } ORDER BY ?zzz").is_err());
        assert!(parse("SELECT ?x WHERE { ?x <http://p> ?y } ORDER BY").is_err());
    }

    #[test]
    fn comments_are_skipped() {
        let q =
            parse("# find things\nSELECT ?x WHERE {\n # pattern\n ?x <http://p> ?y .\n}").unwrap();
        assert_eq!(q.patterns.len(), 1);
    }

    #[test]
    fn error_reports_position() {
        let err = parse("SELECT ?x WHERE { ?x <http://p> ?y } LIMIT abc").unwrap_err();
        assert!(err.position > 0);
        assert!(err.to_string().contains("unsigned"));
    }

    #[test]
    fn nested_groups_rejected() {
        assert!(parse("SELECT ?x WHERE { OPTIONAL { OPTIONAL { ?x <p> ?y } } }").is_err());
        assert!(
            parse("SELECT ?x WHERE { { ?x <p> ?y } }").is_err(),
            "lone group needs UNION"
        );
        for q in [
            "SELECT ?x WHERE { ?x <p> ?y OPTIONAL { ?x <q> ?z . optional { ?x <r> ?w } } }",
            "SELECT ?x WHERE { ?x <p> ?y OPTIONAL { ?x <q> ?z OpTiOnAl { ?x <r> ?w } } }",
        ] {
            let err = parse(q).unwrap_err();
            assert!(err.message.contains("nested groups"), "{q}: {err}");
        }
    }

    #[test]
    fn group_term_starting_with_a_multibyte_char_is_an_error() {
        for q in [
            "SELECT ?x WHERE { ?x <p> ?y OPTIONAL { ⽆ <q> ?z } }",
            "SELECT ?x WHERE { { ?x <p> ?y . éOPTIONAL } UNION { ?x <q> ?y } }",
        ] {
            assert!(parse(q).is_err(), "{q}");
        }
    }
}

//! Textual Elog parser.
//!
//! Accepts the Figure-5 style syntax:
//!
//! ```text
//! tableseq(S, X) :- document("www.ebay.com/", S),
//!                   subsq(S, (.body, []), (.table, []), (.table, []), X),
//!                   before(S, X, (.table, [(elementtext, "item", substr)]), 0, 0, _, _),
//!                   after(S, X, (.hr, []), 0, 0, _, _).
//! record(S, X)   :- tableseq(_, S), subelem(S, (.table, []), X).
//! ```
//!
//! Dialect note (recorded in DESIGN.md): in our element paths `.tag` is a
//! *child* step and `?.tag` a *descendant* step; `*` is a tag wildcard and
//! `/re/` a regex tag test. The paper's examples are written in this
//! dialect throughout the repository.

use crate::ast::{
    AttrCond, AttrMode, Condition, ElementPath, ElogProgram, ElogRule, Extraction, ParentSpec,
    PathStep, TagTest, UrlExpr,
};

/// Parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte position.
    pub at: usize,
    /// Message.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "elog parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse an Elog program.
pub fn parse_program(src: &str) -> Result<ElogProgram, ParseError> {
    let mut p = P {
        src: src.as_bytes(),
        text: src,
        pos: 0,
    };
    let mut rules = Vec::new();
    loop {
        p.ws();
        if p.pos >= p.src.len() {
            break;
        }
        rules.push(p.rule()?);
    }
    Ok(ElogProgram { rules })
}

struct P<'a> {
    src: &'a [u8],
    text: &'a str,
    pos: usize,
}

impl<'a> P<'a> {
    fn err(&self, m: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: m.to_string(),
        }
    }

    fn ws(&mut self) {
        loop {
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.pos < self.src.len() && self.src[self.pos] == b'%' {
                while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                return;
            }
        }
    }

    fn eat(&mut self, s: &str) -> bool {
        self.ws();
        if self.text[self.pos..].starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{s}'")))
        }
    }

    /// An identifier, borrowed from the source: most are atom names and
    /// variables the parser only matches, so only what the program keeps
    /// is copied.
    fn ident(&mut self) -> Result<&'a str, ParseError> {
        self.ws();
        let start = self.pos;
        while self.pos < self.src.len() {
            let b = self.src[self.pos];
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(self.err("expected an identifier"));
        }
        Ok(&self.text[start..self.pos])
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.ws();
        if self.src.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos] != b'"' {
            self.pos += 1;
        }
        if self.pos >= self.src.len() {
            return Err(self.err("unterminated string"));
        }
        let s = self.text[start..self.pos].to_string();
        self.pos += 1;
        Ok(s)
    }

    fn number(&mut self) -> Result<u32, ParseError> {
        self.ws();
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected a number"));
        }
        self.text[start..self.pos]
            .parse()
            .map_err(|_| self.err("bad number"))
    }

    /// A variable: an identifier starting with an uppercase letter, or `_`.
    fn var_or_blank(&mut self) -> Result<Option<&'a str>, ParseError> {
        self.ws();
        if self.eat("_") {
            return Ok(None);
        }
        let id = self.ident()?;
        if !id.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            return Err(self.err("expected a variable (uppercase) or '_'"));
        }
        Ok(Some(id))
    }

    fn rule(&mut self) -> Result<ElogRule, ParseError> {
        let pattern = self.ident()?.to_string();
        self.expect("(")?;
        let _s = self.var_or_blank()?;
        self.expect(",")?;
        let _x = self.var_or_blank()?;
        self.expect(")")?;
        self.expect(":-")?;

        // First body atom: the parent.
        let parent = self.parent_atom()?;
        let mut extraction: Option<Extraction> = None;
        let mut conditions = Vec::new();
        while self.eat(",") {
            self.ws();
            let name = self.ident()?;
            match name {
                "subelem" => {
                    self.expect("(")?;
                    self.var_or_blank()?;
                    self.expect(",")?;
                    let path = self.path()?;
                    self.expect(",")?;
                    self.var_or_blank()?;
                    self.expect(")")?;
                    extraction = Some(Extraction::Subelem(path));
                }
                "subsq" => {
                    self.expect("(")?;
                    self.var_or_blank()?;
                    self.expect(",")?;
                    let context = self.path()?;
                    self.expect(",")?;
                    let start = self.path()?;
                    self.expect(",")?;
                    let end = self.path()?;
                    self.expect(",")?;
                    self.var_or_blank()?;
                    self.expect(")")?;
                    extraction = Some(Extraction::Subsq {
                        context,
                        start,
                        end,
                    });
                }
                "subtext" => {
                    self.expect("(")?;
                    self.var_or_blank()?;
                    self.expect(",")?;
                    let pat = self.string()?;
                    self.expect(",")?;
                    self.var_or_blank()?;
                    self.expect(")")?;
                    extraction = Some(Extraction::Subtext(pat));
                }
                "subatt" => {
                    self.expect("(")?;
                    self.var_or_blank()?;
                    self.expect(",")?;
                    let attr = if self.text[self.pos..].trim_start().starts_with('"') {
                        self.string()?
                    } else {
                        self.ident()?.to_string()
                    };
                    self.expect(",")?;
                    self.var_or_blank()?;
                    self.expect(")")?;
                    extraction = Some(Extraction::Subatt(attr));
                }
                "document" => {
                    self.expect("(")?;
                    self.ws();
                    let url = if self.src.get(self.pos) == Some(&b'"') {
                        UrlExpr::Const(self.string()?)
                    } else {
                        match self.var_or_blank()? {
                            Some(v) => UrlExpr::Var(v.to_string()),
                            None => return Err(self.err("document() needs a URL or variable")),
                        }
                    };
                    self.expect(",")?;
                    self.var_or_blank()?;
                    self.expect(")")?;
                    extraction = Some(Extraction::Document(url));
                }
                "before" | "after" | "notbefore" | "notafter" => {
                    self.expect("(")?;
                    self.var_or_blank()?;
                    self.expect(",")?;
                    self.var_or_blank()?;
                    self.expect(",")?;
                    let path = self.path()?;
                    self.expect(",")?;
                    let min = self.number()?;
                    self.expect(",")?;
                    let max = self.number()?;
                    // Optional trailing ", Y, _" bindings.
                    let mut bind = None;
                    if self.eat(",") {
                        bind = self.var_or_blank()?.map(str::to_string);
                        if self.eat(",") {
                            self.var_or_blank()?; // second binding slot unused
                        }
                    }
                    self.expect(")")?;
                    let negated = name.starts_with("not");
                    let c = if name.ends_with("before") {
                        Condition::Before {
                            path,
                            min,
                            max,
                            bind,
                            negated,
                        }
                    } else {
                        Condition::After {
                            path,
                            min,
                            max,
                            bind,
                            negated,
                        }
                    };
                    conditions.push(c);
                }
                "contains" | "notcontains" => {
                    self.expect("(")?;
                    self.var_or_blank()?;
                    self.expect(",")?;
                    let path = self.path()?;
                    self.expect(")")?;
                    conditions.push(Condition::Contains {
                        path,
                        negated: name == "notcontains",
                    });
                }
                "firstsubtree" => {
                    self.expect("(")?;
                    self.var_or_blank()?;
                    self.expect(",")?;
                    self.var_or_blank()?;
                    self.expect(",")?;
                    let path = self.path()?;
                    self.expect(")")?;
                    conditions.push(Condition::FirstSubtree { path });
                }
                "attrbind" => {
                    self.expect("(")?;
                    self.var_or_blank()?;
                    self.expect(",")?;
                    let attr = if self.text[self.pos..].trim_start().starts_with('"') {
                        self.string()?
                    } else {
                        self.ident()?.to_string()
                    };
                    self.expect(",")?;
                    let var = self
                        .var_or_blank()?
                        .ok_or_else(|| self.err("attrbind needs a variable"))?
                        .to_string();
                    self.expect(")")?;
                    conditions.push(Condition::AttrBind { attr, var });
                }
                "range" => {
                    self.expect("(")?;
                    let from = self.number()? as usize;
                    self.expect(",")?;
                    let to = self.number()? as usize;
                    self.expect(")")?;
                    conditions.push(Condition::Range { from, to });
                }
                "lt" | "le" | "gt" | "ge" | "eq" | "ne" => {
                    self.expect("(")?;
                    let left = self
                        .var_or_blank()?
                        .ok_or_else(|| self.err("comparison needs a variable"))?
                        .to_string();
                    self.expect(",")?;
                    self.ws();
                    let (right, lit) = if self.src.get(self.pos) == Some(&b'"') {
                        (self.string()?, true)
                    } else {
                        (
                            self.var_or_blank()?
                                .ok_or_else(|| self.err("expected var or literal"))?
                                .to_string(),
                            false,
                        )
                    };
                    self.expect(")")?;
                    let op = match name {
                        "lt" => "<",
                        "le" => "<=",
                        "gt" => ">",
                        "ge" => ">=",
                        "eq" => "=",
                        _ => "!=",
                    };
                    conditions.push(Condition::Comparison {
                        left,
                        op: op.to_string(),
                        right,
                        right_is_literal: lit,
                    });
                }
                other => {
                    // Concept condition `isFoo(Y)` / `notIsFoo(Y)` or a
                    // pattern reference `pat(_, Y)`.
                    self.expect("(")?;
                    self.ws();
                    // Pattern ref has the form (_, Y); concept has (Y).
                    if self.src.get(self.pos) == Some(&b'_') {
                        self.pos += 1;
                        self.expect(",")?;
                        let var = self
                            .var_or_blank()?
                            .ok_or_else(|| self.err("pattern reference needs a variable"))?
                            .to_string();
                        self.expect(")")?;
                        conditions.push(Condition::PatternRef {
                            pattern: other.to_string(),
                            var,
                        });
                    } else {
                        let var = self
                            .var_or_blank()?
                            .ok_or_else(|| self.err("concept condition needs a variable"))?
                            .to_string();
                        self.expect(")")?;
                        let (concept, negated) = match other.strip_prefix("not") {
                            Some(rest) if rest.starts_with(|c: char| c.is_uppercase()) => {
                                // notIsCurrency(Y) style — lowercase the I.
                                let mut s = rest.to_string();
                                s.replace_range(0..1, &rest[0..1].to_lowercase());
                                (s, true)
                            }
                            _ => (other.to_string(), false),
                        };
                        conditions.push(Condition::Concept {
                            concept,
                            var,
                            negated,
                        });
                    }
                }
            }
        }
        self.expect(".")?;
        Ok(ElogRule {
            pattern,
            parent,
            extraction: extraction.unwrap_or(Extraction::Specialize),
            conditions,
        })
    }

    fn parent_atom(&mut self) -> Result<ParentSpec, ParseError> {
        let name = self.ident()?;
        self.expect("(")?;
        if name == "document" {
            self.ws();
            let url = if self.src.get(self.pos) == Some(&b'"') {
                UrlExpr::Const(self.string()?)
            } else {
                match self.var_or_blank()? {
                    Some(v) => UrlExpr::Var(v.to_string()),
                    None => return Err(self.err("document() needs a URL")),
                }
            };
            self.expect(",")?;
            self.var_or_blank()?;
            self.expect(")")?;
            Ok(ParentSpec::Document(url))
        } else {
            self.var_or_blank()?;
            self.expect(",")?;
            self.var_or_blank()?;
            self.expect(")")?;
            Ok(ParentSpec::Pattern(name.to_string()))
        }
    }

    /// A path: `(.a.?.b, [conds])`, or a bare path string `.a.b`.
    fn path(&mut self) -> Result<ElementPath, ParseError> {
        self.ws();
        if self.src.get(self.pos) == Some(&b'(') {
            self.pos += 1;
            let mut p = self.path_steps()?;
            if self.eat(",") {
                self.ws();
                self.expect("[")?;
                loop {
                    self.ws();
                    if self.eat("]") {
                        break;
                    }
                    self.expect("(")?;
                    let attr = if self.src.get(self.pos) == Some(&b'"') {
                        self.string()?
                    } else {
                        self.ident()?.to_string()
                    };
                    self.expect(",")?;
                    self.ws();
                    let pattern = if self.src.get(self.pos) == Some(&b'"') {
                        self.string()?
                    } else if self.eat("_") {
                        String::new()
                    } else {
                        self.ident()?.to_string()
                    };
                    self.expect(",")?;
                    let mode = match self.ident()? {
                        "exact" => AttrMode::Exact,
                        "substr" => AttrMode::Substr,
                        "regvar" => AttrMode::Regvar,
                        m => return Err(self.err(&format!("unknown attribute mode '{m}'"))),
                    };
                    self.expect(")")?;
                    p.attrs.push(AttrCond {
                        attr,
                        pattern,
                        mode,
                    });
                    if !self.eat(",") && self.eat("]") {
                        break;
                    }
                }
            }
            self.expect(")")?;
            Ok(p)
        } else {
            self.path_steps()
        }
    }

    /// Path steps. Elements are separated by dots; a `?` element makes
    /// the following tag an any-depth (descendant) step, matching the
    /// paper's `?.td.?.a` notation. `*` is a tag wildcard, `/re/` a regex
    /// tag test.
    fn path_steps(&mut self) -> Result<ElementPath, ParseError> {
        self.ws();
        let mut steps = Vec::new();
        let mut descend = false;
        loop {
            match self.src.get(self.pos) {
                Some(b'.') => {
                    self.pos += 1;
                }
                Some(b'?') => {
                    self.pos += 1;
                    descend = true;
                }
                Some(b'*') => {
                    self.pos += 1;
                    steps.push(PathStep {
                        descend,
                        tag: TagTest::Any,
                    });
                    descend = false;
                }
                Some(b'/') => {
                    self.pos += 1;
                    let start = self.pos;
                    while self.pos < self.src.len() && self.src[self.pos] != b'/' {
                        self.pos += 1;
                    }
                    if self.pos >= self.src.len() {
                        return Err(self.err("unterminated regex tag test"));
                    }
                    let re = self.text[start..self.pos].to_string();
                    self.pos += 1;
                    steps.push(PathStep {
                        descend,
                        tag: TagTest::Regex(re),
                    });
                    descend = false;
                }
                Some(&b) if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'#' => {
                    let start = self.pos;
                    while self.pos < self.src.len() {
                        let b = self.src[self.pos];
                        if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'#' {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                    steps.push(PathStep {
                        descend,
                        tag: TagTest::Name(self.text[start..self.pos].to_string()),
                    });
                    descend = false;
                }
                _ => break,
            }
        }
        if steps.is_empty() {
            return Err(self.err("expected a path"));
        }
        Ok(ElementPath {
            steps,
            attrs: Vec::new(),
        })
    }
}

/// The Figure 5 eBay Elog program, in our dialect (used by tests, the
/// examples and the E9 benchmark).
pub const EBAY_PROGRAM: &str = r#"
    tableseq(S, X) :- document("www.ebay.com/", S),
        subsq(S, (.body, []), (.table, []), (.table, []), X),
        before(S, X, (?.table, [(elementtext, "item", substr)]), 0, 0, _, _),
        after(S, X, (?.hr, []), 0, 0, _, _).
    record(S, X) :- tableseq(_, S), subelem(S, (.table, []), X).
    itemdes(S, X) :- record(_, S), subelem(S, (?.td.?.a, []), X).
    price(S, X) :- record(_, S),
        subelem(S, (?.td, [(elementtext, "\var[Y](\$|EUR|DM|Euro)", regvar)]), X),
        isCurrency(Y).
    bids(S, X) :- record(_, S), subelem(S, (?.td, []), X),
        before(S, X, (?.td, []), 0, 30, Y, _), price(_, Y).
    currency(S, X) :- price(_, S), subtext(S, "\var[Y](\$|EUR|DM|Euro)", X), isCurrency(Y).
"#;

#[cfg(test)]
mod tests {
    use super::*;

    const EBAY: &str = EBAY_PROGRAM;

    #[test]
    fn parses_figure_5_program() {
        let p = parse_program(EBAY).unwrap();
        assert_eq!(p.rules.len(), 6);
        assert_eq!(
            p.patterns(),
            vec!["tableseq", "record", "itemdes", "price", "bids", "currency"]
        );
        // tableseq rule shape
        let ts = &p.rules[0];
        assert!(
            matches!(ts.parent, ParentSpec::Document(UrlExpr::Const(ref u)) if u == "www.ebay.com/")
        );
        assert!(matches!(ts.extraction, Extraction::Subsq { .. }));
        assert_eq!(ts.conditions.len(), 2);
        // bids rule has a binding + pattern reference
        let bids = &p.rules[4];
        assert!(matches!(
            &bids.conditions[0],
            Condition::Before { bind: Some(v), max: 30, .. } if v == "Y"
        ));
        assert!(matches!(
            &bids.conditions[1],
            Condition::PatternRef { pattern, var } if pattern == "price" && var == "Y"
        ));
        // currency rule: subtext + concept
        let cur = &p.rules[5];
        assert!(matches!(cur.extraction, Extraction::Subtext(_)));
        assert!(matches!(
            &cur.conditions[0],
            Condition::Concept { concept, negated: false, .. } if concept == "isCurrency"
        ));
    }

    #[test]
    fn paths_with_wildcards_and_regex() {
        let p = parse_program(
            r#"x(S, X) :- page(_, S), subelem(S, (?.*.*, []), X), contains(X, (./t[dh]/, [])).
            "#,
        )
        .unwrap();
        let r = &p.rules[0];
        if let Extraction::Subelem(path) = &r.extraction {
            assert_eq!(path.steps.len(), 2);
            assert!(path.steps[0].descend);
            assert_eq!(path.steps[0].tag, TagTest::Any);
            assert!(!path.steps[1].descend);
        } else {
            panic!("expected subelem");
        }
        assert!(matches!(
            &r.conditions[0],
            Condition::Contains { path, .. }
                if matches!(&path.steps[0].tag, TagTest::Regex(re) if re == "t[dh]")
        ));
    }

    #[test]
    fn specialization_without_extraction() {
        let p = parse_program(
            r#"green(S, X) :- table(_, S), contains(X, (?.td, [(bgcolor, "green", exact)])).
            "#,
        )
        .unwrap();
        assert!(matches!(p.rules[0].extraction, Extraction::Specialize));
    }

    #[test]
    fn range_and_comparisons() {
        let p = parse_program(
            r#"top(S, X) :- list(_, S), subelem(S, (.li, []), X), range(1, 3), lt(X, "100").
            "#,
        )
        .unwrap();
        assert!(matches!(
            p.rules[0].conditions[0],
            Condition::Range { from: 1, to: 3 }
        ));
        assert!(matches!(
            &p.rules[0].conditions[1],
            Condition::Comparison {
                right_is_literal: true,
                ..
            }
        ));
    }

    #[test]
    fn crawl_rule() {
        let p = parse_program(
            r#"page(S, X) :- link(_, S), attrbind(S, href, U), document(U, X).
            "#,
        )
        .unwrap();
        assert!(matches!(
            &p.rules[0].extraction,
            Extraction::Document(UrlExpr::Var(v)) if v == "U"
        ));
    }

    #[test]
    fn errors() {
        assert!(parse_program("x(S, X)").is_err());
        assert!(parse_program("x(S, X) :- y(_, S)").is_err()); // missing dot
        assert!(parse_program("x(s, X) :- y(_, S).").is_err()); // lowercase var
    }
}

//! Concept conditions — Section 3.3(c).
//!
//! "Concept condition predicates subsume semantic concepts like
//! isCountry(X) or isCurrency(X) and syntactic ones like isDate(X) […]
//! Some predicates are built-in to enrich the system, while more can be
//! interactively added. Syntactic predicates are created as regular
//! expressions, whereas semantic ones refer to an ontological database."
//!
//! A [`ConceptRegistry`] compiles every concept once, when it is
//! registered: a syntactic concept's case-insensitive regex, a semantic
//! concept's lower-cased member set. Plans take the compiled
//! [`PlanConcept`] by reference count, so a concept costs one compile
//! per registry, not one per condition or per test. The built-in
//! registry is built once per process and [`ConceptRegistry::builtin`]
//! hands out clones that share it; adding a concept copies the table
//! first. The registry also memoises its canonical fingerprint text
//! ([`ConceptRegistry::fingerprint`]), which every plan id hashes.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use lixto_regexlite::Regex;

use crate::plan::PlanConcept;

/// A concept definition.
#[derive(Debug, Clone)]
pub enum Concept {
    /// Syntactic: a regular expression the whole (trimmed) value must
    /// match somewhere.
    Syntactic(String),
    /// Semantic: membership in an ontology table (case-insensitive).
    Semantic(HashSet<String>),
}

/// A registered concept: its definition and the matcher compiled from
/// it, or the error of a syntactic concept whose regex does not compile
/// (plan compilation reports it; [`ConceptRegistry::holds`] is false).
#[derive(Debug, Clone)]
struct Entry {
    definition: Concept,
    matcher: Result<PlanConcept, lixto_regexlite::Error>,
}

#[derive(Debug, Clone, Default)]
struct Table {
    concepts: HashMap<String, Entry>,
    /// [`ConceptRegistry::fingerprint`], computed on first use; every
    /// change to `concepts` resets it.
    fingerprint: OnceLock<String>,
}

/// Registry of named concepts. Clones share one table until either is
/// changed.
#[derive(Debug, Clone)]
pub struct ConceptRegistry {
    table: Arc<Table>,
}

impl Default for ConceptRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

impl ConceptRegistry {
    /// The built-in registry: `isCurrency`, `isDate`, `isNumber`,
    /// `isPrice`, `isTime`, `isCountry`, `isCity`. Built and compiled
    /// once per process; every call returns a clone sharing it.
    pub fn builtin() -> ConceptRegistry {
        static BUILTIN: OnceLock<ConceptRegistry> = OnceLock::new();
        BUILTIN.get_or_init(build_builtin).clone()
    }

    /// An empty registry (for tests).
    pub fn empty() -> ConceptRegistry {
        ConceptRegistry {
            table: Arc::default(),
        }
    }

    /// Register a syntactic (regex) concept.
    pub fn add_syntactic(&mut self, name: &str, regex: &str) {
        let matcher = Regex::with_options(regex, true).map(|r| PlanConcept::Syntactic(Arc::new(r)));
        self.insert(name, Concept::Syntactic(regex.to_string()), matcher);
    }

    /// Register a semantic (ontology) concept.
    pub fn add_semantic(&mut self, name: &str, members: &[&str]) {
        let members: HashSet<String> = members.iter().map(|m| m.to_lowercase()).collect();
        let matcher = Ok(PlanConcept::Semantic(Arc::new(members.clone())));
        self.insert(name, Concept::Semantic(members), matcher);
    }

    fn insert(
        &mut self,
        name: &str,
        definition: Concept,
        matcher: Result<PlanConcept, lixto_regexlite::Error>,
    ) {
        let table = Arc::make_mut(&mut self.table);
        table.concepts.insert(
            name.to_string(),
            Entry {
                definition,
                matcher,
            },
        );
        table.fingerprint = OnceLock::new();
    }

    /// Is the concept defined?
    pub fn has(&self, name: &str) -> bool {
        self.table.concepts.contains_key(name)
    }

    /// The definition of `name`, if registered.
    pub fn get(&self, name: &str) -> Option<&Concept> {
        self.table.concepts.get(name).map(|e| &e.definition)
    }

    /// The matcher compiled for `name` at registration, if registered:
    /// `Err` for a syntactic concept whose regex does not compile. Plan
    /// compilation bakes a clone (a reference-count bump) into the
    /// compiled wrapper.
    pub fn matcher(&self, name: &str) -> Option<&Result<PlanConcept, lixto_regexlite::Error>> {
        self.table.concepts.get(name).map(|e| &e.matcher)
    }

    /// The canonical text of every definition, for fingerprinting a
    /// wrapper's full semantic identity: per concept in name order, the
    /// name, `\u{1f}`, the regex source or the sorted members joined by
    /// `,`, and `\u{1f}`. Computed once per registry and memoised until
    /// a concept is added.
    pub fn fingerprint(&self) -> &str {
        self.table.fingerprint.get_or_init(|| {
            let mut entries: Vec<(&String, &Entry)> = self.table.concepts.iter().collect();
            entries.sort_unstable_by_key(|(name, _)| *name);
            let mut text = String::new();
            for (name, entry) in entries {
                text.push_str(name);
                text.push('\u{1f}');
                match &entry.definition {
                    Concept::Syntactic(re) => text.push_str(re),
                    Concept::Semantic(set) => {
                        let mut members: Vec<&str> = set.iter().map(String::as_str).collect();
                        members.sort_unstable();
                        text.push_str(&members.join(","));
                    }
                }
                text.push('\u{1f}');
            }
            text
        })
    }

    /// Test a value against a concept. Unknown concepts never hold.
    pub fn holds(&self, name: &str, value: &str) -> bool {
        matches!(self.matcher(name), Some(Ok(m)) if m.holds(value))
    }
}

fn build_builtin() -> ConceptRegistry {
    let mut r = ConceptRegistry::empty();
    r.add_syntactic("isCurrency", r"^(\$|€|£|¥|EUR|USD|GBP|DM|ATS|CHF|Euro)$");
    r.add_syntactic(
        "isDate",
        r"(\d{1,2}[./-]\d{1,2}[./-]\d{2,4})|(\d{4}-\d{2}-\d{2})",
    );
    r.add_syntactic("isTime", r"\d{1,2}:\d{2}");
    r.add_syntactic("isNumber", r"^-?\d+(\.\d+)?$");
    r.add_syntactic("isPrice", r"(\$|€|£|EUR|USD|DM)\s*\d+([.,]\d{2})?");
    r.add_semantic(
        "isCountry",
        &[
            "austria",
            "germany",
            "italy",
            "france",
            "spain",
            "switzerland",
            "usa",
            "united states",
            "uk",
            "united kingdom",
            "japan",
            "china",
        ],
    );
    r.add_semantic(
        "isCity",
        &[
            "vienna", "graz", "linz", "salzburg", "berlin", "munich", "paris", "rome", "london",
            "new york", "tokyo",
        ],
    );
    r
}

/// Comparison support: values are compared as dates (`YYYY-MM-DD`,
/// `D.M.YYYY`, `D/M/YYYY`), else as numbers, else as strings.
pub fn compare_values(left: &str, op: &str, right: &str) -> bool {
    use std::cmp::Ordering;
    let ord = if let (Some(a), Some(b)) = (parse_date(left), parse_date(right)) {
        a.cmp(&b)
    } else if let (Ok(a), Ok(b)) = (left.trim().parse::<f64>(), right.trim().parse::<f64>()) {
        a.partial_cmp(&b).unwrap_or(Ordering::Equal)
    } else {
        left.trim().cmp(right.trim())
    };
    match op {
        "<" => ord == Ordering::Less,
        "<=" => ord != Ordering::Greater,
        ">" => ord == Ordering::Greater,
        ">=" => ord != Ordering::Less,
        "=" => ord == Ordering::Equal,
        "!=" => ord != Ordering::Equal,
        _ => false,
    }
}

/// Parse a date into (year, month, day): the trimmed text is all of
/// `^(\d{4})-(\d{2})-(\d{2})$` (ISO), or of
/// `^(\d{1,2})[./](\d{1,2})[./](\d{2,4})$` (day first; a two-digit year
/// is in 2000–2099). Parsed by hand: comparisons call this for both
/// operands of every check.
pub fn parse_date(s: &str) -> Option<(u32, u32, u32)> {
    let s = s.trim();
    if let Some([y, m, d]) = date_fields(s, b"-", [(4, 4), (2, 2), (2, 2)]) {
        return Some((y, m, d));
    }
    let [d, m, y] = date_fields(s, b"./", [(1, 2), (1, 2), (2, 4)])?;
    Some((if y < 100 { y + 2000 } else { y }, m, d))
}

/// `s` as exactly three runs of ASCII digits, their lengths within
/// `widths` (min, max), joined by two bytes from `separators`.
fn date_fields(s: &str, separators: &[u8], widths: [(usize, usize); 3]) -> Option<[u32; 3]> {
    let bytes = s.as_bytes();
    let mut fields = [0u32; 3];
    let mut pos = 0;
    for (i, (min, max)) in widths.into_iter().enumerate() {
        if i > 0 {
            if !separators.contains(bytes.get(pos)?) {
                return None;
            }
            pos += 1;
        }
        let start = pos;
        while pos < bytes.len() && pos - start < max && bytes[pos].is_ascii_digit() {
            fields[i] = fields[i] * 10 + u32::from(bytes[pos] - b'0');
            pos += 1;
        }
        if pos - start < min {
            return None;
        }
    }
    (pos == bytes.len()).then_some(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_currency_matches_figure_5_examples() {
        // "isCurrency — which matches strings like $, DM, Euro, etc."
        let r = ConceptRegistry::builtin();
        for v in ["$", "DM", "Euro", "EUR", "€"] {
            assert!(r.holds("isCurrency", v), "{v}");
        }
        assert!(!r.holds("isCurrency", "banana"));
    }

    #[test]
    fn dates_and_numbers() {
        let r = ConceptRegistry::builtin();
        assert!(r.holds("isDate", "14.06.2004"));
        assert!(r.holds("isDate", "2004-06-14"));
        assert!(!r.holds("isDate", "not a date"));
        assert!(r.holds("isNumber", "42"));
        assert!(r.holds("isNumber", "-3.5"));
        assert!(!r.holds("isNumber", "x42"));
    }

    #[test]
    fn semantic_membership_case_insensitive() {
        let r = ConceptRegistry::builtin();
        assert!(r.holds("isCountry", "Austria"));
        assert!(r.holds("isCountry", "AUSTRIA"));
        assert!(!r.holds("isCountry", "Atlantis"));
        assert!(r.holds("isCity", "Vienna"));
    }

    #[test]
    fn unknown_concept_never_holds() {
        let r = ConceptRegistry::builtin();
        assert!(!r.holds("isUnicorn", "anything"));
    }

    #[test]
    fn user_defined_concepts() {
        let mut r = ConceptRegistry::empty();
        r.add_syntactic("isFlightNo", r"^[A-Z]{2}\d{3,4}$");
        assert!(r.holds("isFlightNo", "OS123"));
        assert!(!r.holds("isFlightNo", "123OS"));
    }

    #[test]
    fn comparisons() {
        assert!(compare_values("3", "<", "10")); // numeric, not lexicographic
        assert!(compare_values("2.5", "<=", "2.5"));
        assert!(compare_values("14.06.2004", "<", "2004-06-15"));
        assert!(compare_values("abc", "<", "abd"));
        assert!(compare_values("5", "!=", "6"));
        assert!(!compare_values("5", "bogus-op", "6"));
    }

    #[test]
    fn hand_parsed_dates_agree_with_the_date_grammars() {
        let iso = Regex::new(r"^(\d{4})-(\d{2})-(\d{2})$").unwrap();
        let eu = Regex::new(r"^(\d{1,2})[./](\d{1,2})[./](\d{2,4})$").unwrap();
        let by_regex = |s: &str| -> Option<(u32, u32, u32)> {
            let s = s.trim();
            let field = |c: &lixto_regexlite::Captures<'_>, i| -> u32 {
                c.get(i).unwrap().text.parse().unwrap()
            };
            if let Some(c) = iso.captures(s) {
                return Some((field(&c, 1), field(&c, 2), field(&c, 3)));
            }
            let c = eu.captures(s)?;
            let y = field(&c, 3);
            Some((
                if y < 100 { y + 2000 } else { y },
                field(&c, 2),
                field(&c, 1),
            ))
        };
        for s in [
            "2004-06-14",
            " 2004-06-14 ",
            "14.06.2004",
            "1.6.04",
            "1/6.2004",
            "01/06/123",
            "14.06.20045",
            "141.06.2004",
            "14.06.2",
            "2004-6-14",
            "2004-06-14x",
            "20040-06-14",
            "2004/06/14",
            "14-06-2004",
            "14..2004",
            ".06.2004",
            "14.06.",
            "",
            "-",
            "١٤.06.2004",
            "9999-99-99",
            "99.99.9999",
            "not a date",
        ] {
            assert_eq!(parse_date(s), by_regex(s), "{s:?}");
        }
    }

    #[test]
    fn clones_share_until_changed_and_the_fingerprint_follows_changes() {
        let builtin = ConceptRegistry::builtin();
        let again = ConceptRegistry::builtin();
        assert!(Arc::ptr_eq(&builtin.table, &again.table));
        let Some(Ok(PlanConcept::Syntactic(a))) = builtin.matcher("isCurrency") else {
            panic!("isCurrency is a compiled syntactic concept");
        };
        let Some(Ok(PlanConcept::Syntactic(b))) = again.matcher("isCurrency") else {
            panic!("isCurrency is a compiled syntactic concept");
        };
        assert!(Arc::ptr_eq(a, b), "compiled once, shared by every clone");

        let before = builtin.fingerprint().to_string();
        assert!(before.starts_with("isCity\u{1f}berlin,graz,linz,london,munich,new york,"));
        let mut extended = builtin.clone();
        extended.add_syntactic("isFlightNo", r"^[A-Z]{2}\d{3,4}$");
        assert!(!Arc::ptr_eq(&builtin.table, &extended.table));
        assert_eq!(
            builtin.fingerprint(),
            before,
            "the shared table is untouched"
        );
        assert!(!builtin.has("isFlightNo"));
        assert!(extended
            .fingerprint()
            .contains("isFlightNo\u{1f}^[A-Z]{2}\\d{3,4}$\u{1f}"));
        extended.add_semantic("isCity", &["Graz"]);
        assert!(extended.fingerprint().contains("isCity\u{1f}graz\u{1f}"));
        assert!(extended.holds("isCity", "GRAZ") && !extended.holds("isCity", "Linz"));
    }

    #[test]
    fn a_bad_regex_concept_never_holds() {
        let mut r = ConceptRegistry::empty();
        r.add_syntactic("isBroken", "((");
        assert!(r.has("isBroken"));
        assert!(matches!(r.matcher("isBroken"), Some(Err(_))));
        assert!(!r.holds("isBroken", "(("));
    }
}

//! The *Configuration* table in `docs/ARCHITECTURE.md` lists exactly the
//! fields of `GatewayConfig` and `ServerConfig`: a field missing from
//! the table, or a row naming no field, fails. Every row also says which
//! of the four reasons makes the field a setting.

use std::collections::BTreeSet;

use lixto::http::GatewayConfig;
use lixto::server::ServerConfig;

const DOC: &str = include_str!("../docs/ARCHITECTURE.md");

/// Why a value may be a setting at all; each row's last cell starts
/// with one of these.
const REASONS: [&str; 4] = [
    "input bound",
    "host sizing",
    "deployment path",
    "test time-scale",
];

/// `Type::field` for every top-level field of `value`, read from its
/// pretty `Debug` form (one field per line, four spaces in).
fn fields_of(type_name: &str, value: &impl std::fmt::Debug) -> BTreeSet<String> {
    format!("{value:#?}")
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("    ")?;
            if rest.starts_with(' ') {
                return None;
            }
            let (name, _) = rest.split_once(": ")?;
            Some(format!("{type_name}::{name}"))
        })
        .collect()
}

/// `Type::field` for every row of the doc's table, checking each row's
/// shape and reason on the way.
fn documented_fields() -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in DOC
        .lines()
        .filter(|l| l.starts_with("| `GatewayConfig::") || l.starts_with("| `ServerConfig::"))
    {
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        assert_eq!(
            cells.len(),
            3,
            "a row has field, default and reason: {line}"
        );
        assert!(!cells[1].is_empty(), "a row names its default: {line}");
        assert!(
            REASONS.iter().any(|reason| cells[2].starts_with(reason)),
            "a row gives one of {REASONS:?} as its reason: {line}"
        );
        let field = cells[0].trim_matches('`').to_string();
        assert!(out.insert(field.clone()), "{field} is listed twice");
    }
    out
}

#[test]
fn architecture_doc_lists_exactly_the_configuration_fields() {
    let mut fields = fields_of("GatewayConfig", &GatewayConfig::default());
    fields.extend(fields_of("ServerConfig", &ServerConfig::default()));
    assert!(fields.contains("GatewayConfig::watch_spool"), "{fields:?}");
    assert!(fields.contains("ServerConfig::store"), "{fields:?}");
    let documented = documented_fields();
    let missing: Vec<_> = fields.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&fields).collect();
    assert!(
        missing.is_empty(),
        "fields missing from the Configuration table: {missing:?}"
    );
    assert!(stale.is_empty(), "rows that name no field: {stale:?}");
}

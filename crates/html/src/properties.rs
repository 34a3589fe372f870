//! Properties of the parser on arbitrary input: it never panics, builds
//! at most one node per token (plus the synthesized root), and stores no
//! more text than the source holds — entity decoding only shortens.

use proptest::prelude::*;

use crate::{parse, parse_with_options, ParseOptions, Tokenizer};
use lixto_tree::Document;

/// Bytes of text and attribute values the document stores.
fn stored_text(doc: &Document) -> usize {
    doc.node_ids()
        .map(|n| {
            doc.text(n).map_or(0, str::len) + doc.attrs(n).map(|(_, v)| v.len()).sum::<usize>()
        })
        .sum()
}

/// Tokenize and parse `src` both ways and check the bounds.
fn check(src: &str) -> Result<(), TestCaseError> {
    let tokens = Tokenizer::new(src).count();
    let keep_whitespace = ParseOptions {
        skip_whitespace_text: false,
    };
    for doc in [parse(src), parse_with_options(src, &keep_whitespace)] {
        prop_assert!(
            doc.len() <= tokens + 1,
            "{} nodes from {tokens} tokens",
            doc.len()
        );
        let text = stored_text(&doc);
        prop_assert!(text <= src.len(), "{text} bytes of text from {}", src.len());
        lixto_tree::render::to_sexp(&doc);
    }
    Ok(())
}

/// Pieces of markup that meet the scanner's and builder's edge cases
/// when strung together at random.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "<", ">", "/", "</", "/>", "<!", "<!--", "-->", "<?", "<td", "<TD", "<p>", "</p>", "<li>",
    "</li>", "<tr>", "<table>", "</table>", "<html>", "</html>", "<br>", "<script>", "</script>",
    "</SCRIPT", "<title>", "<x-y>", "</x-Y>", "</>", "</ >", "&", "&amp;", "&amp", "&#", "&#x41;",
    "&#1114112;", "&nbsp;", ";", "=", "\"", "'", " ", "\n", "a", "B", "é", "😀", "\u{a0}",
    "x=", "href=", "class='c'",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn character_soup_parses_within_bounds(
        src in "[<>/&;=\"' \t\na-zA-Z0-9#!?é€😀\u{a0}\u{3000}\\-]{0,160}",
    ) {
        check(&src)?;
    }

    #[test]
    fn fragment_soup_parses_within_bounds(
        parts in proptest::collection::vec(proptest::sample::select(FRAGMENTS.to_vec()), 0..60),
    ) {
        check(&parts.concat())?;
    }
}

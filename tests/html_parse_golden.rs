//! Byte identity of the HTML parser, pinned by fingerprint.
//!
//! Every input below is parsed, the tree is rendered with
//! `lixto_tree::render::to_sexp` (labels, attributes and text, in
//! document order) and the rendering is reduced to a 64-bit FNV-1a
//! fingerprint. The document's label table (`Interner::iter`, in
//! interning order) and the `Tokenizer`'s `Debug`-printed token stream
//! get fingerprints of their own. The table of expected values was
//! generated from the owned-`String` tokenizer and builder this parser
//! replaced, so a rewrite of the scanner, the tree builder or the text
//! arena must reproduce the old output exactly.
//!
//! The inputs are the serving corpus (`traffic::page_sized` for the five
//! wrappers at 30 and 120 rows), the watch-fleet page at several
//! revisions and epochs, every `perturb` class applied to a `books_a`
//! page, and hand-written edge cases: entities, raw-text elements, case,
//! attribute forms, comments, doctypes, stray `<`, input cut off inside
//! a tag, implied end tags and non-ASCII text.
//!
//! A mismatch prints the whole recomputed table, ready to paste, so an
//! intended change of output is one reviewed edit.

use rand::rngs::StdRng;
use rand::SeedableRng;

use lixto::html::{parse, parse_with_options, ParseOptions, Tokenizer};
use lixto::tree::render::to_sexp;
use lixto::workloads::perturb;
use lixto::workloads::traffic;

/// `(name, tree, labels, tokens)`: fingerprints of the rendered tree,
/// the label table and the token stream of each input in [`cases`].
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("books_a_30", 0x5afe512c31e997cb, 0xa5d5111c87ea02a9, 0x67d9fe6ffe53de55),
    ("books_a_30+ws", 0x40b60dcfe5e3470f, 0xa5d5111c87ea02a9, 0x67d9fe6ffe53de55),
    ("books_a_120", 0x8de44c6b8329c89e, 0xa5d5111c87ea02a9, 0xabf26040f9ddf7b2),
    ("books_a_120+ws", 0x6ed870c152ddde6e, 0xa5d5111c87ea02a9, 0xabf26040f9ddf7b2),
    ("books_b_30", 0x99af0fd029429aba, 0x8ccc2f52ae28910f, 0xb25f3c8c3bacd286),
    ("books_b_30+ws", 0x01baee5c47f61c80, 0x8ccc2f52ae28910f, 0xb25f3c8c3bacd286),
    ("books_b_120", 0x8c681e877358b1f9, 0x8ccc2f52ae28910f, 0x44b50ead6cfa5069),
    ("books_b_120+ws", 0xe520c5d2d284ad13, 0x8ccc2f52ae28910f, 0x44b50ead6cfa5069),
    ("ebay_30", 0x18355ed55a6ed1f3, 0x95cfcae68538356d, 0xa3fd75184f93f7c9),
    ("ebay_30+ws", 0x59e700d793cacd15, 0x0987ae78dc01d241, 0xa3fd75184f93f7c9),
    ("ebay_120", 0xa0f84d3c9e582cd1, 0x95cfcae68538356d, 0x3c39f7a91015d4af),
    ("ebay_120+ws", 0x3589b6092202086f, 0x0987ae78dc01d241, 0x3c39f7a91015d4af),
    ("news_30", 0xeafc28ff1056322b, 0xf0594bdca323452e, 0x4aae020ca3c40d7e),
    ("news_30+ws", 0x528817838e1b2c6d, 0xf0594bdca323452e, 0x4aae020ca3c40d7e),
    ("news_120", 0xe49a277dfbdc5d18, 0xf0594bdca323452e, 0xe4ea2831e03f825b),
    ("news_120+ws", 0x5de0ce98f4a6cab2, 0xf0594bdca323452e, 0xe4ea2831e03f825b),
    ("flights_30", 0x094d4842b5f083da, 0xa5d5111c87ea02a9, 0xee2df5955f8994d3),
    ("flights_30+ws", 0x2d3261ffeafaf746, 0xa5d5111c87ea02a9, 0xee2df5955f8994d3),
    ("flights_120", 0xbc7a610b780ee7e9, 0xa5d5111c87ea02a9, 0x238e0013147d5c9e),
    ("flights_120+ws", 0x0dcdee97d9170949, 0xa5d5111c87ea02a9, 0x238e0013147d5c9e),
    ("watch_0_r0_e0", 0x025d0dd7276dab1f, 0xc9e899499420adb2, 0x4fb77e66b42d88e7),
    ("watch_0_r0_e0+ws", 0x025d0dd7276dab1f, 0xc9e899499420adb2, 0x4fb77e66b42d88e7),
    ("watch_0_r0_e1", 0xee7c27da1b0e1d81, 0xc9e899499420adb2, 0xf17cdee9d681d5dd),
    ("watch_0_r0_e1+ws", 0xee7c27da1b0e1d81, 0xc9e899499420adb2, 0xf17cdee9d681d5dd),
    ("watch_3_r1_e5", 0xbd90cd7fa406e568, 0xc9e899499420adb2, 0xd9f8bdffff291822),
    ("watch_3_r1_e5+ws", 0xbd90cd7fa406e568, 0xc9e899499420adb2, 0xd9f8bdffff291822),
    ("watch_17_r4_e2", 0x5a44d8656b23c83a, 0xc9e899499420adb2, 0xc808520d3b226e74),
    ("watch_17_r4_e2+ws", 0x5a44d8656b23c83a, 0xc9e899499420adb2, 0xc808520d3b226e74),
    ("watch_31_r9_e40", 0xc66dde490fd9b1e3, 0xc9e899499420adb2, 0xeaad9e091041fa21),
    ("watch_31_r9_e40+ws", 0xc66dde490fd9b1e3, 0xc9e899499420adb2, 0xeaad9e091041fa21),
    ("books_a_TopBanner", 0x8ec7e1bbaac09e4b, 0x6c84438a4b1d753b, 0x24423a38045de053),
    ("books_a_TopBanner+ws", 0x75ea8ca9f1efbcaf, 0x6c84438a4b1d753b, 0x24423a38045de053),
    ("books_a_NavSidebar", 0xbb36ac10c90668b8, 0xd2ebf3ec76fb36bd, 0x64cc106cc7ad4ab6),
    ("books_a_NavSidebar+ws", 0x9b326a8e8b5915a0, 0xd2ebf3ec76fb36bd, 0x64cc106cc7ad4ab6),
    ("books_a_WrapperDiv", 0xa0acbe9d22de6629, 0xfe1020430173e8c0, 0x419ec6bf63bd57f3),
    ("books_a_WrapperDiv+ws", 0x3429495787f4149d, 0xfe1020430173e8c0, 0x419ec6bf63bd57f3),
    ("books_a_Footer", 0x2c309231d8e9f8f4, 0x548249f8253ababe, 0x6629d3c8622b1711),
    ("books_a_Footer+ws", 0x7dd873959dd5bf10, 0x548249f8253ababe, 0x6629d3c8622b1711),
    ("books_a_AttrNoise", 0x6647c9a3ef468c57, 0xa5d5111c87ea02a9, 0x9bf5850c2a2e64cd),
    ("books_a_AttrNoise+ws", 0xd1c071cd1c6dd20b, 0xa5d5111c87ea02a9, 0x9bf5850c2a2e64cd),
    ("empty", 0x907f8acf51418899, 0x888bb1cc15ef7930, 0xcbf29ce484222325),
    ("empty+ws", 0x907f8acf51418899, 0x888bb1cc15ef7930, 0xcbf29ce484222325),
    ("whitespace_only", 0x907f8acf51418899, 0x888bb1cc15ef7930, 0x80c026a44eba5dbb),
    ("whitespace_only+ws", 0xaa9cee8ea72dab46, 0xdd9df9c7edf05cf0, 0x80c026a44eba5dbb),
    ("plain_text", 0x6ae0a11bcccd1d5c, 0xdd9df9c7edf05cf0, 0x5a5123f7c19fb8e8),
    ("plain_text+ws", 0x6ae0a11bcccd1d5c, 0xdd9df9c7edf05cf0, 0x5a5123f7c19fb8e8),
    ("well_formed", 0x2a9ba97cb9aa3858, 0x70a6f671d73a4178, 0xeebc343dc08b251c),
    ("well_formed+ws", 0x2a9ba97cb9aa3858, 0x70a6f671d73a4178, 0xeebc343dc08b251c),
    ("named_entities", 0x9ee0c8c8541d8189, 0xbe5acb5147dfb10a, 0x2bb24f0323881be0),
    ("named_entities+ws", 0x9ee0c8c8541d8189, 0xbe5acb5147dfb10a, 0x2bb24f0323881be0),
    ("numeric_entities", 0x0ea58aec2184dca8, 0xbe5acb5147dfb10a, 0xa0f33065309f30c3),
    ("numeric_entities+ws", 0x0ea58aec2184dca8, 0xbe5acb5147dfb10a, 0xa0f33065309f30c3),
    ("bad_numeric_entities", 0x36be9c5b2bba61de, 0xbe5acb5147dfb10a, 0xb40830f6a58ed231),
    ("bad_numeric_entities+ws", 0x36be9c5b2bba61de, 0xbe5acb5147dfb10a, 0xb40830f6a58ed231),
    ("unterminated_entities", 0xa215ada26666e2c2, 0xbe5acb5147dfb10a, 0xb83cadbb1a1cc635),
    ("unterminated_entities+ws", 0xa215ada26666e2c2, 0xbe5acb5147dfb10a, 0xb83cadbb1a1cc635),
    ("entities_in_attrs", 0xc1587ff322b5c60c, 0xfc83cc4a54d3bc1c, 0x8c790c3125f819ac),
    ("entities_in_attrs+ws", 0xc1587ff322b5c60c, 0xfc83cc4a54d3bc1c, 0x8c790c3125f819ac),
    ("script_raw_text", 0x473d1ce6d4dccde3, 0xf74e31f1b3c9c50b, 0x57e4e8eca0e88cd0),
    ("script_raw_text+ws", 0x473d1ce6d4dccde3, 0xf74e31f1b3c9c50b, 0x57e4e8eca0e88cd0),
    ("style_raw_text_upper_end", 0x9c4207aa30102225, 0x6a28f261aae0929f, 0x1aaa0d1e7b2154f1),
    ("style_raw_text_upper_end+ws", 0x9c4207aa30102225, 0x6a28f261aae0929f, 0x1aaa0d1e7b2154f1),
    ("title_raw_text", 0xbbacd960698aaed7, 0x94720a81aa58b562, 0x4939cc12eac36b19),
    ("title_raw_text+ws", 0xbbacd960698aaed7, 0x94720a81aa58b562, 0x4939cc12eac36b19),
    ("textarea_raw_text", 0x5e8557ae986278b2, 0xa7be87110a60f235, 0xb2dc0b5fa82efda8),
    ("textarea_raw_text+ws", 0x5e8557ae986278b2, 0xa7be87110a60f235, 0xb2dc0b5fa82efda8),
    ("unterminated_script", 0xe5d2aaf30a835ce9, 0xbd50a34233d42b83, 0x9e3ce88e9c6fec41),
    ("unterminated_script+ws", 0xe5d2aaf30a835ce9, 0xbd50a34233d42b83, 0x9e3ce88e9c6fec41),
    ("empty_script", 0x388bac4cb2158f76, 0xa552a233328b4ef3, 0xc11f8b051e0130bd),
    ("empty_script+ws", 0x388bac4cb2158f76, 0xa552a233328b4ef3, 0xc11f8b051e0130bd),
    ("self_closing_script", 0x85b83a87c25666e4, 0x85a7bc2abcefa1b7, 0xcce2bf203e540927),
    ("self_closing_script+ws", 0x85b83a87c25666e4, 0x85a7bc2abcefa1b7, 0xcce2bf203e540927),
    ("upper_case_names", 0x50fcf2730bca7c6c, 0xa2c50c2f9b3f0f5e, 0xbdace8a5a8ec950f),
    ("upper_case_names+ws", 0x50fcf2730bca7c6c, 0xa2c50c2f9b3f0f5e, 0xbdace8a5a8ec950f),
    ("mixed_case_end_tags", 0x07bd8038dafb64bd, 0x490fd67aaf8e8e49, 0x579fcaf72b317b92),
    ("mixed_case_end_tags+ws", 0x07bd8038dafb64bd, 0x490fd67aaf8e8e49, 0x579fcaf72b317b92),
    ("attribute_forms", 0xd1e0fcdd6d6f8803, 0x2fcdd248b5a4128e, 0x3eb7f83f1ec7df1f),
    ("attribute_forms+ws", 0xd1e0fcdd6d6f8803, 0x2fcdd248b5a4128e, 0x3eb7f83f1ec7df1f),
    ("attribute_spacing", 0xeb9975c79d83963a, 0xc31e269fac7b829a, 0x521b98f3722c2be9),
    ("attribute_spacing+ws", 0xeb9975c79d83963a, 0xc31e269fac7b829a, 0x521b98f3722c2be9),
    ("attribute_junk", 0x1555d906d144369e, 0x998bb04254038d3b, 0xced83db073a7676d),
    ("attribute_junk+ws", 0x1555d906d144369e, 0x998bb04254038d3b, 0xced83db073a7676d),
    ("self_closing_tags", 0xf123fd3aab0e4d16, 0xb8174528d03e8a84, 0xba7b057342fae6d6),
    ("self_closing_tags+ws", 0xf123fd3aab0e4d16, 0xb8174528d03e8a84, 0xba7b057342fae6d6),
    ("comments", 0xf41045c29c219abb, 0xbe5acb5147dfb10a, 0x7704fd16b5df5dd1),
    ("comments+ws", 0xf41045c29c219abb, 0xbe5acb5147dfb10a, 0x7704fd16b5df5dd1),
    ("doctype_and_pi", 0x7bd9b437f6f603e4, 0xae0c1fc0322af612, 0x2c6c6100a3363a69),
    ("doctype_and_pi+ws", 0x7bd9b437f6f603e4, 0xae0c1fc0322af612, 0x2c6c6100a3363a69),
    ("bang_without_close", 0x09cf3b7066d48515, 0xbe5acb5147dfb10a, 0xd228f9a50478c196),
    ("bang_without_close+ws", 0x09cf3b7066d48515, 0xbe5acb5147dfb10a, 0xd228f9a50478c196),
    ("literal_lt", 0x27704fb1e21034dc, 0x6252b0e1f7e476da, 0xb23267f48971397d),
    ("literal_lt+ws", 0x27704fb1e21034dc, 0x6252b0e1f7e476da, 0xb23267f48971397d),
    ("cut_in_attr_value", 0xe8cf04ea2cd3be82, 0x462f4af33c7d4cfe, 0x7d1be4acaf113986),
    ("cut_in_attr_value+ws", 0xe8cf04ea2cd3be82, 0x462f4af33c7d4cfe, 0x7d1be4acaf113986),
    ("cut_in_quoted_value", 0x07980aed9278f544, 0x462f4af33c7d4cfe, 0x06f67ae0f4691da0),
    ("cut_in_quoted_value+ws", 0x07980aed9278f544, 0x462f4af33c7d4cfe, 0x06f67ae0f4691da0),
    ("cut_in_name", 0x20d5d089f89c4124, 0x4c363f37ac2947ff, 0x74757edbc6b055b0),
    ("cut_in_name+ws", 0x20d5d089f89c4124, 0x4c363f37ac2947ff, 0x74757edbc6b055b0),
    ("cut_end_tag", 0xb703563173d89154, 0xbe5acb5147dfb10a, 0x801b5ec32f9d27a1),
    ("cut_end_tag+ws", 0xb703563173d89154, 0xbe5acb5147dfb10a, 0x801b5ec32f9d27a1),
    ("cut_end_tag_name", 0xb703563173d89154, 0xbe5acb5147dfb10a, 0xf19ddbdd172c6077),
    ("cut_end_tag_name+ws", 0xb703563173d89154, 0xbe5acb5147dfb10a, 0xf19ddbdd172c6077),
    ("empty_end_tag", 0x67d82b562ad6ef9c, 0xbe5acb5147dfb10a, 0x3921fb7942c67603),
    ("empty_end_tag+ws", 0x67d82b562ad6ef9c, 0xbe5acb5147dfb10a, 0x3921fb7942c67603),
    ("end_tag_junk", 0x3b2c799ac6a29f87, 0xbe5acb5147dfb10a, 0x9d9b7ef56da8d2b4),
    ("end_tag_junk+ws", 0x3b2c799ac6a29f87, 0xbe5acb5147dfb10a, 0x9d9b7ef56da8d2b4),
    ("implied_li", 0xf07343b97e0a3df1, 0x849a628975c2cde8, 0x72aa5d8de8f9ffde),
    ("implied_li+ws", 0xf07343b97e0a3df1, 0x849a628975c2cde8, 0x72aa5d8de8f9ffde),
    ("implied_cells", 0xd613ebcb40425822, 0x78c38a0ad616a7a2, 0x381e36da3cc17c0f),
    ("implied_cells+ws", 0xd613ebcb40425822, 0x78c38a0ad616a7a2, 0x381e36da3cc17c0f),
    ("implied_sections", 0x9be61c5849a96d25, 0xf2a74325b45000c6, 0xf343b189e9984bf3),
    ("implied_sections+ws", 0x9be61c5849a96d25, 0xf2a74325b45000c6, 0xf343b189e9984bf3),
    ("implied_p", 0xa98f34cf666281db, 0x2cc68c99ffa051df, 0x79b4f82fde7df0e7),
    ("implied_p+ws", 0xa98f34cf666281db, 0x2cc68c99ffa051df, 0x79b4f82fde7df0e7),
    ("implied_dl", 0x7cb13d317f84b7b4, 0xab6777d1e4b0302a, 0xe65e2b00aa5c3e63),
    ("implied_dl+ws", 0x7cb13d317f84b7b4, 0xab6777d1e4b0302a, 0xe65e2b00aa5c3e63),
    ("implied_options", 0x6decf0b5d608262f, 0x8a9c180dec8b2561, 0x624dddaa9d3d1b92),
    ("implied_options+ws", 0x6decf0b5d608262f, 0x8a9c180dec8b2561, 0x624dddaa9d3d1b92),
    ("unmatched_end_tags", 0xd9324a7cb8087b62, 0xb3aa4aa7c950feb6, 0xefdf0365a931110a),
    ("unmatched_end_tags+ws", 0xd9324a7cb8087b62, 0xb3aa4aa7c950feb6, 0xefdf0365a931110a),
    ("end_tag_closes_intervening", 0xb46fb1dd0096f8b6, 0x3872493c5d312858, 0xe6016d600b4bc35e),
    ("end_tag_closes_intervening+ws", 0xb46fb1dd0096f8b6, 0x3872493c5d312858, 0xe6016d600b4bc35e),
    ("close_root_then_more", 0x908b5a9031786c60, 0xbe5acb5147dfb10a, 0xdd5056b6f139c850),
    ("close_root_then_more+ws", 0x908b5a9031786c60, 0xbe5acb5147dfb10a, 0xdd5056b6f139c850),
    ("html_attrs_and_second_html", 0xd6e959366784284a, 0x2a9911bbcd996eaa, 0x1f8800cccf41cdf8),
    ("html_attrs_and_second_html+ws", 0xd6e959366784284a, 0x2a9911bbcd996eaa, 0x1f8800cccf41cdf8),
    ("text_before_html", 0xab01c127e8df4497, 0x5b3eacfde3fad282, 0x3efe0ea05df21971),
    ("text_before_html+ws", 0xab01c127e8df4497, 0x5b3eacfde3fad282, 0x3efe0ea05df21971),
    ("void_elements", 0x6e9087b9a0228928, 0xe8d952807f91e133, 0xaf73e8c205bbb6eb),
    ("void_elements+ws", 0x6e9087b9a0228928, 0xe8d952807f91e133, 0xaf73e8c205bbb6eb),
    ("void_end_tags", 0x67d82b562ad6ef9c, 0xbe5acb5147dfb10a, 0xfc345e1c2bb0080e),
    ("void_end_tags+ws", 0x67d82b562ad6ef9c, 0xbe5acb5147dfb10a, 0xfc345e1c2bb0080e),
    ("names_with_punctuation", 0x3ac6f4318278f57c, 0xff4719e1bace527a, 0x615f8f74f426c7c3),
    ("names_with_punctuation+ws", 0x3ac6f4318278f57c, 0xff4719e1bace527a, 0x615f8f74f426c7c3),
    ("non_ascii_text", 0xdaa625e8d88eb8a4, 0xbe5acb5147dfb10a, 0x44be03c4169d01f7),
    ("non_ascii_text+ws", 0xdaa625e8d88eb8a4, 0xbe5acb5147dfb10a, 0x44be03c4169d01f7),
    ("non_ascii_in_tag", 0x7f5eaaadd8cc9006, 0x0f6ac932c4a03bde, 0x8e9bc0eae5609f90),
    ("non_ascii_in_tag+ws", 0x7f5eaaadd8cc9006, 0x0f6ac932c4a03bde, 0x8e9bc0eae5609f90),
    ("non_ascii_after_lt", 0xacd9797984d6c136, 0xdd9df9c7edf05cf0, 0x4df332507315293e),
    ("non_ascii_after_lt+ws", 0xacd9797984d6c136, 0xdd9df9c7edf05cf0, 0x4df332507315293e),
    ("whitespace_text_between_tags", 0x2ade361b3a2abfaa, 0x5b205446cf76b2c0, 0xc05ec8b32cf2d427),
    ("whitespace_text_between_tags+ws", 0xf5f77cc346414188, 0x8c537dc8f3e3b0d0, 0xc05ec8b32cf2d427),
    ("deep_nesting", 0xa45d0657c61dc25f, 0xd7aee421d288e8c4, 0xfcb4e3ea4bb0f2ac),
    ("deep_nesting+ws", 0xa45d0657c61dc25f, 0xd7aee421d288e8c4, 0xfcb4e3ea4bb0f2ac),
];

/// Hand-written inputs, each aimed at one tokenizer or builder rule.
const EDGE_CASES: &[(&str, &str)] = &[
    ("empty", ""),
    ("whitespace_only", "  \n\t "),
    ("plain_text", "just text"),
    ("well_formed", "<html><body><p>hi</p></body></html>"),
    (
        "named_entities",
        "<p>a &amp; b &lt;c&gt; &euro;5 &nbsp;x &copy; &quot;q&quot; &hellip;</p>",
    ),
    (
        "numeric_entities",
        "<p>&#65;&#x42;&#X43;&#8364; &#0065; &#x1F600;</p>",
    ),
    (
        "bad_numeric_entities",
        "<p>&#xZZ; &#; &#1114112; &#x110000; &#-5; &#55296;</p>",
    ),
    (
        "unterminated_entities",
        "<p>x &amp y &bogus; &AMP; &noSemicolonEverAndLongerThanThirtyTwoBytes; & z &</p>tail &amp",
    ),
    (
        "entities_in_attrs",
        r#"<a title="A &amp; B" href=x&amp;y alt='&lt;&gt;' data-x="&#233;t&eacute;">t</a>"#,
    ),
    (
        "script_raw_text",
        "<script>if (a<b && c>d) { x = '&amp;'; }</script><p>after</p>",
    ),
    (
        "style_raw_text_upper_end",
        "<style>p > b { color: red }</STYLE>after",
    ),
    (
        "title_raw_text",
        "<title>A &amp; <b>bold</b></title><p>x</p>",
    ),
    (
        "textarea_raw_text",
        "<form><textarea name=t><p>not a tag</p></textarea></form>",
    ),
    ("unterminated_script", "<p>a<script>never ends"),
    ("empty_script", "<script></script><p>x"),
    ("self_closing_script", "<script src=x.js /><p>after</p>"),
    (
        "upper_case_names",
        "<TABLE BgColor=Red><TR><TD Class=C>X</TD></TR></TABLE>",
    ),
    ("mixed_case_end_tags", "<Div><sPaN>x</SPAN></dIV>y"),
    (
        "attribute_forms",
        r#"<input type=checkbox checked name=a name="b" disabled value='v'><td class="a" class='b' id=c>"#,
    ),
    (
        "attribute_spacing",
        "<a  href = \"x\"  title= y >t</a><b\nclass\n=\nz>u</b>",
    ),
    ("attribute_junk", "<p =x \"q\" 'r' @at=1 #h>t</p><a b/>c"),
    (
        "self_closing_tags",
        "<br/><img src=x /><div/>text<span />more",
    ),
    (
        "comments",
        "<!-- c --><p>a<!-- inner <b> -->b</p><!---->x<!-- unterminated",
    ),
    (
        "doctype_and_pi",
        "<!DOCTYPE html><?xml version=\"1.0\"?><html><body>x</body></html>",
    ),
    ("bang_without_close", "<p>a</p><!DOCTYPE"),
    ("literal_lt", "a < b <3 <<p>x</p> 1<2 <- <"),
    ("cut_in_attr_value", "<p>x<a href="),
    ("cut_in_quoted_value", "<p>x<a href=\"unterminated"),
    ("cut_in_name", "<p>x</p><di"),
    ("cut_end_tag", "<p>x</"),
    ("cut_end_tag_name", "<p>x</p"),
    ("empty_end_tag", "<p>a</ >b</>c</p>"),
    ("end_tag_junk", "<p>a</p foo=\"bar\">b"),
    ("implied_li", "<ul><li>a<li>b<li>c</ul>"),
    (
        "implied_cells",
        "<table><tr><td>1<td>2<th>h<tr><td>3</table>",
    ),
    (
        "implied_sections",
        "<table><thead><tr><th>h</th></tr><tbody><tr><td>v</td></tr><tfoot><tr><td>f</table>",
    ),
    (
        "implied_p",
        "<p>one<p>two<div>three</div><p>four<ul><li>x</ul><p>five<h2>t</h2><p>six<hr>seven",
    ),
    ("implied_dl", "<dl><dt>t1<dd>d1<dt>t2<dd>d2</dl>"),
    (
        "implied_options",
        "<select><option>a<option>b<optgroup label=g><option>c</select>",
    ),
    ("unmatched_end_tags", "<b>x</i></b></div><p>y</p></span>"),
    ("end_tag_closes_intervening", "<div><b><i>x</div>after"),
    ("close_root_then_more", "<html><p>x</html><p>y</p>"),
    (
        "html_attrs_and_second_html",
        "<html lang=en><body><html class=x>y</body></html>",
    ),
    ("text_before_html", "lead<html lang=en>z</html>"),
    (
        "void_elements",
        "<p>a<br>b<hr>c</p><img src=\"x.png\">after<input><meta charset=utf-8><link rel=s>",
    ),
    ("void_end_tags", "<p>a</br>b</img>c</p>"),
    (
        "names_with_punctuation",
        "<h1>t</h1><my-el x:y=1 data_z=2>z</my-el><ns:tag>q</ns:tag>",
    ),
    ("non_ascii_text", "<p>Grüße 😀 € naïve — 日本語</p>"),
    ("non_ascii_in_tag", "<täg>x</täg><p ä=1 b=ü>y</p>"),
    ("non_ascii_after_lt", "<é>x</é><😀"),
    (
        "whitespace_text_between_tags",
        "<table>\n  <tr>\n    <td> v </td>\n  </tr>\n</table>\n",
    ),
    ("deep_nesting", "<div><div><div><div><span><b><i>deep"),
];

/// 64-bit FNV-1a.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every input, named.
fn cases() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for p in traffic::profiles() {
        for rows in [30, 120] {
            out.push((
                format!("{}_{rows}", p.name),
                traffic::page_sized(p.name, 7, rows, 1),
            ));
        }
    }
    for (i, revision, epoch) in [(0, 0, 0), (0, 0, 1), (3, 1, 5), (17, 4, 2), (31, 9, 40)] {
        out.push((
            format!("watch_{i}_r{revision}_e{epoch}"),
            traffic::watch_page(i, 42, revision, epoch),
        ));
    }
    let books = traffic::page_sized("books_a", 11, 30, 0);
    for (k, &p) in perturb::ALL.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(k as u64);
        out.push((
            format!("books_a_{p:?}"),
            perturb::apply(&books, p, &mut rng),
        ));
    }
    for &(name, html) in EDGE_CASES {
        out.push((name.to_string(), html.to_string()));
    }
    out
}

/// The three fingerprints of one input.
fn fingerprints(html: &str, opts: &ParseOptions) -> (u64, u64, u64) {
    let doc = parse_with_options(html, opts);
    let labels: Vec<&str> = doc.interner().iter().map(|(_, name)| name).collect();
    let tokens: Vec<String> = Tokenizer::new(html).map(|t| format!("{t:?}")).collect();
    (
        fnv64(to_sexp(&doc).as_bytes()),
        fnv64(labels.join("\n").as_bytes()),
        fnv64(tokens.join("\n").as_bytes()),
    )
}

#[test]
fn parses_match_their_golden_fingerprints() {
    let keep_whitespace = ParseOptions {
        skip_whitespace_text: false,
    };
    let mut got = Vec::new();
    for (name, html) in cases() {
        got.push((name.clone(), fingerprints(&html, &ParseOptions::default())));
        got.push((format!("{name}+ws"), fingerprints(&html, &keep_whitespace)));
    }
    let table: String = got
        .iter()
        .map(|(name, (t, l, k))| format!("    ({name:?}, {t:#018x}, {l:#018x}, {k:#018x}),\n"))
        .collect();
    let want: Vec<(String, (u64, u64, u64))> = GOLDEN
        .iter()
        .map(|&(name, t, l, k)| (name.to_string(), (t, l, k)))
        .collect();
    let diverged: Vec<&String> = got
        .iter()
        .filter(|g| !want.contains(g))
        .map(|(name, _)| name)
        .collect();
    assert!(
        diverged.is_empty() && got.len() == want.len(),
        "{} of {} inputs diverged from their golden fingerprints: {diverged:?}\n\
         recomputed table:\n{table}",
        diverged.len(),
        got.len(),
    );
}

#[test]
fn default_parse_is_parse_with_default_options() {
    for (name, html) in cases() {
        assert_eq!(
            to_sexp(&parse(&html)),
            to_sexp(&parse_with_options(&html, &ParseOptions::default())),
            "{name}"
        );
    }
}

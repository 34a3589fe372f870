//! The XML Transformer (Figure 2): "performs the actual translation from
//! the extracted pattern instance base to XML", following the hierarchical
//! order of the instance base (the multigraph the binary pattern
//! predicates define, Section 3.3).

use lixto_elog::eval::ExtractionResult;
use lixto_elog::Target;
use lixto_xml::Element;

use crate::designer::XmlDesign;

/// Translate an extraction result into an XML document per the design.
///
/// Top-level instances (no parent) become children of the document
/// element; auxiliary patterns are skipped with their children spliced up;
/// instances with no (kept) children carry their text value.
pub fn to_xml(result: &ExtractionResult, design: &XmlDesign) -> Element {
    let base = &result.base;
    // Child lists in insertion order, built in one pass over the base.
    let mut tops = Vec::new();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); base.len()];
    for (i, inst) in base.instances.iter().enumerate() {
        match inst.parent {
            None => tops.push(i),
            // A parent index outside the base names no instance, so
            // its orphan is not emitted.
            Some(p) => {
                if let Some(siblings) = children.get_mut(p) {
                    siblings.push(i);
                }
            }
        }
    }
    let mut root = Element::new(&design.root_label);
    for i in tops {
        emit(result, design, &children, i, &mut root);
    }
    root
}

fn emit(
    result: &ExtractionResult,
    design: &XmlDesign,
    children: &[Vec<usize>],
    idx: usize,
    parent: &mut Element,
) {
    let base = &result.base;
    let inst = &base.instances[idx];
    let kids = &children[idx];
    if design.is_auxiliary(&inst.pattern) {
        // Splice children upward.
        for &c in kids {
            emit(result, design, children, c, parent);
        }
        return;
    }
    let mut el = Element::new(design.label_of(&inst.pattern));
    // Carry node attributes through (e.g. hrefs on link patterns).
    if let Target::Node { doc, node } = &inst.target {
        let d = &result.docs[doc.0 as usize];
        for (k, v) in d.attrs(*node) {
            el.set_attr(k, v);
        }
    }
    if kids.is_empty() {
        let text = base.text_of(idx, &result.docs);
        let trimmed = text.trim();
        if !trimmed.is_empty() {
            el.push_text(trimmed);
        }
    } else {
        for &c in kids {
            emit(result, design, children, c, &mut el);
        }
    }
    parent.push_element(el);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lixto_elog::{parse_program, Extractor, EBAY_PROGRAM};
    use lixto_workloads::ebay;

    #[test]
    fn ebay_instance_base_to_xml() {
        let (web, records) = ebay::site(4, 3);
        let program = parse_program(EBAY_PROGRAM).unwrap();
        let result = Extractor::new(program, &web).run();
        let design = XmlDesign::new()
            .auxiliary("tableseq")
            .label("itemdes", "description")
            .root("auctions");
        let xml = to_xml(&result, &design);
        assert_eq!(xml.name, "auctions");
        let recs: Vec<&Element> = xml.children_named("record").collect();
        assert_eq!(recs.len(), records.len());
        for (r, truth) in recs.iter().zip(&records) {
            assert_eq!(
                r.child_text("description"),
                Some(truth.description.as_str())
            );
            // price contains a nested currency instance
            let price = r.child("price").expect("price element");
            assert_eq!(
                price.child_text("currency"),
                Some(truth.currency),
                "currency nested under price"
            );
            assert_eq!(r.child_text("bids"), Some(truth.bids.to_string().as_str()));
        }
        // Serializes to well-formed XML.
        let s = lixto_xml::to_string_pretty(&xml);
        assert!(lixto_xml::parse(&s).is_ok());
    }

    #[test]
    fn auxiliary_patterns_splice_children() {
        let (web, records) = ebay::site(4, 2);
        let program = parse_program(EBAY_PROGRAM).unwrap();
        let result = Extractor::new(program, &web).run();
        // Without auxiliary: records sit under a tableseq element.
        let with_seq = to_xml(&result, &XmlDesign::new());
        assert_eq!(with_seq.children_named("tableseq").count(), 1);
        // With auxiliary: records are direct children of the root.
        let spliced = to_xml(&result, &XmlDesign::new().auxiliary("tableseq"));
        assert_eq!(spliced.children_named("record").count(), records.len());
    }

    #[test]
    fn large_results_render_in_linear_time() {
        // 12,500 records of three text fields each: 50,000 instances.
        // Looking up each instance's children by scanning the whole base
        // needs 2.5 billion parent comparisons for this.
        use lixto_elog::{Instance, InstanceBase};
        const RECORDS: usize = 12_500;
        let mut base = InstanceBase::default();
        let text = |pattern: &str, parent: Option<usize>, value: String| Instance {
            pattern: pattern.into(),
            parent,
            target: Target::Text(value),
        };
        for r in 0..RECORDS {
            let record = base.instances.len();
            base.instances.push(text("record", None, String::new()));
            for field in ["title", "author", "price"] {
                base.instances
                    .push(text(field, Some(record), format!("{field} {r}")));
            }
        }
        let result = ExtractionResult::from_parts(base, Vec::new(), Vec::new(), Vec::new());
        let started = std::time::Instant::now();
        let xml = to_xml(&result, &XmlDesign::new().root("books"));
        let elapsed = started.elapsed();
        assert_eq!(xml.children_named("record").count(), RECORDS);
        let last = xml.children_named("record").last().unwrap();
        assert_eq!(last.child_text("price"), Some("price 12499"));
        assert!(
            elapsed < std::time::Duration::from_secs(3),
            "rendering {} instances took {elapsed:?}",
            4 * RECORDS
        );
    }
}

//! The allocation budget of an HTML parse.
//!
//! A counting global allocator tallies every heap allocation (fresh
//! blocks and resizes) `lixto_html::parse` makes on the five serving
//! wrappers' 120-row pages and on the watch-fleet page. A parse may cost
//! a fixed number of allocations per document plus at most one per ten
//! nodes: the node arena, the text arena, the label table and the
//! document-order vectors are each sized once, so no allocation may
//! follow the token count.
//!
//! Measured: the owned-`String` tokenizer and builder this parser
//! replaced made 97 allocations on the 16-node watch page and 3,094 /
//! 1,988 / 3,823 / 4,501 / 4,421 on the 852-node `books_a` and the
//! `books_b` / `ebay` / `news` / `flights` pages (2.7 to 5.5 per node).
//! The borrowing
//! tokenizer with one text arena per document makes 14 on each of these
//! pages (12 on `books_b`, whose tags carry no attributes), whatever its
//! size: the node, attribute and text storage and their trims, the label
//! table, the open-element stacks and the document order.
//!
//! This file holds a single test on purpose: the counter is
//! process-wide, and a second test running beside it would be counted
//! too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lixto::workloads::traffic;

/// Allocations every parse may make whatever the document's size
/// (14 measured).
const BUDGET_BASE: u64 = 16;

/// Nodes per further allocation the budget allows.
const NODES_PER_ALLOCATION: u64 = 10;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is the
// only addition and never touches the returned memory.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_parse_stays_within_its_allocation_budget() {
    let mut pages: Vec<(String, String)> = traffic::profiles()
        .iter()
        .map(|p| (p.name.to_string(), traffic::page_sized(p.name, 7, 120, 1)))
        .collect();
    pages.push(("watch".to_string(), traffic::watch_page(3, 42, 1, 5)));

    let mut over = Vec::new();
    for (name, html) in &pages {
        // Two parses; the budget applies to the cheaper, so a one-off
        // cost cannot fail the test while any per-token cost shows twice.
        let mut counts = Vec::with_capacity(2);
        let mut nodes = 0;
        for _ in 0..2 {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let doc = lixto::html::parse(html);
            counts.push(ALLOCATIONS.load(Ordering::Relaxed) - before);
            nodes = doc.len() as u64;
        }
        let allocations = counts.iter().copied().min().unwrap();
        let budget = BUDGET_BASE + nodes / NODES_PER_ALLOCATION;
        eprintln!(
            "{name}: {} bytes, {nodes} nodes, {allocations} allocations (budget {budget})",
            html.len()
        );
        if allocations > budget {
            over.push(format!("{name}: {allocations} > {budget}"));
        }
    }
    assert!(
        over.is_empty(),
        "parses over their allocation budget: {over:?}"
    );
}

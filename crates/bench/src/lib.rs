//! # lixto_bench
//!
//! The paper's experiment suite (§7). The `experiments` binary prints
//! the paper-shaped tables for E1…E14, timing the theory results
//! beside them. The README's *Benchmarks* section indexes it.
//! The serving stack is measured by the gated benchmark in `perfbench/`.
//!
//! The library half is the workload setup shared with the serving
//! examples and integration tests.

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use lixto_core::XmlDesign;
use lixto_server::WrapperRegistry;
use lixto_workloads::traffic::{self, WrapperProfile};

/// The XML design a workload wrapper profile declares (root element plus
/// auxiliary patterns).
pub fn workload_design(profile: &WrapperProfile) -> XmlDesign {
    let mut design = XmlDesign::new().root(profile.root);
    for aux in profile.auxiliary {
        design = design.auxiliary(aux);
    }
    design
}

/// A registry with every workload wrapper profile registered — the
/// shared setup of the serving-layer examples and tests.
pub fn workload_registry() -> Arc<WrapperRegistry> {
    let registry = Arc::new(WrapperRegistry::new());
    for p in traffic::profiles() {
        registry
            .register_source(p.name, p.program, workload_design(&p))
            .expect("workload wrapper compiles");
    }
    registry
}

/// Median wall time of `f` over `reps` runs, in microseconds.
pub fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// A right-aligned table printer for the experiment reports.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:>w$} |", c, w = widths[i]));
        }
        s
    };
    println!(
        "{}",
        line(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", line(&sep));
    for r in rows {
        println!("{}", line(r));
    }
}

//! T5 — QED-module overhead: the area cost of the synthesized wrapper
//! (the A-QED line reports its QED-module overhead; this is the G-QED
//! equivalent). For each design: one-frame AIG size of the bare design,
//! of the full G-QED wrapped model (tape + two copies + monitors), of the
//! single-copy A-QED wrapper, and the wrapper-synthesis wall-clock.
//!
//! Expected shape: wrapped-model size ≈ 2× design + a monitor term that
//! grows with interface width and tape depth, not with design internals;
//! synthesis time is microseconds-to-milliseconds ("automatic and cheap").
//!
//! Regenerate with: `cargo run --release -p gqed-bench --bin table5`

use gqed_bench::{gate_count, md_header, md_row};
use gqed_core::{synthesize, QedConfig};
use gqed_ha::all_designs;
use std::time::Instant;

fn main() {
    println!("## Table 5 — QED-module overhead per design\n");
    println!(
        "{}",
        md_header(&[
            "design",
            "design gates",
            "G-QED wrapped",
            "ratio",
            "A-QED wrapped",
            "state bits (design → wrapped)",
            "synthesis time",
        ])
    );
    for entry in all_designs() {
        let base = entry.build_clean();
        let base_gates = gate_count(&base.ctx, &base.ts);
        let base_bits = base.ts.state_bits(&base.ctx);

        let mut dg = entry.build_clean();
        let t0 = Instant::now();
        let gmodel = synthesize(&mut dg, &QedConfig::gqed());
        let synth_time = t0.elapsed();
        let g_gates = gate_count(&dg.ctx, &gmodel.ts);
        let g_bits = gmodel.ts.state_bits(&dg.ctx);

        let mut da = entry.build_clean();
        let amodel = synthesize(&mut da, &QedConfig::aqed());
        let a_gates = gate_count(&da.ctx, &amodel.ts);

        println!(
            "{}",
            md_row(&[
                entry.name.to_string(),
                base_gates.to_string(),
                g_gates.to_string(),
                format!("{:.1}x", g_gates as f64 / base_gates as f64),
                a_gates.to_string(),
                format!("{base_bits} → {g_bits}"),
                format!("{synth_time:.2?}"),
            ])
        );
    }
}

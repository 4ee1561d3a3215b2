//! T1 — design-suite characteristics (the paper's design-under-test
//! overview table): per design, its interference class, state size, gate
//! count after bit-blasting, interface widths, latency, bug-catalogue
//! size, and the evaluation BMC bound.
//!
//! Regenerate with: `cargo run --release -p gqed-bench --bin table1`

use gqed_bench::{gate_count, md_header, md_row};
use gqed_ha::all_designs;

fn main() {
    println!("## Table 1 — design suite\n");
    println!(
        "{}",
        md_header(&[
            "design",
            "class",
            "description",
            "state bits",
            "AIG gates",
            "in/out width",
            "latency",
            "#bugs",
            "BMC bound",
        ])
    );
    let mut total_bugs = 0;
    for entry in all_designs() {
        let d = entry.build_clean();
        let bugs = (entry.bugs)().len();
        total_bugs += bugs;
        println!(
            "{}",
            md_row(&[
                d.meta.name.to_string(),
                if d.meta.interfering {
                    "interfering".into()
                } else {
                    "non-interfering".into()
                },
                d.meta.description.to_string(),
                d.ts.state_bits(&d.ctx).to_string(),
                gate_count(&d.ctx, &d.ts).to_string(),
                format!("{}/{}", d.iface.in_width(&d.ctx), d.iface.out_width(&d.ctx)),
                d.meta.latency.to_string(),
                bugs.to_string(),
                d.meta.recommended_bound.to_string(),
            ])
        );
    }
    println!("\ntotal catalogued buggy versions: {total_bugs}");
}

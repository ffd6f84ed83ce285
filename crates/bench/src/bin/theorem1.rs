//! Empirically checks the theory of Sections 3–4:
//!
//! * **Theorem 1** — on the Lemma 1 extremal graph, MULE must find exactly
//!   `C(n, ⌊n/2⌋)` α-maximal cliques (compared against both the
//!   closed-form bound and, for small `n`, the brute-force oracle);
//! * **Moon–Moser** — Bron–Kerbosch on the deterministic extremal graph
//!   must find exactly `3^{n/3}` (with `n mod 3` adjustments);
//! * **Theorem 3 / Observation 5** — MULE's search-tree size stays within
//!   the `O(n · 2^n)` bound while the output alone is `Θ(2^n/√n)` cliques;
//!   the table shows nodes, output, and their ratios to the bounds.
//!
//! ```text
//! cargo run -p ugraph-bench --release --bin theorem1 -- [--max-n 20] [--alpha 0.5]
//! ```

use mule::bounds::{max_alpha_maximal_cliques, moon_moser};
use mule::deterministic::count_maximal_cliques_deterministic;
use mule::naive::count_naive;
use mule::MuleConfig;
use ugraph_bench::{harness, Args, Report};
use ugraph_gen::extremal::{lemma1_graph, moon_moser_graph};

const USAGE: &str = "theorem1 — empirical checks of Theorem 1 / Moon-Moser / Theorem 3
options:
  --max-n N    largest n for the extremal sweep (default 20; cost ~2^n)
  --alpha A    threshold used for the Lemma 1 construction (default 0.5)";

fn main() {
    let args = Args::parse(&["max-n", "alpha"], USAGE);
    let max_n: usize = args.get_or("max-n", 20);
    let alpha: f64 = args.get_or("alpha", 0.5);
    let dir = harness::results_dir();

    // Theorem 1: MULE on the Lemma 1 graph attains the bound exactly.
    let mut t1 = Report::new(
        format!("Theorem 1: alpha-maximal cliques on the Lemma 1 graph (alpha = {alpha})"),
        &["n", "MULE", "C(n,n/2)", "naive", "nodes", "n*2^n"],
    );
    for n in 2..=max_n {
        let g = lemma1_graph(n, alpha);
        let mut m = harness::mule_query(&g, alpha, &MuleConfig::default())
            .prepare()
            .expect("valid alpha");
        let count = m.count().expect("unlimited run");
        let bound = max_alpha_maximal_cliques(n as u64).expect("fits u128");
        let naive = if n <= 14 {
            count_naive(&g, alpha).expect("valid alpha").to_string()
        } else {
            "-".to_string()
        };
        let status = if count as u128 == bound {
            ""
        } else {
            "  <-- MISMATCH"
        };
        t1.row(&[
            n.to_string(),
            format!("{count}{status}"),
            bound.to_string(),
            naive,
            m.stats().calls.to_string(),
            ((n as u128) << n).to_string(),
        ]);
    }
    t1.emit(&dir, "theorem1");

    // Moon–Moser: the deterministic extremal family at α = 1.
    let mut mm = Report::new(
        "Moon-Moser: maximal cliques of the deterministic extremal graph",
        &["n", "Bron-Kerbosch", "MooonMoser(n)", "MULE(alpha=1)"],
    );
    for n in 2..=max_n.min(18) {
        let g = moon_moser_graph(n);
        let bk = count_maximal_cliques_deterministic(&g);
        let mut m = harness::mule_query(&g, 1.0, &MuleConfig::default())
            .prepare()
            .expect("alpha = 1 is valid");
        let count = m.count().expect("unlimited run");
        mm.row(&[
            n.to_string(),
            bk.to_string(),
            moon_moser(n).to_string(),
            count.to_string(),
        ]);
    }
    mm.emit(&dir, "moon_moser");
}

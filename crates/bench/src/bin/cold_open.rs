//! Cold open of an α-generic base catalog, split into its layers.
//!
//! One `mule enumerate --catalog base.ugq --alpha A --count-only` reads
//! the catalog, parses its header and TOC, verifies every payload
//! checksum, decodes and validates the components (no index is built:
//! indexes are per root, at search time), refines the base at α and
//! counts. This harness times each
//! of those layers through the public API, plus the whole CLI op run
//! in-process, and prints one JSON object with every sample:
//!
//! * `read_ms` — `std::fs::read` of the catalog;
//! * `toc_ms` — `ugraph_io::Catalog::from_bytes` (header + TOC parse and
//!   layout checks, no payload checksum);
//! * `verify_ms` — `Catalog::verify` (every payload crc32 + the content
//!   hash);
//! * `open_ms` — `mule::Query::open_base_bytes` (parse, verify, decode,
//!   validate); `decode_ms` = `open_ms − toc_ms −
//!   verify_ms` is what the open spends past the two checks;
//! * `refine_ms` — `Base::refine(α)`;
//! * `count_ms` — `Prepared::stream` into a counting sink;
//! * `op_ms` — the whole CLI op, in-process.
//!
//! Beside the layers it prints the count's `cliques`, `search_nodes`,
//! `dominated_siblings` (sibling subtrees the kernel skipped) and
//! `hub_roots` (roots searched on their own neighbourhood kernel, the
//! one place an index is built). Apart
//! from those two counters the harness uses only API the catalog layers
//! have had since α-generic bases exist, so with the `dominated` and
//! `hub_roots` lines removed the same file builds against an older tree
//! for a before/after comparison on one machine.
//!
//! ```text
//! cargo run -p ugraph-bench --release --bin cold_open -- \
//!     --catalog base.ugq [--alpha 0.7] [--repeats 9]
//! mule prepare DBLP10.ugb --base --floor 0.3 --out base.ugq   # the input
//! ```

use mule::sinks::CountSink;
use std::time::Instant;
use ugraph_bench::{Args, Json, Summary};

const USAGE: &str = "cold_open — layer split of a base catalog cold open
options:
  --catalog PATH  α-generic base catalog (mule prepare --base)
  --alpha A       refinement threshold (default 0.7)
  --repeats N     samples per layer (default 9)";

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let args = Args::parse(&["catalog", "alpha", "repeats"], USAGE);
    let Some(path) = args.get("catalog").map(str::to_string) else {
        eprintln!("--catalog is required\n{USAGE}");
        std::process::exit(2);
    };
    let alpha: f64 = args.get_or("alpha", 0.7);
    let repeats: usize = args.get_or("repeats", 9).max(1);

    let layers = [
        "read_ms",
        "toc_ms",
        "verify_ms",
        "open_ms",
        "decode_ms",
        "refine_ms",
        "count_ms",
        "op_ms",
    ];
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); layers.len()];
    let (mut count, mut nodes, mut dominated, mut hub_roots) = (0u64, 0u64, 0u64, 0u64);
    let (mut sections, mut bytes) = (0usize, 0usize);
    let cli_args: Vec<String> = [
        "enumerate",
        "--catalog",
        &path,
        "--alpha",
        &alpha.to_string(),
        "--count-only",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    for _ in 0..repeats {
        let t = Instant::now();
        let data = std::fs::read(&path).expect("read catalog");
        let read = ms(t);
        bytes = data.len();

        let image = ugraph_io::Bytes::from(data.clone());
        let t = Instant::now();
        let cat = ugraph_io::Catalog::from_bytes(image).expect("parse catalog");
        let toc = ms(t);
        sections = cat.sections().len();
        let t = Instant::now();
        cat.verify().expect("verify catalog");
        let verify = ms(t);
        drop(cat);

        let t = Instant::now();
        let base = mule::Query::open_base_bytes(data).expect("open base");
        let open = ms(t);
        let t = Instant::now();
        let mut session = base.refine(alpha).expect("refine");
        let refine = ms(t);
        let mut sink = CountSink::new();
        let t = Instant::now();
        session.stream(&mut sink).expect("count");
        let counted = ms(t);
        count = sink.count;
        nodes = session.stats().calls;
        dominated = session.stats().dominated_siblings;
        hub_roots = session.stats().hub_roots;
        drop((session, base));

        let (mut out, mut err) = (Vec::new(), Vec::new());
        let t = Instant::now();
        let code = mule_cli::run(&cli_args, &mut out, &mut err);
        let op = ms(t);
        assert_eq!(code, 0, "{}", String::from_utf8_lossy(&err));
        let cli_count = String::from_utf8_lossy(&out)
            .lines()
            .find_map(|l| l.strip_prefix("cliques:"))
            .and_then(|v| v.trim().parse::<u64>().ok());
        assert_eq!(cli_count, Some(count), "the CLI op must count the same");

        let row = [
            read,
            toc,
            verify,
            open,
            open - toc - verify,
            refine,
            counted,
            op,
        ];
        for (s, v) in samples.iter_mut().zip(row) {
            s.push(v);
        }
    }

    let mut json = Json::new();
    json.begin_obj();
    json.key("catalog_bytes").int(bytes as i64);
    json.key("sections").int(sections as i64);
    json.key("alpha").num(alpha);
    json.key("cliques").int(count as i64);
    json.key("search_nodes").int(nodes as i64);
    json.key("dominated_siblings").int(dominated as i64);
    json.key("hub_roots").int(hub_roots as i64);
    for (name, s) in layers.iter().zip(&samples) {
        let summary = Summary::from_samples(s);
        json.key(name).begin_obj();
        json.key("min").num(summary.min);
        json.key("median").num(summary.median);
        json.key("samples").begin_arr();
        for &v in s {
            json.num(v);
        }
        json.end_arr();
        json.end_obj();
    }
    json.end_obj();
    println!("{}", json.finish());
}

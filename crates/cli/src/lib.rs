//! # mule-cli — the `mule` command-line tool
//!
//! A front end over the workspace for mining maximal cliques from
//! uncertain graphs without writing Rust:
//!
//! ```text
//! mule generate --dataset ca-GrQc --scale 0.1 --out g.ugb
//! mule stats g.ugb
//! mule enumerate g.ugb --alpha 0.1 --out cliques.txt
//! mule enumerate g.ugb --alpha 0.1 --min-size 4 --count-only
//! mule prepare g.ugb --alpha 0.1 --out g.ugq
//! mule stat g.ugq --list
//! mule enumerate --catalog g.ugq --count-only
//! mule topk g.ugb --alpha 0.1 --k 10
//! mule verify g.ugb --alpha 0.1 --cliques cliques.txt
//! mule sample g.ugb --clique 3,17,42 --samples 100000
//! mule convert g.ugb g.txt
//! ```
//!
//! Graph files ending in `.ugb` use the binary format; everything else is
//! the `u v p` text edge list. SNAP `u v` lists load via
//! `--snap --assign uniform` (probabilities drawn per edge, seeded).
//!
//! The crate is a thin argument-handling layer; all logic lives in the
//! library crates. `run` is exposed for integration tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod commands;
pub mod opts;
pub mod retry;
pub mod serve;
pub mod wire;

use std::io::Write;

/// Top-level usage string.
pub const USAGE: &str = "mule — maximal cliques in uncertain graphs (MULE, ICDE 2015)

USAGE: mule <command> [options]

COMMANDS:
  stats      <graph>                        summarize a graph
  enumerate  <graph> --alpha A              enumerate α-maximal cliques
               [--min-size T] [--count-only] [--out FILE]
               [--threads N]                (workers for the unlimited
                                            listing only; --count-only and
                                            runs with --timeout-ms or
                                            --node-budget are sequential,
                                            as are topk and serve)
               [--no-prune]                 (bypass the preprocessing pipeline)
               [--prune-report]             (print per-stage removal counts)
               [--index-mode auto|always|never]  (which roots get an indexed
                                            neighbourhood kernel, built per
                                            root: 'auto' hub roots, 'always'
                                            every root, 'never' none = CSR
                                            gallop/merge only)
               [--index-budget BYTES]       (dense probability-row tier cap,
                                            per neighbourhood kernel; 0
                                            keeps only the bitset tier)
               [--timeout-ms N] [--node-budget N]  (bound the run; an
                                            interrupted run writes the
                                            output prefix plus a
                                            '# interrupted:' marker and
                                            exits 3)
  enumerate  --catalog FILE.ugq             enumerate from a prepared catalog
               [--threads N] [--count-only] (α, size threshold and index
               [--out FILE] [--prune-report] settings come from the catalog)
               [--timeout-ms N] [--node-budget N]
  prepare    <graph> --alpha A --out F.ugq  run the pipeline once, persist the
               [--min-size T] [--no-prune]  prepared session as a UGQ1 catalog
               [--index-mode M] [--index-budget BYTES]
  update     <catalog.ugq> --edges FILE     append a mutation batch (one op per
               [--compact]                  line: '+ u v p' insert, '- u v'
                                            delete, '= u v p' re-weight) as a
                                            crash-safe delta section; --compact
                                            folds pending deltas into the core
  stat       <catalog.ugq> [--list]         catalog header summary; --list adds
                                            the TOC with per-section CRC status
  topk       <graph> --alpha A --k K        k most probable α-maximal cliques
               [--skeleton]                 (skeleton-maximal instead: Zou et al.)
  verify     <graph> --alpha A --cliques F  verify a clique list
               [--complete]                 (also check completeness; n ≤ 25)
  sample     <graph> --clique V,V,..        Monte-Carlo clique probability
               [--samples N] [--seed S]
  convert    <in> <out>                     convert between text and .ugb
               [--snap] [--assign MODEL] [--seed S]
  generate   --dataset NAME --out FILE      build a Table-1 dataset stand-in
               [--seed S] [--scale X]       (NAME as in the paper, e.g. BA5000)
  serve      [--addr HOST:PORT]             TCP query server over .ugq catalogs
               [--workers N] [--queue-depth N] [--cache N]
               [--default-timeout-ms N] [--idle-timeout-ms N]
               [--frame-timeout-ms N]       (slow-loris cutoff per frame)
               [--busy-retry-ms N]          (retry_after_ms hint on 'busy')
               [--poison-threshold N]       (failures before a wedged base
                                            entry is evicted and reopened)
               [--compact-threshold N]      (pending deltas at which an
                                            'update' op auto-compacts; 0 off)
               [--log FILE] [--danger-test-ops]
               (newline-JSON protocol; 'shutdown' op drains and exits)
  serve      --connect HOST:PORT            client: send one request frame
               [--request JSON] [--text] [--no-newline]
               [--retries N] [--retry-base-ms N] [--retry-max-ms N]
               [--retry-seed S]             (deterministic jittered backoff on
                                            connect-refused and 'busy')
  kcore      <graph> [--k K]                expected-degree core decomposition
  worlds     <graph> [--worlds N] [--seed S] maximal-clique stats over sampled worlds
  datasets                                  list available dataset names

Graph files: '.ugb' = binary, otherwise 'u v p' text edge list.
Probability models for --assign: uniform | uniform:LO:HI | fixed:P | string-like
";

/// Run the CLI with explicit arguments and output streams; returns the
/// process exit code. `main` wraps this; tests call it directly.
pub fn run(args: &[String], stdout: &mut dyn Write, stderr: &mut dyn Write) -> i32 {
    let Some((command, rest)) = args.split_first() else {
        let _ = write!(stderr, "{USAGE}");
        return 2;
    };
    let result = match command.as_str() {
        "stats" => commands::stats(rest, stdout),
        "enumerate" => commands::enumerate(rest, stdout),
        "prepare" => commands::prepare(rest, stdout),
        "update" => commands::update(rest, stdout),
        "stat" => commands::stat(rest, stdout),
        "topk" => commands::topk(rest, stdout),
        "verify" => commands::verify(rest, stdout),
        "sample" => commands::sample(rest, stdout),
        "convert" => commands::convert(rest, stdout),
        "generate" => commands::generate(rest, stdout),
        "datasets" => commands::datasets(rest, stdout),
        "kcore" => commands::kcore(rest, stdout),
        "worlds" => commands::worlds(rest, stdout),
        "serve" => commands::serve(rest, stdout),
        "help" | "--help" | "-h" => {
            let _ = write!(stdout, "{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => 0,
        Err(msg) if msg == commands::CLOSED_PIPE => 0,
        Err(msg) => {
            let _ = writeln!(stderr, "error: {msg}");
            // Usage errors exit 2, verification failures exit 1 and
            // interrupted (deadline / budget / cancelled) runs exit 3 —
            // both flagged by the command with a sentinel prefix.
            if let Some(stripped) = msg.strip_prefix("VERIFY-FAILED: ") {
                let _ = writeln!(stderr, "{stripped}");
                1
            } else if msg.starts_with("INTERRUPTED: ") {
                3
            } else {
                2
            }
        }
    }
}

//! In-process integration tests for the `mule` CLI: every subcommand,
//! happy paths and error paths, driven through `mule_cli::run` with
//! captured output.

use std::fs;
use std::path::{Path, PathBuf};

fn run(args: &[&str]) -> (i32, String, String) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    let mut err = Vec::new();
    let code = mule_cli::run(&args, &mut out, &mut err);
    (
        code,
        String::from_utf8(out).unwrap(),
        String::from_utf8(err).unwrap(),
    )
}

/// Per-test scratch directory.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mule-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write the standard text fixture: solid triangle + shaky pendant.
fn fixture_graph(dir: &Path) -> String {
    let path = dir.join("g.txt");
    fs::write(&path, "# fixture\n0 1 0.9\n1 2 0.9\n0 2 0.9\n2 3 0.6\n").unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn no_command_prints_usage() {
    let (code, _, err) = run(&[]);
    assert_eq!(code, 2);
    assert!(err.contains("USAGE"));
}

#[test]
fn unknown_command_rejected() {
    let (code, _, err) = run(&["frobnicate"]);
    assert_eq!(code, 2);
    assert!(err.contains("frobnicate"));
}

#[test]
fn help_prints_usage_on_stdout() {
    let (code, out, _) = run(&["help"]);
    assert_eq!(code, 0);
    assert!(out.contains("enumerate"));
}

#[test]
fn stats_reports_counts() {
    let dir = scratch("stats");
    let g = fixture_graph(&dir);
    let (code, out, err) = run(&["stats", &g]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("vertices:     4"));
    assert!(out.contains("edges:        4"));
    assert!(out.contains("degeneracy:   2"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn enumerate_to_stdout_and_file() {
    let dir = scratch("enum");
    let g = fixture_graph(&dir);
    let (code, out, err) = run(&["enumerate", &g, "--alpha", "0.5"]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("0 1 2"), "{out}");
    assert!(out.contains("2 3"));

    let out_file = dir.join("cliques.txt").to_string_lossy().into_owned();
    let (code, msg, _) = run(&["enumerate", &g, "--alpha", "0.5", "--out", &out_file]);
    assert_eq!(code, 0);
    assert!(msg.contains("wrote 2 cliques"));
    let content = fs::read_to_string(&out_file).unwrap();
    assert!(content.contains("0 1 2"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn enumerate_count_only_and_min_size() {
    let dir = scratch("count");
    let g = fixture_graph(&dir);
    let (code, out, _) = run(&["enumerate", &g, "--alpha", "0.5", "--count-only"]);
    assert_eq!(code, 0);
    assert!(out.contains("cliques:      2"));
    let (code, out, _) = run(&["enumerate", &g, "--alpha", "0.5", "--min-size", "3"]);
    assert_eq!(code, 0);
    assert!(out.contains("0 1 2"));
    assert!(!out.contains("2 3\n"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn enumerate_pipeline_flags() {
    let dir = scratch("pipeline");
    let g = fixture_graph(&dir);
    // The pipeline (default) and the direct path must agree byte for
    // byte on the emitted clique list.
    let (code, piped, err) = run(&["enumerate", &g, "--alpha", "0.5"]);
    assert_eq!(code, 0, "{err}");
    let (code, direct, _) = run(&["enumerate", &g, "--alpha", "0.5", "--no-prune"]);
    assert_eq!(code, 0);
    assert_eq!(piped, direct);

    // --prune-report prefixes commented stage accounting.
    let (code, out, err) = run(&["enumerate", &g, "--alpha", "0.5", "--prune-report"]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("# prepare:"), "{out}");
    assert!(out.contains("components"), "{out}");
    // The clique payload is still intact after the report.
    assert!(out.contains("0 1 2"), "{out}");

    // Report lines are comments, so a written file still verifies.
    let (code, _, err) = run(&[
        "enumerate",
        &g,
        "--alpha",
        "0.5",
        "--prune-report",
        "--no-prune",
    ]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--no-prune"));

    // min-size flows through the pipeline stages.
    let (code, out, _) = run(&[
        "enumerate",
        &g,
        "--alpha",
        "0.5",
        "--min-size",
        "3",
        "--prune-report",
        "--count-only",
    ]);
    assert_eq!(code, 0);
    assert!(out.contains("cliques:      1"), "{out}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn enumerate_index_flags() {
    let dir = scratch("index");
    let g = fixture_graph(&dir);
    // Every index mode — and a zero dense budget — is output-neutral:
    // the tiered index only changes how the filter answers probes.
    let (code, reference, err) = run(&["enumerate", &g, "--alpha", "0.5"]);
    assert_eq!(code, 0, "{err}");
    for extra in [
        &["--index-mode", "never"][..],
        &["--index-mode", "always"][..],
        &["--index-mode", "auto", "--index-budget", "0"][..],
        &["--index-mode", "never", "--no-prune"][..],
    ] {
        let mut args = vec!["enumerate", &g, "--alpha", "0.5"];
        args.extend_from_slice(extra);
        let (code, out, err) = run(&args);
        assert_eq!(code, 0, "{extra:?}: {err}");
        assert_eq!(out, reference, "{extra:?}");
    }
    // Bad mode values are usage errors.
    let (code, _, err) = run(&[
        "enumerate",
        &g,
        "--alpha",
        "0.5",
        "--index-mode",
        "sometimes",
    ]);
    assert_eq!(code, 2);
    assert!(err.contains("--index-mode"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn enumerate_parallel_matches_sequential() {
    let dir = scratch("par");
    let g = fixture_graph(&dir);
    let (_, seq, _) = run(&["enumerate", &g, "--alpha", "0.5"]);
    let (_, par, _) = run(&["enumerate", &g, "--alpha", "0.5", "--threads", "3"]);
    // Same cliques (header lines identical too).
    assert_eq!(seq, par);
    let _ = fs::remove_dir_all(&dir);
}

/// `--threads 0` reaches the library's typed rejection on every route
/// instead of quietly running on one thread: the graph route, a
/// fixed-α catalog and an α-generic base catalog.
#[test]
fn enumerate_rejects_zero_threads() {
    let dir = scratch("zero-threads");
    let g = fixture_graph(&dir);
    let cat = dir.join("g.ugq").to_string_lossy().into_owned();
    let base = dir.join("base.ugq").to_string_lossy().into_owned();
    let (code, _, err) = run(&["prepare", &g, "--alpha", "0.5", "--out", &cat]);
    assert_eq!(code, 0, "{err}");
    let (code, _, err) = run(&["prepare", &g, "--base", "--floor", "0.3", "--out", &base]);
    assert_eq!(code, 0, "{err}");
    for route in [
        vec![g.as_str(), "--alpha", "0.5"],
        vec!["--catalog", &cat],
        vec!["--catalog", &base, "--alpha", "0.5"],
    ] {
        let (code, out, err) = run(&[&["enumerate"][..], &route, &["--threads", "0"]].concat());
        assert_eq!(code, 2, "{route:?}: {out}");
        let rejected = err.contains("thread count must be at least 1");
        assert!(rejected, "{route:?}: {err}");
        assert!(out.is_empty(), "{route:?}: {out}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn enumerate_requires_alpha() {
    let dir = scratch("noalpha");
    let g = fixture_graph(&dir);
    let (code, _, err) = run(&["enumerate", &g]);
    assert_eq!(code, 2);
    assert!(err.contains("--alpha"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn topk_orders_by_probability() {
    let dir = scratch("topk");
    let g = fixture_graph(&dir);
    let (code, out, err) = run(&["topk", &g, "--alpha", "0.5", "--k", "1"]);
    assert_eq!(code, 0, "{err}");
    // 0.9³ = 0.729 beats 0.6.
    assert!(out.contains("0 1 2"));
    assert!(!out.contains("2 3"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn topk_skeleton_uses_zou_semantics() {
    let dir = scratch("zou");
    // Triangle with one strong and two weak edges: the only
    // skeleton-maximal clique is the whole triangle, even though the
    // strong edge dominates under α-maximal semantics.
    let path = dir.join("z.txt");
    fs::write(&path, "0 1 0.9\n1 2 0.1\n0 2 0.1\n").unwrap();
    let g = path.to_string_lossy().into_owned();
    let (code, out, err) = run(&["topk", &g, "--k", "1", "--skeleton"]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("0 1 2"), "{out}");
    // α-maximal semantics at α = 0.5: the maximal cliques are {0,1}
    // (prob 0.9) and the isolated singleton {2} (prob 1.0) — the triangle
    // does not appear at all, and the singleton outranks the edge.
    let (code, out, _) = run(&["topk", &g, "--k", "2", "--alpha", "0.5"]);
    assert_eq!(code, 0);
    assert!(!out.contains("0 1 2"), "{out}");
    assert!(out.contains("1.0 2"), "{out}");
    assert!(out.contains("0.9 0 1"), "{out}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn verify_accepts_good_and_rejects_bad() {
    let dir = scratch("verify");
    let g = fixture_graph(&dir);
    let cliques = dir.join("c.txt").to_string_lossy().into_owned();
    let (code, _, _) = run(&["enumerate", &g, "--alpha", "0.5", "--out", &cliques]);
    assert_eq!(code, 0);
    let (code, out, _) = run(&[
        "verify",
        &g,
        "--alpha",
        "0.5",
        "--cliques",
        &cliques,
        "--complete",
    ]);
    assert_eq!(code, 0);
    assert!(out.contains("OK"));

    // Corrupt the list: drop one clique, add a non-maximal one.
    fs::write(dir.join("bad.txt"), "0.9 0 1\n").unwrap();
    let bad = dir.join("bad.txt").to_string_lossy().into_owned();
    let (code, _, err) = run(&[
        "verify",
        &g,
        "--alpha",
        "0.5",
        "--cliques",
        &bad,
        "--complete",
    ]);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("violations"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sample_matches_exact() {
    let dir = scratch("sample");
    let g = fixture_graph(&dir);
    let (code, out, err) = run(&["sample", &g, "--clique", "0,1,2", "--samples", "50000"]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("0.729"), "{out}");
    let (code, out, _) = run(&["sample", &g, "--clique", "0,3"]);
    assert_eq!(code, 0);
    assert!(out.contains("not a skeleton clique"));
    let (code, _, err) = run(&["sample", &g, "--clique", "0,0"]);
    assert_eq!(code, 2);
    assert!(err.contains("duplicates"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn convert_text_binary_round_trip() {
    let dir = scratch("convert");
    let g = fixture_graph(&dir);
    let bin = dir.join("g.ugb").to_string_lossy().into_owned();
    let back = dir.join("g2.txt").to_string_lossy().into_owned();
    let (code, out, err) = run(&["convert", &g, &bin]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("4 edges"));
    let (code, _, _) = run(&["convert", &bin, &back]);
    assert_eq!(code, 0);
    // Enumeration through both forms agrees.
    let (_, a, _) = run(&["enumerate", &g, "--alpha", "0.5"]);
    let (_, b, _) = run(&["enumerate", &bin, "--alpha", "0.5"]);
    let (_, c, _) = run(&["enumerate", &back, "--alpha", "0.5"]);
    assert_eq!(a, b);
    assert_eq!(a, c);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn convert_snap_with_assignment() {
    let dir = scratch("snap");
    let snap = dir.join("s.txt");
    fs::write(&snap, "# snap\n10 20\n20 30\n30 10\n").unwrap();
    let snap = snap.to_string_lossy().into_owned();
    let out_path = dir.join("s.ugb").to_string_lossy().into_owned();
    let (code, _, err) = run(&[
        "convert",
        &snap,
        &out_path,
        "--snap",
        "--assign",
        "fixed:0.8",
        "--seed",
        "1",
    ]);
    assert_eq!(code, 0, "{err}");
    let (code, out, _) = run(&["enumerate", &out_path, "--alpha", "0.5"]);
    assert_eq!(code, 0);
    // Triangle with p = 0.8: 0.512 ≥ 0.5 → one maximal clique.
    assert!(out.contains("count=1"), "{out}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn generate_and_datasets() {
    let dir = scratch("gen");
    let out_path = dir.join("ba.ugb").to_string_lossy().into_owned();
    let (code, out, err) = run(&[
        "generate",
        "--dataset",
        "BA5000",
        "--scale",
        "0.01",
        "--out",
        &out_path,
        "--seed",
        "7",
    ]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("generated BA5000"));
    let (code, out, _) = run(&["stats", &out_path]);
    assert_eq!(code, 0);
    assert!(out.contains("vertices:     50"));

    let (code, out, _) = run(&["datasets"]);
    assert_eq!(code, 0);
    assert!(out.contains("wiki-vote"));
    assert_eq!(out.lines().count(), 13);

    let (code, _, err) = run(&["generate", "--dataset", "nope", "--out", &out_path]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown dataset"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kcore_profiles_and_thresholds() {
    let dir = scratch("kcore");
    let g = fixture_graph(&dir);
    let (code, out, err) = run(&["kcore", &g]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("max expected-degree core"));
    assert!(out.contains("core-size profile"));
    let (code, out, _) = run(&["kcore", &g, "--k", "1.5"]);
    assert_eq!(code, 0);
    // Triangle members have expected degree 1.8 within the triangle.
    assert!(out.contains("1.5-core: 3 vertices"), "{out}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn worlds_reports_sampled_stats() {
    let dir = scratch("worlds");
    let g = fixture_graph(&dir);
    let (code, out, err) = run(&["worlds", &g, "--worlds", "10", "--seed", "3"]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("worlds sampled:        10"));
    assert!(out.contains("maximal cliques/world"));
    let _ = fs::remove_dir_all(&dir);
}

/// A reader that stops early (`mule enumerate … | head -1`) closes the
/// pipe under the writer; the command then ends quietly with exit code
/// 0 instead of reporting the broken pipe as an error.
#[test]
fn a_closed_stdout_pipe_ends_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};
    let dir = scratch("closed-pipe");
    // 20,000 disjoint edges: one line per edge, far more output than a
    // pipe buffers, so the writer is still writing when the pipe closes.
    let path = dir.join("matching.txt");
    let edges: String = (0..20_000u32)
        .map(|i| format!("{} {} 0.9\n", 2 * i, 2 * i + 1))
        .collect();
    fs::write(&path, edges).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_mule"))
        .args(["enumerate", path.to_str().unwrap(), "--alpha", "0.5"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("# alpha=0.5 count=20000"), "{first}");
    // The reader is dropped here, closing the pipe.
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(err.is_empty(), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_file_reports_cleanly() {
    let (code, _, err) = run(&["stats", "/nonexistent/graph.txt"]);
    assert_eq!(code, 2);
    assert!(err.contains("cannot open"));
}

#[test]
fn prepare_stat_and_catalog_enumerate() {
    let dir = scratch("catalog");
    let g = fixture_graph(&dir);
    let cat = dir.join("g.ugq").to_string_lossy().into_owned();
    let (code, out, err) = run(&["prepare", &g, "--alpha", "0.5", "--out", &cat]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("prepared"), "{out}");

    // The header summary reflects the prepare-time settings.
    let (code, out, err) = run(&["stat", &cat]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("format:       UGQ1 v2"), "{out}");
    assert!(out.contains("alpha:        0.5"), "{out}");
    assert!(out.contains("index mode:   auto"), "{out}");
    assert!(out.contains("graph:        4 vertices, 4 edges"), "{out}");
    assert!(out.contains("integrity:    OK"), "{out}");

    // --list dumps the TOC with per-section CRC status.
    let (code, out, _) = run(&["stat", &cat, "--list"]);
    assert_eq!(code, 0);
    for section in [
        "component.0.graph",
        "component.0.map",
        "singletons",
        "report",
        "meta",
    ] {
        assert!(out.contains(section), "missing {section} in {out}");
    }
    // The run schedule is rebuilt on open, not stored.
    assert!(!out.contains("schedule"), "{out}");
    assert!(out.contains("OK"));
    assert!(!out.contains("BAD"), "{out}");

    // Catalog-routed enumeration is byte-identical to the direct run.
    let (_, direct, _) = run(&["enumerate", &g, "--alpha", "0.5"]);
    let (code, routed, err) = run(&["enumerate", "--catalog", &cat]);
    assert_eq!(code, 0, "{err}");
    assert_eq!(routed, direct);
    let (code, counted, _) = run(&["enumerate", "--catalog", &cat, "--count-only"]);
    assert_eq!(code, 0);
    assert!(counted.contains("cliques:      2"), "{counted}");
    let (code, threaded, _) = run(&["enumerate", "--catalog", &cat, "--threads", "3"]);
    assert_eq!(code, 0);
    assert_eq!(threaded, direct);
    // The stored prepare report is served from the catalog too.
    let (code, reported, _) = run(&["enumerate", "--catalog", &cat, "--prune-report"]);
    assert_eq!(code, 0);
    assert!(reported.contains("# prepare:"), "{reported}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn catalog_flag_conflicts_are_rejected() {
    let dir = scratch("catalog-conflict");
    let g = fixture_graph(&dir);
    let cat = dir.join("g.ugq").to_string_lossy().into_owned();
    let (code, _, err) = run(&["prepare", &g, "--alpha", "0.5", "--out", &cat]);
    assert_eq!(code, 0, "{err}");
    // Prepare-time settings cannot be respecified at open time, and the
    // graph operand is replaced by the catalog.
    for extra in [
        &["--alpha", "0.5"][..],
        &["--min-size", "3"][..],
        &["--no-prune"][..],
        &["--index-mode", "never"][..],
        &["--index-budget", "0"][..],
    ] {
        let mut args = vec!["enumerate", "--catalog", cat.as_str()];
        args.extend_from_slice(extra);
        let (code, _, err) = run(&args);
        assert_eq!(code, 2, "{extra:?} accepted");
        assert!(err.contains("--catalog"), "{extra:?}: {err}");
    }
    let (code, _, err) = run(&["enumerate", &g, "--catalog", &cat]);
    assert_eq!(code, 2);
    assert!(err.contains("graph operand"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_catalog_fails_with_typed_message() {
    let dir = scratch("catalog-corrupt");
    let g = fixture_graph(&dir);
    let cat_path = dir.join("g.ugq");
    let cat = cat_path.to_string_lossy().into_owned();
    let (code, _, err) = run(&["prepare", &g, "--alpha", "0.5", "--out", &cat]);
    assert_eq!(code, 0, "{err}");

    // Flip the last payload byte (inside the report section): the file
    // still opens structurally, but integrity must fail loudly.
    let mut bytes = fs::read(&cat_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    fs::write(&cat_path, &bytes).unwrap();

    let (code, _, err) = run(&["stat", &cat]);
    assert_eq!(code, 2);
    assert!(err.contains("corrupt UGQ1 catalog"), "{err}");
    let (code, out, err) = run(&["stat", &cat, "--list"]);
    assert_eq!(code, 2);
    assert!(out.contains("BAD"), "{out}");
    assert!(err.contains("failed CRC"), "{err}");
    let (code, _, err) = run(&["enumerate", "--catalog", &cat, "--count-only"]);
    assert_eq!(code, 2);
    assert!(err.contains("corrupt UGQ1 catalog"), "{err}");

    // Truncation and a missing file are also typed errors.
    fs::write(&cat_path, &bytes[..40]).unwrap();
    let (code, _, err) = run(&["stat", &cat]);
    assert_eq!(code, 2);
    assert!(err.contains("corrupt UGQ1 catalog"), "{err}");
    let (code, _, err) = run(&["enumerate", "--catalog", "/nonexistent/x.ugq"]);
    assert_eq!(code, 2);
    assert!(err.contains("error"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

/// `mule stat` on a path that does not exist is a *usage* error (exit
/// 2) naming the file — not a "corrupt catalog" claim about a file
/// that was never there, and never a panic.
#[test]
fn stat_on_nonexistent_path_is_a_typed_usage_error() {
    let (code, out, err) = run(&["stat", "/nonexistent/catalog.ugq"]);
    assert_eq!(code, 2);
    assert!(out.is_empty(), "no partial report: {out}");
    assert!(
        err.contains("cannot open catalog") && err.contains("/nonexistent/catalog.ugq"),
        "the error must name the file and the failure: {err}"
    );
    assert!(
        !err.contains("corrupt"),
        "a missing file is not a corrupt one: {err}"
    );
}

#[test]
fn update_appends_replays_and_compacts() {
    let dir = scratch("update");
    let g = fixture_graph(&dir); // triangle 0-1-2 (0.9) + pendant 2-3 (0.6)
    let cat = dir.join("g.ugq").to_string_lossy().into_owned();
    let (code, _, err) = run(&["prepare", &g, "--alpha", "0.5", "--out", &cat]);
    assert_eq!(code, 0, "{err}");

    // Batch: add edge 1–3 and strengthen 2–3 → new maximal clique 1 2 3.
    let edges = dir.join("delta.txt");
    fs::write(&edges, "# batch\n+ 1 3 0.8\n= 2 3 0.9\n").unwrap();
    let (code, out, err) = run(&["update", &cat, "--edges", edges.to_str().unwrap()]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("applied 2 op(s)"), "{out}");
    assert!(out.contains("1 pending"), "{out}");

    // Cold open replays the pending delta.
    let (code, out, err) = run(&["enumerate", "--catalog", &cat]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("0 1 2") && out.contains("1 2 3"), "{out}");

    // The delta section is visible (and checksummed) in the TOC.
    let (code, out, _) = run(&["stat", &cat, "--list"]);
    assert_eq!(code, 0);
    assert!(out.contains("delta.0"), "{out}");

    // Compaction folds it in; answers are unchanged.
    let (code, out, err) = run(&["update", &cat, "--compact"]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("1 delta section(s) folded"), "{out}");
    let (code, out, _) = run(&["enumerate", "--catalog", &cat]);
    assert_eq!(code, 0);
    assert!(out.contains("1 2 3"), "{out}");

    // A rejected batch exits 2 and leaves the file byte-identical.
    let before = fs::read(&cat).unwrap();
    fs::write(&edges, "- 0 3\n").unwrap();
    let (code, _, err) = run(&["update", &cat, "--edges", edges.to_str().unwrap()]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("delta rejected"), "{err}");
    assert_eq!(fs::read(&cat).unwrap(), before);

    // Malformed batch text: line-numbered parse error, exit 2.
    fs::write(&edges, "+ 1 nope 0.5\n").unwrap();
    let (code, _, err) = run(&["update", &cat, "--edges", edges.to_str().unwrap()]);
    assert_eq!(code, 2);
    assert!(err.contains("line 1"), "{err}");

    // Nothing to do is a usage error.
    let (code, _, err) = run(&["update", &cat]);
    assert_eq!(code, 2);
    assert!(err.contains("nothing to do"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

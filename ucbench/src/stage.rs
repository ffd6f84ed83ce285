//! Input staging: seeded dataset stand-ins written as UGB1, plus the
//! answer references each workload is checked against.
//!
//! Each input is the `ugraph_gen::datasets` DBLP10 stand-in built once
//! from a fixed dataset seed, with its vertex ids permuted by the run's
//! seed. A fresh stand-in per seed would vary the work itself: over
//! seeds 1–5 the dblp-batch search-node count ranged from 2.67M to
//! 3.10M, a spread that alone exceeds a third of the widest bound. A
//! permutation keeps the graph's structure and changes its ids, CSR
//! layout, bytes and processing order.
//!
//! Staging runs in a child process (`ucbench stage …`), so generating
//! the 685k-vertex DBLP10 stand-in and computing references costs
//! neither the measured process's `setup_s` nor its `peak_rss_mb`.
//! Results are cached per seed under `work/seed-<n>/`; every file is
//! written to a temporary name and renamed into place, so an
//! interrupted stage is redone rather than trusted.

use crate::work_dir;
use mule::sinks::CountSink;
use mule::Query;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use ugraph_core::{GraphBuilder, UncertainGraph, VertexId};

/// α and size threshold of the dblp-batch job.
pub const BATCH_ALPHA: f64 = 0.5;
pub const BATCH_MIN_SIZE: usize = 3;
/// Query threshold of the dblp-catalog op.
pub const CATALOG_ALPHA: f64 = 0.7;
/// Scale of the serve-rw (and probe) input.
pub const SMALL_SCALE: f64 = 0.1;
/// Dataset seed of the stand-ins that every run's input permutes.
const DATASET_SEED: u64 = 42;

/// A staged graph file and its size.
#[derive(Debug, Clone)]
pub struct Input {
    pub path: PathBuf,
    pub vertices: u64,
    pub edges: u64,
    pub bytes: u64,
}

/// Everything staged for one (workload, seed).
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The DBLP10 stand-in at full scale (dblp-* workloads only).
    pub full: Option<Input>,
    /// The DBLP10 stand-in at scale 0.1 (serve-rw, and the layer probe).
    pub small: Input,
    /// dblp-batch reference: clique count and order-insensitive digest
    /// of the direct (`--no-prune`) engine's clique list.
    pub batch_ref: Option<(u64, u64)>,
    /// dblp-catalog reference: count of a fresh prepare at α = 0.7.
    pub catalog_ref: Option<u64>,
}

impl Inputs {
    /// One stdout line recording the input sizes of this run.
    pub fn info_json(&self, workload: &str, seed: u64) -> String {
        let describe = |name: &str, i: &Input| {
            format!(
                "\"{name}\": {{\"vertices\": {}, \"edges\": {}, \"bytes\": {}}}",
                i.vertices, i.edges, i.bytes
            )
        };
        let mut parts = vec![describe("dblp10_s0.1", &self.small)];
        if let Some(full) = &self.full {
            parts.insert(0, describe("dblp10", full));
        }
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"inputs\": {{{}}}}}",
            parts.join(", ")
        )
    }
}

fn seed_dir(seed: u64) -> PathBuf {
    work_dir().join(format!("seed-{seed}"))
}

fn needs_full(workload: &str) -> bool {
    workload.starts_with("dblp-")
}

/// Stage what `workload` needs for `seed` (in a child process, if
/// anything is missing) and describe it.
pub fn ensure(workload: &str, seed: u64) -> Result<Inputs, String> {
    if load(workload, seed).is_err() {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let status = std::process::Command::new(exe)
            .args(["stage", "--workload", workload, "--seed", &seed.to_string()])
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("cannot start the staging process: {e}"))?;
        if !status.success() {
            return Err(format!("staging failed ({status})"));
        }
    }
    load(workload, seed)
}

fn load(workload: &str, seed: u64) -> Result<Inputs, String> {
    let dir = seed_dir(seed);
    let small = read_input(&dir, "dblp10-s0.1")?;
    if !needs_full(workload) {
        return Ok(Inputs {
            full: None,
            small,
            batch_ref: None,
            catalog_ref: None,
        });
    }
    let full = read_input(&dir, "dblp10")?;
    let batch_ref = match workload {
        "dblp-batch" => {
            let kv = read_kv(&dir.join("ref-batch.txt"))?;
            Some((kv_get(&kv, "cliques")?, kv_get(&kv, "digest")?))
        }
        _ => None,
    };
    let catalog_ref = match workload {
        "dblp-catalog" => Some(kv_get(&read_kv(&dir.join("ref-catalog.txt"))?, "cliques")?),
        _ => None,
    };
    Ok(Inputs {
        full: Some(full),
        small,
        batch_ref,
        catalog_ref,
    })
}

fn read_input(dir: &Path, name: &str) -> Result<Input, String> {
    let kv = read_kv(&dir.join(format!("{name}.info")))?;
    Ok(Input {
        path: dir.join(format!("{name}.ugb")),
        vertices: kv_get(&kv, "vertices")?,
        edges: kv_get(&kv, "edges")?,
        bytes: kv_get(&kv, "bytes")?,
    })
}

/// The staging child: build every missing input and reference.
pub fn stage_here(workload: &str, seed: u64) -> Result<(), String> {
    let dir = seed_dir(seed);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    if read_input(&dir, "dblp10-s0.1").is_err() {
        let g = permuted(&dataset("dblp10-s0.1", SMALL_SCALE)?, seed)?;
        write_input(&dir, "dblp10-s0.1", &g)?;
    }
    if !needs_full(workload) {
        return Ok(());
    }
    let g = if read_input(&dir, "dblp10").is_err() {
        let g = permuted(&dataset("dblp10", 1.0)?, seed)?;
        write_input(&dir, "dblp10", &g)?;
        g
    } else {
        read_graph(&dir.join("dblp10.ugb"))?
    };
    if workload == "dblp-batch" && read_kv(&dir.join("ref-batch.txt")).is_err() {
        // The direct engine: no core filter, no peel, no sharding.
        let mut direct = Query::new(&g)
            .alpha(BATCH_ALPHA)
            .min_size(BATCH_MIN_SIZE)
            .core_filter(false)
            .shared_neighborhood(false)
            .shard_components(false)
            .prepare()
            .map_err(|e| e.to_string())?;
        let pairs = direct.collect().map_err(|e| e.to_string())?;
        let mut text = Vec::new();
        ugraph_io::write_clique_list(&mut text, BATCH_ALPHA, &pairs).map_err(|e| e.to_string())?;
        let d = digest_clique_list(&text[..])?;
        write_kv(
            &dir.join("ref-batch.txt"),
            &[("cliques", d.rows), ("digest", d.digest)],
        )?;
    }
    if workload == "dblp-catalog" && read_kv(&dir.join("ref-catalog.txt")).is_err() {
        let mut fresh = Query::new(&g)
            .alpha(CATALOG_ALPHA)
            .prepare()
            .map_err(|e| e.to_string())?;
        let mut sink = CountSink::new();
        fresh.stream(&mut sink).map_err(|e| e.to_string())?;
        write_kv(&dir.join("ref-catalog.txt"), &[("cliques", sink.count)])?;
    }
    Ok(())
}

fn read_graph(path: &Path) -> Result<UncertainGraph, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    ugraph_io::read_binary(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))
}

/// The DBLP10 stand-in at `scale` from the fixed dataset seed, built
/// once and cached under `work/dataset/`.
fn dataset(name: &str, scale: f64) -> Result<UncertainGraph, String> {
    let dir = work_dir().join("dataset");
    if read_input(&dir, name).is_ok() {
        return read_graph(&dir.join(format!("{name}.ugb")));
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let spec = ugraph_gen::datasets::by_name("DBLP10").ok_or("no DBLP10 dataset spec")?;
    let g = spec.build_scaled(DATASET_SEED, scale);
    write_input(&dir, name, &g)?;
    Ok(g)
}

/// `g` with its vertex ids permuted by a seeded Fisher–Yates shuffle.
fn permuted(g: &UncertainGraph, seed: u64) -> Result<UncertainGraph, String> {
    let n = g.num_vertices();
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    let mut rng = crate::Rng::new(seed, "vertex permutation");
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    let mut b = GraphBuilder::with_capacity(n, g.num_edges()).name(g.name());
    for (u, v, p) in g.edges() {
        b.add_edge(perm[u as usize], perm[v as usize], p)
            .map_err(|e| e.to_string())?;
    }
    b.try_build().map_err(|e| e.to_string())
}

fn write_input(dir: &Path, name: &str, g: &UncertainGraph) -> Result<(), String> {
    let path = dir.join(format!("{name}.ugb"));
    let tmp = dir.join(format!("{name}.ugb.tmp"));
    {
        let file = std::fs::File::create(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
        let mut w = BufWriter::new(file);
        ugraph_io::write_binary(g, &mut w).map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
    }
    std::fs::rename(&tmp, &path).map_err(|e| e.to_string())?;
    write_kv(
        &dir.join(format!("{name}.info")),
        &[
            ("vertices", g.num_vertices() as u64),
            ("edges", g.num_edges() as u64),
            ("bytes", crate::file_len(&path)?),
        ],
    )
}

/// `key=value` lines, written atomically.
pub fn write_kv(path: &Path, kv: &[(&str, u64)]) -> Result<(), String> {
    let text: String = kv.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn read_kv(path: &Path) -> Result<BTreeMap<String, u64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let (k, v) = line
                .split_once('=')
                .ok_or(format!("{}: bad line {line:?}", path.display()))?;
            let v = v
                .parse()
                .map_err(|e| format!("{}: {k}: {e}", path.display()))?;
            Ok((k.to_string(), v))
        })
        .collect()
}

fn kv_get(kv: &BTreeMap<String, u64>, key: &str) -> Result<u64, String> {
    kv.get(key).copied().ok_or(format!("missing {key}"))
}

/// Summary of a clique list file: the header's count, the number of
/// rows, and a digest that ignores row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListDigest {
    pub header_count: Option<u64>,
    pub rows: u64,
    pub digest: u64,
}

/// Digest a clique list as written by `ugraph_io::write_clique_list`:
/// each row (probability and vertex ids, as text) is hashed, and the
/// hashes are summed, so two lists with the same rows in any order
/// digest the same.
pub fn digest_clique_list(reader: impl BufRead) -> Result<ListDigest, String> {
    let mut out = ListDigest {
        header_count: None,
        rows: 0,
        digest: 0,
    };
    for line in reader.split(b'\n') {
        let line = line.map_err(|e| e.to_string())?;
        if line.first() == Some(&b'#') {
            let text = String::from_utf8_lossy(&line);
            if let Some(count) = text.split("count=").nth(1) {
                out.header_count = count.trim().parse().ok();
            }
            continue;
        }
        if line.is_empty() {
            continue;
        }
        let mut h = ugraph_io::catalog::Fnv64::new();
        h.update(&line);
        out.digest = out.digest.wrapping_add(mix(h.finish()));
        out.rows += 1;
    }
    Ok(out)
}

/// SplitMix64 finalizer: spreads FNV's low-entropy bits before summing.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Exact-count determinism: the first run of a seed records the
/// sequential paths' work counters; every later run of that seed must
/// reproduce each counter it shares with the record.
pub fn check_counts(
    workload: &str,
    seed: u64,
    counts: &BTreeMap<String, u64>,
    correct: &mut bool,
) -> Result<(), String> {
    let path = seed_dir(seed).join(format!("counts-{workload}.txt"));
    let mut ledger = read_kv(&path).unwrap_or_default();
    for (k, v) in counts {
        match ledger.get(k) {
            Some(prev) if prev != v => {
                eprintln!("ucbench: {k} = {v} on seed {seed}, but an earlier run counted {prev}");
                *correct = false;
            }
            Some(_) => {}
            None => {
                ledger.insert(k.clone(), *v);
            }
        }
    }
    let pairs: Vec<(&str, u64)> = ledger.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    write_kv(&path, &pairs)
}

//! `ucbench` — the repository benchmark: seeded, closed-loop workloads
//! over the MULE system, each checked for correct answers, plus a
//! traced mode that attributes an op's wall time to the layers it
//! crosses. `BENCHMARK.json` gates `dblp-catalog` and `serve-rw`;
//! `dblp-batch` runs the same way but is left out of the gated set
//! because its run-to-run spread on this class of host reached the
//! widest bound (see `README.md`).
//!
//! ```text
//! cargo run --release --manifest-path ucbench/Cargo.toml -- \
//!     --workload dblp-batch|dblp-catalog|serve-rw --seed N --seconds S --trace 0|1
//! ```
//!
//! * `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//!   same seeded ops split into the public calls of each layer and
//!   prints the per-layer metrics. `BENCHMARK.json` at the repository
//!   root lists both sets, their bounds and why each workload exists.
//! * Inputs are `ugraph_gen::datasets` stand-ins built from `--seed` in
//!   a child process ([`stage`]), cached as UGB1 under `ucbench/work/`,
//!   so their generation costs neither `setup_s` nor `peak_rss_mb`.
//! * The last stdout line is one JSON object with `correct`,
//!   `attempted`, `failed` and `metrics`; a failed op or a wrong answer
//!   makes the process exit 1 after printing it.
//!
//! `python3 ucbench/steady.py` is the A/A steadiness mode: it repeats a
//! workload over several seeds and reports each metric's quartile
//! spread against its bound.

mod batch;
mod catalog;
mod probe;
mod serve;
mod stage;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The parsed command line of a benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: ucbench --workload dblp-batch|dblp-catalog|serve-rw \
--seed N --seconds S --trace 0|1\n       ucbench stage --workload W --seed N\n       ucbench mule <mule arguments>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace,
    })
}

/// Every workload this program runs.
pub const WORKLOADS: &[&str] = &["dblp-batch", "dblp-catalog", "serve-rw"];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("mule") {
        // One `mule` command in a process of its own (see one_shot_peak_mb).
        return match mule_cli::run(&argv[1..], &mut std::io::sink(), &mut std::io::stderr()) {
            0 => {
                println!("{}", json_num(peak_rss_mb()));
                ExitCode::SUCCESS
            }
            code => ExitCode::from(u8::try_from(code).unwrap_or(1)),
        };
    }
    if argv.first().map(String::as_str) == Some("stage") {
        return match parse_args(&argv[1..]).and_then(|a| stage::stage_here(&a.workload, a.seed)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ucbench stage: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ucbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            if outcome.correct && outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "ucbench: {} of {} ops failed or answers were wrong",
                    outcome.failed, outcome.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("ucbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let inputs = stage::ensure(&args.workload, args.seed)?;
    println!("{}", inputs.info_json(&args.workload, args.seed));
    let run_dir = work_dir().join("run").join(&args.workload);
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let window = Duration::from_secs(args.seconds.max(1));
    let mut outcome = match args.workload.as_str() {
        "dblp-batch" => batch::run(args, &inputs, &run_dir, window),
        "dblp-catalog" => catalog::run(args, &inputs, &run_dir, window),
        _ => serve::run(args, &inputs, &run_dir, window),
    }?;
    if args.trace {
        // Layers the workload does not cross are measured by the fixed
        // probe over the small input, so every traced run reports every
        // per-layer metric; the workload's own numbers take precedence.
        let probed = probe::run(&inputs, &run_dir, &outcome.metrics)?;
        outcome.failed += probed.failed;
        outcome.attempted += probed.attempted;
        outcome.correct &= probed.correct;
        outcome.counts.extend(probed.counts);
        for (name, (value, unit)) in probed.metrics.0 {
            outcome.metrics.0.entry(name).or_insert((value, unit));
        }
    }
    stage::check_counts(
        &args.workload,
        args.seed,
        &outcome.counts,
        &mut outcome.correct,
    )?;
    let _ = std::fs::remove_dir_all(&run_dir);
    Ok(outcome)
}

/// Where staged inputs, answer references and run scratch files live
/// (inside the benchmark's own directory; ignored by git).
pub fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// Named metric values with their units, printed in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }
}

/// What one run reports: the result line's four keys, plus the exact
/// counts checked for determinism across runs of the same seed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Exact work counters of sequential paths (`name → value`).
    pub counts: BTreeMap<String, u64>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit `f64` carries.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Linear-interpolation percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        1 => s[0],
        n => {
            let rank = q * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Restart this process's `VmHWM` from its current resident set, so the
/// next [`peak_rss_mb`] reads the peak of what ran in between.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` (peak resident set) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn file_len(path: &std::path::Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// SplitMix64: the seeded op-sequence generator (std only).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, label: &str) -> Rng {
        Rng(ugraph_gen::rng::derive_seed(seed, label))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`, rounded to three decimals so the value
    /// survives the wire's text form exactly.
    pub fn prob(&mut self) -> f64 {
        (1 + self.below(1000)) as f64 / 1000.0
    }
}

/// One in-process `mule` command (`mule_cli::run`); its stdout on exit
/// code 0, else the code and stderr.
pub fn cli(args: &[String]) -> Result<String, String> {
    let (mut out, mut err) = (Vec::new(), Vec::new());
    match mule_cli::run(args, &mut out, &mut err) {
        0 => Ok(String::from_utf8_lossy(&out).into_owned()),
        code => Err(format!(
            "mule {} exited {code}: {}",
            args.join(" "),
            String::from_utf8_lossy(&err).trim()
        )),
    }
}

/// Peak resident set (MB) of a process that runs one `mule` command and
/// nothing else: what a CLI user's process holds at its peak. A long
/// benchmark process would instead report whatever its allocator kept
/// from earlier ops, which differs from run to run.
pub fn one_shot_peak_mb(cmd: &[String]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("mule")
        .args(cmd)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a one-op process: {e}"))?;
    if !out.status.success() {
        return Err(format!("one-op process: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|e| format!("one-op process printed {text:?}: {e}"))
}

/// The strings of a command line.
pub fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// Set every `PrepareReport` counter the benchmark tracks as a
/// per-layer metric and as an exact count (`<prefix>.prepare.<name>`).
pub fn report_metrics(
    r: &mule::PrepareReport,
    m: &mut Metrics,
    counts: &mut BTreeMap<String, u64>,
    prefix: &str,
) {
    let fields = [
        ("alpha_pruned_edges", r.alpha_pruned_edges),
        ("core_filtered_vertices", r.core_filtered_vertices),
        ("shared_pruned_edges", r.shared_pruned_edges),
        ("components_kept", r.components_kept),
        ("largest_component", r.largest_component),
        ("final_edges", r.final_edges),
    ];
    for (name, v) in fields {
        m.set(&format!("prepare.{name}"), v as f64, "count");
        counts.insert(format!("{prefix}.prepare.{name}"), v as u64);
    }
}

/// Set the kernel's work counters from one sequential execution, as
/// per-layer metrics and as exact counts (`<prefix>.kernel.<name>`).
pub fn kernel_metrics(
    s: &mule::EnumerationStats,
    m: &mut Metrics,
    counts: &mut BTreeMap<String, u64>,
    prefix: &str,
) {
    let fields = [
        ("search_nodes", s.calls),
        ("cliques", s.emitted),
        ("size_pruned", s.size_pruned),
        ("candidates_scanned", s.total_scanned()),
        ("dense_probes", s.dense_probes),
        ("gallop_probes", s.gallop_probes),
        ("merge_steps", s.merge_steps),
    ];
    for (name, v) in fields {
        m.set(&format!("kernel.{name}"), v as f64, "count");
        counts.insert(format!("{prefix}.kernel.{name}"), v);
    }
    m.set(
        "kernel.nodes_per_clique",
        s.calls as f64 / s.emitted.max(1) as f64,
        "ratio",
    );
}

/// A latency distribution on stderr: sample count, quartiles, extremes.
pub fn log_latencies(label: &str, ms: &[f64]) {
    eprintln!(
        "ucbench: {label}: n={} min={:.1} q1={:.1} p50={:.1} q3={:.1} max={:.1} ms",
        ms.len(),
        percentile(ms, 0.0),
        percentile(ms, 0.25),
        percentile(ms, 0.5),
        percentile(ms, 0.75),
        percentile(ms, 1.0)
    );
}

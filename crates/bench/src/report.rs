//! TSV experiment reports: every harness binary prints its series to
//! stdout *and* writes a TSV file under `results/`, so figures can be
//! re-plotted and write-ups can cite stable artifacts.
//!
//! Two further building blocks live here because every harness needs
//! them and no crates.io dependency is available offline:
//!
//! * [`Summary`] — order statistics (min/median/p95/max/mean) over
//!   repeated timing samples, so reports record distributions instead
//!   of a single wall-clock mean;
//! * [`Json`] — a minimal JSON emitter backing the `--json` modes of
//!   the harness binaries (the perf-trajectory artifacts like
//!   `BENCH_pr2.json` are diffed across PRs, so the format is plain
//!   and stable).

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A tabular report: header row plus data rows, rendered aligned to
/// stdout and tab-separated to disk.
pub struct Report {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Start a report with the given title and column names.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Report {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a data row; must match the column count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width mismatches header"
        );
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text table (what the binaries print).
    pub fn to_aligned_string(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.columns, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Render as TSV (what lands under `results/`).
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "{}", self.columns.join("\t"));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join("\t"));
        }
        out
    }

    /// Print aligned to stdout and persist TSV as `dir/name.tsv`; returns
    /// the written path (best effort: I/O errors are reported to stderr
    /// but do not abort the experiment).
    pub fn emit(&self, dir: &Path, name: &str) -> Option<PathBuf> {
        print!("{}", self.to_aligned_string());
        println!();
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {dir:?}: {e}");
            return None;
        }
        let path = dir.join(format!("{name}.tsv"));
        match fs::File::create(&path).and_then(|mut f| f.write_all(self.to_tsv().as_bytes())) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: cannot write {path:?}: {e}");
                None
            }
        }
    }
}

/// Order statistics over repeated measurement samples (seconds).
///
/// The criterion shim and the harness binaries report these instead of a
/// bare mean: enumeration runtimes are right-skewed (allocator warm-up,
/// first-touch page faults), so min/median/p95 is what figure
/// regeneration wants to plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Fastest sample.
    pub min: f64,
    /// 50th percentile (linear interpolation between ranks).
    pub median: f64,
    /// 95th percentile (linear interpolation between ranks).
    pub p95: f64,
    /// Slowest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Number of samples summarized.
    pub samples: usize,
}

impl Summary {
    /// Summarize a non-empty set of samples.
    ///
    /// # Panics
    /// Panics on an empty slice — a summary of nothing is a harness bug.
    pub fn from_samples(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "cannot summarize zero samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            min: sorted[0],
            median: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            max: *sorted.last().unwrap(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            samples: sorted.len(),
        }
    }

    /// Render as `min/median/p95` with [`fmt_secs`] units (the report-row
    /// cell format).
    pub fn display(&self) -> String {
        format!(
            "{}/{}/{}",
            fmt_secs(self.min),
            fmt_secs(self.median),
            fmt_secs(self.p95)
        )
    }

    /// [`Self::display`], prefixed `>` when the point was
    /// deadline-censored — the one cell idiom shared by every figure
    /// binary (see `harness::repeated_run` for the censoring contract).
    pub fn display_censored(&self, timed_out: bool) -> String {
        if timed_out {
            format!(">{}", self.display())
        } else {
            self.display()
        }
    }
}

/// Linear-interpolation percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&q));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Minimal JSON emitter: objects, arrays, strings, numbers, booleans.
///
/// Commas and nesting are managed by the builder; keys and values must
/// alternate correctly inside objects (checked only by the shape of the
/// call sequence, not at runtime). Non-finite floats are emitted as
/// `null`, which is what consumers of the bench artifacts expect for a
/// failed measurement.
#[derive(Debug, Default)]
pub struct Json {
    out: String,
    /// One entry per open container: `true` once the first element was
    /// written (so the next element is comma-prefixed).
    stack: Vec<bool>,
}

impl Json {
    /// Fresh, empty emitter.
    pub fn new() -> Self {
        Self::default()
    }

    fn pre_value(&mut self) {
        if let Some(has_elems) = self.stack.last_mut() {
            if *has_elems && !self.out.ends_with(':') {
                self.out.push(',');
            }
            *has_elems = true;
        }
    }

    /// Open an object (`{`).
    pub fn begin_obj(&mut self) -> &mut Self {
        self.pre_value();
        self.out.push('{');
        self.stack.push(false);
        self
    }

    /// Close the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push('}');
        self
    }

    /// Open an array (`[`).
    pub fn begin_arr(&mut self) -> &mut Self {
        self.pre_value();
        self.out.push('[');
        self.stack.push(false);
        self
    }

    /// Close the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push(']');
        self
    }

    /// Write an object key; the next call must write its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.pre_value();
        self.write_escaped(k);
        self.out.push(':');
        self
    }

    /// String value.
    pub fn str_val(&mut self, s: &str) -> &mut Self {
        self.pre_value();
        self.write_escaped(s);
        self
    }

    /// Float value (`null` when non-finite).
    pub fn num(&mut self, v: f64) -> &mut Self {
        self.pre_value();
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Integer value.
    pub fn int(&mut self, v: i64) -> &mut Self {
        self.pre_value();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Boolean value.
    pub fn bool_val(&mut self, v: bool) -> &mut Self {
        self.pre_value();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Convenience: `key` + [`Summary`] rendered as an object of seconds.
    pub fn summary(&mut self, k: &str, s: &Summary) -> &mut Self {
        self.key(k).begin_obj();
        self.key("min_s").num(s.min);
        self.key("median_s").num(s.median);
        self.key("p95_s").num(s.p95);
        self.key("max_s").num(s.max);
        self.key("mean_s").num(s.mean);
        self.key("samples").int(s.samples as i64);
        self.end_obj()
    }

    /// Finish and return the JSON text.
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out
    }

    fn write_escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

/// Format seconds the way the paper's plots read: sub-millisecond runs in
/// microseconds, otherwise three significant decimals.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_and_tsv_agree_on_content() {
        let mut r = Report::new("t", &["a", "bb"]);
        r.row(&["1".into(), "2".into()]);
        r.row(&["333".into(), "4".into()]);
        let aligned = r.to_aligned_string();
        assert!(aligned.contains("== t =="));
        assert!(aligned.contains("333"));
        let tsv = r.to_tsv();
        assert!(tsv.contains("a\tbb"));
        assert!(tsv.contains("333\t4"));
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut r = Report::new("t", &["a", "b"]);
        r.row(&["1".into()]);
    }

    #[test]
    fn emit_writes_file() {
        let dir = std::env::temp_dir().join(format!("ugraph-report-{}", std::process::id()));
        let mut r = Report::new("t", &["x"]);
        r.row(&["7".into()]);
        let path = r.emit(&dir, "probe").unwrap();
        let content = fs::read_to_string(&path).unwrap();
        assert!(content.contains("7"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(0.0000005).ends_with("us"));
        assert!(fmt_secs(0.5).ends_with("ms"));
        assert_eq!(fmt_secs(12.3456), "12.346s");
    }

    #[test]
    fn summary_order_statistics() {
        let s = Summary::from_samples(&[3.0, 1.0, 2.0, 4.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.samples, 5);
        // p95 of 5 sorted samples interpolates between ranks 3 and 4.
        assert!((s.p95 - 4.8).abs() < 1e-12, "p95 = {}", s.p95);
        assert!(s.display().contains('/'));
    }

    #[test]
    fn summary_single_sample_is_degenerate() {
        let s = Summary::from_samples(&[2.5]);
        assert_eq!(s.min, 2.5);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.p95, 2.5);
        assert_eq!(s.max, 2.5);
    }

    #[test]
    #[should_panic]
    fn summary_rejects_empty() {
        let _ = Summary::from_samples(&[]);
    }

    #[test]
    fn json_emits_nested_structure() {
        let mut j = Json::new();
        j.begin_obj();
        j.key("name").str_val("a\"b");
        j.key("n").int(3);
        j.key("x").num(0.5);
        j.key("ok").bool_val(true);
        j.key("bad").num(f64::NAN);
        j.key("rows").begin_arr();
        j.begin_obj();
        j.key("v").int(1);
        j.end_obj();
        j.begin_obj();
        j.key("v").int(2);
        j.end_obj();
        j.num(7.0);
        j.end_arr();
        j.end_obj();
        assert_eq!(
            j.finish(),
            r#"{"name":"a\"b","n":3,"x":0.5,"ok":true,"bad":null,"rows":[{"v":1},{"v":2},7]}"#
        );
    }

    #[test]
    fn json_summary_helper_round_trips_fields() {
        let s = Summary::from_samples(&[1.0, 2.0]);
        let mut j = Json::new();
        j.begin_obj();
        j.summary("t", &s);
        j.end_obj();
        let text = j.finish();
        assert!(text.contains(r#""t":{"min_s":1"#), "{text}");
        assert!(text.contains(r#""samples":2"#), "{text}");
    }

    #[test]
    #[should_panic]
    fn json_unclosed_container_panics() {
        let mut j = Json::new();
        j.begin_obj();
        j.finish();
    }
}

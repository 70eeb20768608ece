//! What every workload shares: the run outcome and its JSON output, the
//! scratch directory, seed derivation, timing and summary statistics.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Operations attempted, failures, metrics and exact counters of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    /// Failed checks and failed operations, described for stderr.
    failures: Vec<String>,
    /// Whether any correctness check failed (a failed operation alone does
    /// not make the outputs of the others wrong).
    check_failed: bool,
    metrics: Vec<(String, f64, &'static str)>,
    counts: Vec<(String, u64)>,
}

impl Outcome {
    /// Counts one call into the program; an `Err` counts as a failed
    /// operation and yields `None`.
    pub fn op<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(message) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {message}"));
                None
            }
        }
    }

    /// Records a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.check_failed = true;
            self.failures.push(format!("check failed: {}", what()));
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), || format!("metric {name} is {value}"));
        self.metrics.push((name.to_string(), value, unit));
    }

    /// An exact counter: the same seed must reproduce it on every run.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_string(), value));
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.check_failed |= other.check_failed;
        self.metrics.extend(other.metrics);
        self.counts.extend(other.counts);
    }

    /// Operations attempted and failed so far.
    pub fn ops(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    pub fn correct(&self) -> bool {
        !self.check_failed && self.attempted > 0
    }

    /// Prints failures to stderr, then the counters line and the result line
    /// (always last) to stdout.
    pub fn print(&self) {
        for failure in &self.failures {
            eprintln!("perfbench: {failure}");
        }
        let mut counts = String::from("{\"counts\": {");
        for (i, (name, value)) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(counts, "{sep}\"{name}\": {value}");
        }
        counts.push_str("}}");
        println!("{counts}");
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(line, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct Workdir {
    root: PathBuf,
}

impl Workdir {
    pub fn create(workload: &str, seed: u64) -> Result<Workdir, String> {
        let root =
            PathBuf::from(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Workdir { root })
    }

    /// A path under the scratch directory (not created).
    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty parent behind either (fails harmlessly when another
        // run still uses it).
        let _ = std::fs::remove_dir(Path::new(".bench_work"));
    }
}

/// SplitMix64 finalizer: the benchmark's one way of turning its seed into
/// input seeds.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The input seed for stream `tag` of a run seeded with `seed`. Results are
/// kept below 2^32 so `seed + shot` never wraps in practice.
pub fn derive(seed: u64, tag: u64) -> u64 {
    mix(mix(seed) ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)) >> 32
}

/// Runs `f` and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Linear-interpolated quantile `q` of `values` (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The five end-to-end metrics every untraced run reports, each a median
/// over the run: `setups_s` are the repeated set-up times, `jobs_s` the wall
/// times of whole jobs and `ops_ms[j]` the latencies of job `j`'s unit
/// operations. The latency percentiles are taken per job, then their median
/// over jobs, so a burst of interference from outside the process moves
/// only the jobs it hit.
pub fn end_to_end(outcome: &mut Outcome, setups_s: &[f64], jobs_s: &[f64], ops_ms: &[Vec<f64>]) {
    let per_job = |q: f64| median(&ops_ms.iter().map(|ops| quantile(ops, q)).collect::<Vec<_>>());
    outcome.metric("setup_s", median(setups_s), "s");
    outcome.metric("wall_s", median(jobs_s), "s");
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB");
    outcome.metric("p50_ms", per_job(0.50), "ms");
    outcome.metric("p99_ms", per_job(0.99), "ms");
    eprintln!(
        "perfbench: {} set-ups, {} jobs, {} operations timed",
        setups_s.len(),
        jobs_s.len(),
        ops_ms.iter().map(Vec::len).sum::<usize>()
    );
}

/// Runs whole jobs until `seconds` have passed and at least `min_jobs` ran,
/// returning each job's wall time. `job` receives the job index.
pub fn run_jobs(seconds: f64, min_jobs: usize, mut job: impl FnMut(usize) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min_jobs || start.elapsed().as_secs_f64() < seconds {
        walls.push(job(walls.len()));
    }
    walls
}

/// What a workload's traced run hands back to `run_traced`.
pub struct Traced {
    pub outcome: Outcome,
    pub untraced_wall_s: f64,
    pub traced_wall_s: f64,
}

//! Running workloads and saying what they measured: the one-line result the
//! driver reads, the tables a person reads, the stamped results file, and
//! the A/A self-check.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::gen::Class;
use crate::metrics::{self, Better, Metric, Values};
use crate::pin::Pinned;
use crate::stats::{us, Summary};
use crate::timed::{self, TimedRun};
use crate::traced::{self, TracedRun};
use crate::workload::{Inputs, Loaded, Scale, Scratch, Sizes, Workload};
use crate::Error;

/// Length of the measured window the driver asks for, as `BENCHMARK.json`
/// records it.
pub const RUN_SECONDS: u64 = 15;

/// Clients of every timed run. The sandbox has two cores.
pub const CLIENTS: usize = 2;

/// A closed loop of two clients needs two cores to mean what it says.
pub fn require_cores() -> Result<usize, Error> {
    let cores = std::thread::available_parallelism()?.get();
    if cores < CLIENTS {
        return Err(format!(
            "{cores} core available: the load model is {CLIENTS} closed-loop clients and the \
             baseline was taken on {CLIENTS} cores, so the run would not be comparable"
        )
        .into());
    }
    Ok(cores)
}

/// A timed run and the end-to-end metrics it comes to.
pub struct Timed {
    pub run: TimedRun,
    pub values: Values,
    pub sizes: Sizes,
    /// Seconds of every set-up the run made; `setup_s` is their median.
    pub setups: Vec<f64>,
}

/// Sets the workload up `scale.setups` times (the last one is kept), then
/// runs the two clients for `seconds`. Where the clients take turns, all of
/// it happens on one processor.
pub fn run_timed(w: Workload, seed: u64, seconds: f64, scale: &Scale) -> Result<Timed, Error> {
    let _pin = w.clients_take_turns().then(Pinned::to_one_cpu);
    timed::reset_peak_rss();
    let inputs = Inputs::generate(w, scale, seed)?;
    let mut scratch = Scratch::new()?;
    let mut loaded = Loaded::set_up(&inputs, scale, &mut scratch)?;
    let mut setups = vec![loaded.setup_s];
    while setups.len() < scale.setups {
        loaded.tear_down()?;
        loaded = Loaded::set_up(&inputs, scale, &mut scratch)?;
        setups.push(loaded.setup_s);
    }
    let sizes = loaded.sizes;
    let run = timed::run(
        loaded,
        &inputs,
        scale,
        seed,
        Duration::from_secs_f64(seconds),
    )?;
    let values = metrics::end_to_end_values(&run, &setups, &sizes)?;
    Ok(Timed {
        run,
        values,
        sizes,
        setups,
    })
}

/// The traced run of a workload, on the processors its timed run has.
pub fn run_traced(w: Workload, seed: u64, scale: &Scale) -> Result<TracedRun, Error> {
    let _pin = w.clients_take_turns().then(Pinned::to_one_cpu);
    timed::reset_peak_rss();
    let inputs = Inputs::generate(w, scale, seed)?;
    let mut scratch = Scratch::new()?;
    traced::run(&inputs, scale, seed, &mut scratch)
}

/// The line the driver reads: the last line of standard output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[Metric],
    values: &Values,
) -> Result<String, Error> {
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        metrics::metrics_json(catalogue, values)?
    ))
}

/// Where the run happened: results from different places do not compare.
#[derive(Clone, Debug)]
pub struct Stamp {
    pub commit: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub date: String,
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let line = String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()?
        .trim()
        .to_string();
    (!line.is_empty()).then_some(line)
}

/// Civil date of a Unix time, by Howard Hinnant's `civil_from_days`.
fn utc_date(unix_secs: u64) -> String {
    let z = (unix_secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

impl Stamp {
    pub fn take() -> Stamp {
        let manifest_dir = env!("CARGO_MANIFEST_DIR");
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Stamp {
            // A checkout that is not a git repository has no commit to name.
            commit: first_line_of(
                "git",
                &["-C", manifest_dir, "rev-parse", "--short=12", "HEAD"],
            )
            .unwrap_or_else(|| "nogit".into()),
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model,
            rustc: first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            date: utc_date(
                SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map_or(0, |d| d.as_secs()),
            ),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"commit\": \"{}\", \"nproc\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \
             \"date\": \"{}\"}}",
            self.commit,
            self.nproc,
            self.cpu_model.replace('"', "'"),
            self.rustc.replace('"', "'"),
            self.date
        )
    }
}

/// Both runs of one workload.
pub struct WorkloadReport {
    pub workload: Workload,
    pub timed: Timed,
    pub traced: TracedRun,
}

impl WorkloadReport {
    pub fn correct(&self) -> bool {
        self.timed.run.correct() && self.traced.correct()
    }
}

/// A timed run, for a person to read: the end-to-end metrics with their
/// sample counts, and a latency table per statement class.
pub fn print_timed(w: Workload, timed: &Timed) {
    let run = &timed.run;
    let s = &timed.sizes;
    println!("\n== {} ==", w.name());
    println!("   {}", w.why());
    println!(
        "   sizes: items={} nodes={} xml_bytes={} data_pages={} buffer_frames={} page_size={}",
        s.items, s.nodes, s.xml_bytes, s.data_pages, s.buffer_frames, s.page_size
    );
    println!(
        "   timed run: {} clients, closed loop, {:.1} s window, {} attempted, {} failed, {} \
         replies checked",
        run.clients.len(),
        run.window_s,
        run.attempted(),
        run.failed(),
        run.clients.iter().map(|c| c.checked).sum::<u64>()
    );
    println!(
        "   {:<28} {:>14}  {:<6} samples",
        "end to end", "value", "unit"
    );
    let samples: Vec<usize> = run.clients.iter().map(|c| c.latencies().len()).collect();
    for m in &metrics::end_to_end() {
        let n = match m.name.split_once('_') {
            Some(("c0", _)) => samples[0],
            Some(("c1", _)) => samples[1],
            _ if m.name == "throughput_ops_s" => samples.iter().sum(),
            _ if m.name == "setup_s" => timed.setups.len(),
            _ => 1,
        };
        println!(
            "   {:<28} {:>14.3}  {:<6} {n}",
            m.name, timed.values[&m.name], m.unit
        );
    }
    println!(
        "   {:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "per class, whole window", "samples", "p50_us", "p95_us", "p99_us", "max_us"
    );
    for class in Class::ALL {
        let mut all: Vec<u64> = run
            .clients
            .iter()
            .filter_map(|c| c.by_class.get(&class))
            .flatten()
            .copied()
            .collect();
        if all.is_empty() {
            continue;
        }
        let sm = Summary::of(&mut all);
        println!(
            "   {:<28} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            class.name(),
            sm.samples,
            us(sm.p50_ns),
            us(sm.p95_ns),
            us(sm.p99_ns),
            us(sm.max_ns)
        );
    }
    for e in run.clients.iter().flat_map(|c| &c.errors) {
        println!("   statement failed: {e}");
    }
    for f in &run.gate_failures {
        println!("   FAILED: {f}");
    }
}

/// A traced run, for a person to read: the layer table, then every
/// per-layer metric.
pub fn print_traced(traced: &TracedRun) {
    let layers = metrics::per_layer();
    println!(
        "   traced run of {}: 1 client, {} statements",
        traced.workload.name(),
        traced.statements
    );
    println!("   {:<28} {:>14}", "layer table", "mean us/stmt");
    for (name, mean_us) in &traced.table.rows {
        println!("   {name:<28} {mean_us:>14.3}");
    }
    println!(
        "   {:<28} {:>14.3}",
        "bench.unattributed_us", traced.table.unattributed_us
    );
    println!(
        "   {:<28} {:>14.3}  (layers cover {:.1} %)",
        "stmt",
        traced.table.stmt_us,
        100.0 * traced.table.covered()
    );
    println!("   {:<34} {:>14}  unit", "per layer", "value");
    for m in &layers {
        println!(
            "   {:<34} {:>14.3}  {}",
            m.name, traced.values[&m.name], m.unit
        );
    }
    println!("   trace: {}", traced.trace_file.display());
    for f in &traced.gate_failures {
        println!("   FAILED: {f}");
    }
}

fn values_json(values: &Values, indent: &str) -> String {
    let mut out = String::from("{\n");
    let n = values.len();
    for (i, (name, v)) in values.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        let _ = writeln!(out, "{indent}  \"{name}\": {v}{comma}");
    }
    let _ = write!(out, "{indent}}}");
    out
}

/// Writes `results/<commit>-<seed>.json` beside the crate and returns its
/// path. A second run of the same commit and seed gets a numbered name: no
/// row is overwritten.
pub fn write_results(
    stamp: &Stamp,
    seed: u64,
    seconds: f64,
    reports: &[WorkloadReport],
) -> Result<PathBuf, Error> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir)?;
    let mut path = dir.join(format!("{}-{seed}.json", stamp.commit));
    let mut n = 1;
    while path.exists() {
        n += 1;
        path = dir.join(format!("{}-{seed}-{n}.json", stamp.commit));
    }
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"stamp\": {},", stamp.json());
    let _ = writeln!(
        out,
        "  \"load_model\": {{\"loop\": \"closed\", \"clients\": {CLIENTS}, \"window_s\": {seconds}, \
         \"flush_policy\": \"engine default: one fsync per commit\", \"seed\": {seed}}},"
    );
    out.push_str("  \"workloads\": {\n");
    for (i, r) in reports.iter().enumerate() {
        let s = &r.timed.sizes;
        let _ = writeln!(out, "    \"{}\": {{", r.workload.name());
        let _ = writeln!(out, "      \"correct\": {},", r.correct());
        let _ = writeln!(
            out,
            "      \"sizes\": {{\"items\": {}, \"nodes\": {}, \"xml_bytes\": {}, \"data_pages\": {}, \
             \"buffer_frames\": {}}},",
            s.items, s.nodes, s.xml_bytes, s.data_pages, s.buffer_frames
        );
        let _ = writeln!(
            out,
            "      \"attempted\": {}, \"failed\": {},",
            r.timed.run.attempted(),
            r.timed.run.failed()
        );
        let _ = writeln!(
            out,
            "      \"end_to_end\": {},",
            values_json(&r.timed.values, "      ")
        );
        let _ = writeln!(
            out,
            "      \"per_layer\": {}",
            values_json(&r.traced.values, "      ")
        );
        let comma = if i + 1 < reports.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  }\n}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Runs every workload, timed and traced, prints the tables and writes the
/// results file. `Ok(false)` if any run was incorrect.
pub fn all(seed: u64, seconds: f64, scale: &Scale) -> Result<bool, Error> {
    let stamp = Stamp::take();
    println!("sedna-e2e all: seed {seed}, {}", stamp.json());
    let mut reports = Vec::new();
    for w in Workload::ALL {
        let timed = run_timed(w, seed, seconds, scale)?;
        print_timed(w, &timed);
        let traced = run_traced(w, seed, scale)?;
        print_traced(&traced);
        reports.push(WorkloadReport {
            workload: w,
            timed,
            traced,
        });
    }
    let path = write_results(&stamp, seed, seconds, &reports)?;
    println!("\nresults: {}", path.display());
    Ok(reports.iter().all(WorkloadReport::correct))
}

/// By how much of `a` the metric got worse from `a` to `b`; negative when it
/// got better.
pub fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// A/A: the timed suite twice on one build. Prints both values of every
/// end-to-end metric and their gap; `Ok(false)` if a gap, in either
/// direction, exceeds the metric's bound or a run was incorrect.
pub fn selfcheck(seed: u64, seconds: f64, scale: &Scale) -> Result<bool, Error> {
    let stamp = Stamp::take();
    println!("sedna-e2e selfcheck: seed {seed}, {}", stamp.json());
    let e2e = metrics::end_to_end();
    let mut ok = true;
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for w in Workload::ALL {
        let a = run_timed(w, seed, seconds, scale)?;
        let b = run_timed(w, seed, seconds, scale)?;
        ok &= a.run.correct() && b.run.correct();
        for m in &e2e {
            let (va, vb) = (a.values[&m.name], b.values[&m.name]);
            let gap = worsening(m, va, vb).abs().max(worsening(m, vb, va).abs());
            let bound = m.bound.expect("an end-to-end metric has a bound");
            let verdict = if gap > bound { "  EXCEEDS" } else { "" };
            ok &= gap <= bound;
            println!(
                "{:<14} {:<28} {va:>14.3} {vb:>14.3} {:>7.2}% {:>5.0}%{verdict}",
                w.name(),
                m.name,
                100.0 * gap,
                100.0 * bound
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dates_are_civil() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(951_782_400), "2000-02-29");
        assert_eq!(utc_date(1_790_294_400), "2026-09-25");
    }

    #[test]
    fn worsening_follows_the_direction() {
        let lower = &metrics::end_to_end()[0];
        let higher = &metrics::end_to_end()[1];
        assert_eq!(worsening(lower, 10.0, 11.0), 0.1);
        assert_eq!(worsening(higher, 10.0, 9.0), 0.1);
        assert!(worsening(higher, 10.0, 11.0) < 0.0);
    }
}

//! The catalogue of metrics: the one place that names them, and from which
//! `BENCHMARK.json` is written. `README.md` says how each is derived and
//! which end-to-end metric it should move.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::gen::Class;
use crate::stats::{median, us, Summary};
use crate::timed::TimedRun;
use crate::workload::{Sizes, Workload};
use crate::Error;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change is a regression; `None` for a layer's metric.
    pub bound: Option<f64>,
}

fn metric(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// What a user of the system sees. Every workload reports every one of
/// them: `c0` and `c1` are the two clients, which run the same mix on three
/// workloads and are the reader (`c0`) and the committer (`c1`) of
/// `mixed_cold`, where one may gain at the other's cost.
pub fn end_to_end() -> Vec<Metric> {
    use Better::{Higher, Lower};
    vec![
        metric("setup_s", "s", Lower, Some(0.25)),
        metric("throughput_ops_s", "1/s", Higher, Some(0.25)),
        metric("c0_p50_us", "us", Lower, Some(0.25)),
        metric("c0_p95_us", "us", Lower, Some(0.25)),
        metric("c1_p50_us", "us", Lower, Some(0.25)),
        metric("c1_p95_us", "us", Lower, Some(0.25)),
        metric("stored_bytes_per_user_byte", "ratio", Lower, Some(0.03)),
        metric("peak_rss_mib", "MiB", Lower, Some(0.20)),
    ]
}

/// One layer's numbers, from the traced run. Every workload reports every
/// one of them; a layer a workload does not enter reports 0.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        out.push(metric(name, unit, better, None));
    };
    let reads = || Class::ALL.into_iter().filter(|c| c.is_read());

    add("net.overhead_p50_us", "us", Lower);
    for class in reads() {
        add(
            &format!("net.overhead_p50_us.{}", class.name()),
            "us",
            Lower,
        );
    }
    add("net.execute_rtt_p50_us", "us", Lower);
    add("net.fetch_rtt_p50_us", "us", Lower);
    add("net.server_request_mean_us", "us", Lower);
    add("net.round_trips_per_stmt", "count", Lower);
    add("net.wakeups_per_stmt", "count", Lower);
    add("net.dispatches_per_stmt", "count", Lower);
    add("net.bytes_out_per_stmt", "bytes", Lower);
    add("net.bytes_in_per_stmt", "bytes", Lower);
    add("net.codec_ns_per_frame", "ns", Lower);

    add("core.stmt_p50_us", "us", Lower);
    add("core.stmt_p99_us", "us", Lower);
    add("core.stmt_max_us", "us", Lower);
    for class in Class::ALL {
        add(&format!("core.stmt_p50_us.{}", class.name()), "us", Lower);
    }
    add("core.open_p50_us", "us", Lower);
    add("core.finish_p50_us", "us", Lower);
    add("core.ttfi_p50_us.q_scan", "us", Lower);
    add("core.plan_l1_hit_ratio", "ratio", Higher);
    add("core.plan_l2_hit_ratio", "ratio", Higher);
    add("core.plan_l2_lock_waits", "count", Lower);
    add("core.begin_update_p50_us", "us", Lower);
    add("core.update_exec_p50_us", "us", Lower);
    add("core.commit_p50_us", "us", Lower);
    add("core.commit_other_us", "us", Lower);

    for class in Class::ALL {
        add(
            &format!("xquery.compile_p50_us.{}", class.name()),
            "us",
            Lower,
        );
    }
    add("xquery.first_pull_p50_us", "us", Lower);
    add("xquery.pull_us_per_item", "us", Lower);
    add("xquery.nodes_scanned_per_item", "count", Lower);
    add("xquery.plan_index_share", "ratio", Higher);
    add("xquery.ddo_sorts_per_stmt", "count", Lower);

    add("index.lookups_per_stmt", "count", Lower);
    add("index.lookup_p50_us", "us", Lower);
    add("index.inserts_per_commit", "count", Lower);
    add("index.splits_total", "count", Lower);

    add("sas.buffer_hit_ratio", "ratio", Higher);
    add("sas.lockfree_hit_share", "ratio", Higher);
    add("sas.evictions_per_stmt", "count", Lower);
    add("sas.writebacks_per_commit", "count", Lower);
    add("sas.pinned_pages_peak", "count", Lower);
    add("sas.read_ns_per_page.t1", "ns", Lower);
    add("sas.read_ns_per_page.t2", "ns", Lower);

    add("txn.lock_wait_mean_us", "us", Lower);
    add("txn.lock_waits_per_commit", "count", Lower);
    add("txn.aborts_ratio", "ratio", Lower);
    add("txn.versions_created_per_commit", "count", Lower);
    add("txn.snapshots_retained", "count", Lower);
    add("txn.update_begins_total", "count", Lower);

    add("wal.bytes_per_commit", "bytes", Lower);
    add("wal.bytes_per_user_byte", "ratio", Lower);
    add("wal.appends_per_commit", "count", Lower);
    add("wal.fsyncs_per_commit", "count", Lower);
    add("wal.append_mean_us", "us", Lower);
    add("wal.fsync_mean_us", "us", Lower);
    add("wal.appends_total", "count", Lower);
    add("wal.crc32_mib_s", "MiB/s", Higher);
    add("wal.recovery_mib_s", "MiB/s", Higher);
    add("wal.recovery_peak_rss_mib", "MiB", Lower);

    add("xml.parse_mib_s", "MiB/s", Higher);
    add("storage.load_nodes_s", "1/s", Higher);
    add("storage.bytes_per_node", "bytes", Lower);

    add("obs.trace_overhead_ratio", "ratio", Higher);
    add("bench.unattributed_us", "us", Lower);
    add("bench.layer_sum_ratio", "ratio", Higher);
    add("bench.reply_digest_low32", "count", Higher);
    out
}

pub type Values = BTreeMap<String, f64>;

/// Boils a timed run down to the end-to-end metrics: percentiles over every
/// statement a client completed in its window, completions over the window's
/// length, the median of the run's set-ups.
pub fn end_to_end_values(run: &TimedRun, setups: &[f64], sizes: &Sizes) -> Result<Values, Error> {
    let mut v = Values::new();
    v.insert(
        "setup_s".into(),
        median(setups).ok_or("a run sets up at least once")?,
    );
    let mut completed = 0;
    for (c, client) in run.clients.iter().enumerate() {
        let summary = Summary::of(&mut client.latencies());
        if summary.samples == 0 {
            return Err(format!("client {c} completed nothing in the window").into());
        }
        completed += summary.samples;
        v.insert(format!("c{c}_p50_us"), us(summary.p50_ns));
        v.insert(format!("c{c}_p95_us"), us(summary.p95_ns));
    }
    // Clients that take turns split the window, so either way the window is
    // the time in which the completions were made.
    v.insert("throughput_ops_s".into(), completed as f64 / run.window_s);
    v.insert(
        "stored_bytes_per_user_byte".into(),
        sizes.stored_bytes as f64 / sizes.xml_bytes as f64,
    );
    v.insert("peak_rss_mib".into(), run.peak_rss_mib);
    Ok(v)
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The measured part of a result line: every metric of `catalogue`, in its
/// order, as `{"name": {"value": v, "unit": "u"}, ...}`. A metric without a
/// finite value is an error: a result must never carry a hole.
pub fn metrics_json(catalogue: &[Metric], values: &Values) -> Result<String, Error> {
    let mut out = String::from("{");
    for (i, m) in catalogue.iter().enumerate() {
        let v = *values
            .get(&m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is {v}", m.name).into());
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            json_string(&m.name),
            json_string(m.unit)
        );
    }
    out.push('}');
    Ok(out)
}

/// `BENCHMARK.json`, exactly as the file at the repository root must read.
pub fn benchmark_json(run_seconds: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"e2e/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"e2e\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let comma = if i + 1 < Workload::ALL.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_string(w.name()),
            json_string(w.why())
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e = end_to_end();
    for (i, m) in e2e.iter().enumerate() {
        let comma = if i + 1 < e2e.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            json_string(&m.name),
            json_string(m.unit),
            json_string(m.better.as_str()),
            m.bound.expect("an end-to-end metric has a bound")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            json_string(&m.name),
            json_string(m.unit),
            json_string(m.better.as_str())
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_fit_the_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        assert!(e2e
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|m| m.name.as_str()).collect();
        for w in Workload::ALL {
            names.push(w.name());
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        for m in e2e.iter().chain(&layers) {
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
    }

    #[test]
    fn the_file_at_the_root_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, benchmark_json(crate::report::RUN_SECONDS));
    }

    #[test]
    fn a_result_never_carries_a_hole() {
        let catalogue = vec![metric("a", "us", Better::Lower, None)];
        let mut values = Values::new();
        assert!(metrics_json(&catalogue, &values).is_err());
        values.insert("a".into(), f64::NAN);
        assert!(metrics_json(&catalogue, &values).is_err());
        values.insert("a".into(), 1.5);
        assert_eq!(
            metrics_json(&catalogue, &values).unwrap(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"us\"}}"
        );
    }
}

//! Every workload end to end on inputs a test can afford: the same code as
//! the benchmark, `auction(100)` documents and a fifth of a second.

use sedna_e2e::metrics;
use sedna_e2e::report::{result_line, run_timed, run_traced};
use sedna_e2e::workload::{Scale, Workload};

#[test]
fn every_workload_reports_every_metric() {
    let scale = Scale::smoke();
    for w in Workload::ALL {
        let timed = run_timed(w, 7, 0.2, &scale).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(
            timed.run.correct(),
            "{}: {:?}",
            w.name(),
            timed.run.gate_failures
        );
        assert!(timed.run.attempted() > 0, "{}", w.name());
        assert_eq!(timed.run.failed(), 0, "{}", w.name());
        // A missing or non-finite metric makes the result line an error.
        let line = result_line(
            true,
            timed.run.attempted(),
            0,
            &metrics::end_to_end(),
            &timed.values,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        for m in metrics::end_to_end() {
            assert!(timed.values[&m.name] > 0.0, "{} {}", w.name(), m.name);
        }

        let traced = run_traced(w, 7, &scale).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(traced.correct(), "{}: {:?}", w.name(), traced.gate_failures);
        assert_eq!(traced.statements, scale.traced_stmts as u64);
        result_line(
            true,
            traced.statements,
            0,
            &metrics::per_layer(),
            &traced.values,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let layer = |name: &str| traced.values[name];
        if w.writes() {
            assert!(layer("wal.fsyncs_per_commit") > 0.0, "{}", w.name());
            assert!(layer("wal.recovery_mib_s") > 0.0, "{}", w.name());
        } else {
            assert_eq!(layer("wal.appends_total"), 0.0, "{}", w.name());
            assert_eq!(layer("txn.update_begins_total"), 0.0, "{}", w.name());
        }
        if w == Workload::ReadWire {
            assert!(layer("net.round_trips_per_stmt") >= 2.0);
        } else {
            assert_eq!(layer("net.round_trips_per_stmt"), 0.0, "{}", w.name());
        }
    }
}

#[test]
fn the_same_seed_traces_the_same_replies() {
    let scale = Scale::smoke();
    let digest = |w| run_traced(w, 3, &scale).unwrap().values["bench.reply_digest_low32"];
    let embedded = digest(Workload::ReadEmbedded);
    assert_eq!(embedded, digest(Workload::ReadEmbedded));
    assert_eq!(embedded, digest(Workload::ReadWire));
}

//! Bench-side spans for the traced run: one around each call into a layer's
//! public function, kept in memory and written out as Chrome-trace JSON when
//! the run ends. Spans inside the engine are a later change.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::gen::Class;
use crate::stats::Summary;

pub const STMT: &str = "stmt";
pub const CORE_OPEN: &str = "core.open";
pub const XQUERY_FIRST_PULL: &str = "xquery.first_pull";
pub const XQUERY_PULL: &str = "xquery.pull";
pub const CORE_FINISH: &str = "core.finish";
pub const NET_EXECUTE_RTT: &str = "net.execute_rtt";
pub const NET_FETCH_RTT: &str = "net.fetch_rtt";
pub const CORE_BEGIN_UPDATE: &str = "core.begin_update";
pub const CORE_UPDATE_EXEC: &str = "core.update_exec";
pub const CORE_COMMIT: &str = "core.commit";

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a statement.
    pub parent: Option<u32>,
    /// Shared by every span of one statement.
    pub stmt: u32,
    pub class: Class,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct Open(u32);

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stmts: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stmts: 0,
        }
    }
}

impl Tracer {
    /// Nanoseconds on the trace's own clock.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a closed span from readings of [`Tracer::now`], for phases
    /// whose boundary is only known once a call has returned.
    pub fn add(&mut self, name: &'static str, parent: Open, start_ns: u64, end_ns: u64) {
        let open = self.begin(name, parent);
        let span = &mut self.spans[open.0 as usize];
        (span.start_ns, span.end_ns) = (start_ns, end_ns);
    }

    /// Opens the root span of the next statement.
    pub fn begin_stmt(&mut self, class: Class) -> Open {
        let stmt = self.stmts;
        self.stmts += 1;
        self.push(STMT, None, stmt, class)
    }

    /// Opens a span caused by `parent`.
    pub fn begin(&mut self, name: &'static str, parent: Open) -> Open {
        let p = self.spans[parent.0 as usize];
        self.push(name, Some(parent.0), p.stmt, p.class)
    }

    fn push(&mut self, name: &'static str, parent: Option<u32>, stmt: u32, class: Class) -> Open {
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            stmt,
            class,
        });
        Open(self.spans.len() as u32 - 1)
    }

    pub fn end(&mut self, open: Open) {
        self.spans[open.0 as usize].end_ns = self.now();
    }

    pub fn statements(&self) -> u32 {
        self.stmts
    }

    /// Durations of every span called `name`, optionally of one class.
    pub fn durations(&self, name: &str, class: Option<Class>) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && class.is_none_or(|c| s.class == c))
            .map(Span::ns)
            .collect()
    }

    pub fn summary(&self, name: &str, class: Option<Class>) -> Summary {
        Summary::of(&mut self.durations(name, class))
    }

    /// Per statement, nanoseconds from the statement's start to the end of
    /// its first span called one of `names`.
    pub fn time_to_first(&self, names: &[&str], class: Class) -> Vec<u64> {
        let mut firsts: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.class == class && names.contains(&s.name) {
                if let Some(p) = s.parent {
                    firsts
                        .entry(s.stmt)
                        .or_insert(s.end_ns - self.spans[p as usize].start_ns);
                }
            }
        }
        firsts.into_values().collect()
    }

    /// Mean time per statement in each layer: a span's self time is its
    /// duration minus its children's, and a statement's own self time is the
    /// part of it no layer's span covers.
    pub fn layer_table(&self) -> LayerTable {
        let mut total: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.ns();
            }
        }
        for (s, children) in self.spans.iter().zip(&child_ns) {
            *total.entry(s.name).or_default() += s.ns().saturating_sub(*children);
        }
        let per_stmt = |ns: u64| ns as f64 / 1_000.0 / f64::from(self.stmts.max(1));
        let unattributed_us = per_stmt(total.remove(STMT).unwrap_or(0));
        let rows: Vec<(&'static str, f64)> =
            total.into_iter().map(|(n, ns)| (n, per_stmt(ns))).collect();
        let stmt_us = per_stmt(self.durations(STMT, None).iter().sum());
        LayerTable {
            rows,
            unattributed_us,
            stmt_us,
        }
    }

    /// The spans as a Chrome-trace document (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"stmt\":{},\"span\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.class.name(),
                s.start_ns as f64 / 1_000.0,
                s.ns() as f64 / 1_000.0,
                s.stmt,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Mean microseconds per statement by span name, and what is left over.
#[derive(Clone, Debug)]
pub struct LayerTable {
    pub rows: Vec<(&'static str, f64)>,
    /// Statement time under no layer's span: the benchmark's own bookkeeping
    /// between calls.
    pub unattributed_us: f64,
    pub stmt_us: f64,
}

impl LayerTable {
    /// Share of statement time the layers' spans account for.
    pub fn covered(&self) -> f64 {
        if self.stmt_us == 0.0 {
            return 0.0;
        }
        self.rows.iter().map(|(_, us)| us).sum::<f64>() / self.stmt_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_a_span_minus_its_children() {
        let mut t = Tracer::default();
        let span = |name, start_ns, end_ns, parent, stmt| Span {
            name,
            start_ns,
            end_ns,
            parent,
            stmt,
            class: Class::QScan,
        };
        t.stmts = 2;
        t.spans = vec![
            span(STMT, 0, 1_000, None, 0),
            span(NET_EXECUTE_RTT, 100, 400, Some(0), 0),
            span(NET_FETCH_RTT, 400, 900, Some(0), 0),
            span(STMT, 1_000, 3_000, None, 1),
            span(NET_EXECUTE_RTT, 1_000, 2_800, Some(3), 1),
        ];
        let table = t.layer_table();
        assert_eq!(
            table.rows,
            vec![(NET_EXECUTE_RTT, 1.05), (NET_FETCH_RTT, 0.25)]
        );
        assert_eq!(table.unattributed_us, 0.2);
        assert_eq!(table.stmt_us, 1.5);
        assert!((table.covered() - 1.3 / 1.5).abs() < 1e-12);
        assert_eq!(
            t.time_to_first(&[NET_FETCH_RTT, NET_EXECUTE_RTT], Class::QScan),
            vec![400, 1_800]
        );
        assert!(t.chrome_json().contains("\"name\":\"net.fetch_rtt\""));
    }
}

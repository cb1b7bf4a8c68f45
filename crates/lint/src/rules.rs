//! The lint rules. Each rule is a pure function over scanned sources so
//! the self-tests (below and `--self-test`) can feed it seeded
//! violations without touching the filesystem.
//!
//! ## Rule catalogue
//!
//! * **R1** — crates refactored onto the `sedna-sync` shim (`obs`,
//!   `sas`, `core`) must not import `std::sync` directly: a `std`
//!   `Mutex` or atomic would silently bypass the loom scheduler and the
//!   model checks would no longer cover the code that actually runs.
//! * **R2** — no `unwrap()`/`expect()` and no explicit panic macros
//!   (`panic!`, `unreachable!`, `todo!`, `unimplemented!`) in the
//!   `sedna-net` request path: a panic in a worker kills the connection
//!   *and* poisons shared state, and a panic on the event thread takes
//!   every connection with it; request handling must keep its matches
//!   total and return protocol errors instead. Covers all of
//!   `crates/net/src` — server, event loop, connection state, poller.
//!   Test code (`#[cfg(test)]` blocks) is exempt.
//! * **R3** — every `Ordering::Relaxed` carries a `// relaxed:`
//!   justification within the preceding four lines: relaxed atomics are
//!   the one place the type system cannot say *why* the ordering is
//!   sound, and the loom models only explore sequentially consistent
//!   executions, so the argument must live next to the code.
//! * **R4** — metric names drift-checked **bidirectionally** against
//!   `docs/metrics.md`: every `sedna_*` name a crate registers must be
//!   documented, and every documented name must still exist in code.
//!   `{i}`-style format placeholders and `<i>`-style doc placeholders
//!   both normalize to a wildcard.
//! * **R5** — trace event names drift-checked **bidirectionally**
//!   against `docs/tracing.md`: every dotted event name the obs crate
//!   defines (`query.statement`, `cursor.pull`, …) must appear in the
//!   catalogue, and every documented event must still exist in code —
//!   a trace consumer keys on these strings exactly as a Prometheus
//!   scraper keys on metric names.
//! * **R6** (`no-registry-deps`) — the root `Cargo.toml` and every
//!   `crates/*/Cargo.toml` name only `path` dependencies or
//!   `workspace = true` references to them: the workspace builds and
//!   tests offline with nothing but the toolchain. The benchmark package
//!   under `e2e/` is outside its scope.
//!
//! ## Escape hatch
//!
//! A finding on a line whose own or preceding line carries a comment
//! `lint: allow(R<n>)` is suppressed. Use sparingly and say why, e.g.
//! `// lint: allow(R2): startup path, a panic here aborts boot anyway`.

use crate::scanner::Line;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// True when the finding at `idx` (0-based) is waved through by a
/// `lint: allow(<rule>)` comment on the same or the preceding line.
fn allowed(lines: &[Line], idx: usize, rule: &str) -> bool {
    let needle = format!("lint: allow({rule})");
    let check = |i: usize| lines[i].comments.iter().any(|c| c.contains(&needle));
    check(idx) || (idx > 0 && check(idx - 1))
}

/// Crates whose lock-free protocols are modelled under loom: direct
/// `std::sync` imports there bypass the shim.
const R1_SHIMMED: &[&str] = &["crates/obs/src", "crates/sas/src", "crates/core/src"];

pub fn r1_no_std_sync(path: &str, lines: &[Line]) -> Vec<Finding> {
    if !R1_SHIMMED.iter().any(|p| path.starts_with(p)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        if l.code.contains("std::sync") && !allowed(lines, i, "R1") {
            out.push(Finding {
                file: path.to_string(),
                line: i + 1,
                rule: "R1",
                msg: "direct std::sync use in a shimmed crate; import from \
                      sedna_sync so loom models cover this code"
                    .into(),
            });
        }
    }
    out
}

/// Lines covered by a `#[cfg(test)]` item (attribute line through the
/// close of its brace-balanced block).
fn cfg_test_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].code.contains("#[cfg(test)]") {
            let mut depth: i64 = 0;
            let mut entered = false;
            let mut j = i;
            while j < lines.len() {
                mask[j] = true;
                for ch in lines[j].code.chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            entered = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if entered && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Explicit-panic macros R2 also bans on the request path: the event
/// thread owns every connection, so one panic takes the server down.
const R2_PANIC_MACROS: [&str; 4] = ["panic!(", "unreachable!(", "todo!(", "unimplemented!("];

pub fn r2_no_unwrap_in_net(path: &str, lines: &[Line]) -> Vec<Finding> {
    if !path.starts_with("crates/net/src") {
        return Vec::new();
    }
    let mask = cfg_test_mask(lines);
    let mut out = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        if mask[i] || allowed(lines, i, "R2") {
            continue;
        }
        if l.code.contains(".unwrap()") || l.code.contains(".expect(") {
            out.push(Finding {
                file: path.to_string(),
                line: i + 1,
                rule: "R2",
                msg: "unwrap()/expect() on the request path; a worker panic \
                      drops the connection and poisons shared state — return \
                      a protocol error instead"
                    .into(),
            });
        } else if R2_PANIC_MACROS.iter().any(|m| l.code.contains(m)) {
            out.push(Finding {
                file: path.to_string(),
                line: i + 1,
                rule: "R2",
                msg: "panic!/unreachable!/todo!/unimplemented! on the request \
                      path; keep matches total and return a protocol error \
                      instead of aborting the serving thread"
                    .into(),
            });
        }
    }
    out
}

pub fn r3_relaxed_justified(path: &str, lines: &[Line]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        if !l.code.contains("Relaxed") || allowed(lines, i, "R3") {
            continue;
        }
        let justified = lines[i.saturating_sub(4)..=i]
            .iter()
            .any(|c| c.comments.iter().any(|t| t.contains("relaxed:")));
        if !justified {
            out.push(Finding {
                file: path.to_string(),
                line: i + 1,
                rule: "R3",
                msg: "Ordering::Relaxed without a `// relaxed:` justification \
                      within the preceding 4 lines"
                    .into(),
            });
        }
    }
    out
}

/// Extracts `sedna_*` metric-name tokens from one text blob.
///
/// `{i}` format placeholders, `<i>` doc placeholders and literal `*`
/// family wildcards (prose like "the `sedna_net_*` family") stay part
/// of the token. A match preceded by `{` or an identifier character is
/// a format-string variable capture (`"{sedna_t:?}"`), not a metric
/// name; tokens with unbalanced placeholder braces (a Prometheus label
/// sample like `…_bucket{le=` cut mid-brace) are dropped too.
pub fn metric_names(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let pat: Vec<char> = "sedna_".chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i + pat.len() <= chars.len() {
        if chars[i..i + pat.len()] == pat[..] {
            let preceded = i > 0
                && (chars[i - 1] == '{'
                    || chars[i - 1] == '_'
                    || chars[i - 1].is_ascii_alphanumeric());
            let mut j = i;
            while j < chars.len()
                && (chars[j].is_ascii_alphanumeric()
                    || matches!(chars[j], '_' | '{' | '}' | '<' | '>' | '*'))
            {
                j += 1;
            }
            let name: String = chars[i..j].iter().collect();
            // Require a real suffix beyond the prefix, and strip a
            // trailing `_` (a bare format prefix like "sedna_wal_").
            let name = name.trim_end_matches('_').to_string();
            let balanced = name.matches('{').count() == name.matches('}').count()
                && name.matches('<').count() == name.matches('>').count();
            if !preceded && name.len() > "sedna_".len() && balanced {
                out.push(name);
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// Normalizes `{i}` / `<i>` placeholder spans to a `*` wildcard.
pub fn normalize(name: &str) -> String {
    let mut out = String::new();
    let mut it = name.chars().peekable();
    while let Some(c) = it.next() {
        match c {
            '{' => {
                for d in it.by_ref() {
                    if d == '}' {
                        break;
                    }
                }
                out.push('*');
            }
            '<' => {
                for d in it.by_ref() {
                    if d == '>' {
                        break;
                    }
                }
                out.push('*');
            }
            _ => out.push(c),
        }
    }
    out
}

/// True when `name` is covered by `pattern` (`*` matches one or more
/// name characters). Both sides may carry wildcards; two wildcarded
/// names match when their patterns are identical.
pub fn covers(pattern: &str, name: &str) -> bool {
    if pattern == name {
        return true;
    }
    if name.contains('*') {
        return false; // two distinct wildcard shapes never merge
    }
    // Greedy segment match over the literal pieces between wildcards.
    let segs: Vec<&str> = pattern.split('*').collect();
    if segs.len() == 1 {
        return false;
    }
    let mut rest = name;
    for (k, seg) in segs.iter().enumerate() {
        if k == 0 {
            match rest.strip_prefix(seg) {
                Some(r) => rest = r,
                None => return false,
            }
        } else if k == segs.len() - 1 {
            // The final segment must terminate the name, with at least
            // one wildcard-consumed character before it.
            return rest.len() > seg.len() && rest.ends_with(seg);
        } else {
            match rest.find(seg) {
                Some(p) if p > 0 => rest = &rest[p + seg.len()..],
                _ => return false,
            }
        }
    }
    // Pattern ended with '*': it must consume at least one character.
    !rest.is_empty()
}

/// R4: bidirectional drift between registered metric names and the
/// catalogue in `docs/metrics.md`.
pub fn r4_metric_drift(code_names: &[(String, String)], doc_text: &str) -> Vec<Finding> {
    let docs: Vec<String> = {
        let mut v: Vec<String> = metric_names(doc_text)
            .iter()
            .map(|n| normalize(n))
            .collect();
        v.sort();
        v.dedup();
        v
    };
    let mut out = Vec::new();
    for (file, raw) in code_names {
        let name = normalize(raw);
        if !docs.iter().any(|d| covers(d, &name) || covers(&name, d)) {
            out.push(Finding {
                file: file.clone(),
                line: 0,
                rule: "R4",
                msg: format!("metric `{raw}` is registered here but missing from docs/metrics.md"),
            });
        }
    }
    let code_norm: Vec<String> = code_names.iter().map(|(_, n)| normalize(n)).collect();
    for d in &docs {
        if !code_norm.iter().any(|c| covers(d, c) || covers(c, d)) {
            out.push(Finding {
                file: "docs/metrics.md".into(),
                line: 0,
                rule: "R4",
                msg: format!("metric `{d}` is documented but no longer registered by any crate"),
            });
        }
    }
    out
}

/// True when `s` has the shape of a trace event name: two or more
/// dot-separated segments of lowercase identifiers.
pub fn is_event_name(s: &str) -> bool {
    let segs: Vec<&str> = s.split('.').collect();
    segs.len() >= 2
        && segs.iter().all(|seg| {
            seg.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// Extracts the event-name catalogue from `docs/tracing.md`: backticked
/// spans that look like event names.
pub fn doc_event_names(text: &str) -> Vec<String> {
    let mut out: Vec<String> = text
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|s| is_event_name(s))
        .map(str::to_string)
        .collect();
    out.sort();
    out.dedup();
    out
}

/// R5: bidirectional drift between the trace event names defined in
/// `crates/obs` and the catalogue in `docs/tracing.md`.
pub fn r5_trace_event_drift(code_names: &[(String, String)], doc_text: &str) -> Vec<Finding> {
    let docs = doc_event_names(doc_text);
    let mut out = Vec::new();
    for (file, name) in code_names {
        if !docs.iter().any(|d| d == name) {
            out.push(Finding {
                file: file.clone(),
                line: 0,
                rule: "R5",
                msg: format!(
                    "trace event `{name}` is emitted here but missing from docs/tracing.md"
                ),
            });
        }
    }
    for d in &docs {
        if !code_names.iter().any(|(_, c)| c == d) {
            out.push(Finding {
                file: "docs/tracing.md".into(),
                line: 0,
                rule: "R5",
                msg: format!("trace event `{d}` is documented but no longer defined in crates/obs"),
            });
        }
    }
    out
}

/// True when a manifest entry (an inline value or a line of a
/// `[dependencies.<name>]` table) makes the dependency local: it names a
/// `path`, or defers to the workspace with `workspace = true`.
fn is_local_dep(text: &str) -> bool {
    let t: String = text.chars().filter(|c| !c.is_whitespace()).collect();
    t.contains("path=") || t.contains("workspace=true")
}

/// R6: every entry of a manifest's `[dependencies]`,
/// `[dev-dependencies]`, `[build-dependencies]` or
/// `[workspace.dependencies]` is a `path` dependency or a
/// `workspace = true` reference (the workspace table is held to the same
/// rule, so a reference resolves to a path).
pub fn r6_no_registry_deps(path: &str, manifest: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut flag = |line: usize, name: &str| {
        out.push(Finding {
            file: path.to_string(),
            line,
            rule: "R6",
            msg: format!(
                "`{name}` is a registry dependency; the workspace builds offline from \
                 path dependencies only"
            ),
        })
    };
    let mut in_deps = false;
    // An open `[dependencies.<name>]` table: header line, name, local yet.
    let mut table: Option<(usize, String, bool)> = None;
    for (i, raw) in manifest.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or_default().trim();
        if let Some(header) = line.strip_prefix('[') {
            if let Some((at, name, false)) = table.take() {
                flag(at, &name);
            }
            let section = header.trim_end_matches(']').trim();
            in_deps = section.ends_with("dependencies");
            if let Some((prefix, name)) = section.rsplit_once('.') {
                if prefix.ends_with("dependencies") {
                    table = Some((i + 1, name.to_string(), false));
                }
            }
            continue;
        }
        if let Some((_, _, local)) = table.as_mut() {
            *local |= is_local_dep(line);
            continue;
        }
        // `name = ...`, or the dotted `name.workspace = true`.
        match line.split_once(['=', '.']) {
            Some((name, _)) if in_deps && !is_local_dep(line) => flag(i + 1, name.trim()),
            _ => {}
        }
    }
    if let Some((at, name, false)) = table {
        flag(at, &name);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    #[test]
    fn r6_flags_registry_deps_and_passes_local_ones() {
        let bad = "[package]\nname = \"x\"\n\n[dependencies]\nrand = \"0.8\"\n\
                   local = { path = \"../local\" }\n\n[dev-dependencies]\n\
                   proptest = { version = \"1\", features = [\"std\"] }\n\n\
                   [workspace.dependencies]\nlibc = \"0.2\"\n\n\
                   [dependencies.criterion]\nversion = \"0.5\"\n";
        let found = r6_no_registry_deps("Cargo.toml", bad);
        let lines: Vec<usize> = found.iter().map(|f| f.line).collect();
        assert_eq!(lines, [5, 9, 12, 14], "rand, proptest, libc, criterion");
        assert!(found[3]
            .msg
            .starts_with("`criterion` is a registry dependency"));
        let good = "[package]\nversion = \"0.1.0\" # not a dependency\n\n\
                    [dependencies]\nsedna.workspace = true\n\
                    sedna-obs = { workspace = true }\nlocal = { path = \"../x\", version = \"0.1\" }\n\n\
                    [dev-dependencies.sedna-workload]\npath = \"../workload\"\n\n\
                    [workspace.dependencies]\nsedna-sync = { path = \"crates/sync\" }\n\n\
                    [[bench]]\nname = \"ablations\"\nharness = false\n";
        assert!(r6_no_registry_deps("Cargo.toml", good).is_empty());
    }

    #[test]
    fn r1_flags_std_sync_in_shimmed_crates_only() {
        let bad = scan("use std::sync::atomic::AtomicU64;\n");
        assert_eq!(r1_no_std_sync("crates/sas/src/buffer.rs", &bad).len(), 1);
        assert_eq!(r1_no_std_sync("crates/obs/src/metric.rs", &bad).len(), 1);
        assert_eq!(r1_no_std_sync("crates/core/src/database.rs", &bad).len(), 1);
        // Unshimmed crates and the shim itself may use std::sync.
        assert!(r1_no_std_sync("crates/net/src/server.rs", &bad).is_empty());
        assert!(r1_no_std_sync("crates/sync/src/atomic.rs", &bad).is_empty());
        let good = scan("use sedna_sync::atomic::AtomicU64;\n");
        assert!(r1_no_std_sync("crates/sas/src/buffer.rs", &good).is_empty());
        // A mention in a comment is prose, not an import.
        let prose = scan("// replaces std::sync under loom\nuse sedna_sync::Arc;\n");
        assert!(r1_no_std_sync("crates/sas/src/vas.rs", &prose).is_empty());
    }

    #[test]
    fn r2_flags_unwrap_outside_tests() {
        let bad = scan("fn handle() {\n    let v = rx.lock().expect(\"poisoned\");\n}\n");
        let f = r2_no_unwrap_in_net("crates/net/src/server.rs", &bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
        // The same code inside #[cfg(test)] is exempt.
        let test = scan("#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn real() {}\n");
        assert!(r2_no_unwrap_in_net("crates/net/src/server.rs", &test).is_empty());
        // Other crates are out of scope.
        assert!(r2_no_unwrap_in_net("crates/wal/src/lib.rs", &bad).is_empty());
    }

    #[test]
    fn r2_flags_explicit_panic_macros() {
        for snippet in [
            "fn f() { panic!(\"boom\"); }\n",
            "fn f() { unreachable!() }\n",
            "fn f() { todo!(\"later\") }\n",
            "fn f() { unimplemented!() }\n",
        ] {
            let lines = scan(snippet);
            let f = r2_no_unwrap_in_net("crates/net/src/poller.rs", &lines);
            assert_eq!(f.len(), 1, "expected one finding for {snippet:?}");
            assert_eq!(f[0].line, 1);
        }
        // #[cfg(test)] blocks and other crates stay exempt.
        let test = scan("#[cfg(test)]\nmod tests {\n    fn t() { panic!(\"x\"); }\n}\n");
        assert!(r2_no_unwrap_in_net("crates/net/src/conn.rs", &test).is_empty());
        let bad = scan("fn f() { unreachable!() }\n");
        assert!(r2_no_unwrap_in_net("crates/core/src/lib.rs", &bad).is_empty());
    }

    #[test]
    fn r3_requires_nearby_justification() {
        let bad = scan("let x = a.load(Ordering::Relaxed);\n");
        assert_eq!(r3_relaxed_justified("crates/x/src/lib.rs", &bad).len(), 1);
        let good = scan("// relaxed: heuristic only.\nlet x = a.load(Ordering::Relaxed);\n");
        assert!(r3_relaxed_justified("crates/x/src/lib.rs", &good).is_empty());
        let far = scan("// relaxed: too far away.\n\n\n\n\nlet x = a.load(Ordering::Relaxed);\n");
        assert_eq!(r3_relaxed_justified("crates/x/src/lib.rs", &far).len(), 1);
        // Same-line trailing comment counts.
        let inline = scan("a.store(1, Ordering::Relaxed); // relaxed: tally.\n");
        assert!(r3_relaxed_justified("crates/x/src/lib.rs", &inline).is_empty());
    }

    #[test]
    fn escape_hatch_suppresses_by_rule() {
        let hatched = scan(
            "// lint: allow(R3): measured, contended counter.\nlet x = a.load(Ordering::Relaxed);\n",
        );
        assert!(r3_relaxed_justified("crates/x/src/lib.rs", &hatched).is_empty());
        // The hatch names a rule; a different rule still fires.
        let wrong = scan("// lint: allow(R2)\nuse std::sync::Mutex;\n");
        assert_eq!(r1_no_std_sync("crates/sas/src/buffer.rs", &wrong).len(), 1);
    }

    #[test]
    fn r4_catches_both_drift_directions() {
        let doc = "| `sedna_buffer_hits_total` | counter |\n\
                   | `sedna_worker_<i>_busy` | gauge |\n\
                   | `sedna_wal_ghost_total` | counter |\n";
        let code = vec![
            ("a.rs".to_string(), "sedna_buffer_hits_total".to_string()),
            ("a.rs".to_string(), "sedna_worker_{i}_busy".to_string()),
            ("b.rs".to_string(), "sedna_undocumented_total".to_string()),
        ];
        let f = r4_metric_drift(&code, doc);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f
            .iter()
            .any(|x| x.msg.contains("sedna_undocumented_total")
                && x.msg.contains("missing from docs")));
        assert!(f
            .iter()
            .any(|x| x.msg.contains("sedna_wal_ghost_total")
                && x.msg.contains("no longer registered")));
    }

    #[test]
    fn r5_catches_both_drift_directions() {
        let doc = "| `query.statement` | root span |\n| `span.ghost` | gone |\n";
        let code = vec![
            ("trace.rs".to_string(), "query.statement".to_string()),
            ("trace.rs".to_string(), "span.undocumented".to_string()),
        ];
        let f = r5_trace_event_drift(&code, doc);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f
            .iter()
            .any(|x| x.msg.contains("span.undocumented") && x.msg.contains("missing from docs")));
        assert!(f
            .iter()
            .any(|x| x.msg.contains("span.ghost") && x.msg.contains("no longer defined")));
    }

    #[test]
    fn event_name_shapes() {
        assert!(is_event_name("query.statement"));
        assert!(is_event_name("cursor.pull"));
        assert!(is_event_name("a.b.c_2"));
        assert!(!is_event_name("traceEvents"), "camelCase is not an event");
        assert!(!is_event_name("query."));
        assert!(!is_event_name(".pull"));
        assert!(!is_event_name("3.14"), "numbers are not events");
        assert!(!is_event_name("query statement.x"));
        // Doc extraction only trusts backticked spans.
        let names = doc_event_names("see `query.parse` and `cursor.open`; v1.2 is prose");
        assert_eq!(names, vec!["cursor.open", "query.parse"]);
    }

    #[test]
    fn wildcard_covering() {
        assert!(covers("sedna_worker_*_busy", "sedna_worker_3_busy"));
        assert!(covers("sedna_worker_*_busy", "sedna_worker_*_busy"));
        assert!(!covers("sedna_worker_*_busy", "sedna_worker__busy"));
        assert!(!covers("sedna_a_*_total", "sedna_b_1_total"));
        assert!(!covers("sedna_exact", "sedna_exact_longer"));
    }

    #[test]
    fn metric_name_extraction() {
        assert_eq!(
            metric_names("reg(\"sedna_x_total\") and `sedna_worker_{i}_y`"),
            vec!["sedna_x_total", "sedna_worker_{i}_y"]
        );
        // Bare prefixes (format-string stems) are dropped.
        assert!(metric_names("\"sedna_\"").is_empty());
    }
}

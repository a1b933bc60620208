//! Experiment harness shared by the `exp_*` binaries: table formatting,
//! exponent fitting, the workload builders every experiment in the
//! OPERATIONS.md experiment table uses, and the one `--json` line writer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod serve;
pub mod tables;
pub mod workloads;

pub use serve::serve_query_stream;
pub use tables::{fit_exponent, Table};
pub use workloads::*;

/// Whether the current experiment binary runs in tiny-input mode, i.e.
/// `--tiny` was passed on the command line. CI's `examples-smoke` job
/// runs every `exp_*` binary this way so the experiment code cannot
/// bit-rot without ever being executed.
pub fn tiny_mode() -> bool {
    std::env::args().any(|a| a == "--tiny")
}

/// Picks the tiny or the full variant of a workload knob, per
/// [`tiny_mode`].
pub fn tiny_or<T>(tiny: T, full: T) -> T {
    if tiny_mode() {
        tiny
    } else {
        full
    }
}

/// Appends one `{"name": …, "median_s": …}` line to the `--json` file of
/// an `exp_*` binary (the CI smoke jobs upload these files as artifacts).
/// `None` means `--json` was not given and nothing is written; an I/O
/// error is reported on stderr and the experiment carries on, since the
/// file is a by-product and the exit code belongs to the correctness
/// checks.
pub fn emit_json(path: &Option<String>, name: &str, seconds: f64) {
    emit_json_counts(path, name, seconds, &[]);
}

/// [`emit_json`] with named integer counts after `median_s` on the same
/// line (`{"name": …, "median_s": …, "checked": 16, …}`).
pub fn emit_json_counts(path: &Option<String>, name: &str, seconds: f64, counts: &[(&str, usize)]) {
    use std::io::Write;
    let Some(path) = path else { return };
    let mut line = format!("{{\"name\": \"{name}\", \"median_s\": {seconds:e}");
    for (key, count) in counts {
        line.push_str(&format!(", \"{key}\": {count}"));
    }
    line.push_str("}\n");
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = written {
        eprintln!("emit_json: cannot append to {path}: {e}");
    }
}

/// "1m", "100k", "20k" — compact edge-target label for `--json` names.
pub fn edge_label(edges: usize) -> String {
    if edges % 1_000_000 == 0 && edges > 0 {
        format!("{}m", edges / 1_000_000)
    } else if edges % 1_000 == 0 && edges > 0 {
        format!("{}k", edges / 1_000)
    } else {
        edges.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_json_appends_one_line_per_call_in_order() {
        emit_json(&None, "never/written", 1.0);

        let dir = storage::test_dir("emit-json");
        let file = dir.join("out.jsonl");
        let path = Some(file.to_string_lossy().into_owned());
        emit_json(&path, "serve/20k/build", 0.25);
        emit_json(&path, "serve/20k/freeze", 3e-4);
        emit_json_counts(
            &path,
            "churn/1m/sweep/s4/c0",
            0.25,
            &[("broken", 1), ("split", 3)],
        );

        let text = std::fs::read_to_string(&file).expect("three calls created the file");
        let mut lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.pop(),
            Some(
                r#"{"name": "churn/1m/sweep/s4/c0", "median_s": 2.5e-1, "broken": 1, "split": 3}"#
            )
        );
        assert_eq!(lines.len(), 2, "{text:?}");
        for (line, name) in lines.iter().zip(["serve/20k/build", "serve/20k/freeze"]) {
            let (head, value) = line
                .strip_suffix('}')
                .and_then(|l| l.split_once("\", \"median_s\": "))
                .unwrap_or_else(|| panic!("unexpected line shape: {line}"));
            assert_eq!(head, format!("{{\"name\": \"{name}"));
            let median_s: f64 = value.parse().expect("median_s is a number");
            assert!(median_s.is_finite(), "{line}");
        }
        std::fs::remove_dir_all(&dir).expect("remove test dir");
    }
}

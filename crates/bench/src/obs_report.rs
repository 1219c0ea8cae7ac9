//! Per-phase metrics attribution for the figure binaries.
//!
//! The obs registry is process-global, so a binary that wants to report
//! "what did phase X cost" brackets each phase with [`phase`]: reset the
//! registry, run the phase, snapshot. The snapshots are then written
//! next to the figure's table by [`write_phases`] as a single JSON
//! object keyed by phase name, the shape DESIGN.md §9 documents and the
//! CI schema check validates.
//!
//! With the `obs` feature off every snapshot is empty but the file is
//! still written (valid JSON, all-empty sections), so downstream
//! scripts never have to special-case disabled builds.

use snod_obs::MetricsSnapshot;

/// Runs `f` against a zeroed metrics registry and returns its result
/// together with everything the phase recorded.
///
/// Phases must not overlap (the registry is global); run them back to
/// back. Wall-clock span histograms recorded inside `f` are attributed
/// to this phase only.
pub fn phase<R>(f: impl FnOnce() -> R) -> (R, MetricsSnapshot) {
    snod_obs::reset();
    let out = f();
    (out, snod_obs::snapshot())
}

/// Serialises named phase snapshots as one JSON object
/// (`{"<phase>": <MetricsSnapshot>, ...}`) to `path`.
pub fn write_phases(path: &str, phases: &[(String, MetricsSnapshot)]) -> std::io::Result<()> {
    let mut out = String::from("{");
    for (i, (name, snap)) in phases.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let esc = name.replace('\\', "\\\\").replace('"', "\\\"");
        out.push_str(&format!("{sep}\n\"{esc}\": "));
        // MetricsSnapshot::to_json ends with a newline; trim so the
        // enclosing object stays tidy.
        out.push_str(snap.to_json().trim_end());
    }
    out.push_str("\n}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_file_is_well_formed() {
        let (value, snap) = phase(|| {
            snod_obs::counter!("bench.obs_report.test").add(3);
            41 + 1
        });
        assert_eq!(value, 42);
        if snod_obs::enabled() {
            assert_eq!(snap.counter("bench.obs_report.test"), Some(3));
        }
        let path = std::env::temp_dir().join("snod_obs_report_test.json");
        let path = path.to_string_lossy().into_owned();
        write_phases(
            &path,
            &[("warm".into(), snap.clone()), ("hot".into(), snap)],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("\"warm\"") && text.contains("\"hot\""),
            "{text}"
        );
        assert!(text.trim_start().starts_with('{') && text.trim_end().ends_with('}'));
        std::fs::remove_file(&path).ok();
    }
}

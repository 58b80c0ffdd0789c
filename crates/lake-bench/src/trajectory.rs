//! Dated benchmark trajectory: `BENCH_discovery.json` as append-only
//! history.
//!
//! Only a wall-clock series is worth a trajectory — a seed-pure report
//! is the same on every run, and a test asserts it instead. [`record`]
//! keeps the artifact a canonical JSON array of `{"date", "report"}`
//! entries: one entry per day, the latest run of a day replacing that
//! day's entry, earlier days preserved verbatim, so a regression between
//! two commits leaves a trace in the artifact itself.
//!
//! The same determinism discipline as the trace/bench writers applies:
//! the array is serialized, re-parsed, and re-serialized, and the two
//! byte strings must compare equal before anything is written.
//!
//! This module is library code, so it never reads the clock ([`clock`
//! lint](../../lake-lint)): callers (bins, which may) pass unix seconds
//! to [`utc_date`] or a preformatted date to [`record`].

use lake_core::{Json, LakeError, Result};

/// Format unix seconds as a `YYYY-MM-DD` UTC civil date. Pure — the
/// caller reads the clock (bins are exempt from the clock lint; this
/// library is not).
pub fn utc_date(secs: u64) -> String {
    // Days-to-civil conversion (Gregorian, proleptic), era-based.
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Append `report` to the trajectory artifact at `path` under `date`,
/// replacing the last entry if it carries the same date. Returns the
/// number of entries in the artifact after the write.
pub fn record(path: &str, date: &str, report: &Json) -> Result<usize> {
    let mut entries = load_entries(path)?;
    let entry = Json::obj(vec![("date", Json::str(date)), ("report", report.clone())]);
    let same_day = entries
        .last()
        .and_then(|e| e.get("date"))
        .and_then(Json::as_str)
        .is_some_and(|d| d == date);
    if same_day {
        if let Some(last) = entries.last_mut() {
            *last = entry;
        }
    } else {
        entries.push(entry);
    }
    let n = entries.len();
    let text = format!("{}\n", Json::Array(entries));
    let again = format!("{}\n", lake_formats::json::parse(text.trim_end())?);
    if text != again {
        return Err(LakeError::invalid(format!(
            "trajectory for {path} does not serialize deterministically"
        )));
    }
    std::fs::write(path, &text).map_err(|e| LakeError::Io(format!("writing {path}: {e}")))?;
    Ok(n)
}

/// Read the existing artifact: an array of entries; a missing file is an
/// empty history.
fn load_entries(path: &str) -> Result<Vec<Json>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(_) => return Ok(Vec::new()),
    };
    match lake_formats::json::parse(text.trim_end())? {
        Json::Array(entries) => Ok(entries),
        other => Err(LakeError::invalid(format!(
            "trajectory artifact {path} does not hold an array: {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("lake-traj-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn utc_date_matches_known_epochs() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(86_399), "1970-01-01");
        assert_eq!(utc_date(86_400), "1970-01-02");
        // 2026-08-08T00:00:00Z.
        assert_eq!(utc_date(1_786_147_200), "2026-08-08");
        // Leap day 2024-02-29T12:00:00Z.
        assert_eq!(utc_date(1_709_208_000), "2024-02-29");
    }

    #[test]
    fn record_appends_and_replaces_same_day() {
        let path = tmp("appends.json");
        let _ = std::fs::remove_file(&path);
        let r1 = Json::obj(vec![("ok", Json::Num(1.0))]);
        assert_eq!(record(&path, "2026-08-07", &r1).unwrap(), 1);
        let r2 = Json::obj(vec![("ok", Json::Num(2.0))]);
        assert_eq!(record(&path, "2026-08-08", &r2).unwrap(), 2);
        // A rerun on the same day replaces, never duplicates.
        let r3 = Json::obj(vec![("ok", Json::Num(3.0))]);
        assert_eq!(record(&path, "2026-08-08", &r3).unwrap(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = lake_formats::json::parse(text.trim_end()).unwrap();
        let entries = parsed.as_array().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].path("report.ok").unwrap(), &Json::Num(1.0));
        assert_eq!(entries[1].path("report.ok").unwrap(), &Json::Num(3.0));
        assert!(text.ends_with('\n'));
    }
}

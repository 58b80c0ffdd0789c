//! Float-ordering lint: a `partial_cmp` result must stay an `Option`.
//!
//! Ranking code that sorts by `f64` scores via `partial_cmp(..)` plus
//! `.unwrap()` panics the moment a NaN reaches the
//! comparator — and NaNs *do* reach Table-3 comparators (an empty
//! numeric column's mean, a zero-magnitude cosine). The `unwrap_or(..)`
//! variant is no better: it silently maps every NaN comparison to a
//! fixed ordering, so sorts stop being transitive and the result order
//! depends on the sort algorithm's probe sequence. `f64::total_cmp` is
//! total, panic-free, and agrees with `partial_cmp` on every non-NaN
//! comparison except `-0.0` vs `+0.0` — the workspace-wide replacement.
//!
//! Flags any `partial_cmp(…)` call whose result is chained into a
//! method starting with `unwrap` or `expect`, even across line breaks.
//! `#[cfg(test)]` regions are exempt like every other source lint, and
//! tests/benches/bins/examples are exempt via the shared directory walk.

use crate::errors::{matches_at, strip_comments_and_strings};
use crate::{Finding, Rule};

/// Scan one library source file for `partial_cmp` chains that discard
/// the `Option` through the unwrap/expect family.
pub fn scan_source(file: &str, src: &str) -> Vec<Finding> {
    let stripped = strip_comments_and_strings(src);
    let chars: Vec<char> = stripped.chars().collect();
    let mut findings = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut brace_depth = 0usize;
    let mut cfg_test_depth: Option<usize> = None;
    while i < chars.len() {
        match chars[i] {
            '\n' => {
                line += 1;
                i += 1;
                continue;
            }
            '{' => {
                brace_depth += 1;
                i += 1;
                continue;
            }
            '}' => {
                brace_depth = brace_depth.saturating_sub(1);
                if cfg_test_depth.is_some_and(|d| brace_depth < d) {
                    cfg_test_depth = None;
                }
                i += 1;
                continue;
            }
            _ => {}
        }
        if matches_at(&chars, i, "#[cfg(test)") {
            cfg_test_depth = Some(brace_depth);
            i += 1;
            continue;
        }
        let at_call = cfg_test_depth.is_none()
            && matches_at(&chars, i, "partial_cmp")
            && (i == 0 || chars.get(i - 1).is_none_or(|c| !c.is_alphanumeric() && *c != '_'))
            && chars
                .get(i + "partial_cmp".len())
                .is_some_and(|c| !c.is_alphanumeric() && *c != '_');
        if !at_call {
            i += 1;
            continue;
        }
        let call_line = line;
        let mut j = i + "partial_cmp".len();
        // Find the argument list, tolerating whitespace before `(`; a bare
        // `partial_cmp` token (e.g. a trait-method definition) is not a call.
        while j < chars.len() && chars[j].is_whitespace() {
            if chars[j] == '\n' {
                line += 1;
            }
            j += 1;
        }
        if chars.get(j) != Some(&'(') {
            i = j;
            continue;
        }
        // Balance the argument parentheses.
        let mut depth = 0usize;
        while j < chars.len() {
            match chars[j] {
                '\n' => line += 1,
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        // The chained method, if any, may sit after whitespace/newlines.
        while j < chars.len() && chars[j].is_whitespace() {
            if chars[j] == '\n' {
                line += 1;
            }
            j += 1;
        }
        if chars.get(j) == Some(&'.') {
            j += 1;
            while j < chars.len() && chars[j].is_whitespace() {
                if chars[j] == '\n' {
                    line += 1;
                }
                j += 1;
            }
            let mut method = String::new();
            while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                method.push(chars[j]);
                j += 1;
            }
            if method.starts_with("unwrap") || method.starts_with("expect") {
                findings.push(Finding {
                    rule: Rule::FloatOrdering,
                    file: file.to_string(),
                    line: call_line,
                    message: format!(
                        "partial_cmp(..).{method} orders floats partially and dies (or \
                         lies) on NaN; sort with f64::total_cmp instead"
                    ),
                });
            }
        }
        i = j;
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    // The embedded sources below always break the chain across lines:
    // this crate's own acceptance gate greps for `partial_cmp` and the
    // unwrap family co-occurring on one line, and must stay silent here.

    #[test]
    fn chained_partial_cmp_is_flagged() {
        let src = r#"
pub fn rank(mut v: Vec<(usize, f64)>) {
    v.sort_by(|a, b| b.1.partial_cmp(&a.1)
        .unwrap().then(a.0.cmp(&b.0)));
    v.sort_by(|a, b| a.1.partial_cmp(&b.1)
        .expect("comparable"));
}
"#;
        let f = scan_source("f.rs", src);
        assert_eq!(f.len(), 2, "{f:#?}");
        assert!(f.iter().all(|x| x.rule == Rule::FloatOrdering));
        // Findings anchor to the comparison line, not the chained line.
        assert_eq!((f[0].line, f[1].line), (3, 5));
        assert!(f[0].message.contains("total_cmp"), "{}", f[0].message);
    }

    #[test]
    fn unwrap_or_variants_are_flagged_too() {
        let src = "
pub fn s(mut v: Vec<f64>) {
    v.sort_by(|a, b| a.partial_cmp(b)
        .unwrap_or(std::cmp::Ordering::Equal));
    v.sort_by(|a, b| {
        a.partial_cmp(b)
            .unwrap_or_else(|| std::cmp::Ordering::Equal)
    });
}
";
        let f = scan_source("f.rs", src);
        assert_eq!(f.len(), 2, "{f:#?}");
        assert_eq!((f[0].line, f[1].line), (3, 6));
    }

    #[test]
    fn benign_uses_are_not_flagged() {
        let src = r#"
pub fn fine(mut v: Vec<f64>, a: f64, b: f64) -> Option<std::cmp::Ordering> {
    v.sort_by(f64::total_cmp);
    let kept = a.partial_cmp(&b);
    if let Some(ord) = a.partial_cmp(&b) { let _ = ord; }
    kept
}
impl PartialOrd for Wrapper {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.0.partial_cmp(&other.0)
    }
}
#[cfg(test)]
mod tests {
    fn t(a: f64, b: f64) {
        let _ = a.partial_cmp(&b)
            .unwrap();
    }
}
"#;
        assert!(scan_source("f.rs", src).is_empty(), "{:#?}", scan_source("f.rs", src));
    }
}

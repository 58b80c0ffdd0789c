//! Error-discipline lint: public library functions must fail with
//! `lake_core::error` types, not stringly errors.
//!
//! Flags `pub fn` signatures whose return type is a `Result` with error
//! position `String` or `Box<dyn … Error …>`. The workspace-wide
//! convention is `lake_core::Result<T>` / `LakeError`, which keeps error
//! kinds matchable (`Conflict` vs `NotFound` drives retry logic in the
//! lakehouse commit path).
//!
//! Signature extraction is line-based on top of a brace-depth walk — no
//! `syn` available — and deliberately conservative: only signatures it can
//! fully read (up to `{`, `;`, or `where`) are judged.
//!
//! A second pass ([`scan_atomicity`]) guards the lakehouse's one
//! correctness primitive: any `ObjectStore` impl that provides
//! `put_if_absent` must say — in its docs or body comments — what makes
//! the conditional put atomic. An impl that silently does
//! check-then-write would corrupt the commit protocol without failing a
//! single functional test, so the claim has to be written down where
//! reviewers will see it.

use crate::{Finding, Rule};

/// Scan one library source file for stringly-typed public error returns.
pub fn scan_source(file: &str, src: &str) -> Vec<Finding> {
    let stripped = strip_comments_and_strings(src);
    let mut findings = Vec::new();
    let bytes: Vec<char> = stripped.chars().collect();
    let mut i = 0;
    let mut line = 1;
    let mut cfg_test_depth: Option<usize> = None;
    let mut brace_depth = 0usize;
    while i < bytes.len() {
        if bytes[i] == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if bytes[i] == '{' {
            brace_depth += 1;
            i += 1;
            continue;
        }
        if bytes[i] == '}' {
            brace_depth = brace_depth.saturating_sub(1);
            if cfg_test_depth.is_some_and(|d| brace_depth < d) {
                cfg_test_depth = None;
            }
            i += 1;
            continue;
        }
        // Track `#[cfg(test)]` regions so test helpers are exempt.
        if matches_at(&bytes, i, "#[cfg(test)") {
            cfg_test_depth = Some(brace_depth);
            i += 1;
            continue;
        }
        if cfg_test_depth.is_none()
            && matches_at(&bytes, i, "pub fn ")
            && (i == 0 || !bytes[i - 1].is_alphanumeric())
        {
            // Read the signature through to `{`, `;`, or `where`.
            let sig_start = i;
            let mut j = i;
            let mut sig = String::new();
            while j < bytes.len() && bytes[j] != '{' && bytes[j] != ';' {
                sig.push(bytes[j]);
                j += 1;
            }
            let sig_line = line; // findings anchor at the `pub fn` line
            if let Some(bad) = stringly_error(&sig) {
                findings.push(Finding {
                    rule: Rule::ErrorDiscipline,
                    file: file.to_string(),
                    line: sig_line,
                    message: format!(
                        "public fn returns Result<_, {bad}>; use lake_core::error types"
                    ),
                });
            }
            // Continue the main walk from the signature end (newlines
            // inside the signature still need counting).
            line += bytes[sig_start..j.min(bytes.len())].iter().filter(|&&c| c == '\n').count();
            i = j;
            continue;
        }
        i += 1;
    }
    findings
}

/// Scan one library source file for `ObjectStore` impls whose
/// `put_if_absent` carries no atomicity documentation.
///
/// Structure (impl headers, block extents, the `fn put_if_absent`
/// token) is detected on the comment/string-stripped text; the word
/// `atomic` is then searched case-insensitively in the *raw* source,
/// from ~20 lines above the impl header (leading doc comments) through
/// the end of the impl block (body comments). `#[cfg(test)]` impls are
/// exempt, like every other source lint.
pub fn scan_atomicity(file: &str, src: &str) -> Vec<Finding> {
    let stripped = strip_comments_and_strings(src);
    let chars: Vec<char> = stripped.chars().collect();
    let raw_lines: Vec<&str> = src.lines().collect();
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
        let at_impl = matches_at(&chars, i, "impl")
            && (i == 0 || chars.get(i - 1).is_none_or(|c| !c.is_alphanumeric() && *c != '_'))
            && chars.get(i + 4).is_some_and(|c| !c.is_alphanumeric() && *c != '_');
        if cfg_test_depth.is_none() && at_impl {
            // Header through to `{` (or `;` for e.g. `impl Trait` in a
            // return position — not a block, skip).
            let mut j = i;
            let mut header = String::new();
            while j < chars.len() && chars[j] != '{' && chars[j] != ';' {
                header.push(chars[j]);
                j += 1;
            }
            if chars.get(j) != Some(&'{') || !header.contains("ObjectStore for") {
                line += header.matches('\n').count();
                i = j;
                continue;
            }
            let impl_line = line;
            // Walk the block to its matching brace.
            let block_start = j;
            let mut depth = 0usize;
            let mut k = j;
            while k < chars.len() {
                match chars.get(k) {
                    Some('{') => depth += 1,
                    Some('}') => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            let body: String = chars.get(block_start..k).unwrap_or(&[]).iter().collect();
            let end_line =
                impl_line + header.matches('\n').count() + body.matches('\n').count();
            if body.contains("fn put_if_absent") {
                let from = impl_line.saturating_sub(21); // 0-based: 20 lines of leading docs
                let to = end_line.min(raw_lines.len());
                let documented = raw_lines
                    .get(from..to)
                    .unwrap_or(&[])
                    .iter()
                    .any(|l| l.to_ascii_lowercase().contains("atomic"));
                if !documented {
                    findings.push(Finding {
                        rule: Rule::ErrorDiscipline,
                        file: file.to_string(),
                        line: impl_line,
                        message: "ObjectStore impl provides put_if_absent without documenting \
                                  its atomicity guarantee"
                            .to_string(),
                    });
                }
            }
            line = end_line;
            i = k;
            continue;
        }
        i += 1;
    }
    findings
}

pub(crate) fn matches_at(chars: &[char], i: usize, needle: &str) -> bool {
    needle.chars().enumerate().all(|(k, nc)| chars.get(i + k) == Some(&nc))
}

/// If the signature's return type is a stringly-typed Result, name the
/// offending error type.
fn stringly_error(sig: &str) -> Option<&'static str> {
    let ret = sig.split("->").nth(1)?;
    let ret = ret.split(" where ").next().unwrap_or(ret).trim();
    // Find `Result<…>` (std or aliased path, but NOT lake_core::Result,
    // whose error type is fixed to LakeError).
    let idx = ret.find("Result<")?;
    let prefix = &ret[..idx];
    if prefix.contains("lake_core") {
        return None;
    }
    let args = &ret[idx + "Result<".len()..];
    // Split the generic arguments at top level.
    let mut depth = 0;
    let mut top_commas = Vec::new();
    let mut end = args.len();
    for (bi, c) in args.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' if depth == 0 => {
                end = bi;
                break;
            }
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => top_commas.push(bi),
            _ => {}
        }
    }
    let second = top_commas.first().map(|&c| args[c + 1..end].trim())?;
    if second == "String" {
        return Some("String");
    }
    if second.starts_with("Box<dyn") && second.contains("Error") {
        return Some("Box<dyn Error>");
    }
    None
}

/// Replace comments, string contents, and char literals with spaces so
/// token matching never fires inside them (newlines are preserved for
/// line numbers). Char literals matter twice over: `'"'` would otherwise
/// open a phantom string that swallows real code, and `'{'` / `'}'`
/// would corrupt the brace-depth tracking every pass builds on.
pub fn strip_comments_and_strings(src: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < chars.len() {
        match chars[i] {
            // Char literal vs lifetime: a literal is `'x'` or `'\x..'`;
            // a lifetime (`'a`) has no closing quote right after.
            '\'' if chars.get(i + 1) == Some(&'\\')
                || (chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'')) =>
            {
                out.push(' ');
                i += 1;
                while i < chars.len() {
                    match chars[i] {
                        '\\' => {
                            out.push_str("  ");
                            i += 2;
                        }
                        '\'' => {
                            out.push(' ');
                            i += 1;
                            break;
                        }
                        c => {
                            out.push(if c == '\n' { '\n' } else { ' ' });
                            i += 1;
                        }
                    }
                }
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < chars.len() && chars[i] != '\n' {
                    out.push(' ');
                    i += 1;
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let mut depth = 1;
                out.push_str("  ");
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        out.push_str("  ");
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        out.push_str("  ");
                        i += 2;
                    } else {
                        out.push(if chars[i] == '\n' { '\n' } else { ' ' });
                        i += 1;
                    }
                }
            }
            '"' => {
                out.push(' ');
                i += 1;
                while i < chars.len() {
                    match chars[i] {
                        '\\' => {
                            out.push_str("  ");
                            i += 2;
                        }
                        '"' => {
                            out.push(' ');
                            i += 1;
                            break;
                        }
                        c => {
                            out.push(if c == '\n' { '\n' } else { ' ' });
                            i += 1;
                        }
                    }
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_string_and_boxed_errors() {
        let src = r#"
pub fn bad_string(x: u8) -> Result<u8, String> { Ok(x) }
pub fn bad_boxed() -> Result<(), Box<dyn std::error::Error>> { Ok(()) }
"#;
        let f = scan_source("f.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("String"));
        assert!(f[1].message.contains("Box<dyn Error>"));
    }

    #[test]
    fn accepts_lake_error_results_and_non_results() {
        let src = r#"
pub fn good(x: u8) -> lake_core::Result<u8> { Ok(x) }
pub fn also_good() -> Result<u8, LakeError> { Ok(1) }
pub fn renders() -> String { String::new() }
pub fn tuple() -> (String, u8) { (String::new(), 0) }
fn private_is_exempt() -> Result<(), String> { Ok(()) }
"#;
        assert!(scan_source("f.rs", src).is_empty(), "{:?}", scan_source("f.rs", src));
    }

    #[test]
    fn nested_generics_split_correctly() {
        let src = "pub fn f() -> Result<Vec<(String, u8)>, String> { todo!() }";
        assert_eq!(scan_source("f.rs", src).len(), 1);
        let ok = "pub fn f() -> Result<HashMap<String, Vec<u8>>, LakeError> { todo!() }";
        assert!(scan_source("f.rs", ok).is_empty());
    }

    #[test]
    fn cfg_test_helpers_are_exempt() {
        let src = r#"
#[cfg(test)]
mod tests {
    pub fn helper() -> Result<(), String> { Ok(()) }
}
"#;
        assert!(scan_source("f.rs", src).is_empty());
    }

    #[test]
    fn undocumented_put_if_absent_impl_is_flagged() {
        let src = r#"
impl ObjectStore for SilentStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<()> { Ok(()) }
    fn put_if_absent(&self, key: &str, data: &[u8]) -> Result<()> {
        if self.exists(key) { return Err(LakeError::already_exists(key)); }
        self.put(key, data)
    }
}
"#;
        let f = scan_atomicity("f.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::ErrorDiscipline);
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("atomicity"));
    }

    #[test]
    fn atomicity_doc_before_or_inside_the_impl_satisfies_the_rule() {
        let leading = r#"
/// Conditional put is atomic via the map's write lock.
impl ObjectStore for DocStore {
    fn put_if_absent(&self, key: &str, data: &[u8]) -> Result<()> { todo!() }
}
"#;
        assert!(scan_atomicity("f.rs", leading).is_empty());
        let inline = r#"
impl ObjectStore for DocStore {
    fn put_if_absent(&self, key: &str, data: &[u8]) -> Result<()> {
        // Atomic: one critical section covers check and insert.
        todo!()
    }
}
"#;
        assert!(scan_atomicity("f.rs", inline).is_empty());
    }

    #[test]
    fn impls_without_put_if_absent_and_test_impls_are_exempt() {
        let no_conditional_put = r#"
impl ObjectStore for ReadOnlyStore {
    fn get(&self, key: &str) -> Result<Vec<u8>> { todo!() }
}
"#;
        assert!(scan_atomicity("f.rs", no_conditional_put).is_empty());
        let in_tests = r#"
#[cfg(test)]
mod tests {
    impl ObjectStore for FakeStore {
        fn put_if_absent(&self, key: &str, data: &[u8]) -> Result<()> { todo!() }
    }
}
"#;
        assert!(scan_atomicity("f.rs", in_tests).is_empty());
    }

    #[test]
    fn generic_decorator_impls_are_also_checked() {
        // Delegation is not an excuse: the wrapper must still say the
        // guarantee is inherited.
        let src = r#"
impl<S: ObjectStore> ObjectStore for Wrapper<S> {
    fn put_if_absent(&self, key: &str, data: &[u8]) -> Result<()> {
        self.inner.put_if_absent(key, data)
    }
}
"#;
        assert_eq!(scan_atomicity("f.rs", src).len(), 1);
    }

    #[test]
    fn comments_and_strings_never_match() {
        let src = r#"
// pub fn commented() -> Result<u8, String> {}
fn f() { let s = "pub fn fake() -> Result<u8, String>"; }
"#;
        assert!(scan_source("f.rs", src).is_empty());
    }
}

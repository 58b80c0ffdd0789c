//! DATAMARAN: unsupervised structure extraction from log files (§5.1).
//!
//! The survey describes a three-step pipeline over multi-line log files:
//! (1) generate candidate *structure templates* — regular-expression-like
//! abstractions of record shapes, kept in hash tables and filtered by a
//! coverage threshold; (2) prune redundant templates with a score
//! function; (3) refine the survivors. No human supervision.
//!
//! This implementation follows that pipeline:
//!
//! * A line is tokenized and abstracted: digit runs → `<NUM>`, hex-ish runs
//!   → `<HEX>`, quoted spans → `<STR>`; everything else stays literal. The
//!   resulting token sequence is the line's candidate template.
//! * Candidates are counted in a hash table; only templates whose coverage
//!   (fraction of record-starting lines they explain) meets
//!   [`DatamaranConfig::min_coverage`] survive.
//! * Score = coverage × specificity (literal-token fraction); a refinement
//!   pass merges templates that differ in exactly one position by
//!   generalizing that position to `<VAR>`.
//! * Multi-line records: unindented lines start records, indented lines
//!   continue them (the dominant convention in machine logs; DATAMARAN
//!   learns boundaries — we adopt the convention and verify it empirically
//!   in experiment E11).
//!
//! [`Datamaran::extract_records`] then parses the log into field maps
//! using the learned templates.

use std::collections::BTreeMap;
use std::fmt;

/// One token of a structure template.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tok {
    /// Literal text that must match exactly.
    Lit(String),
    /// A run of digits (possibly with `.`/`-`/`:` separators — timestamps).
    Num,
    /// A hexadecimal-looking run (≥ 4 chars, contains a digit).
    Hex,
    /// A mixed alphanumeric token (`node3`, `req-17a`): letters + digits.
    Mixed,
    /// A quoted string.
    Str,
    /// A generalized variable position (introduced by refinement).
    Var,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Lit(s) => write!(f, "{s}"),
            Tok::Num => write!(f, "<NUM>"),
            Tok::Hex => write!(f, "<HEX>"),
            Tok::Mixed => write!(f, "<ALNUM>"),
            Tok::Str => write!(f, "<STR>"),
            Tok::Var => write!(f, "<VAR>"),
        }
    }
}

/// A structure template: an abstracted token sequence.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Template {
    /// Token sequence.
    pub tokens: Vec<Tok>,
}

impl Template {
    /// Abstract one line into its template.
    pub fn of_line(line: &str) -> Template {
        Template { tokens: tokenize(line) }
    }

    /// Whether `line` matches this template; if so, returns the values
    /// bound at variable positions (in order).
    pub fn matches(&self, line: &str) -> Option<Vec<String>> {
        let toks = tokenize_with_text(line);
        if toks.len() != self.tokens.len() {
            return None;
        }
        let mut fields = Vec::new();
        for ((tok, text), pat) in toks.into_iter().zip(&self.tokens) {
            match (pat, &tok) {
                (Tok::Lit(a), Tok::Lit(b)) if a == b => {}
                (Tok::Num, Tok::Num)
                | (Tok::Hex, Tok::Hex)
                | (Tok::Mixed, Tok::Mixed)
                | (Tok::Str, Tok::Str) => fields.push(text),
                // <HEX> positions also accept pure numbers (a digit run is
                // valid hexadecimal).
                (Tok::Hex, Tok::Num) => fields.push(text),
                (Tok::Var, _) => fields.push(text),
                _ => return None,
            }
        }
        Some(fields)
    }

    /// Fraction of tokens that are literals — the specificity term of the
    /// score function.
    pub fn specificity(&self) -> f64 {
        if self.tokens.is_empty() {
            return 0.0;
        }
        let lits = self.tokens.iter().filter(|t| matches!(t, Tok::Lit(_))).count();
        lits as f64 / self.tokens.len() as f64
    }

    /// Number of variable positions (extractable fields).
    pub fn arity(&self) -> usize {
        self.tokens.iter().filter(|t| !matches!(t, Tok::Lit(_))).count()
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.tokens.iter().map(Tok::to_string).collect();
        write!(f, "{}", parts.join(" "))
    }
}

fn classify(word: &str) -> Tok {
    let is_num = !word.is_empty()
        && word
            .chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | ':' | ',' | '%'))
        && word.chars().any(|c| c.is_ascii_digit());
    if is_num {
        return Tok::Num;
    }
    let is_hex = word.len() >= 4
        && word.chars().all(|c| c.is_ascii_hexdigit())
        && word.chars().any(|c| c.is_ascii_digit());
    if is_hex {
        return Tok::Hex;
    }
    if word.len() >= 2 && word.starts_with('"') && word.ends_with('"') {
        return Tok::Str;
    }
    // Mixed alphanumerics ("node3", "req-17a"): variable identifiers.
    if word.chars().any(|c| c.is_ascii_digit()) && word.chars().any(|c| c.is_alphabetic()) {
        return Tok::Mixed;
    }
    Tok::Lit(word.to_string())
}

fn split_words(line: &str) -> Vec<String> {
    // Whitespace split, keeping quoted spans together.
    let mut words = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    for c in line.trim().chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                cur.push(c);
            }
            c if c.is_whitespace() && !in_quotes => {
                if !cur.is_empty() {
                    words.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        words.push(cur);
    }
    words
}

fn tokenize(line: &str) -> Vec<Tok> {
    split_words(line).iter().map(|w| classify(w)).collect()
}

fn tokenize_with_text(line: &str) -> Vec<(Tok, String)> {
    split_words(line).into_iter().map(|w| (classify(&w), w)).collect()
}

/// Extraction configuration.
#[derive(Debug, Clone, Copy)]
pub struct DatamaranConfig {
    /// Minimum fraction of record-start lines a template must cover.
    pub min_coverage: f64,
    /// Run the one-position generalization refinement.
    pub refine: bool,
}

impl Default for DatamaranConfig {
    fn default() -> Self {
        DatamaranConfig { min_coverage: 0.05, refine: true }
    }
}

/// A learned template with its observed coverage and score.
#[derive(Debug, Clone)]
pub struct ScoredTemplate {
    /// The template.
    pub template: Template,
    /// Fraction of record-start lines it covers.
    pub coverage: f64,
    /// coverage × specificity.
    pub score: f64,
}

/// One extracted record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Index of the matched template in [`ExtractionResult::templates`].
    pub template: usize,
    /// Field values at the template's variable positions.
    pub fields: Vec<String>,
    /// Continuation lines attached to this record.
    pub continuation: Vec<String>,
}

/// Output of [`Datamaran::extract_records`].
#[derive(Debug, Clone)]
pub struct ExtractionResult {
    /// Learned templates, best score first.
    pub templates: Vec<ScoredTemplate>,
    /// Parsed records.
    pub records: Vec<LogRecord>,
    /// Record-start lines no template matched.
    pub unmatched: usize,
}

/// The DATAMARAN extractor.
#[derive(Debug, Clone, Default)]
pub struct Datamaran {
    /// Configuration.
    pub config: DatamaranConfig,
}

impl Datamaran {
    /// An extractor with the given config.
    pub fn new(config: DatamaranConfig) -> Datamaran {
        Datamaran { config }
    }

    /// Learn structure templates from raw log lines.
    pub fn learn_templates(&self, lines: &[String]) -> Vec<ScoredTemplate> {
        // Step 1: candidate generation over record-start lines.
        let starts: Vec<&String> = lines
            .iter()
            .filter(|l| is_record_start(l))
            .collect();
        if starts.is_empty() {
            return Vec::new();
        }
        let mut counts: BTreeMap<Template, usize> = BTreeMap::new();
        for line in &starts {
            *counts.entry(Template::of_line(line)).or_insert(0) += 1;
        }
        // Coverage threshold.
        let total = starts.len() as f64;
        let mut kept: Vec<(Template, usize)> = counts
            .into_iter()
            .filter(|(_, n)| *n as f64 / total >= self.config.min_coverage)
            .collect();

        // Step 3: refinement — merge templates differing in one position.
        if self.config.refine {
            kept = refine(kept);
        }

        // Step 2 (scoring happens after refinement so merged coverage counts).
        let mut scored: Vec<ScoredTemplate> = kept
            .into_iter()
            .map(|(template, n)| {
                let coverage = n as f64 / total;
                let score = coverage * (0.5 + 0.5 * template.specificity());
                ScoredTemplate { template, coverage, score }
            })
            .collect();
        scored.sort_by(|a, b| b.score.total_cmp(&a.score));
        scored
    }

    /// Learn templates, then parse the log into records.
    pub fn extract_records(&self, lines: &[String]) -> ExtractionResult {
        let templates = self.learn_templates(lines);
        let mut records: Vec<LogRecord> = Vec::new();
        let mut unmatched = 0usize;
        for line in lines {
            if is_record_start(line) {
                let hit = templates
                    .iter()
                    .enumerate()
                    .find_map(|(i, t)| t.template.matches(line).map(|f| (i, f)));
                match hit {
                    Some((template, fields)) => {
                        records.push(LogRecord { template, fields, continuation: Vec::new() });
                    }
                    None => unmatched += 1,
                }
            } else if let Some(rec) = records.last_mut() {
                rec.continuation.push(line.trim().to_string());
            }
        }
        ExtractionResult { templates, records, unmatched }
    }
}

/// Unindented non-empty lines start records; indented lines continue them.
fn is_record_start(line: &str) -> bool {
    !line.is_empty() && !line.starts_with(' ') && !line.starts_with('\t')
}

/// Merge templates that differ in exactly one position (same length),
/// generalizing the position to [`Tok::Var`]; iterate to fixpoint.
fn refine(mut templates: Vec<(Template, usize)>) -> Vec<(Template, usize)> {
    loop {
        let mut merged = false;
        'outer: for i in 0..templates.len() {
            for j in i + 1..templates.len() {
                let (a, b) = (&templates[i].0, &templates[j].0);
                if a.tokens.len() != b.tokens.len() {
                    continue;
                }
                let diffs: Vec<usize> = (0..a.tokens.len())
                    .filter(|&k| a.tokens[k] != b.tokens[k])
                    .collect();
                if diffs.len() == 1 {
                    let mut t = a.clone();
                    t.tokens[diffs[0]] = Tok::Var;
                    let n = templates[i].1 + templates[j].1;
                    templates.remove(j);
                    templates.remove(i);
                    // Merge with an existing identical template if present.
                    if let Some(existing) = templates.iter_mut().find(|(e, _)| *e == t) {
                        existing.1 += n;
                    } else {
                        templates.push((t, n));
                    }
                    merged = true;
                    break 'outer;
                }
            }
        }
        if !merged {
            return templates;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(texts: &[&str]) -> Vec<String> {
        texts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn tokenizer_classifies() {
        assert_eq!(classify("2024-01-02"), Tok::Num);
        assert_eq!(classify("12:30:01"), Tok::Num);
        assert_eq!(classify("deadbeef12"), Tok::Hex);
        assert_eq!(classify("\"hello world\""), Tok::Str);
        assert_eq!(classify("ERROR"), Tok::Lit("ERROR".into()));
        // Quoted spans hold together.
        let toks = tokenize(r#"a "b c" d"#);
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[1], Tok::Str);
    }

    #[test]
    fn learns_dominant_template() {
        let log = lines(&[
            "2024-01-01 12:00:00 INFO user 101 logged in",
            "2024-01-01 12:00:05 INFO user 102 logged in",
            "2024-01-01 12:00:09 INFO user 103 logged in",
        ]);
        let d = Datamaran::default();
        let ts = d.learn_templates(&log);
        assert_eq!(ts.len(), 1);
        assert!((ts[0].coverage - 1.0).abs() < 1e-9);
        assert_eq!(ts[0].template.to_string(), "<NUM> <NUM> INFO user <NUM> logged in");
        assert_eq!(ts[0].template.arity(), 3);
    }

    #[test]
    fn refinement_merges_near_identical_templates() {
        // INFO vs WARN differ in one literal position → generalize to <VAR>.
        let log = lines(&[
            "2024-01-01 12:00:00 INFO start",
            "2024-01-01 12:00:01 WARN start",
            "2024-01-01 12:00:02 INFO start",
            "2024-01-01 12:00:03 WARN start",
        ]);
        let d = Datamaran::new(DatamaranConfig { min_coverage: 0.2, refine: true });
        let ts = d.learn_templates(&log);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].template.to_string(), "<NUM> <NUM> <VAR> start");

        // Without refinement, both survive.
        let d2 = Datamaran::new(DatamaranConfig { min_coverage: 0.2, refine: false });
        assert_eq!(d2.learn_templates(&log).len(), 2);
    }

    #[test]
    fn coverage_threshold_prunes_rare_shapes() {
        let mut texts = vec!["2024 INFO ok"; 19];
        texts.push("totally different line here now");
        let d = Datamaran::new(DatamaranConfig { min_coverage: 0.10, refine: false });
        let ts = d.learn_templates(&lines(&texts));
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn multiline_records_attach_continuations() {
        let log = lines(&[
            "2024-01-01 ERROR boom",
            "  at frame_one",
            "  at frame_two",
            "2024-01-02 ERROR bang",
            "  at frame_three",
        ]);
        let d = Datamaran::default();
        let r = d.extract_records(&log);
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.records[0].continuation.len(), 2);
        assert_eq!(r.records[1].continuation, vec!["at frame_three"]);
        assert_eq!(r.unmatched, 0);
    }

    #[test]
    fn extracted_fields_carry_values() {
        let log = lines(&[
            "2024-01-01 12:00:00 INFO user 101 logged in",
            "2024-01-01 12:00:05 INFO user 102 logged in",
        ]);
        let r = Datamaran::default().extract_records(&log);
        assert_eq!(r.records[0].fields, vec!["2024-01-01", "12:00:00", "101"]);
        assert_eq!(r.records[1].fields[2], "102");
    }

    #[test]
    fn template_match_rejects_different_shapes() {
        let t = Template::of_line("a 1 b");
        assert!(t.matches("a 2 b").is_some());
        assert!(t.matches("a x b").is_none());
        assert!(t.matches("a 2").is_none());
        assert!(t.matches("a 2 b c").is_none());
    }

    #[test]
    fn empty_log_is_fine() {
        let d = Datamaran::default();
        let r = d.extract_records(&[]);
        assert!(r.templates.is_empty());
        assert!(r.records.is_empty());
    }
}

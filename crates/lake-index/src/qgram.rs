//! q-gram tokenization and similarity.
//!
//! D³L "transforms schemata and data instances to intermediate
//! representations of q-grams" (§6.2.1): character q-grams capture the
//! *format* of values (e.g. phone numbers vs emails) independent of exact
//! content. We also provide the format-pattern abstraction D³L uses
//! (digits → `9`, letters → `a`) so columns with the same value shape
//! compare as similar even with disjoint values.

use crate::inverted::merge_overlap;
use lake_core::stats::jaccard_from_counts;

/// The character q-grams of `s` (padded with `#` at both ends so short
/// strings still produce grams).
pub fn qgrams(s: &str, q: usize) -> Vec<String> {
    assert!(q > 0);
    let padded: Vec<char> = std::iter::repeat_n('#', q - 1)
        .chain(s.chars())
        .chain(std::iter::repeat_n('#', q - 1))
        .collect();
    if padded.len() < q {
        return Vec::new();
    }
    padded.windows(q).map(|w| w.iter().collect()).collect()
}

/// The distinct q-grams of `s`, ascending — the per-string input of
/// [`sorted_jaccard`].
pub fn qgram_set(s: &str, q: usize) -> Vec<String> {
    let mut grams = qgrams(s, q);
    grams.sort_unstable();
    grams.dedup();
    grams
}

/// Jaccard similarity of two **ascending, distinct** string lists by a
/// sorted merge (0 when both are empty).
pub fn sorted_jaccard(a: &[String], b: &[String]) -> f64 {
    let inter = merge_overlap(a.iter().map(String::as_str), b.iter().map(String::as_str));
    jaccard_from_counts(a.len(), b.len(), inter)
}

/// Jaccard similarity of the q-gram sets of two strings.
pub fn qgram_similarity(a: &str, b: &str, q: usize) -> f64 {
    sorted_jaccard(&qgram_set(a, q), &qgram_set(b, q))
}

/// Abstract a value into its *format pattern*: digits → `9`, letters →
/// `a`, whitespace → `_`, everything else verbatim; runs collapsed with a
/// `+` suffix. `"+31-15-278"` → `"+9+-9+-9+"`, `"ab12"` → `"a+9+"`.
pub fn format_pattern(s: &str) -> String {
    let mut out = String::new();
    write_format_pattern(s, &mut out);
    out
}

/// Append the [`format_pattern`] of `s` to `out`.
fn write_format_pattern(s: &str, out: &mut String) {
    let mut last: Option<char> = None;
    let mut run = 0usize;
    let flush = |out: &mut String, c: Option<char>, run: usize| {
        if let Some(c) = c {
            out.push(c);
            if run > 1 {
                out.push('+');
            }
        }
    };
    for c in s.chars() {
        let class = if c.is_ascii_digit() {
            '9'
        } else if c.is_alphabetic() {
            'a'
        } else if c.is_whitespace() {
            '_'
        } else {
            c
        };
        if Some(class) == last {
            run += 1;
        } else {
            flush(out, last, run);
            last = Some(class);
            run = 1;
        }
    }
    flush(out, last, run);
}

/// The distinct format patterns observed in a column's values, ascending
/// — the per-column input of [`sorted_jaccard`]. Columns hold thousands of
/// values but a handful of shapes, so a value allocates only when its
/// pattern is new.
pub fn format_patterns<'a>(values: impl IntoIterator<Item = &'a str>) -> Vec<String> {
    let mut patterns: Vec<String> = Vec::new();
    let mut pattern = String::new();
    // Neighbours in a sorted domain mostly share a shape: try the
    // previous value's pattern before searching.
    let mut previous = 0;
    for value in values {
        pattern.clear();
        write_format_pattern(value, &mut pattern);
        if patterns.get(previous) == Some(&pattern) {
            continue;
        }
        previous = match patterns.binary_search(&pattern) {
            Ok(at) => at,
            Err(at) => {
                patterns.insert(at, pattern.clone());
                at
            }
        };
    }
    patterns
}

/// Similarity of two columns' value formats: Jaccard over the sets of
/// format patterns observed in each column.
pub fn format_similarity<'a>(
    a: impl IntoIterator<Item = &'a str>,
    b: impl IntoIterator<Item = &'a str>,
) -> f64 {
    sorted_jaccard(&format_patterns(a), &format_patterns(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qgrams_with_padding() {
        let g = qgrams("ab", 3);
        assert_eq!(g, vec!["##a", "#ab", "ab#", "b##"]);
        assert_eq!(qgrams("", 3).len(), 2); // "####" has two 3-windows
        assert_eq!(qgrams("abc", 1), vec!["a", "b", "c"]);
    }

    #[test]
    fn similar_strings_share_grams() {
        let near = qgram_similarity("customer", "customers", 3);
        let far = qgram_similarity("customer", "zebra", 3);
        assert!(near > 0.6, "{near}");
        assert!(far < 0.2, "{far}");
        assert_eq!(qgram_similarity("same", "same", 2), 1.0);
    }

    #[test]
    fn sets_are_sorted_and_distinct() {
        assert_eq!(qgram_set("aaa", 2), vec!["#a", "a#", "aa"]);
        assert_eq!(
            format_patterns(["b1", "07-55", "a2", "01-00", ""]),
            vec!["", "9+-9+", "a9"]
        );
        assert!(format_patterns([]).is_empty());
        let (a, b) = (qgram_set("customer", 3), qgram_set("customers", 3));
        assert_eq!(sorted_jaccard(&a, &b), 8.0 / 13.0);
        assert_eq!(sorted_jaccard(&a, &[]), 0.0);
        assert_eq!(sorted_jaccard(&[], &[]), 0.0);
    }

    #[test]
    fn format_pattern_abstracts_shape() {
        assert_eq!(format_pattern("1234"), "9+");
        assert_eq!(format_pattern("ab12"), "a+9+");
        assert_eq!(format_pattern("+31-15"), "+9+-9+");
        assert_eq!(format_pattern("a b"), "a_a");
        assert_eq!(format_pattern(""), "");
    }

    #[test]
    fn format_similarity_matches_shapes_not_values() {
        let phones_a = ["06-1234", "06-9999"];
        let phones_b = ["07-5555", "01-0000"];
        let words = ["delft", "paris"];
        assert_eq!(format_similarity(phones_a, phones_b), 1.0);
        assert_eq!(format_similarity(phones_a, words), 0.0);
        assert_eq!(format_similarity([], words), 0.0);
    }
}

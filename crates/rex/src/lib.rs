//! `rex` — a compact regular-expression engine for log ETL.
//!
//! The paper's batch-import pipeline parses raw console/network/application
//! logs "in search for known patterns for each event type (typically defined
//! as regular expressions)". This crate supplies those patterns without an
//! external dependency: a classic Thompson-NFA construction executed by a
//! Pike VM, giving linear-time matching with capture groups — no
//! catastrophic backtracking on hostile log lines.
//!
//! Supported syntax: literals, `.`, escapes (`\d \D \w \W \s \S \n \t \r`
//! and punctuation), character classes `[a-z0-9_]` / negated `[^...]`,
//! repetition `* + ? {n} {n,} {n,m}` (greedy and lazy `?` variants),
//! alternation `|`, capturing `(...)` and non-capturing `(?:...)` groups,
//! and anchors `^` / `$`.
//!
//! # Example
//! ```
//! use rex::Regex;
//!
//! let re = Regex::new(r"^\[(\d+)\] MCE bank (\d+): status ([0-9a-f]+)$").unwrap();
//! let caps = re.captures("[1498261304] MCE bank 4: status dead00beef").unwrap();
//! assert_eq!(caps.get(1), Some("1498261304"));
//! assert_eq!(caps.get(2), Some("4"));
//! assert_eq!(caps.get(3), Some("dead00beef"));
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod compiler;
pub mod parser;
pub mod vm;

pub use parser::PatternError;

use compiler::Program;

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    program: Program,
}

/// A successful match: the overall span plus capture-group spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Captures<'t> {
    text: &'t str,
    /// Slot pairs: `slots[2k]`/`slots[2k+1]` are the start/end of group `k`.
    slots: Vec<Option<usize>>,
}

impl<'t> Captures<'t> {
    /// The text of capture group `idx` (0 is the whole match).
    pub fn get(&self, idx: usize) -> Option<&'t str> {
        let (s, e) = self.span(idx)?;
        Some(&self.text[s..e])
    }

    /// The byte span of capture group `idx`.
    pub fn span(&self, idx: usize) -> Option<(usize, usize)> {
        let s = (*self.slots.get(idx * 2)?)?;
        let e = (*self.slots.get(idx * 2 + 1)?)?;
        Some((s, e))
    }

    /// Number of groups, counting group 0.
    pub fn len(&self) -> usize {
        self.slots.len() / 2
    }

    /// True when there are no capture slots (never the case for a match).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl Regex {
    /// Compiles a pattern.
    pub fn new(pattern: &str) -> Result<Regex, PatternError> {
        let ast = parser::parse(pattern)?;
        let program = compiler::compile(&ast);
        Ok(Regex {
            pattern: pattern.to_owned(),
            program,
        })
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Number of capture groups, counting the implicit group 0.
    pub fn group_count(&self) -> usize {
        self.program.groups
    }

    /// Whether the pattern matches anywhere in `text`.
    pub fn is_match(&self, text: &str) -> bool {
        vm::search(&self.program, text, 0).is_some()
    }

    /// Leftmost match: returns the byte span.
    pub fn find(&self, text: &str) -> Option<(usize, usize)> {
        self.captures(text)?.span(0)
    }

    /// Leftmost match with capture groups.
    pub fn captures<'t>(&self, text: &'t str) -> Option<Captures<'t>> {
        self.captures_at(text, 0)
    }

    /// Leftmost match with captures, starting the scan at byte `start`.
    pub fn captures_at<'t>(&self, text: &'t str, start: usize) -> Option<Captures<'t>> {
        let slots = vm::search(&self.program, text, start)?;
        Some(Captures { text, slots })
    }

    /// Iterator over all non-overlapping matches.
    pub fn find_iter<'r, 't>(&'r self, text: &'t str) -> FindIter<'r, 't> {
        FindIter {
            re: self,
            text,
            pos: 0,
        }
    }
}

/// Iterator over non-overlapping matches; see [`Regex::find_iter`].
pub struct FindIter<'r, 't> {
    re: &'r Regex,
    text: &'t str,
    pos: usize,
}

impl<'r, 't> Iterator for FindIter<'r, 't> {
    type Item = Captures<'t>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos > self.text.len() {
            return None;
        }
        let caps = self.re.captures_at(self.text, self.pos)?;
        let (s, e) = caps.span(0)?;
        // Advance past the match; empty matches advance one char to
        // guarantee progress.
        self.pos = if e > s {
            e
        } else {
            next_char_boundary(self.text, e)
        };
        Some(caps)
    }
}

fn next_char_boundary(text: &str, pos: usize) -> usize {
    let mut p = pos + 1;
    while p < text.len() && !text.is_char_boundary(p) {
        p += 1;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_matching() {
        let re = Regex::new("ab+c").unwrap();
        assert!(re.is_match("xxabbbcyy"));
        assert!(!re.is_match("ac"));
        assert_eq!(re.find("xxabbbcyy"), Some((2, 7)));
    }

    #[test]
    fn captures_index_and_span() {
        let re = Regex::new(r"(\w+)=(\d+)").unwrap();
        let caps = re.captures("retries=17;").unwrap();
        assert_eq!(caps.get(0), Some("retries=17"));
        assert_eq!(caps.get(1), Some("retries"));
        assert_eq!(caps.get(2), Some("17"));
        assert_eq!(caps.span(2), Some((8, 10)));
        assert_eq!(caps.len(), 3);
        assert_eq!(caps.get(3), None);
    }

    #[test]
    fn find_iter_non_overlapping() {
        let re = Regex::new(r"\d+").unwrap();
        let nums: Vec<_> = re
            .find_iter("a1 b22 c333")
            .map(|c| c.get(0).unwrap().to_owned())
            .collect();
        assert_eq!(nums, vec!["1", "22", "333"]);
    }

    #[test]
    fn empty_match_progress() {
        let re = Regex::new("a*").unwrap();
        // Must terminate and visit every position once.
        let n = re.find_iter("bbb").count();
        assert_eq!(n, 4); // one empty match per position incl. end
    }

    #[test]
    fn anchors() {
        let re = Regex::new("^abc$").unwrap();
        assert!(re.is_match("abc"));
        assert!(!re.is_match("xabc"));
        assert!(!re.is_match("abcx"));
    }

    #[test]
    fn unicode_text_is_safe() {
        let re = Regex::new("é+").unwrap();
        assert_eq!(re.find("café éé"), Some((3, 5)));
        let all: Vec<_> = re.find_iter("café éé").collect();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn pathological_pattern_is_linear() {
        // (a+)+b on a^40 would take years with backtracking.
        let re = Regex::new("(a+)+b").unwrap();
        let text = "a".repeat(40);
        assert!(!re.is_match(&text));
    }

    #[test]
    fn group_count_reported() {
        let re = Regex::new(r"(a)(?:b)(c(d))").unwrap();
        assert_eq!(re.group_count(), 4); // groups 0,1,2,3
    }

    #[test]
    fn lazy_repetition() {
        let greedy = Regex::new(r#""(.*)""#).unwrap();
        let lazy = Regex::new(r#""(.*?)""#).unwrap();
        let text = r#"say "a" and "b" now"#;
        assert_eq!(greedy.captures(text).unwrap().get(1), Some(r#"a" and "b"#));
        assert_eq!(lazy.captures(text).unwrap().get(1), Some("a"));
    }

    #[test]
    fn counted_repetition() {
        let re = Regex::new(r"^a{2,3}$").unwrap();
        assert!(!re.is_match("a"));
        assert!(re.is_match("aa"));
        assert!(re.is_match("aaa"));
        assert!(!re.is_match("aaaa"));
        let exact = Regex::new(r"^[0-9a-f]{4}$").unwrap();
        assert!(exact.is_match("beef"));
        assert!(!exact.is_match("beeff"));
    }
}

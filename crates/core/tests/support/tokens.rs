//! The reference tokenizer for `hpclog_core::analytics::text::tokens`.
//!
//! The library splits messages with a byte-class scan; this is the
//! char-split statement of what a token is, kept apart from it so the two
//! can disagree: split on every char that is not ASCII alphanumeric, keep
//! pieces of three bytes or more that are not all hex digits and are no
//! stop word in any case. It carries its own copy of the stop-word list, so
//! a word missing from the library's list shows up as a difference.

use std::collections::HashMap;

/// The stop words, as the tokenizer's specification lists them.
pub const STOPWORDS: [&str; 20] = [
    "the",
    "with",
    "was",
    "for",
    "this",
    "will",
    "using",
    "service",
    "operations",
    "progress",
    "and",
    "that",
    "are",
    "not",
    "all",
    "from",
    "has",
    "have",
    "been",
    "its",
];

/// The tokens of `message`, each an owned string, in message order.
pub fn tokenize_owned(message: &str) -> Vec<String> {
    message
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|tok| tok.len() >= 3)
        .filter(|tok| !tok.bytes().all(|b| b.is_ascii_hexdigit()))
        .filter(|tok| !STOPWORDS.contains(&tok.to_ascii_lowercase().as_str()))
        .map(str::to_owned)
        .collect()
}

/// How often each token of [`tokenize_owned`] occurs over `messages`.
pub fn word_count_reference<'a>(
    messages: impl IntoIterator<Item = &'a str>,
) -> HashMap<String, u64> {
    let mut counts = HashMap::new();
    for message in messages {
        for tok in tokenize_owned(message) {
            *counts.entry(tok).or_insert(0) += 1;
        }
    }
    counts
}

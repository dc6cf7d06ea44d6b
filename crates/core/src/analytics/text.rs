//! Text analytics over raw log messages (paper §III-C): tokenization,
//! word counts ("a simple word counts, which is rapidly executed by Spark,
//! can locate the source of the problem"), and TF-IDF, where "a Lustre
//! message is treated as a document".

use crate::framework::Framework;
use rasdb::error::DbError;
use sparklet::agg::Fnv1a;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Words carrying no diagnostic signal in system logs.
const STOPWORDS: &[&str] = &[
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

/// Class bit of an ASCII letter or digit: the bytes a token is made of.
const ALNUM: u8 = 1;
/// Class bit of an ASCII hex digit.
const HEX: u8 = 2;

/// The class bits of every byte. No byte ≥ 0x80 has any, so each byte of a
/// multi-byte character separates tokens, as the character itself would.
const CLASS: [u8; 256] = {
    let mut table = [0; 256];
    let mut b = 0;
    while b < 256 {
        let byte = b as u8;
        if byte.is_ascii_alphanumeric() {
            table[b] |= ALNUM;
        }
        if byte.is_ascii_hexdigit() {
            table[b] |= HEX;
        }
        b += 1;
    }
    table
};

/// The case-folded key of an alphanumeric run: its bytes lower-cased
/// (`| 0x20` lower-cases an ASCII letter and leaves a digit as it is) and
/// shifted in one after another. No such byte is 0, so runs of up to
/// [`KEY_BYTES`] bytes have distinct keys.
const fn push_key(key: u128, byte: u8) -> u128 {
    (key << 8) | (byte | 0x20) as u128
}

/// The bytes a key holds: a longer run is never a stop word.
const KEY_BYTES: usize = std::mem::size_of::<u128>();

/// The key of every stop word, computed from [`STOPWORDS`] at compile time.
const STOPWORD_KEYS: [u128; STOPWORDS.len()] = {
    let mut keys = [0; STOPWORDS.len()];
    let mut i = 0;
    while i < STOPWORDS.len() {
        let word = STOPWORDS[i].as_bytes();
        assert!(word.len() <= KEY_BYTES, "a key holds a whole stop word");
        let mut at = 0;
        while at < word.len() {
            keys[i] = push_key(keys[i], word[at]);
            at += 1;
        }
        i += 1;
    }
    keys
};

/// Splits a message into analyzable tokens, borrowed from it: ASCII
/// alphanumeric runs, length ≥ 3, not purely hex digits (object ids like
/// `OST0041` survive; raw numbers and addresses don't), stopwords removed,
/// case preserved.
///
/// One pass over the bytes: a run is scanned once, collecting on the way
/// whether all of it is hex and its stop-word key. A run starts and ends
/// at an ASCII byte or at the message's ends, which are always character
/// boundaries, so every token is sliced back out of `message` as it is.
pub fn tokens(message: &str) -> impl Iterator<Item = &str> {
    let bytes = message.as_bytes();
    let mut at = 0;
    std::iter::from_fn(move || {
        while at < bytes.len() {
            if CLASS[bytes[at] as usize] & ALNUM == 0 {
                at += 1;
                continue;
            }
            let start = at;
            let (mut all, mut key) = (HEX, 0);
            while let Some(&b) = bytes.get(at) {
                let class = CLASS[b as usize];
                if class & ALNUM == 0 {
                    break;
                }
                all &= class;
                key = push_key(key, b);
                at += 1;
            }
            let len = at - start;
            let stopword = len <= KEY_BYTES && STOPWORD_KEYS.contains(&key);
            if len >= 3 && all & HEX == 0 && !stopword {
                return Some(&message[start..at]);
            }
        }
        None
    })
}

/// [`tokens`], each copied into a `String` of its own.
pub fn tokenize(message: &str) -> Vec<String> {
    tokens(message).map(str::to_owned).collect()
}

/// Sequential word count (the baseline the parallel path is compared to).
pub fn word_count_serial(messages: &[String]) -> HashMap<String, u64> {
    let mut counts = HashMap::new();
    for msg in messages {
        for tok in tokenize(msg) {
            *counts.entry(tok).or_insert(0) += 1;
        }
    }
    counts
}

/// Parallel word count on the engine (flat_map → reduce_by_key).
pub fn word_count_parallel(fw: &Framework, messages: Vec<String>) -> HashMap<String, u64> {
    let nparts = (fw.engine().workers() * 2).max(1);
    fw.engine()
        .parallelize(messages, nparts)
        .flat_map(|msg| tokenize(&msg))
        .map(|tok| (tok, 1u64))
        .reduce_by_key(fw.engine().workers().max(1), |a, b| a + b)
        .collect()
        .into_iter()
        .collect()
}

/// The `k` heaviest terms, ties broken alphabetically (deterministic).
/// Sorts borrowed entries and clones only the `k` it returns.
pub fn top_k(counts: &HashMap<String, u64>, k: usize) -> Vec<(String, u64)> {
    let mut entries: Vec<(&String, u64)> = counts.iter().map(|(w, c)| (w, *c)).collect();
    entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    entries.truncate(k);
    entries.into_iter().map(|(w, c)| (w.clone(), c)).collect()
}

/// TF-IDF over messages-as-documents. Returns per-term aggregate scores
/// (sum of tf·idf over documents), which surfaces terms that are frequent
/// in *some* messages but not ubiquitous boilerplate.
pub fn tf_idf(messages: &[String]) -> HashMap<String, f64> {
    let n_docs = messages.len();
    if n_docs == 0 {
        return HashMap::new();
    }
    let mut doc_freq: HashMap<String, u64> = HashMap::new();
    let mut per_doc: Vec<HashMap<String, u64>> = Vec::with_capacity(n_docs);
    for msg in messages {
        let mut tf: HashMap<String, u64> = HashMap::new();
        for tok in tokenize(msg) {
            *tf.entry(tok).or_insert(0) += 1;
        }
        for term in tf.keys() {
            *doc_freq.entry(term.clone()).or_insert(0) += 1;
        }
        per_doc.push(tf);
    }
    let mut scores: HashMap<String, f64> = HashMap::new();
    for tf in &per_doc {
        let len: u64 = tf.values().sum();
        if len == 0 {
            continue;
        }
        for (term, count) in tf {
            let idf = (n_docs as f64 / doc_freq[term] as f64).ln();
            *scores.entry(term.clone()).or_insert(0.0) += (*count as f64 / len as f64) * idf;
        }
    }
    scores
}

/// Word count over the raw messages of one event type in a window — the
/// paper's Fig 7 workflow (raw Lustre lines → word bubbles → dead OST).
///
/// Counts borrowed tokens straight off the blocks' raw-message columns
/// into one map hashed with sparklet's FNV-1a (a short token costs a few
/// multiplies, not a SipHash round), and copies each distinct term once,
/// at the end. FNV-1a resists no crafted collisions: log text built to
/// collide can slow one window's count, never change it.
pub fn word_count_events(
    fw: &Framework,
    event_type: &str,
    from_ms: i64,
    to_ms: i64,
) -> Result<HashMap<String, u64>, DbError> {
    let scan = fw.scan_window(event_type, from_ms, to_ms)?;
    let mut counts: HashMap<&str, u64, BuildHasherDefault<Fnv1a>> = HashMap::default();
    for b in &scan.parts {
        for i in b.range(from_ms, to_ms) {
            for tok in tokens(b.raw(i)) {
                *counts.entry(tok).or_insert(0) += 1;
            }
        }
    }
    Ok(counts
        .into_iter()
        .map(|(tok, n)| (tok.to_owned(), n))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;
    use loggen::topology::Topology;

    #[test]
    fn tokenizer_keeps_object_ids_drops_numbers_and_stopwords() {
        let toks = tokenize(
            "LustreError: 11-0: atlas1-OST0041-osc-ffff8803a9c6a000: Communicating with \
             10.36.226.77@o2ib, operation ost_read failed with -110",
        );
        assert!(toks.contains(&"OST0041".to_owned()));
        assert!(toks.contains(&"LustreError".to_owned()));
        assert!(toks.contains(&"ost_read".to_owned()) || toks.contains(&"read".to_owned()));
        assert!(!toks.iter().any(|t| t == "with"), "{toks:?}");
        assert!(!toks.iter().any(|t| t == "110"), "{toks:?}");
        assert!(!toks.iter().any(|t| t == "ffff8803a9c6a000"), "hex dropped");
    }

    #[test]
    fn short_tokens_dropped() {
        assert!(tokenize("an ab xyz").contains(&"xyz".to_owned()));
        assert_eq!(tokenize("a bb cc").len(), 0);
    }

    #[test]
    fn serial_and_parallel_word_counts_agree() {
        let fw = Framework::new(FrameworkConfig {
            db_nodes: 2,
            replication_factor: 1,
            vnodes: 4,
            topology: Topology::scaled(1, 1),
            ..Default::default()
        })
        .unwrap();
        let messages: Vec<String> = (0..200)
            .map(|i| {
                format!(
                    "LustreError OST{:04x} timeout ost_write retry{}",
                    i % 5,
                    i % 3
                )
            })
            .collect();
        let serial = word_count_serial(&messages);
        let parallel = word_count_parallel(&fw, messages);
        assert_eq!(serial, parallel);
        assert_eq!(serial["LustreError"], 200);
    }

    #[test]
    fn top_k_is_deterministic_under_ties() {
        let mut counts = HashMap::new();
        counts.insert("bbb".to_owned(), 5u64);
        counts.insert("aaa".to_owned(), 5);
        counts.insert("ccc".to_owned(), 9);
        let top = top_k(&counts, 2);
        assert_eq!(top, vec![("ccc".to_owned(), 9), ("aaa".to_owned(), 5)]);
        assert_eq!(top_k(&counts, 0), vec![]);
    }

    #[test]
    fn tf_idf_downweights_ubiquitous_terms() {
        // "LustreError" appears in every message (idf = 0); "OST0041" in few.
        let mut messages: Vec<String> = (0..50)
            .map(|i| format!("LustreError timeout node{i}"))
            .collect();
        messages.push("LustreError OST0041 refused".to_owned());
        messages.push("LustreError OST0041 refused again".to_owned());
        let scores = tf_idf(&messages);
        assert_eq!(scores["LustreError"], 0.0);
        assert!(scores["OST0041"] > 0.5, "{}", scores["OST0041"]);
    }

    #[test]
    fn tf_idf_empty_input() {
        assert!(tf_idf(&[]).is_empty());
    }
}

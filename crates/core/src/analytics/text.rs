//! Text analytics over raw log messages (paper §III-C): tokenization and
//! word counts ("a simple word counts, which is rapidly executed by Spark,
//! can locate the source of the problem").

use crate::framework::Framework;
use rasdb::error::DbError;
use sparklet::agg::Fnv1a;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

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

/// The key of an alphanumeric run of up to [`KEY_BYTES`] bytes: its bytes
/// shifted in one after another, case preserved. No such byte is 0, so
/// the key is injective and its length is its count of non-zero bytes.
const fn push_key(key: u128, byte: u8) -> u128 {
    (key << 8) | byte as u128
}

/// The bytes a key holds: a longer run is never a stop word.
const KEY_BYTES: usize = std::mem::size_of::<u128>();

/// `0x20` in every byte: or-ed into a key, it lower-cases each ASCII letter
/// and leaves each digit as it is.
const FOLD: u128 = u128::from_ne_bytes([0x20; KEY_BYTES]);

/// A non-zero key with each of its bytes lower-cased: the key of the run
/// in lower case.
const fn folded(key: u128) -> u128 {
    key | FOLD >> (key.leading_zeros() / 8 * 8)
}

/// The folded key of every stop word, computed from [`STOPWORDS`] at
/// compile time.
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
        keys[i] = folded(keys[i]);
        i += 1;
    }
    keys
};

/// Whether the key of a run of at most [`KEY_BYTES`] bytes is a stop word
/// in any case.
fn is_stopword(key: u128) -> bool {
    STOPWORD_KEYS.contains(&folded(key))
}

/// The one token scan: every alphanumeric run of `bytes` that is at least
/// 3 bytes long and not purely hex digits, with its key (meaningful for a
/// run of at most [`KEY_BYTES`] bytes; a longer one shifts its first bytes
/// out). Stop words are left to the caller.
///
/// A run is scanned once, collecting on the way whether all of it is hex
/// and its key. A run starts and ends at an ASCII byte or at the message's
/// ends, which are always character boundaries, so every run can be sliced
/// back out of the message as it is.
fn runs(bytes: &[u8]) -> impl Iterator<Item = (Range<usize>, u128)> + '_ {
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
            if at - start >= 3 && all & HEX == 0 {
                return Some((start..at, key));
            }
        }
        None
    })
}

/// Splits a message into analyzable tokens, borrowed from it: ASCII
/// alphanumeric runs, length ≥ 3, not purely hex digits (object ids like
/// `OST0041` survive; raw numbers and addresses don't), stopwords removed,
/// case preserved. One pass over the bytes (`runs`), each run's
/// stop-word test made on its key.
pub fn tokens(message: &str) -> impl Iterator<Item = &str> {
    runs(message.as_bytes())
        .filter(|(at, key)| at.len() > KEY_BYTES || !is_stopword(*key))
        .map(|(at, _)| &message[at])
}

/// [`tokens`], each copied into a `String` of its own.
pub fn tokenize(message: &str) -> Vec<String> {
    tokens(message).map(str::to_owned).collect()
}

/// The `k` heaviest terms, ties broken alphabetically (deterministic).
/// Sorts borrowed entries and clones only the `k` it returns.
pub fn top_k(counts: &HashMap<String, u64>, k: usize) -> Vec<(String, u64)> {
    let mut entries: Vec<(&String, u64)> = counts.iter().map(|(w, c)| (w, *c)).collect();
    entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    entries.truncate(k);
    entries.into_iter().map(|(w, c)| (w.clone(), c)).collect()
}

/// Word count over the raw messages of one event type in a window — the
/// paper's Fig 7 workflow (raw Lustre lines → word bubbles → dead OST).
/// Counts the blocks' stored messages in place (`count`).
pub fn word_count_events(
    fw: &Framework,
    event_type: &str,
    from_ms: i64,
    to_ms: i64,
) -> Result<HashMap<String, u64>, DbError> {
    let scan = fw.scan_window(event_type, from_ms, to_ms)?;
    Ok(count(
        scan.parts
            .iter()
            .flat_map(|b| b.range(from_ms, to_ms).map(|i| b.raw(i))),
    ))
}

/// How often each token of [`tokens`] occurs over `messages`.
///
/// A token of up to [`KEY_BYTES`] bytes is counted by its key, which the
/// scan packed anyway, in a map hashed by [`Fold`]: no token is hashed
/// byte by byte or compared as a string. A longer token is counted
/// borrowed in a map hashed with sparklet's FNV-1a. Stop words are dropped
/// once per distinct key at the end (no stop word is longer than a key, so
/// the long map holds none), and each
/// distinct term is copied once, at the end: the count allocates per
/// term, never per token.
fn count<'a>(messages: impl IntoIterator<Item = &'a str>) -> HashMap<String, u64> {
    let mut short: HashMap<u128, u64, BuildHasherDefault<Fold>> = HashMap::default();
    let mut long: HashMap<&str, u64, BuildHasherDefault<Fnv1a>> = HashMap::default();
    for message in messages {
        for (at, key) in runs(message.as_bytes()) {
            if at.len() <= KEY_BYTES {
                *short.entry(key).or_insert(0) += 1;
            } else {
                *long.entry(&message[at]).or_insert(0) += 1;
            }
        }
    }
    let mut counts = HashMap::with_capacity(short.len() + long.len());
    for (key, n) in short {
        if !is_stopword(key) {
            let bytes = key.to_be_bytes();
            let token = &bytes[key.leading_zeros() as usize / 8..];
            let token = std::str::from_utf8(token).expect("a key holds ASCII bytes");
            counts.insert(token.to_owned(), n);
        }
    }
    counts.extend(long.into_iter().map(|(tok, n)| (tok.to_owned(), n)));
    counts
}

/// The hasher of packed token keys: one folded multiply (the 128-bit
/// product of the key's halves, each mixed with a constant, its two
/// halves xor-ed). It is fixed and keyless, so it resists no crafted
/// collisions: log text built to collide can slow one window's count,
/// never change it.
#[derive(Default)]
struct Fold(u64);

impl Hasher for Fold {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only u128 keys are hashed with Fold")
    }

    fn write_u128(&mut self, key: u128) {
        const LO: u64 = 0x243f_6a88_85a3_08d3;
        const HI: u64 = 0x1319_8a2e_0370_7344;
        let product = u128::from(key as u64 ^ LO) * u128::from((key >> 64) as u64 ^ HI);
        self.0 = product as u64 ^ (product >> 64) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn top_k_is_deterministic_under_ties() {
        let mut counts = HashMap::new();
        counts.insert("bbb".to_owned(), 5u64);
        counts.insert("aaa".to_owned(), 5);
        counts.insert("ccc".to_owned(), 9);
        let top = top_k(&counts, 2);
        assert_eq!(top, vec![("ccc".to_owned(), 9), ("aaa".to_owned(), 5)]);
        assert_eq!(top_k(&counts, 0), vec![]);
    }
}

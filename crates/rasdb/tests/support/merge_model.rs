//! The reference sorted-run merge, kept apart from the code under test.
//!
//! This is the replica merge as it was before the slice-wise one: for every
//! row it emits, it scans the head of every run for the smallest key, pops
//! the first run holding it and then every later run whose head is that key,
//! and folds the copies in run order. `slice_merge.rs` pulls it in by
//! `#[path]` and checks `rasdb::memtable::merge_all` against it.

#![allow(dead_code)]

use rasdb::memtable::{RowEntry, Run};
use rasdb::types::Key;

/// Merges sorted runs one row at a time. For every clustering key, in
/// ascending order, `on_row` receives the key and the copies of that row as
/// `(index of the run, entry)` in run order.
pub fn merge_runs(runs: Vec<Run>, mut on_row: impl FnMut(Key, &mut Vec<(usize, RowEntry)>)) {
    /// Takes the head of run `i` and advances the run.
    fn pop(
        heads: &mut [Option<(Key, RowEntry)>],
        rest: &mut [std::vec::IntoIter<(Key, RowEntry)>],
        i: usize,
    ) -> (Key, RowEntry) {
        let head = heads[i].take().expect("head checked by the caller");
        heads[i] = rest[i].next();
        head
    }

    let mut rest: Vec<std::vec::IntoIter<(Key, RowEntry)>> =
        runs.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<(Key, RowEntry)>> = rest.iter_mut().map(Iterator::next).collect();
    let mut copies = Vec::with_capacity(heads.len());
    loop {
        // The first run holding the smallest key leads: every other copy of
        // that row sits at the head of a later run.
        let mut lead: Option<(usize, &Key)> = None;
        for (i, head) in heads.iter().enumerate() {
            if let Some((key, _)) = head {
                if lead.is_none_or(|(_, least)| key < least) {
                    lead = Some((i, key));
                }
            }
        }
        let Some((lead, _)) = lead else {
            return;
        };
        let (key, entry) = pop(&mut heads, &mut rest, lead);
        copies.clear();
        copies.push((lead, entry));
        for i in lead + 1..rest.len() {
            if heads[i].as_ref().is_some_and(|(k, _)| *k == key) {
                copies.push((i, pop(&mut heads, &mut rest, i).1));
            }
        }
        on_row(key, &mut copies);
    }
}

/// Merges sorted runs, oldest first, into the one run they describe.
pub fn merge_all(runs: Vec<Run>) -> Run {
    let mut merged = Vec::new();
    merge_runs(runs, |key, copies| {
        let copies = copies.drain(..).map(|(_, entry)| entry);
        let entry = copies.reduce(RowEntry::merge);
        merged.push((key, entry.expect("merge_runs hands out one copy or more")));
    });
    merged
}

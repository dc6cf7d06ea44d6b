//! The machine-speed reference.
//!
//! On the shared two-core sandbox the same binary runs up to 40% faster or
//! slower from one ten-minute stretch to the next, single-threaded code
//! included, so a wall-clock time says as much about the neighbours as
//! about the program. The harness therefore carries a small piece of work
//! of its own — it calls nothing of the program — and runs one chunk of it
//! between timed calls, all through every round. How long the chunks take
//! tells how fast the machine was *during that round*; every time the
//! benchmark reports is scaled to a machine that runs a chunk in
//! [`NOMINAL_CHUNK_S`].
//!
//! The chunk is sorts of a 16 KiB buffer of pseudo-random words. Five
//! candidates ran side by side in every round of 14 runs per workload
//! (26 minutes, round times drifting by a third): the sorts, dependent
//! loads through an 8 MiB and through a 128 KiB table, register
//! arithmetic, and branchy byte scanning. The sorts tracked the program
//! best: the spread (standard deviation ÷ mean) of a run's median round
//! time fell from 8.5% to 5.1% on `dash_cold`, from 7.3% to 3.0% on
//! `import_day` and from 7.6% to 2.8% on `stream_storm`; the walk through
//! the large table left 6.8%, 3.1% and 3.4%, and no mixture did better
//! than the sorts alone. Nor did chunks that cross threads as the program
//! does (the sorts on two threads at once, on a helper thread alone, twenty
//! ping-pong hand-offs; 28 runs in a noisy hour).
//!
//! The program slows down more than the sorts do: it allocates, chases
//! pointers through a heap of more than a gigabyte and crosses threads,
//! and whatever the neighbours take away hurts that more than a loop over
//! 16 KiB. Over 270 rounds in two sessions the slope of ln(round time) on
//! ln(chunk time) was 1.05 to 1.4 in a calm hour and 1.4 to 1.9 in a noisy
//! one. Times are therefore scaled by the chunks' slow-down raised to
//! [`SENSITIVITY`] = 1.5: against plain division that cut the spread of a
//! run's median round time from 5.9% to 1.7% (`dash_cold`), 4.4% to 2.2%
//! (`import_day`) and 7.7% to 4.4% (`stream_storm`) in the noisy hour, and
//! moved it from 5.1%, 3.0% and 2.8% to 3.9%, 3.0% and 5.2% in the calm one.
//!
//! The chunk allocates nothing and calls nothing of the program: neither
//! the program's heap nor a change to its code can make it faster, so a
//! gain in the program shows in full.

use std::time::Instant;

/// Time one chunk takes on the nominal machine (this sandbox in a quiet
/// stretch). It only fixes the scale: on such a machine scaled and
/// measured times agree.
pub const NOMINAL_CHUNK_S: f64 = 0.0023;

/// How much more than the chunks the program slows down when the machine
/// does: the exponent the chunks' slow-down is raised to (see the module
/// documentation for the measurements behind it).
pub const SENSITIVITY: f64 = 1.5;

/// Sorts per chunk, each of [`SORT_LEN`] pseudo-random words.
const SORTS: usize = 80;
/// Words per sort.
const SORT_LEN: usize = 2048;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One chunk of reference work; returns a value that depends on all of it.
pub fn chunk(seed: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ seed;
    let mut acc = 0;
    let mut buf = [0u64; SORT_LEN];
    for _ in 0..SORTS {
        for w in &mut buf {
            *w = xorshift(&mut x);
        }
        buf.sort_unstable();
        acc ^= buf[SORT_LEN / 2];
    }
    acc
}

/// Accumulates reference chunks run over some stretch of the benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpeedMeter {
    chunks: u32,
    secs: f64,
}

impl SpeedMeter {
    /// Runs one chunk and adds its duration.
    pub fn tick(&mut self) {
        let t = Instant::now();
        std::hint::black_box(chunk(u64::from(self.chunks)));
        self.add(1, t.elapsed().as_secs_f64());
    }

    /// Adds `chunks` chunks that took `secs` in total.
    pub fn add(&mut self, chunks: u32, secs: f64) {
        self.chunks += chunks;
        self.secs += secs;
    }

    /// Folds another meter's chunks into this one.
    pub fn merge(&mut self, other: SpeedMeter) {
        self.add(other.chunks, other.secs);
    }

    /// Total time spent in reference chunks.
    pub fn secs(&self) -> f64 {
        self.secs
    }

    /// Machine speed relative to the nominal machine: above 1 when chunks
    /// ran faster than [`NOMINAL_CHUNK_S`]. `1.0` before any chunk ran.
    pub fn speed(&self) -> f64 {
        if self.chunks == 0 || self.secs <= 0.0 {
            return 1.0;
        }
        NOMINAL_CHUNK_S * f64::from(self.chunks) / self.secs
    }

    /// Factor that turns a time measured alongside these chunks into a
    /// time on the nominal machine: the speed raised to [`SENSITIVITY`].
    pub fn scale(&self) -> f64 {
        self.speed().powf(SENSITIVITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_is_deterministic_work() {
        assert_eq!(chunk(7), chunk(7));
        assert_ne!(chunk(7), chunk(8));
    }

    #[test]
    fn speed_is_nominal_over_measured_chunk_time() {
        let mut m = SpeedMeter::default();
        assert_eq!(m.speed(), 1.0);
        m.add(10, 10.0 * NOMINAL_CHUNK_S);
        assert_eq!(m.speed(), 1.0);
        // Twice as slow a machine: half the speed.
        let mut slow = SpeedMeter::default();
        slow.add(10, 20.0 * NOMINAL_CHUNK_S);
        assert_eq!(slow.speed(), 0.5);
        assert_eq!(slow.scale(), 0.5f64.powf(SENSITIVITY));
        m.merge(slow);
        assert_eq!(m.speed(), 20.0 / 30.0);
        let mut real = SpeedMeter::default();
        real.tick();
        assert!(real.secs() > 0.0 && real.speed() > 0.0);
    }
}

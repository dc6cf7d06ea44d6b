//! F7b/C6: "a simple word counts, which is rapidly executed by Spark, can
//! locate the source of the problem" — word count over raw Lustre
//! messages, plus TF-IDF.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hpclog_core::analytics::text::{tf_idf, top_k, word_count_serial};
use loggen::events::Occurrence;
use loggen::failure::rng;
use loggen::lustre::render_error;

fn storm_messages(n: usize) -> Vec<String> {
    let mut r = rng(42);
    let occ = Occurrence {
        ts_ms: 0,
        event_type: "LUSTRE_ERR",
        node: 0,
        count: 1,
    };
    (0..n)
        .map(|i| {
            // 80% of the storm blames the dead OST, 20% is background noise.
            let forced = if i % 5 != 0 { Some(0x41) } else { None };
            render_error(&occ, forced, &mut r)
        })
        .collect()
}

fn bench_wordcount(c: &mut Criterion) {
    let mut group = c.benchmark_group("wordcount_tfidf");
    group.sample_size(10);

    for n in [10_000usize, 50_000] {
        let messages = storm_messages(n);
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |b, _| {
            b.iter(|| {
                let counts = word_count_serial(&messages);
                let top = top_k(&counts, 10);
                assert!(top.iter().any(|(w, _)| w == "OST0041"));
                top.len()
            })
        });
    }

    let messages = storm_messages(10_000);
    group.bench_function("tf_idf_10k", |b| b.iter(|| tf_idf(&messages).len()));
    group.finish();
}

criterion_group!(benches, bench_wordcount);
criterion_main!(benches);

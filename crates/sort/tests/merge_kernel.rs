//! The merge kernel against a stable sort, and its work pinned.
//!
//! `LoserTree` decides exact-prefix keys (the integers, `F64Key`) on one
//! integer per source, `(output-order prefix << 64) | source index`, with
//! `u128::MAX` standing for an exhausted source. These tests hold that
//! kernel to a stable sort by (key, source index) where it is easiest to
//! get wrong: real prefixes that meet the sentinel's high half, ties
//! across sources, every fan-in shape of the tree, sources that start
//! empty or run dry exactly at a batch edge, fold mode, and a source
//! error that strikes mid-batch. A second test pins what one seeded merge
//! costs, so a change to the kernel that does more (or less) work shows
//! as a changed count, not only as a changed wall time.

use std::collections::VecDeque;

use histok_sort::{CmpStats, FoldSpec, IterSource, LoserTree, RowSource};
use histok_types::{
    AggregateOp, BytesKey, Error, F64Key, Result, Row, RowBatch, SortKey, SortOrder,
};

/// A source that hands out the batches it was given, in order, then
/// reports exhaustion.
struct Scripted<K> {
    batches: VecDeque<RowBatch<K>>,
}

impl<K: SortKey> RowSource<K> for Scripted<K> {
    fn next_batch(&mut self, _target: usize) -> Result<Option<RowBatch<K>>> {
        Ok(self.batches.pop_front())
    }
}

type VecSource<K> = IterSource<std::vec::IntoIter<Result<Row<K>>>>;

/// One tree's sources: scripted ones and one that fails.
enum Either<K> {
    Scripted(Scripted<K>),
    Failing(VecSource<K>),
}

impl<K: SortKey> RowSource<K> for Either<K> {
    fn next_batch(&mut self, target: usize) -> Result<Option<RowBatch<K>>> {
        match self {
            Either::Scripted(s) => s.next_batch(target),
            Either::Failing(s) => s.next_batch(target),
        }
    }
}

/// Deterministic pseudo-random stream (64-bit LCG, high bits).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Payload naming a row's source and position, so the output shows which
/// equal-key row went first.
fn tag(source: usize, pos: usize) -> Vec<u8> {
    format!("{source}:{pos}").into_bytes()
}

/// Sorts `keys` into `order` and cuts them into batches at random edges,
/// so some sources run dry exactly where a batch ends.
fn scripted<K: SortKey>(
    rng: &mut Lcg,
    source: usize,
    mut keys: Vec<K>,
    order: SortOrder,
) -> (Scripted<K>, Vec<Row<K>>) {
    keys.sort_by(|a, b| order.cmp_keys(a, b));
    let rows: Vec<Row<K>> =
        keys.into_iter().enumerate().map(|(pos, k)| Row::new(k, tag(source, pos))).collect();
    let mut batches = VecDeque::new();
    let mut at = 0;
    while at < rows.len() {
        let len = 1 + rng.below(6) as usize;
        let end = (at + len).min(rows.len());
        batches.push_back(RowBatch::from_rows(rows[at..end].to_vec()));
        at = end;
    }
    (Scripted { batches }, rows)
}

/// The reference: every source's rows in one stable sort by key, ties
/// going to the lower source index (sources are concatenated in index
/// order and each is already sorted).
fn oracle<K: SortKey>(per_source: &[Vec<Row<K>>], order: SortOrder) -> Vec<Row<K>> {
    let mut all: Vec<Row<K>> = per_source.iter().flatten().cloned().collect();
    all.sort_by(|a, b| order.cmp_keys(&a.key, &b.key));
    all
}

/// Keeps the first row of each run of equal keys (what folding with
/// `AggregateOp::First` leaves).
fn first_of_each_key<K: SortKey>(rows: Vec<Row<K>>) -> Vec<Row<K>> {
    let mut out: Vec<Row<K>> = Vec::new();
    for row in rows {
        if out.last().is_none_or(|last| last.key != row.key) {
            out.push(row);
        }
    }
    out
}

/// Drains `tree` through `merge_into` in batches of `max_rows`, checking
/// the carried prefix column on the way.
fn drain<K: SortKey, S: RowSource<K>>(
    tree: &mut LoserTree<K, S>,
    max_rows: usize,
) -> Result<Vec<Row<K>>> {
    let mut out = Vec::new();
    let mut batch = RowBatch::new();
    loop {
        tree.merge_into(&mut batch, max_rows)?;
        if batch.is_empty() {
            return Ok(out);
        }
        assert!(batch.len() <= max_rows);
        for (row, &p) in batch.rows.iter().zip(&batch.prefixes) {
            assert_eq!(p, row.key.norm_prefix(), "prefix column out of step with its rows");
        }
        out.append(&mut batch.rows);
    }
}

fn same_rows<K: SortKey>(got: &[Row<K>], want: &[Row<K>], what: &str) {
    let view = |rows: &[Row<K>]| -> Vec<(K, Vec<u8>)> {
        rows.iter().map(|r| (r.key.clone(), r.payload.to_vec())).collect()
    };
    assert_eq!(view(got), view(want), "{what}");
}

/// Key domains whose edges meet the exhausted-source sentinel: the
/// largest output-order prefix a real key can have.
fn u64_key(rng: &mut Lcg, order: SortOrder) -> u64 {
    let edge = match order {
        SortOrder::Ascending => u64::MAX,
        SortOrder::Descending => 0,
    };
    match rng.below(8) {
        0 => edge,
        1 => edge ^ 1,
        _ => rng.below(12),
    }
}

fn f64_key(rng: &mut Lcg) -> F64Key {
    F64Key(match rng.below(8) {
        0 => f64::INFINITY,
        1 => f64::NEG_INFINITY,
        // The NaN whose normalized prefix is u64::MAX, and the one whose
        // prefix is 0: both ends of the prefix space are real keys.
        2 => f64::from_bits(0x7FFF_FFFF_FFFF_FFFF),
        3 => f64::from_bits(u64::MAX),
        _ => rng.below(6) as f64 - 2.0,
    })
}

/// Every fan-in shape, both orders, folding on and off, three drain
/// sizes: the batched and row-at-a-time drains equal the stable sort.
fn differential<K: SortKey>(name: &str, key: impl Fn(&mut Lcg, SortOrder) -> K) {
    for fan_in in [1usize, 2, 3, 5, 16, 17] {
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            for fold in [false, true] {
                for (round, max_rows) in [1usize, 7, 64].into_iter().enumerate() {
                    let mut rng = Lcg((fan_in as u64) << 8 | round as u64);
                    let make = |rng: &mut Lcg| {
                        let mut sources = Vec::new();
                        let mut rows = Vec::new();
                        for s in 0..fan_in {
                            // Every third source starts empty; the rest
                            // hold 1..40 rows.
                            let len = if s % 3 == 1 { 0 } else { 1 + rng.below(40) as usize };
                            let keys = (0..len).map(|_| key(rng, order)).collect();
                            let (src, r) = scripted(rng, s, keys, order);
                            sources.push(src);
                            rows.push(r);
                        }
                        (sources, rows)
                    };
                    let (sources, rows) = make(&mut Lcg(rng.0));
                    let (again, _) = make(&mut rng);
                    let mut want = oracle(&rows, order);
                    let total = want.len() as u64;
                    if fold {
                        want = first_of_each_key(want);
                    }
                    let what =
                        format!("{name} fan-in {fan_in} {order:?} fold {fold} by {max_rows}");
                    let spec = || fold.then(|| FoldSpec::new(AggregateOp::First.aggregator()));

                    let mut tree = LoserTree::new(sources, order).unwrap();
                    tree.set_fold(spec());
                    same_rows(&drain(&mut tree, max_rows).unwrap(), &want, &what);
                    assert_eq!(tree.rows_folded(), total - want.len() as u64, "{what}");

                    let mut tree = LoserTree::new(again, order).unwrap();
                    tree.set_fold(spec());
                    let by_row: Vec<Row<K>> = (&mut tree).map(|r| r.unwrap()).collect();
                    same_rows(&by_row, &want, &format!("{what}, row at a time"));
                }
            }
        }
    }
}

#[test]
fn u64_merges_equal_a_stable_sort_at_the_sentinel_edge() {
    differential("u64", u64_key);
}

#[test]
fn f64_merges_equal_a_stable_sort_with_infinities_and_nans() {
    differential("F64Key", |rng, _| f64_key(rng));
}

/// Equal keys in every source leave in source order, whatever the drain
/// size, including keys whose prefix is the largest a key can have.
#[test]
fn equal_keys_across_sources_go_to_the_lower_index() {
    for (order, k) in [(SortOrder::Ascending, u64::MAX), (SortOrder::Descending, 0)] {
        for fan_in in [2usize, 3, 5, 16, 17] {
            let sources: Vec<_> = (0..fan_in)
                .map(|s| {
                    let rows: Vec<Result<Row<u64>>> =
                        (0..3).map(|pos| Ok(Row::new(k, tag(s, pos)))).collect();
                    IterSource::new(rows.into_iter())
                })
                .collect();
            let mut tree = LoserTree::new(sources, order).unwrap();
            let got: Vec<Vec<u8>> =
                drain(&mut tree, 5).unwrap().into_iter().map(|r| r.payload.to_vec()).collect();
            let want: Vec<Vec<u8>> =
                (0..fan_in).flat_map(|s| (0..3).map(move |pos| tag(s, pos))).collect();
            assert_eq!(got, want, "{order:?} fan-in {fan_in}");
        }
    }
}

/// A source fails in the middle of a batch. Every row that sorts before
/// its last good row comes back first, in a short batch; the error comes
/// on the next call; then the tree stays done.
#[test]
fn a_mid_batch_error_is_latched_behind_the_rows_before_it() {
    for order in [SortOrder::Ascending, SortOrder::Descending] {
        for fan_in in [1usize, 2, 3, 5, 16, 17] {
            for failing in [0, fan_in / 2, fan_in - 1] {
                let mut rng = Lcg(fan_in as u64 * 31 + failing as u64);
                let mut sources = Vec::new();
                let mut rows = Vec::new();
                for s in 0..fan_in {
                    let len = 1 + rng.below(30) as usize;
                    let keys = (0..len).map(|_| u64_key(&mut rng, order)).collect();
                    let (mut src, r) = scripted(&mut rng, s, keys, order);
                    if s == failing {
                        // The error strikes behind the source's first
                        // batch, inside `IterSource`'s second pull.
                        let first = src.batches.pop_front().unwrap();
                        let items: Vec<Result<Row<u64>>> = first
                            .rows
                            .into_iter()
                            .map(Ok)
                            .chain([Err(Error::Corrupt("mid-batch".into()))])
                            .collect();
                        let good = items.len() - 1;
                        sources.push(Either::Failing(IterSource::new(items.into_iter())));
                        rows.push(r[..good].to_vec());
                    } else {
                        sources.push(Either::Scripted(src));
                        rows.push(r);
                    }
                }
                let last_good = rows[failing].last().unwrap().clone();
                let want = oracle(&rows, order);
                let cut = want
                    .iter()
                    .position(|r| r.payload == last_good.payload)
                    .expect("the failing source's last row is in the oracle");
                let what = format!("{order:?} fan-in {fan_in} failing {failing}");
                let mut tree = LoserTree::new(sources, order).unwrap();
                let mut got = Vec::new();
                let mut batch = RowBatch::new();
                let err = loop {
                    match tree.merge_into(&mut batch, 8) {
                        Ok(()) => {
                            assert!(!batch.is_empty(), "{what}: ended without the error");
                            got.append(&mut batch.rows);
                        }
                        Err(e) => break e,
                    }
                };
                assert!(matches!(err, Error::Corrupt(_)), "{what}");
                same_rows(&got, &want[..=cut], &what);
                tree.merge_into(&mut batch, 8).unwrap();
                assert!(batch.is_empty(), "{what}: not fused after the error");
            }
        }
    }
}

/// What one merge did: compares, batches out, rows folded, rows out and
/// an FNV-1a hash over every output key prefix and payload.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    ovc_cmps: u64,
    full_cmps: u64,
    batches_out: u64,
    rows_folded: u64,
    rows: u64,
    hash: u64,
}

/// A seeded 16-source merge with duplicates: sources 3 and 11 are empty,
/// sources 5, 8 and 13 hold a handful of rows and run dry early, the rest
/// hold a few hundred. `IterSource` cuts batches of 100 rows.
fn seeded_merge<K: SortKey>(order: SortOrder, fold: bool, key: impl Fn(u64) -> K) -> Work {
    let mut rng = Lcg(0x5EED);
    let sources: Vec<_> = (0..16usize)
        .map(|s| {
            let len = match s {
                3 | 11 => 0,
                5 | 8 | 13 => 1 + rng.below(5),
                _ => 200 + rng.below(300),
            };
            let mut keys: Vec<K> = (0..len).map(|_| key(rng.below(4_000))).collect();
            keys.sort_by(|a, b| order.cmp_keys(a, b));
            let rows: Vec<Result<Row<K>>> =
                keys.into_iter().enumerate().map(|(pos, k)| Ok(Row::new(k, tag(s, pos)))).collect();
            IterSource::new(rows.into_iter())
        })
        .collect();
    let stats = CmpStats::new();
    let mut tree = LoserTree::with_stats(sources, order, Some(stats.clone())).unwrap();
    tree.set_batch_target(100);
    tree.set_fold(fold.then(|| FoldSpec::new(AggregateOp::First.aggregator())));
    let out = drain(&mut tree, 256).unwrap();
    let rows_folded = tree.rows_folded();
    drop(tree);
    let snap = stats.snapshot();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for row in &out {
        for b in row.key.norm_prefix().to_le_bytes().iter().chain(row.payload.iter()) {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    Work {
        ovc_cmps: snap.ovc_cmps,
        full_cmps: snap.full_cmps,
        batches_out: snap.merge_batches,
        rows_folded,
        rows: out.len() as u64,
        hash,
    }
}

/// The work of three seeded merges, the integer ones taken from the kernel
/// that duelled on `Option` heads before the code column: a change to the
/// tree must leave every count and every output byte as it was. The byte
/// keys share a 14-byte prefix, so only offset-value coding spares a duel
/// the full comparison. The u64 merge plays the same tournament on keys of
/// the same order, so its match count is what a merge comparing full keys
/// in every match would pay: coding must spare at least half of it.
#[test]
fn a_seeded_sixteen_source_merge_does_pinned_work() {
    let shared = |k: u64| BytesKey::new(format!("shared-prefix-{k:012}"));
    let cases = [
        ("u64 ascending", seeded_merge(SortOrder::Ascending, false, |k| k)),
        (
            "F64Key descending, folding",
            seeded_merge(SortOrder::Descending, true, |k| F64Key(k as f64 / 8.0)),
        ),
        ("shared-prefix bytes", seeded_merge(SortOrder::Ascending, false, shared)),
    ];
    let pinned = [
        Work {
            ovc_cmps: 14_273,
            full_cmps: 0,
            batches_out: 15,
            rows_folded: 0,
            rows: 3_760,
            hash: 13_215_682_440_897_046_463,
        },
        Work {
            ovc_cmps: 14_040,
            full_cmps: 0,
            batches_out: 10,
            rows_folded: 1_313,
            rows: 2_447,
            hash: 11_739_870_026_536_850_965,
        },
        Work {
            ovc_cmps: 11_145,
            full_cmps: 6_874,
            batches_out: 15,
            rows_folded: 0,
            rows: 3_760,
            hash: 16_096_483_667_843_785_106,
        },
    ];
    for ((name, got), want) in cases.iter().zip(&pinned) {
        assert_eq!(got, want, "{name}");
    }
    let (matches, coded) = (&cases[0].1, &cases[2].1);
    assert!(
        2 * coded.full_cmps <= matches.ovc_cmps,
        "coding cut full compares only from {} to {}",
        matches.ovc_cmps,
        coded.full_cmps
    );
}

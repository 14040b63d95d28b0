"""Per-stage TSC cycles of a spilled row in replacement selection (DESIGN.md §7).

Patches a checkout of this repository in place, for measurement only; never
commit the result. Run it on a scratch copy of each commit to compare:

    python3 pr30_stage_harness.py <checkout>
    cargo build --release --manifest-path <checkout>/bench_e2e/Cargo.toml
    <checkout>/bench_e2e/target/release/bench_e2e --workload lineitem_k_large --seed 42

Every `ReplacementSelection` that spilled more than 100,000 rows prints one
line to stderr when it drops (one per query), in cycles per spilled row:

    select  = `SelectionHeap::push_pop` (the steady-state path only)
    encode  = `RunWriter::append` (encode + append into the block)
    observe = `SpillObserver::row_spilled`
    drop    = dropping the payload's `Bytes` (an `Arc` decrement)
    floor   = two timestamps back to back: the harness's own cost

Each timestamp is `mfence; lfence; rdtsc; lfence`, so a stage's loads have
retired before its end is read. `HARNESS_FENCE=0` in the environment reads
`rdtsc` alone, as PR 23's numbers were taken; then a stage that ends in a
cache miss is charged partly to the stage after it. x86-64 only.
"""
import sys

path = sys.argv[1] + "/crates/sort/src/run_gen/replacement_selection.rs"
src = open(path).read()

helper = r'''
#[allow(unsafe_code)]
#[inline(always)]
fn harness_ts() -> u64 {
    use std::arch::x86_64::{_mm_lfence, _mm_mfence, _rdtsc};
    static FENCE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    let fence = *FENCE.get_or_init(|| std::env::var("HARNESS_FENCE").map_or(true, |v| v != "0"));
    unsafe {
        if fence {
            _mm_mfence();
            _mm_lfence();
            let t = _rdtsc();
            _mm_lfence();
            t
        } else {
            _rdtsc()
        }
    }
}

/// Cycles and counts per stage: select, encode, observe, drop, floor.
#[derive(Default)]
struct HarnessStages {
    cycles: [u64; 5],
    counts: [u64; 5],
}

impl HarnessStages {
    fn add(&mut self, stage: usize, cycles: u64) {
        self.cycles[stage] += cycles;
        self.counts[stage] += 1;
    }
}
'''

def sub(old, new, count=1):
    global src
    assert src.count(old) == count, (old, src.count(old))
    src = src.replace(old, new)

sub("/// A buffered row and the bytes it is charged.", helper + "\n/// A buffered row and the bytes it is charged.")
sub("    bytes_folded: u64,\n}\n", "    bytes_folded: u64,\n    harness: HarnessStages,\n}\n")
sub("            bytes_folded: 0,\n        }", "            bytes_folded: 0,\n            harness: HarnessStages::default(),\n        }")
sub(
    "        writer.append(&row)?;\n        obs.row_spilled(&row.key);\n        self.last_written = Some(row.key);\n",
    "        let t0 = harness_ts();\n        writer.append(&row)?;\n        let t1 = harness_ts();\n"
    "        obs.row_spilled(&row.key);\n        let t2 = harness_ts();\n"
    "        let Row { key, payload } = row;\n        let t3 = harness_ts();\n        drop(payload);\n        let t4 = harness_ts();\n"
    "        let t5 = harness_ts();\n"
    "        self.harness.add(1, t1 - t0);\n        self.harness.add(2, t2 - t1);\n        self.harness.add(3, t4 - t3);\n        self.harness.add(4, t5 - t4);\n"
    "        self.last_written = Some(key);\n",
)
sub(
    "                let (run, out) = self.heap.push_pop(node, slot);\n",
    "                let t0 = harness_ts();\n                let (run, out) = self.heap.push_pop(node, slot);\n"
    "                let t1 = harness_ts();\n                self.harness.add(0, t1 - t0);\n",
)
sub(
    "impl<K: SortKey> Drop for ReplacementSelection<K> {\n    fn drop(&mut self) {\n",
    "impl<K: SortKey> Drop for ReplacementSelection<K> {\n    fn drop(&mut self) {\n"
    "        let h = &self.harness;\n"
    "        if h.counts[1] > 100_000 {\n"
    "            let per = |i: usize| h.cycles[i] as f64 / h.counts[i].max(1) as f64;\n"
    "            eprintln!(\"HARNESS spilled={} select={:.1} encode={:.1} observe={:.1} drop={:.1} floor={:.1}\", h.counts[1], per(0), per(1), per(2), per(3), per(4));\n"
    "        }\n",
)
open(path, "w").write(src)
print("patched", path)

//! Deterministic scoped parallelism for the lesm workspace.
//!
//! Every helper here guarantees that its result is **bit-identical for any
//! thread count**, including `threads = 1`. Floating-point addition is not
//! associative, so naive per-thread accumulation produces results that
//! drift with the degree of parallelism; lesm's pipelines promise seeded
//! byte-determinism, so that drift is unacceptable.
//!
//! The guarantee rests on two rules:
//!
//! 1. **Chunk layout depends only on the problem**, never on the thread
//!    count: [`chunk_ranges`] is a pure function of `(len, grain)`.
//! 2. **Reductions are a fixed left-to-right fold** over per-chunk
//!    buffers in chunk-index order ([`par_buffer_reduce`]). Threads only
//!    decide *when* each chunk buffer is filled, never how the partial
//!    results are grouped.
//!
//! # Adaptive dispatch
//!
//! Spawning scoped threads costs a few microseconds each; below a work
//! threshold that overhead exceeds the compute being distributed and
//! "parallel" calls get *slower* (BENCH_em_core.json recorded exactly
//! that for small EM fits). Every primitive therefore takes a required
//! [`WorkHint`] — an abstract work estimate in units of roughly one
//! floating-point multiply-add — which resolves the number of worker
//! threads:
//!
//! * below a fixed work threshold (the private `PAR_THRESHOLD`), one
//!   thread (run inline);
//! * otherwise `effective_threads(requested)` capped at the machine's
//!   available parallelism (oversubscribing a small box only adds
//!   scheduling overhead).
//!
//! The threshold can never change a result bit: chunk layout and fold
//! order are functions of the problem alone, so the sequential fallback
//! executes the very same chunks in the very same left-to-right order —
//! only the scheduling differs. Callers whose per-item cost is unknown
//! pass [`WorkHint::HEAVY`], which always honors the requested thread
//! count.
//!
//! Everything is built on [`std::thread::scope`] — no dependencies, no
//! thread pool, no unsafe code.

// DESIGN.md §10: library code must surface typed errors, not unwraps.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use std::num::NonZeroUsize;
use std::ops::Range;

/// Resolves a requested thread count: `0` means "use all available
/// parallelism", anything else is taken literally (minimum 1).
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// An abstract estimate of the work behind one parallel call, in units of
/// roughly one floating-point multiply-add (or comparable memory
/// traffic).
///
/// Every primitive falls back to sequential execution when the hinted
/// work is too small to amortize thread spawns. Hints influence
/// *scheduling only* — results are bit-identical whether a call runs
/// sequentially or parallel, so a wrong estimate can cost time but never
/// correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct WorkHint {
    units: u64,
}

impl WorkHint {
    /// Work that is always worth distributing. Use it when per-item cost
    /// is unknown and may be arbitrarily large (e.g. whole-document
    /// segmentation, a matrix-free operator application): it honors the
    /// requested thread count.
    pub const HEAVY: WorkHint = WorkHint { units: u64::MAX };

    /// A raw unit count.
    pub const fn units(units: u64) -> Self {
        Self { units }
    }

    /// `n` items at roughly `unit_cost` work units each (saturating).
    pub const fn items(n: usize, unit_cost: usize) -> Self {
        Self {
            units: (n as u64).saturating_mul(unit_cost as u64),
        }
    }

    /// The estimate in work units.
    pub const fn get(self) -> u64 {
        self.units
    }
}

/// Sequential-fallback threshold in [`WorkHint`] units.
///
/// Scoped spawns cost single-digit microseconds per thread and a work
/// unit is on the order of a nanosecond, so parallelism starts paying
/// for itself somewhere in the hundreds of thousands of units. The exact
/// value only moves the crossover point, never any result bit.
const PAR_THRESHOLD: u64 = 262_144;

/// Resolves how many worker threads a call should use: `1` when the
/// estimated work is below [`PAR_THRESHOLD`], otherwise the requested
/// count (with `0` meaning "all cores") capped at the machine's available
/// parallelism.
fn dispatch_threads(requested: usize, hint: WorkHint) -> usize {
    if hint.units < PAR_THRESHOLD {
        return 1;
    }
    effective_threads(requested)
        .min(effective_threads(0))
        .max(1)
}

/// Splits `0..len` into contiguous ranges of at most `grain` items.
///
/// The layout is a pure function of `(len, grain)` — it never depends on
/// the thread count, which is what makes chunked reductions reproducible.
/// `grain = 0` is treated as `grain = 1`. An empty input yields no ranges.
pub fn chunk_ranges(len: usize, grain: usize) -> Vec<Range<usize>> {
    let grain = grain.max(1);
    let mut ranges = Vec::with_capacity(len.div_ceil(grain));
    let mut start = 0;
    while start < len {
        let end = (start + grain).min(len);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// A `grain` that yields roughly `pieces` chunks over `len` items.
///
/// Useful for bounding merge cost: reductions pay `O(chunks × out_len)`
/// to fold, so callers pick a small fixed `pieces` (independent of the
/// thread count) and let threads share the chunks.
pub fn grain_for_pieces(len: usize, pieces: usize) -> usize {
    len.div_ceil(pieces.max(1)).max(1)
}

/// Reusable chunk-buffer storage for [`par_buffer_reduce_with`].
///
/// A chunked reduce needs one private accumulator buffer per chunk;
/// allocating and freeing those every call dominates the cost of
/// iteration-level callers (EM runs one reduce per iteration). A scratch
/// keeps the buffers alive between calls — they are re-zeroed, never
/// re-allocated, as long as the shape does not grow. The scratch carries
/// no result state, so reusing one across reduces of different shapes is
/// always safe and never changes any result bit.
#[derive(Debug, Default)]
pub struct ReduceScratch {
    buffers: Vec<Vec<f64>>,
}

impl ReduceScratch {
    /// An empty scratch (buffers are grown on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures `n_chunks` buffers of length `out_len`, all zeroed.
    fn prepare(&mut self, n_chunks: usize, out_len: usize) -> &mut [Vec<f64>] {
        if self.buffers.len() < n_chunks {
            self.buffers.resize_with(n_chunks, Vec::new);
        }
        for buf in &mut self.buffers[..n_chunks] {
            buf.clear();
            buf.resize(out_len, 0.0);
        }
        &mut self.buffers[..n_chunks]
    }

    /// Ensures a single zeroed buffer of length `out_len` — the only
    /// scratch the sequential fold path touches, regardless of how many
    /// chunks the layout has.
    fn prepare_one(&mut self, out_len: usize) -> &mut Vec<f64> {
        if self.buffers.is_empty() {
            self.buffers.push(Vec::new());
        }
        let buf = &mut self.buffers[0];
        buf.clear();
        buf.resize(out_len, 0.0);
        buf
    }
}

/// Chunked map-reduce into a flat `f64` accumulator, bit-identical for
/// any thread count.
///
/// Conceptually: split `0..n_items` into [`chunk_ranges`]`(n_items,
/// grain)`, have `fill(range, buf)` accumulate each chunk's contribution
/// into a zeroed `out_len`-length buffer, then fold the chunk buffers
/// into the result **elementwise, left to right in chunk order**:
///
/// ```text
/// out[i] = ((chunk0[i] + chunk1[i]) + chunk2[i]) + …
/// ```
///
/// Threads pick up whole chunks; since each chunk's buffer is computed
/// independently and the fold order is fixed, the result does not depend
/// on how chunks were scheduled. With one worker thread (requested, or
/// chosen by `hint`) the fills run inline on the caller's thread through
/// the *same* chunking and fold, so the serial result is the parallel
/// result.
pub fn par_buffer_reduce<F>(
    n_items: usize,
    grain: usize,
    threads: usize,
    hint: WorkHint,
    out_len: usize,
    fill: F,
) -> Vec<f64>
where
    F: Fn(Range<usize>, &mut [f64]) + Sync,
{
    let mut scratch = ReduceScratch::new();
    let mut out = vec![0.0; out_len];
    par_buffer_reduce_with(&mut scratch, n_items, grain, threads, hint, &mut out, fill);
    out
}

/// [`par_buffer_reduce`] into a caller-owned accumulator, reusing
/// `scratch` for the per-chunk buffers.
///
/// `out` is zeroed before the fold, so the call computes exactly the same
/// bits as `par_buffer_reduce(n_items, grain, threads, hint, out.len(),
/// fill)` — the scratch only removes the per-call allocation of the chunk
/// buffers (and of `out` itself). Iteration-level hot loops should hold
/// one scratch and one accumulator for their whole lifetime.
///
/// The sequential path folds each chunk into `out` as soon as it is
/// filled, reusing **one** chunk buffer instead of materializing all of
/// them. Per output element that computes `((0 + c0) + c1) + c2 + …` —
/// the identical grouping to the parallel N-buffer fold — while keeping
/// the working set at two buffers, which is what makes small reduces
/// cheap enough for the sequential fallback to pay off.
pub fn par_buffer_reduce_with<F>(
    scratch: &mut ReduceScratch,
    n_items: usize,
    grain: usize,
    threads: usize,
    hint: WorkHint,
    out: &mut [f64],
    fill: F,
) where
    F: Fn(Range<usize>, &mut [f64]) + Sync,
{
    let out_len = out.len();
    let chunks = chunk_ranges(n_items, grain);
    let threads = dispatch_threads(threads, hint).min(chunks.len()).max(1);

    if threads <= 1 {
        out.fill(0.0);
        let buf = scratch.prepare_one(out_len);
        for range in &chunks {
            fill(range.clone(), buf);
            // Fold this chunk in and re-zero the buffer for the next one
            // in a single pass.
            for (o, b) in out.iter_mut().zip(buf.iter_mut()) {
                *o += *b;
                *b = 0.0;
            }
        }
        return;
    }

    let buffers = scratch.prepare(chunks.len(), out_len);
    // Contiguous assignment of chunks to threads. Which thread fills a
    // buffer is irrelevant: each buffer lands in its chunk-index slot.
    let per_thread = chunks.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (chunk_group, buf_group) in chunks
            .chunks(per_thread)
            .zip(buffers.chunks_mut(per_thread))
        {
            scope.spawn(|| {
                for (range, buf) in chunk_group.iter().zip(buf_group.iter_mut()) {
                    fill(range.clone(), buf);
                }
            });
        }
    });

    // The fixed left-to-right fold. Zero is the additive identity, so
    // starting from a zeroed accumulator preserves the grouping above.
    // Each output element's fold is independent of the others, so wide
    // accumulators can split the element space across threads without
    // changing any element's summation order.
    out.fill(0.0);
    let fold_threads = threads.min(out_len / FOLD_PAR_MIN_ELEMENTS).max(1);
    if fold_threads <= 1 || buffers.len() <= 1 {
        for buf in buffers.iter() {
            for (o, b) in out.iter_mut().zip(buf.iter()) {
                *o += *b;
            }
        }
    } else {
        let per_thread = out_len.div_ceil(fold_threads);
        let buffers = &*buffers;
        std::thread::scope(|scope| {
            for (group_idx, out_group) in out.chunks_mut(per_thread).enumerate() {
                let base = group_idx * per_thread;
                scope.spawn(move || {
                    for buf in buffers {
                        let seg = &buf[base..base + out_group.len()];
                        for (o, b) in out_group.iter_mut().zip(seg) {
                            *o += *b;
                        }
                    }
                });
            }
        });
    }
}

/// Minimum output elements per fold thread before the left-to-right merge
/// in [`par_buffer_reduce`] is itself parallelized.
const FOLD_PAR_MIN_ELEMENTS: usize = 4096;

/// Evaluates `f(0), f(1), …, f(n-1)` in parallel, returning results in
/// index order.
///
/// Each index's value is computed independently, so the output is
/// trivially identical for any thread count. Use for embarrassingly
/// parallel maps: per-document segmentation, per-restart power
/// iterations, per-column matrix products.
pub fn par_map_collect<T, F>(n: usize, threads: usize, hint: WorkHint, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_collect_scratch(n, threads, hint, || (), |i, ()| f(i))
}

/// [`par_map_collect`] with a per-worker scratch value.
///
/// `init()` builds one scratch per worker thread (one total on the
/// sequential path); `f(i, &mut scratch)` may use it freely for
/// temporary storage. Because which indices share a scratch depends on
/// the thread count, `f` **must not let scratch contents influence its
/// output** — treat every field it reads as uninitialized until
/// overwritten. Under that contract results are bit-identical for any
/// thread count, and allocation-heavy maps (tensor power restarts) can
/// reuse their temporaries across items.
pub fn par_map_collect_scratch<T, S, F, I>(
    n: usize,
    threads: usize,
    hint: WorkHint,
    init: I,
    f: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    let threads = dispatch_threads(threads, hint).min(n).max(1);
    if threads <= 1 {
        let mut scratch = init();
        return (0..n).map(|i| f(i, &mut scratch)).collect();
    }
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let per_thread = n.div_ceil(threads);
    let (f, init) = (&f, &init);
    std::thread::scope(|scope| {
        for (group_idx, slot_group) in out.chunks_mut(per_thread).enumerate() {
            let base = group_idx * per_thread;
            scope.spawn(move || {
                let mut scratch = init();
                for (offset, slot) in slot_group.iter_mut().enumerate() {
                    *slot = Some(f(base + offset, &mut scratch));
                }
            });
        }
    });
    out.into_iter()
        // lesm-lint: allow(R1) — the scope joins every worker and the chunks cover all slots
        .map(|slot| slot.expect("par_map_collect slot unfilled"))
        .collect()
}

/// Applies `f(block_index, block)` to every `block_len`-sized block of a
/// flat buffer (the final block may be shorter), in parallel over
/// disjoint groups of whole blocks.
///
/// With `block_len` equal to the row length of a row-major matrix the
/// blocks are exactly its rows; register-blocked kernels pass a block of
/// several rows, where the last block may be short. Thread-group
/// boundaries always fall on block boundaries, so each block is processed
/// by exactly one worker. An empty buffer is a no-op; otherwise panics if
/// `block_len` is zero.
pub fn par_for_blocks<F>(data: &mut [f64], block_len: usize, threads: usize, hint: WorkHint, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(
        block_len > 0,
        "par_for_blocks requires a positive block length"
    );
    let n_blocks = data.len().div_ceil(block_len);
    let threads = dispatch_threads(threads, hint).min(n_blocks).max(1);
    if threads <= 1 {
        for (i, block) in data.chunks_mut(block_len).enumerate() {
            f(i, block);
        }
        return;
    }
    let per_thread = n_blocks.div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        for (group_idx, group) in data.chunks_mut(per_thread * block_len).enumerate() {
            let base = group_idx * per_thread;
            scope.spawn(move || {
                for (offset, block) in group.chunks_mut(block_len).enumerate() {
                    f(base + offset, block);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The thread counts and hints every primitive is checked against:
    /// `units(1)` always takes the sequential fallback, `HEAVY` always
    /// fans out to the requested threads (capped at the machine's cores).
    const THREADS: [usize; 4] = [1, 2, 3, 8];
    const HINTS: [WorkHint; 2] = [WorkHint::units(1), WorkHint::HEAVY];

    #[test]
    fn chunk_layout_ignores_thread_count() {
        // The layout is a function of (len, grain) only; sanity-check the
        // arithmetic at the boundaries.
        assert_eq!(chunk_ranges(0, 4), vec![]);
        assert_eq!(chunk_ranges(3, 4), vec![0..3]);
        assert_eq!(chunk_ranges(8, 4), vec![0..4, 4..8]);
        assert_eq!(chunk_ranges(9, 4), vec![0..4, 4..8, 8..9]);
        assert_eq!(chunk_ranges(5, 0), chunk_ranges(5, 1));
    }

    #[test]
    fn grain_for_pieces_covers_everything() {
        for len in [0usize, 1, 7, 100, 1001] {
            for pieces in [1usize, 3, 8, 64] {
                let grain = grain_for_pieces(len, pieces);
                let chunks = chunk_ranges(len, grain);
                assert!(chunks.len() <= pieces.max(1) + 1);
                let covered: usize = chunks.iter().map(|r| r.len()).sum();
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn work_hint_arithmetic_saturates() {
        assert_eq!(WorkHint::items(3, 5).get(), 15);
        assert_eq!(WorkHint::items(usize::MAX, 2).get(), u64::MAX);
        assert_eq!(WorkHint::units(7).get(), 7);
        assert!(WorkHint::HEAVY > WorkHint::units(u64::MAX - 1));
    }

    #[test]
    fn dispatch_serializes_small_work_and_caps_at_cores() {
        // Below threshold: one thread no matter what was requested.
        assert_eq!(dispatch_threads(8, WorkHint::units(PAR_THRESHOLD - 1)), 1);
        assert_eq!(dispatch_threads(0, WorkHint::units(0)), 1);
        // At/above threshold: requested count, capped at real cores.
        let cores = effective_threads(0);
        assert_eq!(dispatch_threads(1, WorkHint::HEAVY), 1);
        assert_eq!(dispatch_threads(cores + 64, WorkHint::HEAVY), cores);
        assert_eq!(
            dispatch_threads(2, WorkHint::units(PAR_THRESHOLD)),
            2usize.min(cores)
        );
    }

    /// Adversarial mix of magnitudes so any change in summation grouping
    /// changes the bits of the result.
    fn wild_values(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mag: f64 = rng.gen_range(-12.0f64..12.0);
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                sign * 10f64.powf(mag)
            })
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_primitive_is_bit_identical_across_threads_and_hints() {
        // One reference per primitive at (threads 1, sequential hint);
        // every other (threads, hint) cell must reproduce it bit for bit.
        // The hint can only change scheduling, never grouping.
        let values = wild_values(2029, 11);
        let fill = |range: Range<usize>, buf: &mut [f64]| {
            for i in range {
                buf[i % 7] += values[i];
                buf[6] += values[i] * 0.5;
            }
        };
        let map = |i: usize| values[i] * values[(i * 7) % values.len()] + values[i].abs().sqrt();
        let blocks = |threads: usize, hint: WorkHint| {
            let mut data = vec![0.0f64; 301];
            par_for_blocks(&mut data, 13, threads, hint, |b, block| {
                let mut acc = 0.0;
                for (i, x) in block.iter_mut().enumerate() {
                    acc += values[b * 13 + i];
                    *x = acc;
                }
            });
            data
        };
        let reduce_ref = bits(&par_buffer_reduce(values.len(), 64, 1, HINTS[0], 7, fill));
        let map_ref = bits(&par_map_collect(values.len(), 1, HINTS[0], map));
        let blocks_ref = bits(&blocks(1, HINTS[0]));
        for threads in THREADS {
            for hint in HINTS {
                let cell = format!("threads={threads} hint={hint:?}");
                let reduce = par_buffer_reduce(values.len(), 64, threads, hint, 7, fill);
                assert_eq!(bits(&reduce), reduce_ref, "reduce {cell}");
                let mapped = par_map_collect(values.len(), threads, hint, map);
                assert_eq!(bits(&mapped), map_ref, "map {cell}");
                assert_eq!(bits(&blocks(threads, hint)), blocks_ref, "blocks {cell}");
            }
        }
    }

    #[test]
    fn sequential_fold_handles_negative_zero_chunks() {
        // A chunk buffer element that ends as -0.0 must fold to +0.0
        // (0.0 + -0.0), exactly like the N-buffer fold always did.
        let fill = |range: Range<usize>, buf: &mut [f64]| {
            for _ in range {
                buf[0] = -0.0;
            }
        };
        let seq = par_buffer_reduce(10, 5, 4, WorkHint::units(1), 1, fill);
        let par = par_buffer_reduce(10, 5, 4, WorkHint::HEAVY, 1, fill);
        assert_eq!(seq[0].to_bits(), par[0].to_bits());
        assert_eq!(seq[0].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn wide_accumulators_use_the_parallel_fold_and_stay_bit_identical() {
        // out_len > FOLD_PAR_MIN_ELEMENTS exercises the threaded merge.
        let out_len = FOLD_PAR_MIN_ELEMENTS * 3;
        let values = wild_values(out_len * 4, 7);
        let fill = |range: Range<usize>, buf: &mut [f64]| {
            for i in range {
                buf[i % out_len] += values[i];
            }
        };
        let heavy = WorkHint::HEAVY;
        let reference = bits(&par_buffer_reduce(
            values.len(),
            1000,
            1,
            heavy,
            out_len,
            fill,
        ));
        for threads in [2usize, 3, 5, 8] {
            let got = par_buffer_reduce(values.len(), 1000, threads, heavy, out_len, fill);
            assert_eq!(bits(&got), reference, "threads={threads}");
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_allocation() {
        let values = wild_values(777, 3);
        let fill = |range: Range<usize>, buf: &mut [f64]| {
            for i in range {
                buf[i % 5] += values[i];
            }
        };
        let heavy = WorkHint::HEAVY;
        let want = par_buffer_reduce(values.len(), 53, 1, heavy, 5, fill);
        let mut scratch = ReduceScratch::new();
        let mut out = vec![f64::NAN; 5]; // stale contents must be ignored
        for threads in [1usize, 2, 4] {
            par_buffer_reduce_with(
                &mut scratch,
                values.len(),
                53,
                threads,
                heavy,
                &mut out,
                fill,
            );
            assert_eq!(bits(&out), bits(&want), "threads={threads}");
        }
        // Reusing the same scratch with a different shape is also exact,
        // including when a sequential-path use follows a parallel one.
        let sum_fill = |range: Range<usize>, buf: &mut [f64]| {
            for i in range {
                buf[0] += values[i];
            }
        };
        let want1 = par_buffer_reduce(values.len(), 97, 1, heavy, 1, sum_fill);
        for hint in [heavy, WorkHint::units(1)] {
            let mut out1 = vec![f64::NAN; 1];
            par_buffer_reduce_with(&mut scratch, values.len(), 97, 3, hint, &mut out1, sum_fill);
            assert_eq!(want1[0].to_bits(), out1[0].to_bits(), "hint={hint:?}");
        }
    }

    #[test]
    fn buffer_reduce_handles_degenerate_shapes() {
        let heavy = WorkHint::HEAVY;
        let out = par_buffer_reduce(0, 8, 4, heavy, 3, |_r, _b| unreachable!());
        assert_eq!(out, vec![0.0; 3]);
        let out = par_buffer_reduce(5, 100, 4, heavy, 1, |r, b| b[0] += r.len() as f64);
        assert_eq!(out, vec![5.0]);
    }

    #[test]
    fn map_collect_preserves_index_order() {
        for threads in [1usize, 2, 3, 8, 64] {
            let got = par_map_collect(23, threads, WorkHint::HEAVY, |i| i * i);
            let want: Vec<usize> = (0..23).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
        assert!(par_map_collect(0, 4, WorkHint::HEAVY, |i| i).is_empty());
    }

    #[test]
    fn map_collect_scratch_matches_plain_map() {
        // A scratch used as pure temporary storage (overwritten before
        // every read) must not change any output, sequential or parallel.
        for threads in [1usize, 2, 4] {
            for hint in HINTS {
                let got = par_map_collect_scratch(
                    17,
                    threads,
                    hint,
                    || vec![0.0f64; 4],
                    |i, tmp| {
                        for (j, t) in tmp.iter_mut().enumerate() {
                            *t = (i * 4 + j) as f64;
                        }
                        tmp.iter().sum::<f64>()
                    },
                );
                let want: Vec<f64> = (0..17)
                    .map(|i| (0..4).map(|j| (i * 4 + j) as f64).sum())
                    .collect();
                assert_eq!(got, want, "threads={threads} hint={hint:?}");
            }
        }
    }

    #[test]
    fn for_blocks_covers_ragged_tails() {
        // (len, block_len): 7 full blocks of 6 plus a tail of 2; an exact
        // multiple (17 rows of 5, the row-major matrix shape); and an
        // empty buffer, which never calls `f` even with a zero block length.
        for (len, block_len) in [(44usize, 6usize), (85, 5), (0, 0)] {
            for threads in THREADS {
                for hint in HINTS {
                    let mut data = vec![0.0f64; len];
                    par_for_blocks(&mut data, block_len, threads, hint, |b, block| {
                        for (i, x) in block.iter_mut().enumerate() {
                            *x = (b * block_len + i) as f64 + 1.0;
                        }
                    });
                    let want: Vec<f64> = (0..len).map(|i| i as f64 + 1.0).collect();
                    assert_eq!(data, want, "len={len} threads={threads} hint={hint:?}");
                }
            }
        }
    }

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }
}

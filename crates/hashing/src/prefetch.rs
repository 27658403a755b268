//! A safe software-prefetch wrapper for batched table walks.
//!
//! Batched ingestion computes every slot a batch will touch before it
//! touches any of them, so the slots can be pulled toward L1 while the
//! CPU is still hashing the next keys. On x86_64 this lowers to
//! `_mm_prefetch` with the T0 hint; on other targets it is a no-op, so
//! callers never need a `cfg` of their own.
//!
//! This is the one place in the workspace that uses an `unsafe` intrinsic
//! (prefetching has no architectural side effects — it can neither fault
//! nor alter program state — but the intrinsic is declared `unsafe fn`).
//! The crate-level lint is `deny(unsafe_code)` with a scoped allow here.

/// Hints the CPU to pull `slice[index]` toward L1 for a future read.
///
/// The hint covers the whole element: a `T` larger than its alignment
/// (a 20-byte main-table bucket at 4-byte alignment, say) can start near
/// the end of one cache line and finish in the next, so its last byte is
/// hinted as well as its first. Elements that cannot straddle a line get
/// one hint.
///
/// Out-of-range indices are ignored (a prefetch is advisory; the caller's
/// later real access carries the bounds check that matters).
///
/// # Examples
///
/// ```
/// use hashflow_hashing::prefetch_read;
/// let table = vec![0u64; 1024];
/// prefetch_read(&table, 512);
/// prefetch_read(&table, 9999); // out of range: ignored
/// ```
#[inline(always)]
pub fn prefetch_read<T>(slice: &[T], index: usize) {
    if let Some(cell) = slice.get(index) {
        let first = (cell as *const T).cast::<u8>();
        prefetch_line(first);
        if size_of::<T>() > align_of::<T>() {
            // Still inside `*cell`, so the address stays in bounds.
            prefetch_line(first.wrapping_add(size_of::<T>() - 1));
        }
    }
}

#[inline(always)]
#[allow(unsafe_code)]
fn prefetch_line(byte: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 never dereferences architecturally: it cannot
    // fault and has no side effects, whatever address it is given (both
    // callers pass one inside a live `&T`).
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(byte.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = byte;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_side_effect_free() {
        let data: Vec<u32> = (0..100).collect();
        for i in 0..200 {
            prefetch_read(&data, i);
        }
        assert_eq!(data[99], 99, "prefetching never mutates");
        let empty: [u8; 0] = [];
        prefetch_read(&empty, 0);
    }
}

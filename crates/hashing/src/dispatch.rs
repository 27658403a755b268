//! Which compiled copy of the lane kernel a batch runs through.
//!
//! [`HashLanes::fill_body`] is one safe source body compiled twice: as is
//! (the x86-64 baseline, and all there is elsewhere), and inside
//! [`fill_avx512`], a wrapper that only carries `#[target_feature]`, so
//! the always-inlined body gets AVX-512's 64-bit vector multiply and
//! rotate (`vpmullq`, `vprolq`) — what an xxHash64 chain is made of. AVX2
//! has neither and measured like the baseline, so there is no third copy.
//! No intrinsics: the vectorising is the compiler's, and both copies
//! compute the same values by construction.
//!
//! # Safety
//!
//! Calling a `#[target_feature]` function is `unsafe` because executing
//! an instruction the CPU lacks is undefined behaviour. The one such call
//! is reached only through a [`KernelCopy`] whose private `avx512` flag is
//! set, and only [`KernelCopy::best`] sets it, from
//! `is_x86_feature_detected!` on exactly the features the wrapper enables
//! — one test per batch. The wrapper itself forwards to safe code. This is
//! the crate's second and last scoped `allow(unsafe_code)`, next to
//! `prefetch`.

use crate::lanes::SHORT_BATCH;
use crate::{HashLanes, KeyHasher};
use hashflow_types::FlowKey;

/// A compiled copy of the lane kernel that this CPU can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCopy {
    avx512: bool,
}

impl KernelCopy {
    /// The copy every CPU of the target architecture runs.
    pub const BASELINE: KernelCopy = KernelCopy { avx512: false };

    /// The widest copy this CPU runs (one cached feature test).
    #[inline]
    pub fn best() -> KernelCopy {
        #[cfg(target_arch = "x86_64")]
        let avx512 = std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("avx512dq")
            && std::is_x86_feature_detected!("avx512vl");
        #[cfg(not(target_arch = "x86_64"))]
        let avx512 = false;
        KernelCopy { avx512 }
    }

    /// `"baseline"` or `"avx512"`.
    pub const fn name(self) -> &'static str {
        ["baseline", "avx512"][self.avx512 as usize]
    }

    /// Runs [`HashLanes::fill_body`] as this copy.
    #[inline(always)]
    #[allow(unsafe_code)]
    pub(crate) fn fill<'a, H: KeyHasher + 'a, P: Copy>(
        self,
        out: &mut HashLanes,
        keys: impl Iterator<Item = FlowKey>,
        lanes: impl Iterator<Item = (&'a H, P)> + Clone,
        finish: impl Fn(u64, P) -> u64,
    ) {
        // A short batch never reaches the vector loops, so it need not
        // leave the caller's code for the feature-gated copy either.
        #[cfg(target_arch = "x86_64")]
        if self.avx512 && keys.size_hint().1.is_none_or(|n| n >= SHORT_BATCH) {
            // SAFETY: `avx512` is set by `best` alone, after the CPU
            // reported every feature `fill_avx512` enables.
            return unsafe { fill_avx512(out, keys, lanes, finish) };
        }
        // No 64-bit vector multiply below AVX-512 (nor in NEON), and the
        // stand-in a vectoriser builds from 32-bit ones loses to the
        // scalar multiplier: an opaque identity on every hash keeps this
        // copy's lane loops scalar.
        out.fill_body(keys, lanes, |hash, p| finish(std::hint::black_box(hash), p));
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn fill_avx512<'a, H: KeyHasher + 'a, P: Copy>(
    out: &mut HashLanes,
    keys: impl Iterator<Item = FlowKey>,
    lanes: impl Iterator<Item = (&'a H, P)> + Clone,
    finish: impl Fn(u64, P) -> u64,
) {
    out.fill_body(keys, lanes, finish);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copies_are_named_for_what_they_are() {
        assert_eq!(KernelCopy::BASELINE.name(), "baseline");
        let best = KernelCopy::best();
        assert_eq!(best == KernelCopy::BASELINE, best.name() == "baseline");
    }
}

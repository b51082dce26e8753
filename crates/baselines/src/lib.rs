//! # bond-baselines — the methods BOND is compared against
//!
//! Three baselines appear in the paper's evaluation:
//!
//! * **Sequential scan** ([`seqscan`]) — "an optimized implementation of
//!   sequentially scanning a single table with all vectors", maintaining a
//!   heap of the k best matches. The histogram-intersection and Euclidean
//!   instantiations are the SSH and SSE rows of Table 3. The paper also
//!   mentions (footnote 6) a "more sophisticated" early-abandoning variant
//!   that turned out to be slower on average; it is provided too.
//! * **VA-File** ([`vafile`]) — Weber, Schek & Blott's vector-approximation
//!   file: an 8-bit-per-dimension approximation (a whole-table
//!   `vdstore::StoreCodes`) is scanned by the engine's quantized sweep to
//!   produce a candidate set with safe lower/upper bounds, and an exact
//!   refinement step resolves the final answer. Used in Table 4.
//! * **Stream merging** ([`stream_merge`]) — the classical way to evaluate
//!   multi-feature queries (Fagin; Güntzer et al.): obtain a ranked stream
//!   of results per feature and merge them with a threshold-style algorithm
//!   that performs random accesses into the other features. Used as the
//!   comparison point for synchronized BOND search in Section 8.2.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod seqscan;
pub mod stream_merge;
pub mod vafile;

pub use seqscan::{sequential_scan, sequential_scan_early_abandon, ScanResult};
pub use stream_merge::{merge_streams, MergeResult, RankedStream};
pub use vafile::{VaFile, VaSearchResult};

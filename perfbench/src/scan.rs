//! The host-speed reference: a sequential brute-force scan of the
//! workload's own table, by the benchmark's own code.
//!
//! A shared host runs the same work at different speeds from one minute
//! to the next: when neighbours load it, every request takes longer for
//! reasons outside the program. The benchmark therefore serves its
//! traffic in short slices and times, between them, a fixed sequential
//! scan of the table. Latencies are reported as multiples of the scan
//! time taken around the slice they fall in — the paper's own yardstick,
//! response time against a sequential scan — so that a slow phase of the
//! host moves both and leaves their ratio. The scan is the oracle's
//! scoring loop over the generated heap table; it calls no engine code,
//! so a change to the program cannot move it.

use std::time::Instant;

use crate::oracle;
use crate::workload::Inputs;

/// Cells one probe scores, at least: about 10 ms of work on the
/// benchmark host, long enough that a single timing is steady.
const PROBE_CELLS: usize = 8_000_000;

/// A fixed sequential scan of one workload's table.
#[derive(Debug, Clone)]
pub struct ScanProbe {
    /// Full-table scans per probe.
    reps: usize,
}

impl ScanProbe {
    /// The probe of `inputs`' table.
    pub fn new(inputs: &Inputs) -> ScanProbe {
        let cells = (inputs.table.rows() * inputs.table.dims()).max(1);
        ScanProbe { reps: PROBE_CELLS.div_ceil(cells) }
    }

    /// Runs the probe on the calling thread: scores every row of the
    /// table against `reps` of the pool's queries. Returns the time of
    /// one full-table scan, in milliseconds.
    pub fn time_ms(&self, inputs: &Inputs) -> f64 {
        let start = Instant::now();
        for r in 0..self.reps {
            let q = inputs.pool[r % inputs.pool.len()].spec.vector();
            let order: Vec<usize> = (0..q.len()).collect();
            std::hint::black_box(oracle::scores(&inputs.table, inputs.score, q, &order));
        }
        start.elapsed().as_secs_f64() * 1e3 / self.reps as f64
    }
}

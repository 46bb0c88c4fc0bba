//! One-second windows of the timed loop, and the choice of the windows
//! a run is measured over.
//!
//! The hypervisor of a shared box steals CPU in bursts lasting seconds:
//! a window that lost a third of its CPU answers a third fewer requests,
//! and slower. Far less steal already shows in a read's tail: a 1-5 ms
//! stall on one 0.4 ms read in a hundred is a whole p99. A window is
//! *quiet* when its steal is at most [`QUIET_STEAL`] of its CPU
//! capacity. End-to-end figures pool every quiet window, then add the
//! least-stolen others until the pool is big enough for the figure: a
//! sixth of the run, and a thousand samples for read figures and the
//! write p99. The choice reads steal only, never the figures measured.

/// Steal share of a window's CPU capacity up to which it counts as quiet.
pub const QUIET_STEAL: f64 = 0.01;

/// A stretch of the run with its own CPU and steal readings.
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub secs: f64,
    /// Process CPU time (user + sys) spent in the window, seconds.
    pub cpu_s: f64,
    /// Hypervisor steal over all CPUs in the window, seconds.
    pub steal_s: f64,
    /// Round trips of the reads and writes completed in the window, ns.
    pub reads: Vec<u64>,
    pub writes: Vec<u64>,
}

impl Window {
    pub fn steal_share(&self, nproc: usize) -> f64 {
        self.steal_s / (self.secs * nproc as f64)
    }

    pub fn ops(&self) -> usize {
        self.reads.len() + self.writes.len()
    }
}

/// The windows to measure over: every quiet one, then the least-stolen
/// others while `enough(reads, writes, windows)` of the pool is false
/// (or until every window is in). Returned in run order.
pub fn pick(
    windows: &[Window],
    nproc: usize,
    enough: impl Fn(usize, usize, usize) -> bool,
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..windows.len()).collect();
    order.sort_by(|&a, &b| {
        windows[a]
            .steal_share(nproc)
            .total_cmp(&windows[b].steal_share(nproc))
            .then(a.cmp(&b))
    });
    let (mut reads, mut writes) = (0, 0);
    let mut chosen = Vec::new();
    for k in order {
        let w = &windows[k];
        if w.steal_share(nproc) > QUIET_STEAL && enough(reads, writes, chosen.len()) {
            break;
        }
        reads += w.reads.len();
        writes += w.writes.len();
        chosen.push(k);
    }
    chosen.sort_unstable();
    chosen
}

/// The chosen windows merged into one.
pub fn pool(windows: &[Window], chosen: &[usize]) -> Window {
    let mut all = Window::default();
    for &k in chosen {
        let w = &windows[k];
        all.secs += w.secs;
        all.cpu_s += w.cpu_s;
        all.steal_s += w.steal_s;
        all.reads.extend_from_slice(&w.reads);
        all.writes.extend_from_slice(&w.writes);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(steal_s: f64, reads: usize) -> Window {
        Window {
            secs: 1.0,
            cpu_s: 1.0,
            steal_s,
            reads: vec![1; reads],
            writes: Vec::new(),
        }
    }

    #[test]
    fn quiet_windows_all_count_and_noisy_ones_only_fill_the_pool() {
        // nproc 2: quiet means at most 0.02 s of steal per second.
        let ws = vec![w(0.0, 10), w(0.6, 5), w(0.01, 10), w(0.3, 6), w(0.2, 7)];
        assert_eq!(pick(&ws, 2, |r, _, _| r >= 5), vec![0, 2]);
        assert_eq!(pick(&ws, 2, |r, _, _| r >= 25), vec![0, 2, 4]);
        assert_eq!(pick(&ws, 2, |_, _, n| n >= 4), vec![0, 2, 3, 4]);
        assert_eq!(pick(&ws, 2, |r, _, _| r >= 1000), vec![0, 1, 2, 3, 4]);
        let p = pool(&ws, &[0, 4]);
        assert_eq!((p.secs, p.reads.len()), (2.0, 17));
        assert!((p.steal_s - 0.2).abs() < 1e-12);
    }

    #[test]
    fn writes_can_demand_more_windows() {
        let mut ws = vec![w(0.0, 100), w(0.3, 100)];
        ws[1].writes = vec![1; 20];
        assert_eq!(pick(&ws, 2, |r, _, _| r >= 10), vec![0]);
        assert_eq!(pick(&ws, 2, |r, w, _| r >= 10 && w >= 10), vec![0, 1]);
    }
}

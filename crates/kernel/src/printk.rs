//! The kernel log (`printk`/dmesg analog).

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Lines a [`Printk`] keeps. Past this, each new line drops the oldest
/// (like the kernel's fixed `log_buf`), so a long-running fleet that
/// logs every fault-in and eviction holds bounded memory.
const PRINTK_CAPACITY: usize = 4096;

/// Ring buffer of the last `PRINTK_CAPACITY` (4096) kernel log lines
/// with boot-relative timestamps, mirroring dmesg (the artifact
/// appendix's re-randomization statistics are read from here).
pub struct Printk {
    boot: Instant,
    lines: Mutex<Ring>,
    /// Per-key emission counts for [`Printk::log_limited`]:
    /// `key → (occurrences, suppressed since last emit)`.
    limited: Mutex<HashMap<String, (u64, u64)>>,
    echo: bool,
}

impl Printk {
    /// Create a log; `echo` mirrors lines to stderr as they arrive.
    pub fn new(echo: bool) -> Printk {
        Printk {
            boot: Instant::now(),
            lines: Mutex::new(Ring::default()),
            limited: Mutex::new(HashMap::new()),
            echo,
        }
    }

    /// Append a line.
    pub fn log(&self, msg: impl Into<String>) {
        let t = self.boot.elapsed().as_secs_f64();
        let msg = msg.into();
        if self.echo {
            eprintln!("[{t:>10.6}] {msg}");
        }
        let mut ring = self.lines.lock();
        if ring.lines.len() == PRINTK_CAPACITY {
            ring.lines.pop_front();
            ring.dropped += 1;
        }
        ring.lines.push_back((t, msg));
    }

    /// Append a line under a per-key rate limit: the 1st, 2nd, 4th,
    /// 8th, … occurrence of `key` is logged (with a suppressed-count
    /// suffix once lines have been dropped), the rest are counted and
    /// swallowed — the `printk_ratelimited` analog, but deterministic
    /// (occurrence-based, not wall-time-based, so seeded virtual-clock
    /// runs stay byte-identical). Returns whether the line was emitted.
    pub fn log_limited(&self, key: &str, msg: impl Into<String>) -> bool {
        let (emit, suppressed) = {
            let mut limited = self.limited.lock();
            let slot = limited.entry(key.to_string()).or_insert((0, 0));
            slot.0 += 1;
            if slot.0.is_power_of_two() {
                let suppressed = slot.1;
                slot.1 = 0;
                (true, suppressed)
            } else {
                slot.1 += 1;
                (false, 0)
            }
        };
        if emit {
            let msg = msg.into();
            if suppressed > 0 {
                self.log(format!("{msg} ({suppressed} similar suppressed)"));
            } else {
                self.log(msg);
            }
        }
        emit
    }

    /// All retained lines, dmesg-formatted.
    pub fn dmesg(&self) -> String {
        self.lines
            .lock()
            .lines
            .iter()
            .map(|(t, m)| format!("[{t:>10.6}] {m}\n"))
            .collect()
    }

    /// Retained lines containing `needle` (test helper).
    pub fn grep(&self, needle: &str) -> Vec<String> {
        self.lines
            .lock()
            .lines
            .iter()
            .filter(|(_, m)| m.contains(needle))
            .map(|(_, m)| m.clone())
            .collect()
    }

    /// Number of lines retained (at most `PRINTK_CAPACITY`).
    pub fn len(&self) -> usize {
        self.lines.lock().lines.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.lines.lock().lines.is_empty()
    }

    /// Lines dropped to make room, oldest first, since boot.
    pub fn dropped(&self) -> u64 {
        self.lines.lock().dropped
    }
}

/// The retained lines plus how many older ones were dropped.
#[derive(Default)]
struct Ring {
    lines: VecDeque<(f64, String)>,
    dropped: u64,
}

impl std::fmt::Debug for Printk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Printk")
            .field("lines", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_and_grep() {
        let p = Printk::new(false);
        p.log("Randomize: kthread started");
        p.log("Randomized 53 times");
        assert_eq!(p.len(), 2);
        assert_eq!(p.grep("Randomized").len(), 1);
        assert!(p.dmesg().contains("kthread started"));
    }

    #[test]
    fn rate_limited_logging_is_logarithmic() {
        let p = Printk::new(false);
        let mut emitted = 0;
        for i in 0..100u32 {
            if p.log_limited("k", format!("failure #{i}")) {
                emitted += 1;
            }
        }
        // 1, 2, 4, 8, 16, 32, 64 → 7 emissions out of 100.
        assert_eq!(emitted, 7);
        assert_eq!(p.len(), 7);
        // The last emitted line carries the swallowed count (32 → 64
        // suppressed 31).
        assert_eq!(p.grep("(31 similar suppressed)").len(), 1);
        // Distinct keys limit independently.
        assert!(p.log_limited("other", "first of its kind"));
    }

    #[test]
    fn full_ring_drops_the_oldest_lines_and_counts_them() {
        let p = Printk::new(false);
        for i in 0..PRINTK_CAPACITY + 3 {
            p.log(format!("line {i}"));
        }
        assert_eq!(p.len(), PRINTK_CAPACITY);
        assert_eq!(p.dropped(), 3);
        // Lines 0..3 are gone; line 3 is now the oldest.
        let dmesg = p.dmesg();
        let mut lines = dmesg.lines();
        assert!(lines.next().unwrap().ends_with("] line 3"));
        let last = format!("] line {}", PRINTK_CAPACITY + 2);
        assert!(lines.last().unwrap().ends_with(&last));
        assert!(p.grep("line 0").is_empty());
    }
}

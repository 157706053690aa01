//! `nvme_rerand` — Fig. 6's NVMe loop: one closed-loop client re-reads
//! the same 512-byte sector of `nvme.dat` with O_DIRECT `Vfs::pread`,
//! while a second thread re-randomizes both storage modules every 1 ms
//! in an open loop. Modules due on the same tick share one shootdown
//! epoch, as under the serial scheduler. Page-table writes run beside
//! translation here, and this is the only workload that exercises
//! `core::rerand`, stack rotation and SMR retirement.

use crate::trace::{SpanBuf, Trace};
use crate::{count_call, cpu_counters, Fingerprint, Metrics, Window, Workload, STAGES};
use adelie_core::{
    rerandomize_module_epoch, verify_fixed_gots, verify_plt_bindings, CycleCommit, CycleHooks,
    CycleStage, LoadedModule, ModuleRegistry,
};
use adelie_drivers::{install_extfs, install_nvme, NvmeDevice};
use adelie_kernel::{disk_byte, Kernel, KernelConfig, TlbStats, SECTOR_SIZE};
use adelie_plugin::TransformOptions;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The paper's shortest re-randomization period.
const PERIOD: Duration = Duration::from_millis(1);
/// Initial lead with which the generator wakes before a due time,
/// yielding for the rest: timer wake-up jitter alone would otherwise
/// hide a 15–20 µs cycle. The lead grows to twice the worst oversleep
/// seen (some hosts wake a sleeping vCPU milliseconds late), and once
/// it reaches [`PERIOD`] the generator only yields.
const SPIN: Duration = Duration::from_micros(200);
/// preads in the deterministic fingerprint window (no re-randomization).
const FP_READS: u64 = 5_000;

pub struct Nvme {
    kernel: Arc<Kernel>,
    registry: Arc<ModuleRegistry>,
    modules: Vec<Arc<LoadedModule>>,
    device: Arc<NvmeDevice>,
    fd: u64,
    buf: u64,
    expect: Vec<u8>,
    /// Shootdown epoch tags stay unique across windows.
    next_epoch: AtomicU64,
    /// The generator's current wake-up lead, ns (see [`SPIN`]).
    lead_ns: AtomicU64,
}

impl Nvme {
    /// One O_DIRECT pread of sector 0, checked byte for byte.
    fn pread(&self, vm: &mut adelie_kernel::Vm<'_>) -> bool {
        let ok = self
            .kernel
            .vfs
            .pread(vm, self.fd, self.buf, SECTOR_SIZE, 0)
            .is_ok_and(|n| n == SECTOR_SIZE);
        let mut got = [0u8; SECTOR_SIZE];
        ok && self
            .kernel
            .space
            .read_bytes(&self.kernel.phys, self.buf, &mut got)
            .is_ok()
            && got[..] == self.expect[..]
    }

    /// The client: closed-loop preads for `dur`. A pread counts as
    /// overlapping a cycle when a tick was running when it started or
    /// began before it returned (`ticking` is odd while a tick runs).
    fn read_loop(&self, dur: Duration, ticking: &AtomicU64, trace: Option<&Trace>) -> Window {
        let mut vm = self.kernel.vm();
        let mut buf = trace.map(Trace::buf);
        let tlb0 = vm.tlb_stats();
        let start = Instant::now();
        let mut w = Window::new(Self::CALL_CHUNK, start);
        let mut i = 0u64;
        while start.elapsed() < dur {
            let before = cpu_counters(&vm);
            let done0 = self.device.completed();
            let phase = ticking.load(Ordering::Acquire);
            let t0 = Instant::now();
            let ok = self.pread(&mut vm);
            let t1 = Instant::now();
            w.call_ns.record((t1 - t0).as_nanos() as u64, t1);
            if !ok {
                w.failed_calls += 1;
            }
            if let Some(b) = buf.as_mut() {
                let during = phase % 2 == 1 || ticking.load(Ordering::Acquire) != phase;
                let name = if during {
                    "kernel.fs.pread_during_cycle"
                } else {
                    "kernel.fs.pread_idle"
                };
                b.leaf(0, i, name, t0, t1);
                count_call(b, &vm, before);
                b.add("nvme.completions", self.device.completed() - done0);
            }
            i += 1;
        }
        w.wall = start.elapsed();
        w.calls = i;
        if let (Some(t), Some(mut b)) = (trace, buf) {
            count_flushes(&mut b, &vm.tlb_stats().delta_since(&tlb0));
            t.absorb(b);
        }
        w
    }

    /// The open-loop generator: one tick per [`PERIOD`] until `stop`,
    /// every storage module re-randomized per tick under one epoch.
    /// Cycle latency runs from the moment the tick was ready to run (its
    /// due time, or the end of the previous tick if that overran it) to
    /// the cycle's return. It counts queueing behind earlier cycles but
    /// not the generator's own wake-up error, which host scheduling
    /// dominates and `bench.generator_late` reports.
    fn generate(
        &self,
        stop: &AtomicBool,
        ticking: &AtomicU64,
        trace: Option<&Trace>,
        stages: &StageClock,
    ) -> Window {
        let mut buf = trace.map(Trace::buf);
        let mut w = Window::new(Self::CALL_CHUNK, Instant::now());
        let mut due = Instant::now() + PERIOD;
        let mut prev_end = due;
        let mut tick = 0u64;
        while !stop.load(Ordering::Acquire) {
            self.pace_until(due);
            let started = Instant::now();
            let ready = due.max(prev_end);
            let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
            let tick_id = trace.map_or(0, Trace::id);
            ticking.fetch_add(1, Ordering::AcqRel);
            for m in &self.modules {
                let counters = buf.as_ref().map(|_| self.cycle_counters());
                let cycle_id = trace.map_or(0, Trace::id);
                stages.open(cycle_id, tick);
                let t0 = Instant::now();
                let r = rerandomize_module_epoch(&self.kernel, &self.registry, m, Some(epoch));
                let t1 = Instant::now();
                w.cycle_ns.record((t1 - ready).as_nanos() as u64, t1);
                w.cycles += 1;
                if r.is_err() {
                    w.failed_cycles += 1;
                }
                if let (Some(b), Some(c0)) = (buf.as_mut(), counters) {
                    b.push(cycle_id, tick_id, tick, "core.rerand.cycle", t0, t1);
                    let c1 = self.cycle_counters();
                    b.add("cycles", 1);
                    b.add("cycle.batches", c1[0] - c0[0]);
                    b.add("cycle.snapshot_publishes", c1[1] - c0[1]);
                    b.add("cycle.frames_allocated", c1[2] - c0[2]);
                    b.add("cycle.retired", c1[3] - c0[3]);
                }
            }
            ticking.fetch_add(1, Ordering::AcqRel);
            let end = Instant::now();
            prev_end = end;
            if let Some(b) = buf.as_mut() {
                b.push(tick_id, 0, tick, "bench.tick", due, end);
                b.leaf(tick_id, tick, "bench.generator_late", due, started);
                b.sample("reclaim.outstanding", self.kernel.reclaim.stats().delta());
            }
            due += PERIOD;
            tick += 1;
        }
        if let (Some(t), Some(mut b)) = (trace, buf) {
            stages.drain_into(&mut b);
            t.absorb(b);
        }
        w
    }

    /// Sleep until the wake-up lead before `due`, then yield until it
    /// arrives; widen the lead when a sleep overshoots.
    fn pace_until(&self, due: Instant) {
        let lead = Duration::from_nanos(self.lead_ns.load(Ordering::Relaxed));
        if let Some(left) = due.checked_duration_since(Instant::now()) {
            if left > lead {
                let wake = due - lead;
                std::thread::sleep(left - lead);
                let over = Instant::now().saturating_duration_since(wake);
                let widened = (2 * over).max(lead).min(PERIOD);
                self.lead_ns
                    .store(widened.as_nanos() as u64, Ordering::Relaxed);
            }
            while Instant::now() < due {
                std::thread::yield_now();
            }
        }
    }

    /// `[batches, snapshot publishes, frames allocated, SMR retired]`.
    fn cycle_counters(&self) -> [u64; 4] {
        let s = self.kernel.space.stats();
        [
            s.batches,
            s.snapshot_publishes,
            self.kernel.phys.stats().frames_allocated,
            self.kernel.reclaim.stats().retired,
        ]
    }
}

/// Record the reader CPU's shootdown work over a window.
fn count_flushes(buf: &mut SpanBuf<'_>, d: &TlbStats) {
    buf.add("reader.tlb.partial_flushes", d.partial_flushes);
    buf.add("reader.tlb.full_flushes", d.flushes);
    buf.add("reader.tlb.entries_invalidated", d.entries_invalidated);
}

impl Workload for Nvme {
    const NAME: &'static str = "nvme_rerand";
    /// ~0.35 s of preads, so each chunk holds hundreds of ticks and the
    /// share of preads that overlap a cycle is the same in every chunk.
    const CALL_CHUNK: usize = 20_000;

    fn setup(seed: u64) -> Nvme {
        let kernel = Kernel::new(KernelConfig {
            seed,
            ..KernelConfig::default()
        });
        let registry = ModuleRegistry::new(&kernel);
        let opts = TransformOptions::rerandomizable(true);
        let nvme = install_nvme(&registry, &opts).expect("install nvme driver");
        let extfs = install_extfs(&registry, &opts).expect("install extfs module");
        let file = kernel.vfs.create("nvme.dat", 1 << 20);
        let fd = kernel.vfs.open("nvme.dat", true).expect("open nvme.dat");
        let buf = kernel
            .heap
            .kmalloc(&kernel.space, &kernel.phys, SECTOR_SIZE);
        Nvme {
            modules: vec![nvme.module, extfs.module],
            device: nvme.device,
            expect: (0..SECTOR_SIZE)
                .map(|i| disk_byte(file.first_lba, i))
                .collect(),
            kernel,
            registry,
            fd,
            buf,
            next_epoch: AtomicU64::new(1),
            lead_ns: AtomicU64::new(SPIN.as_nanos() as u64),
        }
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut vm = self.kernel.vm();
        let (insns, tlb) = cpu_counters(&vm);
        let space = self.kernel.space.stats();
        let failed = (0..FP_READS).filter(|_| !self.pread(&mut vm)).count() as u64;
        let d = vm.tlb_stats().delta_since(&tlb);
        let s = self.kernel.space.stats();
        Fingerprint {
            ops: FP_READS,
            failed,
            insns: vm.insns_retired() - insns,
            tlb_hits: d.hits,
            tlb_micro_hits: d.micro_hits,
            tlb_misses: d.misses,
            pages_mapped: s.pages_mapped - space.pages_mapped,
            pages_unmapped: s.pages_unmapped - space.pages_unmapped,
            ..Fingerprint::default()
        }
    }

    fn window(&self, dur: Duration, trace: Option<&Trace>) -> Window {
        let stop = AtomicBool::new(false);
        let ticking = AtomicU64::new(0);
        let stages = Arc::new(StageClock::default());
        if trace.is_some() {
            self.registry.set_cycle_hooks(stages.clone());
        }
        let w = std::thread::scope(|s| {
            let gen = s.spawn(|| self.generate(&stop, &ticking, trace, &stages));
            let mut w = self.read_loop(dur, &ticking, trace);
            stop.store(true, Ordering::Release);
            let cycles = gen.join().expect("generator thread panicked");
            w.cycles = cycles.cycles;
            w.failed_cycles = cycles.failed_cycles;
            w.cycle_ns = cycles.cycle_ns;
            w
        });
        self.registry.clear_cycle_hooks();
        w
    }

    fn verify(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut vm = self.kernel.vm();
        if !(0..64).all(|_| self.pread(&mut vm)) {
            problems.push("pread after the run returned wrong bytes".to_string());
        }
        drop(vm);
        for m in &self.modules {
            problems.extend(verify_fixed_gots(&self.kernel, m));
            problems.extend(verify_plt_bindings(&self.kernel, m));
        }
        self.kernel.reclaim.flush();
        let outstanding = self.kernel.reclaim.stats().delta();
        if outstanding != 0 {
            problems.push(format!(
                "{outstanding} SMR retirements outstanding after flush"
            ));
        }
        problems
    }
}

/// Benchmark-owned cycle hooks: a stage runs from its `allow` to the
/// next stage's `allow`, or to `committed` for the last one.
#[derive(Default)]
struct StageClock {
    state: Mutex<StageState>,
}

#[derive(Default)]
struct StageState {
    /// `(stage, started)` of the stage in progress.
    open: Option<(CycleStage, Instant)>,
    /// Span id and tick of the cycle in progress.
    parent: u64,
    op: u64,
    /// Closed stages: `(name, parent, op, start, end)`.
    done: Vec<(&'static str, u64, u64, Instant, Instant)>,
}

impl StageState {
    fn close(&mut self, now: Instant) {
        if let Some((stage, t0)) = self.open.take() {
            let name = STAGES
                .iter()
                .find(|(s, _)| *s == stage)
                .map(|(_, n)| *n)
                .expect("every stage is named");
            self.done.push((name, self.parent, self.op, t0, now));
        }
    }
}

impl StageClock {
    fn open(&self, parent: u64, op: u64) {
        let mut s = self.state.lock().expect("stage clock lock");
        s.open = None;
        s.parent = parent;
        s.op = op;
    }

    fn drain_into(&self, buf: &mut SpanBuf<'_>) {
        let done = std::mem::take(&mut self.state.lock().expect("stage clock lock").done);
        for (name, parent, op, t0, t1) in done {
            buf.leaf(parent, op, name, t0, t1);
        }
    }
}

impl CycleHooks for StageClock {
    fn allow(&self, _module: &str, stage: CycleStage) -> bool {
        let now = Instant::now();
        let mut s = self.state.lock().expect("stage clock lock");
        s.close(now);
        s.open = Some((stage, now));
        true
    }

    fn committed(&self, _commit: &CycleCommit<'_>) {
        self.state
            .lock()
            .expect("stage clock lock")
            .close(Instant::now());
    }
}

/// The NVMe client's and generator's own metrics: pread latency split
/// by overlap with a cycle, generator lateness, device completions.
pub fn layer(m: &mut Metrics, t: &Trace) {
    m.timing(
        "kernel.fs.pread_during_cycle_us",
        t.durations(&["kernel.fs.pread_during_cycle"]),
        "us",
    );
    m.timing(
        "kernel.fs.pread_idle_us",
        t.durations(&["kernel.fs.pread_idle"]),
        "us",
    );
    m.timing(
        "bench.generator_late_us",
        t.durations(&["bench.generator_late"]),
        "us",
    );
    let preads = t
        .durations(&["kernel.fs.pread_during_cycle", "kernel.fs.pread_idle"])
        .len();
    m.ratio(
        "drivers.nvme.completions_per_pread",
        t.counter("nvme.completions"),
        preads as u64,
        "count",
    );
}

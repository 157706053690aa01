//! `ioctl_steady` — Fig. 9's null-ioctl loop on the re-randomizable
//! dummy driver, with no re-randomization: one closed-loop client. The
//! interpreter's fetch → decode → translate → phys path does almost all
//! the work and nothing writes page tables. Also the per-layer
//! microprobes, taken on a warmed kernel of the same shape.

use crate::trace::{percentile, Trace};
use crate::{count_call, cpu_counters, input, Fingerprint, Metrics, Window, Workload, CYCLE_CHUNK};
use adelie_core::{
    rerandomize_module, verify_fixed_gots, verify_plt_bindings, LoadedModule, ModuleRegistry,
};
use adelie_drivers::{install_dummy, specs::DUMMY_MINOR};
use adelie_kernel::{Kernel, KernelConfig};
use adelie_plugin::TransformOptions;
use adelie_vmem::{Access, PteKind};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// ioctls in the deterministic fingerprint window.
const FP_CALLS: u64 = 20_000;
/// Operations per timed microprobe sample, and samples per probe.
const PROBE_BATCH: u32 = 1_000;
const PROBE_SAMPLES: usize = 300;

pub struct Ioctl {
    kernel: Arc<Kernel>,
    registry: Arc<ModuleRegistry>,
    module: Arc<LoadedModule>,
    seed: u64,
}

/// Boot a kernel with only the re-randomizable dummy driver.
fn boot(seed: u64) -> Ioctl {
    let kernel = Kernel::new(KernelConfig {
        seed,
        ..KernelConfig::default()
    });
    let registry = ModuleRegistry::new(&kernel);
    let module = install_dummy(&registry, &TransformOptions::rerandomizable(true))
        .expect("install dummy driver")
        .module;
    Ioctl {
        kernel,
        registry,
        module,
        seed,
    }
}

impl Workload for Ioctl {
    const NAME: &'static str = "ioctl_steady";
    /// The smallest chunk with ten calls beyond its p99: the shorter a
    /// chunk, the more often one falls wholly in a quiet stretch of the
    /// host.
    const CALL_CHUNK: usize = 1_000;

    fn setup(seed: u64) -> Ioctl {
        boot(seed)
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut vm = self.kernel.vm();
        let (insns, tlb) = cpu_counters(&vm);
        let space = self.kernel.space.stats();
        let mut failed = 0;
        for i in 0..FP_CALLS {
            let arg = input(self.seed, i);
            if self.kernel.ioctl(&mut vm, DUMMY_MINOR, 0, arg).ok() != Some(arg) {
                failed += 1;
            }
        }
        let d = vm.tlb_stats().delta_since(&tlb);
        let s = self.kernel.space.stats();
        Fingerprint {
            ops: FP_CALLS,
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
        let mut vm = self.kernel.vm();
        let mut buf = trace.map(Trace::buf);
        let start = Instant::now();
        let mut w = Window::new(Self::CALL_CHUNK, start);
        let mut i = 0u64;
        while start.elapsed() < dur {
            for _ in 0..64 {
                let arg = input(self.seed, i);
                let before = cpu_counters(&vm);
                let t0 = Instant::now();
                let r = self.kernel.ioctl(&mut vm, DUMMY_MINOR, 0, arg);
                let t1 = Instant::now();
                w.call_ns.record((t1 - t0).as_nanos() as u64, t1);
                if r.ok() != Some(arg) {
                    w.failed_calls += 1;
                }
                if let Some(b) = buf.as_mut() {
                    b.leaf(0, i, "kernel.ioctl", t0, t1);
                    count_call(b, &vm, before);
                }
                i += 1;
            }
        }
        w.wall = start.elapsed();
        w.calls = i;
        if let (Some(t), Some(b)) = (trace, buf) {
            t.absorb(b);
        }
        w
    }

    const PROBES_CYCLES: bool = true;

    fn cycle_probe(&self, dur: Duration) -> Window {
        let start = Instant::now();
        let mut w = Window::new(Self::CALL_CHUNK, start);
        while start.elapsed() < dur || w.cycles < CYCLE_CHUNK as u64 {
            let t0 = Instant::now();
            let r = rerandomize_module(&self.kernel, &self.registry, &self.module);
            let t1 = Instant::now();
            w.cycle_ns.record((t1 - t0).as_nanos() as u64, t1);
            w.cycles += 1;
            if r.is_err() {
                w.failed_cycles += 1;
            }
        }
        w
    }

    fn verify(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut vm = self.kernel.vm();
        for i in 0..64 {
            let arg = input(self.seed ^ 0xFEED, i);
            let r = self.kernel.ioctl(&mut vm, DUMMY_MINOR, 0, arg);
            if r.as_ref().ok() != Some(&arg) {
                problems.push(format!("ioctl({arg}) after the run returned {r:?}"));
            }
        }
        drop(vm);
        problems.extend(verify_fixed_gots(&self.kernel, &self.module));
        problems.extend(verify_plt_bindings(&self.kernel, &self.module));
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

/// Time `op` in [`PROBE_SAMPLES`] batches of [`PROBE_BATCH`]; returns
/// the per-operation time of each batch in picoseconds, so a ~10 ns
/// operation keeps its fractional digits.
fn probe(mut op: impl FnMut()) -> Vec<u64> {
    (0..PROBE_SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..PROBE_BATCH {
                op();
            }
            (t0.elapsed().as_nanos() * 1_000 / PROBE_BATCH as u128) as u64
        })
        .collect()
}

/// The per-layer costs of a steady call, on a warmed dummy-driver
/// kernel: a 16-byte `PhysMem::read` from the ioctl entry's text frame,
/// `decode` of the entry's bytes, and `AddressSpace::translate` of the
/// entry page.
pub fn microprobes(seed: u64, m: &mut Metrics) {
    let sys = boot(seed);
    let k = &sys.kernel;
    let mut vm = k.vm();
    for i in 0..1_000 {
        let _ = k.ioctl(&mut vm, DUMMY_MINOR, 0, i);
    }
    let entry = k.devices.chrdev(DUMMY_MINOR).expect("dummy chrdev").ioctl;
    let page_va = entry & !0xfff;
    let t = k
        .space
        .translate(entry, Access::Exec)
        .expect("entry translates");
    let PteKind::Frame(pfn) = t.pte.kind else {
        panic!("ioctl entry is not backed by a frame");
    };
    let off = ((entry & 0xfff) as usize).min(4096 - 16);
    let mut bytes = [0u8; 16];
    k.phys.read(pfn, off, &mut bytes);
    let phys = probe(|| k.phys.read(pfn, off, black_box(&mut bytes)));
    let decode = probe(|| {
        black_box(adelie_isa::decode(black_box(&bytes)).expect("entry decodes"));
    });
    let walk = probe(|| {
        black_box(k.space.translate(black_box(page_va), Access::Exec).is_ok());
    });
    for (name, mut ps) in [
        ("isa.decode_ns", decode),
        ("vmem.phys_read_ns", phys),
        ("vmem.walk_ns", walk),
    ] {
        let n = ps.len();
        m.put(
            format!("{name}.p50"),
            percentile(&mut ps, 0.50) as f64 / 1e3,
            "ns",
        );
        m.put(
            format!("{name}.p99"),
            percentile(&mut ps, 0.99) as f64 / 1e3,
            "ns",
        );
        m.put(format!("{name}.n"), n as f64, "count");
    }
}

//! `fleet_cold` — a 2-shard fleet with the cold tier on: 2·10^4 tiny
//! modules registered, at most 256 resident, and one closed-loop client
//! drawing Zipf(1.1) targets. A target's first call goes through
//! `Fleet::ensure_resident`; later calls use the cached entry address,
//! so a call to a module evicted since demand-faults through the
//! kernel's `DemandLoader`, the way a caller holding a stale function
//! pointer would. `cold_tick` runs every [`TICK_OPS`] calls on a
//! virtual clock advanced per call. `core::fleet`, `core::loader` and
//! `vmem` map/unmap batches do most of the work here; the interpreter
//! runs a handful of instructions per call.
//!
//! Two choices keep the workload stationary, so a run's length does not
//! change what it measures. Before any measurement every catalog module
//! is called once, so the cold tier holds its steady-state evicted set
//! (the demand loader's lookup cost depends on that set's size). And
//! the client works in episodes of [`EPISODE`] calls, each starting
//! with an empty entry cache, like a fresh caller re-resolving symbols;
//! otherwise the share of first calls would keep falling as the cache
//! filled.

use crate::trace::{SpanBuf, Trace};
use crate::{count_call, cpu_counters, input, Fingerprint, Metrics, Window, Workload, CYCLE_CHUNK};
use adelie_core::{
    rerandomize_module, verify_fixed_gots, verify_plt_bindings, AdmissionConfig, ColdTierConfig,
    Fleet, RoundRobin,
};
use adelie_isa::{AluOp, Insn, Reg};
use adelie_kernel::{FleetConfig, ShardedKernel, Vm};
use adelie_plugin::{transform, FuncSpec, MOp, ModuleSpec, TransformOptions};
use adelie_testkit::{Workload as ZipfWorkload, WorkloadConfig};
use std::cell::RefCell;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const CATALOG: usize = 20_000;
const TENANTS: usize = 8;
const THETA: f64 = 1.1;
const MAX_RESIDENT: usize = 256;
/// Virtual time one call advances the tier clock by.
const CALL_NS: u64 = 1_000;
/// `cold_tick` cadence, in calls.
const TICK_OPS: u64 = 256;
/// Idle horizon on the virtual clock (20 000 calls).
const IDLE_NS: u64 = 20_000 * CALL_NS;
/// Client calls per episode, which is also one latency chunk.
const EPISODE: usize = 8_000;
/// Episodes in the deterministic fingerprint window, after the warm-up.
const FP_EPISODES: u64 = 1;
/// Residents the cycle probe moves, round-robin.
const PROBE_MODULES: usize = 64;

/// `{name}_calc(x) = x + 9`: three instructions, so the fleet machinery
/// rather than the interpreter dominates a call.
fn tiny_spec(name: &str) -> ModuleSpec {
    let mut s = ModuleSpec::new(name);
    s.funcs.push(FuncSpec::exported(
        &format!("{name}_calc"),
        vec![
            MOp::Insn(Insn::MovRR {
                dst: Reg::Rax,
                src: Reg::Rdi,
            }),
            MOp::Insn(Insn::AluImm {
                op: AluOp::Add,
                dst: Reg::Rax,
                imm: 9,
            }),
            MOp::Ret,
        ],
    ));
    s
}

/// The client's state, carried across the fingerprint and every window.
struct Client {
    wl: ZipfWorkload,
    /// Catalog index → `(shard, entry VA)` from the target's first call.
    cache: Vec<Option<(usize, u64)>>,
    /// Evicted since its entry was cached: the next call demand-faults.
    stale: Vec<bool>,
    now_ns: u64,
    ops: u64,
    /// Modules the cycle probe moved, and any cap violation seen.
    probed: Vec<(usize, String)>,
    problems: Vec<String>,
}

pub struct FleetCold {
    fleet: Fleet,
    client: RefCell<Client>,
    seed: u64,
}

/// How one call reached its module.
enum Path {
    First,
    Resident,
    Demand,
}

impl Client {
    fn new_episode(&mut self) {
        self.cache.fill(None);
        self.stale.fill(false);
    }
}

impl FleetCold {
    /// Advance the tier clock by one call and run `cold_tick` when due,
    /// marking every evicted module's cached entry stale.
    fn tick(&self, c: &mut Client, buf: Option<&mut SpanBuf<'_>>) {
        c.now_ns += CALL_NS;
        if !c.ops.is_multiple_of(TICK_OPS) {
            return;
        }
        let unmapped0 = self.pages_unmapped();
        let t0 = Instant::now();
        let evicted = self.fleet.cold_tick(c.now_ns);
        let t1 = Instant::now();
        if let Some(b) = buf {
            b.leaf(0, c.ops, "core.fleet.cold_tick", t0, t1);
            b.add("fleet.ticks", 1);
            b.add("fleet.tick_evictions", evicted.len() as u64);
            b.add("fleet.pages_unmapped", self.pages_unmapped() - unmapped0);
        }
        for name in evicted {
            let i: usize = name
                .rsplit_once("_m")
                .and_then(|(_, i)| i.parse().ok())
                .expect("catalog names end in _m<index>");
            c.stale[i] = c.cache[i].is_some();
        }
        let resident = self.fleet.cold_stats().resident;
        if resident > MAX_RESIDENT {
            c.problems.push(format!(
                "{resident} resident after a cold tick (cap {MAX_RESIDENT})"
            ));
        }
    }

    fn pages_mapped(&self) -> u64 {
        (0..SHARDS)
            .map(|s| self.fleet.kernel(s).space.stats().pages_mapped)
            .sum()
    }

    fn pages_unmapped(&self) -> u64 {
        (0..SHARDS)
            .map(|s| self.fleet.kernel(s).space.stats().pages_unmapped)
            .sum()
    }

    /// One client call: draw a target, reach it, check `x + 9`. Returns
    /// whether the answer was right and the call's latency (ns).
    fn op(
        &self,
        c: &mut Client,
        vms: &mut [Vm<'_>],
        mut buf: Option<&mut SpanBuf<'_>>,
    ) -> (bool, u64) {
        self.tick(c, buf.as_deref_mut());
        let i = c.wl.next_index();
        let x = input(self.seed, c.ops);
        let op = c.ops;
        c.ops += 1;
        let op_id = buf.as_ref().map_or(0, |b| b.trace.id());
        let t0 = Instant::now();
        let mapped0 = buf.as_ref().map(|_| self.pages_mapped());
        let loads = buf.as_ref().map(|_| self.fleet.cold_stats().fault_ins);
        let (shard, entry, path) = match c.cache[i] {
            Some((s, e)) if c.stale[i] => (s, e, Path::Demand),
            Some((s, e)) => (s, e, Path::Resident),
            None => {
                let name = c.wl.names()[i].clone();
                let Ok((s, m)) = self.fleet.ensure_resident(&name) else {
                    return (false, t0.elapsed().as_nanos() as u64);
                };
                let Some(e) = m.export(&format!("{name}_calc")) else {
                    return (false, t0.elapsed().as_nanos() as u64);
                };
                c.cache[i] = Some((s, e));
                (s, e, Path::First)
            }
        };
        let t_call = Instant::now();
        let before = cpu_counters(&vms[shard]);
        let r = vms[shard].call(entry, &[x]);
        let t1 = Instant::now();
        if let Some(b) = buf {
            let pages = self.pages_mapped() - mapped0.unwrap_or(0);
            match path {
                Path::First => {
                    let loaded = loads != Some(self.fleet.cold_stats().fault_ins);
                    let name = if loaded {
                        "core.fleet.fault_in"
                    } else {
                        "core.fleet.ensure_resident"
                    };
                    b.leaf(op_id, op, name, t0, t_call);
                    b.add("fleet.fault_in_pages_mapped", pages);
                }
                Path::Demand => b.add("fleet.fault_in_pages_mapped", pages),
                Path::Resident => {}
            }
            let name = if matches!(path, Path::Demand) {
                "core.fleet.demand_call"
            } else {
                count_call(b, &vms[shard], before);
                "kernel.vm_call"
            };
            b.leaf(op_id, op, name, t_call, t1);
            b.push(op_id, 0, op, "bench.fleet_op", t0, t1);
        }
        if matches!(path, Path::Demand) {
            // The call faulted the module back in at a fresh base: cache
            // the new entry, as a caller re-resolving the symbol would.
            let name = c.wl.names()[i].clone();
            c.cache[i] = self
                .fleet
                .registry(shard)
                .get(&name)
                .and_then(|m| m.export(&format!("{name}_calc")))
                .map(|e| (shard, e));
            c.stale[i] = false;
        }
        (r.ok() == Some(x + 9), (t1 - t0).as_nanos() as u64)
    }

    fn vms(&self) -> Vec<Vm<'_>> {
        (0..SHARDS).map(|s| self.fleet.kernel(s).vm()).collect()
    }

    /// Call every catalog module once, in catalog order, with the tier
    /// ticking as usual. Returns the calls that answered wrong.
    fn warm(&self, c: &mut Client, vms: &mut [Vm<'_>]) -> u64 {
        let mut failed = 0;
        for i in 0..CATALOG {
            self.tick(c, None);
            c.ops += 1;
            let name = c.wl.names()[i].clone();
            let x = input(self.seed, c.ops);
            let r = self.fleet.ensure_resident(&name).ok().and_then(|(s, m)| {
                let e = m.export(&format!("{name}_calc"))?;
                vms[s].call(e, &[x]).ok()
            });
            if r != Some(x + 9) {
                failed += 1;
            }
        }
        failed
    }

    /// One episode: an empty entry cache, then [`EPISODE`] calls.
    fn episode(
        &self,
        c: &mut Client,
        vms: &mut [Vm<'_>],
        mut buf: Option<&mut SpanBuf<'_>>,
        w: &mut Window,
    ) {
        c.new_episode();
        for _ in 0..EPISODE {
            let (ok, ns) = self.op(c, vms, buf.as_deref_mut());
            w.call_ns.record(ns, Instant::now());
            w.calls += 1;
            if !ok {
                w.failed_calls += 1;
            }
        }
    }
}

impl Drop for FleetCold {
    fn drop(&mut self) {
        // Each shard's demand loader holds the registries, which hold the
        // shard kernels: break that cycle so a dropped fleet frees its
        // memory before the next setup repetition.
        for s in 0..SHARDS {
            self.fleet.kernel(s).clear_demand_loader();
        }
    }
}

impl Workload for FleetCold {
    const NAME: &'static str = "fleet_cold";
    const CALL_CHUNK: usize = EPISODE;
    const SLICE_SETUPS: usize = 1;

    fn setup(seed: u64) -> FleetCold {
        let wl = ZipfWorkload::new(WorkloadConfig {
            modules: CATALOG,
            tenants: TENANTS,
            theta: THETA,
            seed,
        });
        let opts = TransformOptions::rerandomizable(true);
        let fleet = Fleet::with_admission(
            ShardedKernel::new(FleetConfig::seeded(SHARDS, seed)),
            Box::new(RoundRobin::new()),
            AdmissionConfig {
                max_modules_per_shard: CATALOG,
                ..AdmissionConfig::default()
            },
        );
        fleet.enable_cold_tier(ColdTierConfig {
            idle_ns: IDLE_NS,
            max_resident: MAX_RESIDENT,
        });
        for name in wl.names() {
            let obj = transform(&tiny_spec(name), &opts).expect("transform tiny module");
            fleet.register(&obj, &opts).expect("register tiny module");
        }
        FleetCold {
            fleet,
            client: RefCell::new(Client {
                wl,
                cache: vec![None; CATALOG],
                stale: vec![false; CATALOG],
                now_ns: 0,
                ops: 0,
                probed: Vec::new(),
                problems: Vec::new(),
            }),
            seed,
        }
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut c = self.client.borrow_mut();
        let mut vms = self.vms();
        let before: Vec<_> = vms.iter().map(cpu_counters).collect();
        let (cold, mapped, unmapped) = (
            self.fleet.cold_stats(),
            self.pages_mapped(),
            self.pages_unmapped(),
        );
        let mut w = Window::new(Self::CALL_CHUNK, Instant::now());
        let warm_failed = self.warm(&mut c, &mut vms);
        for _ in 0..FP_EPISODES {
            self.episode(&mut c, &mut vms, None, &mut w);
        }
        let mut fp = Fingerprint {
            ops: CATALOG as u64 + w.calls,
            failed: warm_failed + w.failed_calls,
            ..Fingerprint::default()
        };
        for (vm, (insns, tlb)) in vms.iter().zip(before) {
            let d = vm.tlb_stats().delta_since(&tlb);
            fp.insns += vm.insns_retired() - insns;
            fp.tlb_hits += d.hits;
            fp.tlb_micro_hits += d.micro_hits;
            fp.tlb_misses += d.misses;
        }
        let st = self.fleet.cold_stats();
        fp.fault_ins = st.fault_ins - cold.fault_ins;
        fp.demand_redirects = st.demand_redirects - cold.demand_redirects;
        fp.evictions = st.evictions - cold.evictions;
        fp.pages_mapped = self.pages_mapped() - mapped;
        fp.pages_unmapped = self.pages_unmapped() - unmapped;
        fp
    }

    fn window(&self, dur: Duration, trace: Option<&Trace>) -> Window {
        let mut c = self.client.borrow_mut();
        let mut vms = self.vms();
        let mut buf = trace.map(Trace::buf);
        let cold = self.fleet.cold_stats();
        let start = Instant::now();
        let mut w = Window::new(Self::CALL_CHUNK, start);
        while start.elapsed() < dur {
            self.episode(&mut c, &mut vms, buf.as_mut(), &mut w);
        }
        w.wall = start.elapsed();
        if let (Some(t), Some(mut b)) = (trace, buf) {
            let st = self.fleet.cold_stats();
            b.add("fleet.ops", w.calls);
            b.add("fleet.fault_ins", st.fault_ins - cold.fault_ins);
            b.add(
                "fleet.demand_redirects",
                st.demand_redirects - cold.demand_redirects,
            );
            t.absorb(b);
        }
        w
    }

    const PROBES_CYCLES: bool = true;

    fn cycle_probe(&self, dur: Duration) -> Window {
        let mut c = self.client.borrow_mut();
        let mut resident: Vec<(usize, String)> = self
            .fleet
            .modules()
            .into_iter()
            .filter(|(name, shard)| self.fleet.registry(*shard).get(name).is_some())
            .map(|(name, shard)| (shard, name))
            .collect();
        resident.sort();
        resident.truncate(PROBE_MODULES);
        let start = Instant::now();
        let mut w = Window::new(Self::CALL_CHUNK, start);
        for k in 0.. {
            if start.elapsed() >= dur && w.cycles >= CYCLE_CHUNK as u64 {
                break;
            }
            let Some((shard, name)) = resident.get(k % resident.len().max(1)) else {
                break;
            };
            let Some(m) = self.fleet.registry(*shard).get(name) else {
                continue;
            };
            let t0 = Instant::now();
            let r = rerandomize_module(self.fleet.kernel(*shard), self.fleet.registry(*shard), &m);
            let t1 = Instant::now();
            w.cycle_ns.record((t1 - t0).as_nanos() as u64, t1);
            w.cycles += 1;
            if r.is_err() {
                w.failed_cycles += 1;
            }
        }
        c.probed = resident;
        w
    }

    fn verify(&self) -> Vec<String> {
        let mut c = self.client.borrow_mut();
        let mut problems = std::mem::take(&mut c.problems);
        for (shard, name) in &c.probed {
            let kernel = self.fleet.kernel(*shard);
            let Some(m) = self.fleet.registry(*shard).get(name) else {
                problems.push(format!("{name} left shard {shard} during the probe"));
                continue;
            };
            problems.extend(verify_fixed_gots(kernel, &m));
            problems.extend(verify_plt_bindings(kernel, &m));
            let entry = m.export(&format!("{name}_calc"));
            let r = entry.map(|e| kernel.vm().call(e, &[33]));
            if !matches!(r, Some(Ok(42))) {
                problems.push(format!("{name} returned {r:?} after the probe, want 42"));
            }
        }
        problems.extend(self.fleet.verify_layout());
        problems.extend(self.fleet.verify_symbol_integrity());
        for s in 0..SHARDS {
            let k = self.fleet.kernel(s);
            k.reclaim.flush();
            let outstanding = k.reclaim.stats().delta();
            if outstanding != 0 {
                problems.push(format!(
                    "shard {s}: {outstanding} SMR retirements outstanding after flush"
                ));
            }
        }
        problems
    }
}

/// Fault-in, resident-call, demand-call and tick costs, with the
/// eviction and mapping work behind them.
pub fn layer(m: &mut Metrics, t: &Trace) {
    m.timing(
        "core.fleet.fault_in_us",
        t.durations(&["core.fleet.fault_in"]),
        "us",
    );
    m.timing(
        "core.fleet.resident_hit_us",
        t.durations(&["kernel.vm_call"]),
        "us",
    );
    m.timing(
        "core.fleet.demand_call_us",
        t.durations(&["core.fleet.demand_call"]),
        "us",
    );
    m.timing(
        "core.fleet.cold_tick_us",
        t.durations(&["core.fleet.cold_tick"]),
        "us",
    );
    let (ops, fault_ins) = (t.counter("fleet.ops"), t.counter("fleet.fault_ins"));
    let evictions = t.counter("fleet.tick_evictions");
    m.ratio(
        "core.fleet.evictions_per_tick",
        evictions,
        t.counter("fleet.ticks"),
        "count",
    );
    m.ratio("core.fleet.fault_in_ratio", fault_ins, ops, "ratio");
    m.put("core.fleet.calls", ops as f64, "count");
    m.ratio(
        "core.fleet.demand_redirect_ratio",
        t.counter("fleet.demand_redirects"),
        fault_ins,
        "ratio",
    );
    m.put("core.fleet.fault_ins", fault_ins as f64, "count");
    m.ratio(
        "vmem.pages_mapped_per_fault_in",
        t.counter("fleet.fault_in_pages_mapped"),
        fault_ins,
        "count",
    );
    m.ratio(
        "vmem.pages_unmapped_per_eviction",
        t.counter("fleet.pages_unmapped"),
        evictions,
        "count",
    );
}

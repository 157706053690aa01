//! Exhaustive condition-code semantics for the interpreter: every Jcc
//! against computed flags, signed and unsigned comparisons.

use adelie_isa::{AluOp, Asm, Cond, Reg};
use adelie_kernel::{Kernel, KernelConfig, VmError};
use adelie_vmem::{Batch, PteFlags, PAGE_SIZE};
use std::sync::Arc;

fn run(kernel: &Arc<Kernel>, asm: &Asm, args: &[u64]) -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0x100_0000_0000);
    let va = NEXT.fetch_add(0x10_0000, std::sync::atomic::Ordering::Relaxed);
    let bytes = asm.assemble().unwrap().bytes;
    let pages = bytes.len().div_ceil(PAGE_SIZE);
    kernel
        .space
        .apply(Batch::new().map_range(va, &kernel.phys.alloc_n(pages), PteFlags::DATA))
        .unwrap();
    kernel.space.write_bytes(&kernel.phys, va, &bytes).unwrap();
    kernel
        .space
        .apply(Batch::new().protect_range(va, pages, PteFlags::TEXT))
        .unwrap();
    let mut vm = kernel.vm();
    vm.call(va, args).unwrap()
}

/// rax = 1 if `jcc` taken after `cmp rdi, rsi`, else 0.
fn cmp_taken(kernel: &Arc<Kernel>, c: Cond, a: u64, b: u64) -> bool {
    let mut asm = Asm::new();
    asm.alu(AluOp::Cmp, Reg::Rdi, Reg::Rsi);
    asm.jcc_label(c, "yes");
    asm.mov_imm32(Reg::Rax, 0);
    asm.ret();
    asm.label("yes");
    asm.mov_imm32(Reg::Rax, 1);
    asm.ret();
    run(kernel, &asm, &[a, b]) == 1
}

#[test]
fn condition_codes_match_reference_semantics() {
    let kernel = Kernel::new(KernelConfig::default());
    let cases: [(u64, u64); 8] = [
        (0, 0),
        (1, 2),
        (2, 1),
        (u64::MAX, 0),
        (0, u64::MAX),
        (u64::MAX, u64::MAX),
        (1 << 63, 1),
        (1, 1 << 63),
    ];
    for (a, b) in cases {
        let (sa, sb) = (a as i64, b as i64);
        assert_eq!(cmp_taken(&kernel, Cond::E, a, b), a == b, "je {a} {b}");
        assert_eq!(cmp_taken(&kernel, Cond::Ne, a, b), a != b, "jne {a} {b}");
        assert_eq!(cmp_taken(&kernel, Cond::B, a, b), a < b, "jb {a} {b}");
        assert_eq!(cmp_taken(&kernel, Cond::Ae, a, b), a >= b, "jae {a} {b}");
        assert_eq!(cmp_taken(&kernel, Cond::Be, a, b), a <= b, "jbe {a} {b}");
        assert_eq!(cmp_taken(&kernel, Cond::A, a, b), a > b, "ja {a} {b}");
        assert_eq!(cmp_taken(&kernel, Cond::L, a, b), sa < sb, "jl {a} {b}");
        assert_eq!(cmp_taken(&kernel, Cond::Ge, a, b), sa >= sb, "jge {a} {b}");
        assert_eq!(cmp_taken(&kernel, Cond::Le, a, b), sa <= sb, "jle {a} {b}");
        assert_eq!(cmp_taken(&kernel, Cond::G, a, b), sa > sb, "jg {a} {b}");
        // Sign flag after cmp = sign of the wrapped difference.
        assert_eq!(
            cmp_taken(&kernel, Cond::S, a, b),
            (a.wrapping_sub(b) as i64) < 0,
            "js {a} {b}"
        );
        assert_eq!(
            cmp_taken(&kernel, Cond::Ns, a, b),
            (a.wrapping_sub(b) as i64) >= 0,
            "jns {a} {b}"
        );
    }
}

#[test]
fn stack_discipline_and_callee_balance() {
    // push/pop pairs and nested calls leave rsp balanced (verified by
    // reading arguments through the stack).
    let kernel = Kernel::new(KernelConfig::default());
    let mut asm = Asm::new();
    asm.push(Reg::Rdi);
    asm.push(Reg::Rsi);
    asm.call_label("sum_top_two");
    asm.pop(Reg::Rcx); // discard
    asm.pop(Reg::Rcx);
    asm.ret();
    asm.label("sum_top_two");
    // [rsp] = return addr, [rsp+8] = rsi, [rsp+16] = rdi
    asm.mov_load(Reg::Rax, adelie_isa::Mem::base_disp(Reg::Rsp, 8));
    asm.alu_load(
        AluOp::Add,
        Reg::Rax,
        adelie_isa::Mem::base_disp(Reg::Rsp, 16),
    );
    asm.ret();
    assert_eq!(run(&kernel, &asm, &[30, 12]), 42);
}

#[test]
fn shifts_and_multiply() {
    let kernel = Kernel::new(KernelConfig::default());
    let mut asm = Asm::new();
    asm.mov_rr(Reg::Rax, Reg::Rdi);
    asm.insn(adelie_isa::Insn::ShlImm(Reg::Rax, 4));
    asm.insn(adelie_isa::Insn::ShrImm(Reg::Rax, 1));
    asm.insn(adelie_isa::Insn::Imul {
        dst: Reg::Rax,
        src: Reg::Rsi,
    });
    asm.ret();
    assert_eq!(run(&kernel, &asm, &[5, 3]), 5 * 8 * 3);
}

#[test]
fn mmio_roundtrip_through_interpreter() {
    use adelie_kernel::MmioDevice;
    struct Scratch(std::sync::atomic::AtomicU64);
    impl MmioDevice for Scratch {
        fn mmio_read(&self, _o: u64, _s: usize) -> u64 {
            self.0.load(std::sync::atomic::Ordering::SeqCst)
        }
        fn mmio_write(&self, _o: u64, v: u64, _s: usize) {
            self.0
                .store(v.wrapping_mul(3), std::sync::atomic::Ordering::SeqCst);
        }
        fn name(&self) -> &str {
            "scratch"
        }
    }
    let kernel = Kernel::new(KernelConfig::default());
    let (_, bar) = kernel.map_device(Arc::new(Scratch(Default::default())), 1);
    let mut asm = Asm::new();
    asm.mov_imm64(Reg::Rcx, bar);
    asm.mov_store(adelie_isa::Mem::base(Reg::Rcx), Reg::Rdi);
    asm.mov_load(Reg::Rax, adelie_isa::Mem::base(Reg::Rcx));
    asm.ret();
    assert_eq!(run(&kernel, &asm, &[14]), 42);
}

#[test]
fn retpoline_thunk_executes_architecturally() {
    // The retpoline sequence (call; trap-loop; mov [rsp],rax; ret) must
    // deliver control to rax without ever running the speculation trap.
    let kernel = Kernel::new(KernelConfig::default());
    let mut asm = Asm::new();
    asm.mov_imm64(Reg::Rax, 0); // filled below: target = "landing"
                                // We can't compute the landing address before assembly, so instead
                                // load it pc-relatively.
    let mut asm = Asm::new();
    asm.lea_sym(Reg::Rax, "landing"); // PC32 — resolved at link… not here.
    let _ = asm;
    // Simpler: thunk jump-to-rax where rax = rdi (passed in).
    let mut asm = Asm::new();
    asm.mov_rr(Reg::Rax, Reg::Rdi);
    asm.call_label("thunk");
    asm.ret();
    asm.label("thunk");
    asm.call_label("do");
    asm.label("trap");
    asm.insn(adelie_isa::Insn::Pause);
    asm.insn(adelie_isa::Insn::Lfence);
    asm.jmp_label("trap");
    asm.label("do");
    asm.mov_store(adelie_isa::Mem::base(Reg::Rsp), Reg::Rax);
    asm.ret();
    // Target: a second blob returning 99.
    let mut target = Asm::new();
    target.mov_imm32(Reg::Rax, 99);
    target.ret();
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0x200_0000_0000);
    let tva = NEXT.fetch_add(0x10_0000, std::sync::atomic::Ordering::Relaxed);
    let tbytes = target.assemble().unwrap().bytes;
    kernel
        .space
        .apply(Batch::new().map_page(tva, kernel.phys.alloc(), PteFlags::DATA))
        .unwrap();
    kernel
        .space
        .write_bytes(&kernel.phys, tva, &tbytes)
        .unwrap();
    kernel
        .space
        .apply(Batch::new().protect_range(tva, 1, PteFlags::TEXT))
        .unwrap();
    // thunk "returns" into rax=tva, runs the target, whose ret pops the
    // original `call thunk` return address… which then falls to our ret.
    assert_eq!(run(&kernel, &asm, &[tva]), 99);
}

// ---- decoded-instruction cache coherence ---------------------------------
//
// The interpreter caches decoded instructions by physical location and
// validates them against the frame's write version (DESIGN.md §18). Each
// test below warms the cache on one `Vm`, changes the code underneath it
// by a different route, and checks the same `Vm` runs the new bytes.

/// `mov rax, v; ret` — exactly 8 bytes, so one u64 store replaces it.
fn ret_imm(v: i32) -> [u8; 8] {
    let mut a = Asm::new();
    a.mov_imm32(Reg::Rax, v);
    a.ret();
    a.assemble()
        .unwrap()
        .bytes
        .try_into()
        .expect("7-byte mov + ret")
}

fn place(kernel: &Kernel, va: u64, bytes: &[u8]) {
    kernel.space.write_bytes(&kernel.phys, va, bytes).unwrap();
}

#[test]
fn self_modifying_code_on_a_wx_page_runs_the_new_bytes() {
    let kernel = Kernel::new(KernelConfig::default());
    let va = 0x300_0000_0000;
    // Writable and executable: no NX bit.
    kernel
        .space
        .apply(Batch::new().map_page(va, kernel.phys.alloc(), PteFlags::WRITABLE))
        .unwrap();
    let f = va;
    // patch(dst=rdi, bytes=rsi): an interpreted MovStore into text.
    let patch = va + 0x100;
    let mut a = Asm::new();
    a.mov_store(adelie_isa::Mem::base(Reg::Rdi), Reg::Rsi);
    a.ret();
    place(&kernel, patch, &a.assemble().unwrap().bytes);
    // patch_then_call(dst, bytes, target=rdx): patch, then run the
    // patched code within the same outermost call.
    let patch_then_call = va + 0x200;
    let mut a = Asm::new();
    a.mov_store(adelie_isa::Mem::base(Reg::Rdi), Reg::Rsi);
    a.call_reg(Reg::Rdx);
    a.ret();
    place(&kernel, patch_then_call, &a.assemble().unwrap().bytes);
    place(&kernel, f, &ret_imm(1));

    let mut vm = kernel.vm();
    for _ in 0..3 {
        assert_eq!(vm.call(f, &[]).unwrap(), 1);
    }
    let two = u64::from_le_bytes(ret_imm(2));
    vm.call(patch, &[f, two]).unwrap();
    assert_eq!(vm.call(f, &[]).unwrap(), 2, "stale decode after SMC");
    let three = u64::from_le_bytes(ret_imm(3));
    assert_eq!(vm.call(patch_then_call, &[f, three, f]).unwrap(), 3);
    assert_eq!(vm.call(f, &[]).unwrap(), 3);
}

#[test]
fn text_rewritten_through_an_alias_or_phys_write_is_decoded_again() {
    let kernel = Kernel::new(KernelConfig::default());
    let (text, alias) = (0x310_0000_0000, 0x320_0000_0000);
    let pfn = kernel.phys.alloc();
    kernel.phys.write(pfn, 0x40, &ret_imm(1));
    kernel
        .space
        .apply(Batch::new().map_page(text, pfn, PteFlags::TEXT))
        .unwrap();
    kernel
        .space
        .apply(Batch::new().map_page(alias, pfn, PteFlags::DATA))
        .unwrap();
    let f = text + 0x40;

    let mut vm = kernel.vm();
    assert_eq!(vm.call(f, &[]).unwrap(), 1);
    assert_eq!(vm.call(f, &[]).unwrap(), 1);
    // A writable data alias of the same frame, as the loader uses.
    place(&kernel, alias + 0x40, &ret_imm(2));
    assert_eq!(
        vm.call(f, &[]).unwrap(),
        2,
        "stale decode after alias write"
    );
    // Straight to the frame, no mapping at all.
    kernel.phys.write(pfn, 0x40, &ret_imm(3));
    assert_eq!(vm.call(f, &[]).unwrap(), 3, "stale decode after phys write");
    // A write elsewhere in the frame also invalidates, and the entry
    // refills with the same (unchanged) instruction.
    kernel.phys.write(pfn, 0x800, &[0xCC; 8]);
    assert_eq!(vm.call(f, &[]).unwrap(), 3);
}

#[test]
fn a_freed_and_reallocated_text_frame_never_serves_the_old_instruction() {
    let kernel = Kernel::new(KernelConfig::default());
    let va = 0x330_0000_0000;
    let pfn = kernel.phys.alloc();
    kernel.phys.write(pfn, 0, &ret_imm(1));
    kernel
        .space
        .apply(Batch::new().map_page(va, pfn, PteFlags::TEXT))
        .unwrap();
    let mut vm = kernel.vm();
    assert_eq!(vm.call(va, &[]).unwrap(), 1);

    kernel.space.apply(Batch::new().unmap_range(va, 1)).unwrap();
    kernel.phys.free(pfn);
    let reused = kernel.phys.alloc();
    assert_eq!(reused, pfn, "free-list reuse hands back the same frame");
    // Same frame, same offset, other code — mapped at the old address
    // and at a fresh one.
    kernel.phys.write(reused, 0, &ret_imm(2));
    kernel
        .space
        .apply(Batch::new().map_page(va, reused, PteFlags::TEXT))
        .unwrap();
    assert_eq!(vm.call(va, &[]).unwrap(), 2);
    let elsewhere = 0x340_0000_0000;
    kernel
        .space
        .apply(Batch::new().map_page(elsewhere, reused, PteFlags::TEXT))
        .unwrap();
    assert_eq!(vm.call(elsewhere, &[]).unwrap(), 2);

    // Freed and reallocated as a zeroed frame: the zero bytes decode to
    // something else entirely (or nothing), never to the old `mov`.
    kernel.space.apply(Batch::new().unmap_range(va, 1)).unwrap();
    kernel
        .space
        .apply(Batch::new().unmap_range(elsewhere, 1))
        .unwrap();
    kernel.phys.free(reused);
    let zeroed = kernel.phys.alloc();
    assert_eq!(zeroed, pfn);
    kernel
        .space
        .apply(Batch::new().map_page(va, zeroed, PteFlags::TEXT))
        .unwrap();
    assert!(!matches!(vm.call(va, &[]), Ok(1) | Ok(2)));
}

#[test]
fn rerandomized_module_faults_at_the_old_entry_and_runs_at_the_new() {
    use adelie_core::{rerandomize_module, ModuleRegistry};
    use adelie_drivers::{install_dummy, specs::DUMMY_MINOR};
    use adelie_plugin::TransformOptions;

    let kernel = Kernel::new(KernelConfig::default());
    let registry = ModuleRegistry::new(&kernel);
    let module = install_dummy(&registry, &TransformOptions::rerandomizable(true))
        .unwrap()
        .module;
    let mut vm = kernel.vm();
    let old = module.symbol_va("dummy_ioctl__real").unwrap();
    for arg in 0..4 {
        assert_eq!(vm.call(old, &[0, 0, arg]).unwrap(), arg);
        assert_eq!(kernel.ioctl(&mut vm, DUMMY_MINOR, 0, arg).unwrap(), arg);
    }

    rerandomize_module(&kernel, &registry, &module).unwrap();
    kernel.reclaim.flush();
    let new = module.symbol_va("dummy_ioctl__real").unwrap();
    assert_ne!(new, old, "the movable part moved");
    // The frames are the same (zero-copy move), so decoded entries for
    // them stay valid — but the old virtual range must not execute.
    match vm.call(old, &[0, 0, 7]) {
        Err(VmError::Fault(_)) => {}
        other => panic!("stale entry should fault, got {other:?}"),
    }
    for arg in 0..4 {
        assert_eq!(vm.call(new, &[0, 0, arg]).unwrap(), arg);
        assert_eq!(kernel.ioctl(&mut vm, DUMMY_MINOR, 0, arg).unwrap(), arg);
    }
}

// Page registers (DESIGN.md §14.8) let a CPU skip the TLB for an access
// to the page it touched last. They must be invisible: the same faults,
// the same bytes and the same `TlbStats` as probing every access. The
// counts asserted below are those of a probe-every-access interpreter.

/// `(hits, micro_hits, misses)` of one outermost call on a fresh `Vm`.
fn call_counts(kernel: &Kernel, f: u64, args: &[u64]) -> (u64, (u64, u64, u64)) {
    let mut vm = kernel.vm();
    let before = vm.tlb_stats();
    let rax = vm.call(f, args).unwrap();
    let d = vm.tlb_stats().delta_since(&before);
    (rax, (d.hits, d.micro_hits, d.misses))
}

/// Map `bytes` as text at `va` (one page).
fn map_text(kernel: &Kernel, va: u64, bytes: &[u8]) -> adelie_vmem::Pfn {
    let pfn = kernel.phys.alloc();
    kernel.phys.write(pfn, 0, bytes);
    kernel
        .space
        .apply(Batch::new().map_page(va, pfn, PteFlags::TEXT))
        .unwrap();
    pfn
}

#[test]
fn loads_alternating_between_pages_of_one_micro_slot_are_l2_hits() {
    let kernel = Kernel::new(KernelConfig::default());
    // The code page and both data pages are 512 pages apart: all three
    // share one micro-TLB slot, so every access evicts the previous
    // page's micro entry and the next access to it is an L2 hit.
    let stride = 512 * PAGE_SIZE as u64;
    let code = 0x350_0000_0000;
    let (a, b) = (code + stride, code + 2 * stride);
    kernel
        .space
        .apply(Batch::new().map_page(a, kernel.phys.alloc(), PteFlags::DATA))
        .unwrap();
    kernel
        .space
        .apply(Batch::new().map_page(b, kernel.phys.alloc(), PteFlags::DATA))
        .unwrap();
    place(&kernel, a, &7u64.to_le_bytes());
    place(&kernel, b, &35u64.to_le_bytes());
    // rax = 0; do { rax += [rdi]; rax += [rsi]; } while (--rdx);
    let mut asm = Asm::new();
    asm.mov_imm32(Reg::Rax, 0);
    asm.label("loop");
    asm.alu_load(AluOp::Add, Reg::Rax, adelie_isa::Mem::base(Reg::Rdi));
    asm.alu_load(AluOp::Add, Reg::Rax, adelie_isa::Mem::base(Reg::Rsi));
    asm.alu_imm(AluOp::Sub, Reg::Rdx, 1);
    asm.jcc_label(Cond::Ne, "loop");
    asm.ret();
    map_text(&kernel, code, &asm.assemble().unwrap().bytes);
    let (rax, counts) = call_counts(&kernel, code, &[a, b, 100]);
    assert_eq!(rax, 100 * 42);
    // Per iteration: 4 fetches and 2 loads, of which only the fetches
    // of `jne` and the first `add` find their page still in the slot.
    assert_eq!(counts, (600, 202, 4), "(hits, micro_hits, misses)");
}

#[test]
fn a_native_remapping_the_running_code_page_returns_into_the_new_bytes() {
    let kernel = Kernel::new(KernelConfig::default());
    let page = 0x360_0000_0000;
    // call remap; mov eax, v; ret — the two copies differ only in v.
    let code = |native: u64, v: i32| {
        let mut asm = Asm::new();
        asm.mov_imm64(Reg::Rcx, native);
        asm.call_reg(Reg::Rcx);
        asm.mov_imm32(Reg::Rax, v);
        asm.ret();
        asm.assemble().unwrap().bytes
    };
    let fresh = kernel.phys.alloc();
    let remap = kernel
        .symbols
        .register_native("test_remap_caller", move |vm| {
            let space = &vm.kernel.space;
            space
                .apply(Batch::new().unmap_range(page, 1))
                .map_err(VmError::Fault)?;
            space
                .apply(Batch::new().map_page(page, fresh, PteFlags::TEXT))
                .map_err(VmError::Fault)?;
            Ok(0)
        });
    kernel.phys.write(fresh, 0, &code(remap, 2));
    map_text(&kernel, page, &code(remap, 1));
    let (rax, counts) = call_counts(&kernel, page, &[]);
    assert_eq!(rax, 2, "returned into the old frame's bytes");
    assert_eq!(counts, (5, 4, 3), "(hits, micro_hits, misses)");
}

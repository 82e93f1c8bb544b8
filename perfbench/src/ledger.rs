//! The exec-layer ledger: per-task cost by the paper's accounting, and a
//! static instruction count of the fib kernel, since the host exposes
//! no performance counters.

use std::process::Command;

use crate::kernels::{fib_kernel, fib_kernel_public, fib_serial, fib_spawns};
use crate::stats::median;
use wool_core::{cycles, Pool, PoolConfig, TaskSpecific, WoolFull};

/// fib size for the one-worker cost calibration.
const CAL_N: u64 = 20;
/// Paired measurements per strategy.
const CAL_PAIRS: usize = 150;

/// Cycles per task, `(T₁ − T_S) / N_T`, on one worker, as the median
/// over interleaved pairs of a pool solve and the serial reference.
/// Returns `(private, public)`: the full Wool strategy, whose joins stay
/// private, and the task-specific rung, where every join is public.
pub fn task_cycles() -> (f64, f64) {
    let nt = fib_spawns(CAL_N) as f64;
    let mut wool: Pool<WoolFull> = Pool::with_config(PoolConfig::with_workers(1));
    let mut public: Pool<TaskSpecific> = Pool::with_config(PoolConfig::with_workers(1));
    let (mut priv_c, mut pub_c) = (Vec::new(), Vec::new());
    for _ in 0..CAL_PAIRS {
        let ts = timed_serial(CAL_N);
        let t1 = wool.run(|h| {
            let t = cycles::now();
            std::hint::black_box(fib_kernel(h, std::hint::black_box(CAL_N)));
            cycles::now() - t
        });
        priv_c.push((t1 as f64 - ts) / nt);
        let ts = timed_serial(CAL_N);
        let t1 = public.run(|h| {
            let t = cycles::now();
            std::hint::black_box(fib_kernel_public(h, std::hint::black_box(CAL_N)));
            cycles::now() - t
        });
        pub_c.push((t1 as f64 - ts) / nt);
    }
    (median(&priv_c), median(&pub_c))
}

fn timed_serial(n: u64) -> f64 {
    let t = cycles::now();
    std::hint::black_box(fib_serial(std::hint::black_box(n)));
    (cycles::now() - t) as f64
}

/// Static instruction counts of the fib kernel in this executable:
/// `(instructions, atomic instructions)`. `None` when `objdump` is
/// missing or the symbol cannot be found; the metric is then absent.
pub fn fib_insns() -> Option<(u64, u64)> {
    let exe = std::env::current_exe().ok()?;
    let syms = Command::new("objdump").arg("-t").arg(&exe).output().ok()?;
    let syms = String::from_utf8_lossy(&syms.stdout);
    let sym = syms
        .lines()
        .filter_map(|l| l.split_whitespace().last())
        .find(|s| s.contains("10fib_kernel"))?
        .to_string();
    let dis = Command::new("objdump")
        .args(["-d", "--no-show-raw-insn", &format!("--disassemble={sym}")])
        .arg(&exe)
        .output()
        .ok()?;
    count_insns(&String::from_utf8_lossy(&dis.stdout), "10fib_kernel")
}

/// Counts the instructions of the first function whose symbol contains
/// `needle` in `objdump -d --no-show-raw-insn` output, and among them
/// the atomic read-modify-writes: `lock`-prefixed and `xchg` (implicitly
/// locked with a memory operand).
pub fn count_insns(disasm: &str, needle: &str) -> Option<(u64, u64)> {
    let mut lines = disasm.lines();
    lines.find(|l| l.ends_with(">:") && l.contains(needle))?;
    let (mut n, mut atomic) = (0, 0);
    for l in lines {
        let Some((addr, insn)) = l.split_once(":\t") else {
            if l.trim().is_empty() || l.ends_with(">:") {
                break;
            }
            continue;
        };
        if addr.trim().chars().all(|c| c.is_ascii_hexdigit()) {
            n += 1;
            let m = insn.trim_start();
            if m.starts_with("lock") || m.starts_with("xchg") {
                atomic += 1;
            }
        }
    }
    Some((n, atomic))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = "\
bench:     file format elf64-x86-64


Disassembly of section .text:

0000000000012340 <_ZN9perfbench7kernels10fib_kernel17h0123456789abcdefE>:
   12340:\tpush   %rbp
   12341:\tmov    %rsp,%rbp
   12344:\tlock cmpxchg %rcx,(%rdx)
   12349:\txchg   %rax,(%rdi)
   1234c:\tcall   12340 <_ZN9perfbench7kernels10fib_kernel17h0123456789abcdefE>
   12351:\tnop
   12352:\tret

0000000000012360 <_ZN9perfbench7kernels4leaf17hfedcba9876543210E>:
   12360:\tlock xadd %eax,(%rdi)
   12364:\tret
";

    #[test]
    fn objdump_parser_counts_one_function() {
        assert_eq!(count_insns(FIXTURE, "10fib_kernel"), Some((7, 2)));
        assert_eq!(count_insns(FIXTURE, "4leaf"), Some((2, 1)));
        assert_eq!(count_insns(FIXTURE, "missing"), None);
    }

    #[test]
    fn the_kernel_is_found_in_this_executable() {
        if Command::new("objdump").arg("--version").output().is_err() {
            return;
        }
        let (n, atomic) = fib_insns().expect("fib_kernel must be in the test binary");
        assert!(n > 10, "{n} instructions");
        assert!(atomic < n);
    }
}

//! Traced benchmark run: per-layer metrics, counting allocator.

#[global_allocator]
static ALLOC: netsolve_perfbench::alloc::CountingAlloc = netsolve_perfbench::alloc::CountingAlloc;

fn main() {
    netsolve_perfbench::main(true)
}

//! Untraced benchmark run: end-to-end metrics, system allocator.

fn main() {
    netsolve_perfbench::main(false)
}

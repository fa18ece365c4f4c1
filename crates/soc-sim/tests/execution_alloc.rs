//! `SocSimulator::commit_snippet` and `execute_snippet` allocate nothing,
//! however many thermal steps a snippet spans.
//!
//! A counting global allocator (wrapping `System`) tallies the allocations of
//! the calling thread.  The binary holds this one test so no other test's
//! allocations can interleave.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use soclearn_soc_sim::{DvfsConfig, SnippetExecution, SocPlatform, SocSimulator};
use soclearn_workloads::SnippetProfile;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only extra work is bumping a const-initialised thread-local
// counter, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn executing_snippets_allocates_nothing() {
    let mut sim = SocSimulator::new(SocPlatform::odroid_xu3());
    let snippets =
        [SnippetProfile::compute_bound(100_000_000), SnippetProfile::memory_bound(100_000_000)];
    let config = DvfsConfig::new(2, 5);
    let evaluated = sim.evaluate_snippet(&snippets[0], config);
    // One thermal step, 37 steps, and the 10 000-step cap (0.1 s steps).
    for time_s in [1e-6, 3.65, 5_000.0] {
        let execution = SnippetExecution { time_s, ..evaluated };
        let before = allocations();
        sim.commit_snippet(&execution);
        let made = allocations() - before;
        assert_eq!(made, 0, "committing a {time_s} s snippet made {made} allocations");
    }
    let heated = sim.big_temperature_c();

    let before = allocations();
    for i in 0..200 {
        sim.execute_snippet(&snippets[i % 2], config);
    }
    let made = allocations() - before;
    assert_eq!(made, 0, "200 executed snippets made {made} allocations");
    assert_eq!(sim.snippets_executed(), 203);
    assert_ne!(sim.big_temperature_c(), heated, "the thermal state advanced");
}

//! `Mlp::train_classification_epochs` allocates per call, never per SGD step.
//!
//! A counting global allocator (wrapping `System`) tallies the allocations of
//! the calling thread; training on ten times as many samples must not make a
//! single extra one.  The binary holds this one test so no other test's
//! allocations can interleave.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use soclearn_online_learning::MlpBuilder;

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
fn epoch_training_allocates_nothing_per_step() {
    const EPOCHS: usize = 8;
    // The online-IL policy network's shape: 10 features, 24 hidden, 8 levels.
    let (dim, classes) = (10, 8);
    let xs: Vec<Vec<f64>> = (0..150)
        .map(|s| (0..dim).map(|i| ((s * 7 + i * 3) % 11) as f64 / 5.0 - 1.0).collect())
        .collect();
    let labels: Vec<usize> = (0..xs.len()).map(|s| (s * 5) % classes).collect();

    let mut net = MlpBuilder::new(dim, classes).hidden_layers(&[24]).seed(3).build();
    let mut allocations_for = |n: usize| {
        let samples = xs[..n].iter().map(Vec::as_slice).zip(labels[..n].iter().copied());
        let before = allocations();
        net.train_classification_epochs(samples, EPOCHS);
        allocations() - before
    };
    let small = allocations_for(15);
    let large = allocations_for(150);
    assert_eq!(
        small, large,
        "15 x {EPOCHS} steps made {small} allocations, 150 x {EPOCHS} made {large}"
    );
    assert_eq!(net.updates(), (15 + 150) * EPOCHS);
}

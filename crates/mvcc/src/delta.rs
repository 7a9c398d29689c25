//! Delta-region slot allocation.
//!
//! New versions of a row must live in the delta arena whose rotation
//! matches the origin row's block (§5.1), so the allocator is per-arena.
//! Slots freed by defragmentation are recycled.

/// Allocator over the delta arenas of one table.
#[derive(Debug, Clone)]
pub struct DeltaAllocator {
    arena_rows: u64,
    next: Vec<u64>,
    free: Vec<Vec<u64>>,
}

/// Raised when a delta arena has no free slot: the engine must run
/// defragmentation before accepting more updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaFull {
    /// The exhausted rotation arena.
    pub rotation: u32,
}

impl std::fmt::Display for DeltaFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "delta arena {} is full", self.rotation)
    }
}

impl std::error::Error for DeltaFull {}

impl DeltaAllocator {
    /// Creates an allocator with `arenas` rotation arenas of `arena_rows`
    /// slots each. Each arena's free list holds room for all its slots
    /// from the start, so releasing a slot never grows it.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(arenas: u32, arena_rows: u64) -> DeltaAllocator {
        assert!(arenas > 0 && arena_rows > 0, "degenerate delta region");
        DeltaAllocator {
            arena_rows,
            next: vec![0; arenas as usize],
            free: (0..arenas)
                .map(|_| Vec::with_capacity(arena_rows as usize))
                .collect(),
        }
    }

    /// Slots per arena.
    pub fn arena_rows(&self) -> u64 {
        self.arena_rows
    }

    /// Allocates a slot in `rotation`'s arena.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaFull`] when the arena is exhausted.
    pub fn alloc(&mut self, rotation: u32) -> Result<u64, DeltaFull> {
        let r = rotation as usize;
        if let Some(idx) = self.free[r].pop() {
            return Ok(idx);
        }
        if self.next[r] < self.arena_rows {
            let idx = self.next[r];
            self.next[r] += 1;
            Ok(idx)
        } else {
            Err(DeltaFull { rotation })
        }
    }

    /// Returns a slot to `rotation`'s free list.
    pub fn release(&mut self, rotation: u32, idx: u64) {
        debug_assert!(idx < self.arena_rows);
        self.free[rotation as usize].push(idx);
    }

    /// Live (allocated, unreleased) slots in `rotation`'s arena.
    pub fn live(&self, rotation: u32) -> u64 {
        let r = rotation as usize;
        self.next[r] - self.free[r].len() as u64
    }

    /// Live slots across all arenas.
    pub fn live_total(&self) -> u64 {
        (0..self.next.len() as u32).map(|r| self.live(r)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_per_arena() {
        let mut a = DeltaAllocator::new(4, 2);
        assert_eq!(a.alloc(0), Ok(0));
        assert_eq!(a.alloc(0), Ok(1));
        assert_eq!(a.alloc(0), Err(DeltaFull { rotation: 0 }));
        // Other arenas unaffected.
        assert_eq!(a.alloc(3), Ok(0));
        assert_eq!(a.live(0), 2);
        assert_eq!(a.live_total(), 3);
    }

    #[test]
    fn release_recycles() {
        let mut a = DeltaAllocator::new(2, 2);
        let x = a.alloc(1).unwrap();
        a.release(1, x);
        assert_eq!(a.live(1), 0);
        assert_eq!(a.alloc(1), Ok(x));
    }

    #[test]
    fn error_formats() {
        assert_eq!(
            DeltaFull { rotation: 2 }.to_string(),
            "delta arena 2 is full"
        );
    }
}

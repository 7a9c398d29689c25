//! Delta-region slot allocation.
//!
//! New versions of a row must live in the delta arena whose rotation
//! matches the origin row's block (§5.1), so the allocator is per-arena.
//! Slots freed by defragmentation are recycled.

/// Allocator over the delta arenas of one table.
#[derive(Debug, Clone)]
pub struct DeltaAllocator {
    arena_rows: u64,
    heads: Vec<ArenaHead>,
    /// Every arena's free list, arena after arena: arena `r`'s holds
    /// `free[r * arena_rows..][..heads[r].freed]`, most recently freed
    /// last.
    free: Vec<u64>,
}

/// Where one arena's allocation stands.
#[derive(Debug, Clone, Copy, Default)]
struct ArenaHead {
    /// Slots below this have been handed out at least once.
    next: u64,
    /// Length of the arena's free list.
    freed: u64,
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
    /// slots each. The free lists hold room for every slot from the
    /// start, allocated zeroed and touched only as slots are released,
    /// so releasing a slot never allocates.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(arenas: u32, arena_rows: u64) -> DeltaAllocator {
        assert!(arenas > 0 && arena_rows > 0, "degenerate delta region");
        DeltaAllocator {
            arena_rows,
            heads: vec![ArenaHead::default(); arenas as usize],
            free: vec![0; arenas as usize * arena_rows as usize],
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
        let head = &mut self.heads[r];
        if head.freed > 0 {
            head.freed -= 1;
            return Ok(self.free[(r as u64 * self.arena_rows + head.freed) as usize]);
        }
        if head.next < self.arena_rows {
            head.next += 1;
            Ok(head.next - 1)
        } else {
            Err(DeltaFull { rotation })
        }
    }

    /// Returns a slot to `rotation`'s free list.
    ///
    /// # Panics
    ///
    /// Panics if the arena's free list is already full: some slot was
    /// released twice.
    pub fn release(&mut self, rotation: u32, idx: u64) {
        debug_assert!(idx < self.arena_rows);
        let r = rotation as usize;
        let head = &mut self.heads[r];
        assert!(
            head.freed < head.next,
            "arena {rotation} released more slots than it allocated"
        );
        self.free[(r as u64 * self.arena_rows + head.freed) as usize] = idx;
        head.freed += 1;
    }

    /// Live (allocated, unreleased) slots in `rotation`'s arena.
    pub fn live(&self, rotation: u32) -> u64 {
        let head = self.heads[rotation as usize];
        head.next - head.freed
    }

    /// Live slots across all arenas.
    pub fn live_total(&self) -> u64 {
        self.heads.iter().map(|h| h.next - h.freed).sum()
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

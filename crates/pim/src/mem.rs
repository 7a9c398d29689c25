//! Functional (value-carrying) device memory.
//!
//! The timing simulator models *when* data moves; these buffers hold the
//! bytes themselves so the database built on top is value-correct. One
//! [`DeviceMem`] is the byte stream of one device's share of a table
//! region; a [`DeviceArray`] groups the lockstep devices of a rank (the
//! ADE dimension of the unified format).

use std::fmt;

/// A growable device-local byte store.
#[derive(Clone, Default)]
pub struct DeviceMem {
    bytes: Vec<u8>,
}

impl fmt::Debug for DeviceMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceMem")
            .field("len", &self.bytes.len())
            .finish()
    }
}

impl DeviceMem {
    /// Creates an empty device memory.
    pub fn new() -> DeviceMem {
        DeviceMem::default()
    }

    /// Creates an empty device memory that holds `bytes` bytes before it
    /// reallocates. The capacity is reserved, not written: the store's
    /// length, and the memory it touches, still grow only as bytes are
    /// written.
    pub fn with_capacity(bytes: usize) -> DeviceMem {
        DeviceMem {
            bytes: Vec::with_capacity(bytes),
        }
    }

    /// Current allocated length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether nothing has been allocated yet.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Grows (zero-filled) so that `end` bytes are addressable.
    pub fn ensure(&mut self, end: usize) {
        if self.bytes.len() < end {
            self.bytes.resize(end, 0);
        }
    }

    /// Reads `len` bytes at `offset`. Bytes beyond the written extent read
    /// as zero, like fresh DRAM.
    pub fn read(&self, offset: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        if offset < self.bytes.len() {
            let n = len.min(self.bytes.len() - offset);
            out[..n].copy_from_slice(&self.bytes[offset..offset + n]);
        }
        out
    }

    /// Fills `out` with the bytes at `offset`, without allocating. Bytes
    /// beyond the written extent read as zero, like [`DeviceMem::read`].
    #[inline]
    pub fn read_into(&self, offset: usize, out: &mut [u8]) {
        let stored = self.bytes.get(offset..).unwrap_or(&[]);
        let n = out.len().min(stored.len());
        out[..n].copy_from_slice(&stored[..n]);
        out[n..].fill(0);
    }

    /// The little-endian integer held in the `len` (at most 8) bytes at
    /// `offset`, decoded in place — how a PIM unit loads a scanned column
    /// value. Bytes beyond the written extent count as zero.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds 8.
    #[inline]
    pub fn read_le(&self, offset: usize, len: usize) -> u64 {
        assert!(len <= 8, "an integer spans at most 8 bytes, not {len}");
        // One fixed-width load, masked down to `len` bytes; only within 8
        // bytes of the extent are the stored bytes copied one by one.
        let mut le = [0u8; 8];
        match self.bytes.get(offset..offset + 8) {
            Some(word) => le.copy_from_slice(word),
            None => self.read_into(offset, &mut le),
        }
        let keep = if len == 8 {
            !0
        } else {
            (1u64 << (8 * len)) - 1
        };
        u64::from_le_bytes(le) & keep
    }

    /// Writes `data` at `offset`, growing the store as needed.
    pub fn write(&mut self, offset: usize, data: &[u8]) {
        self.ensure(offset + data.len());
        self.bytes[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Reads a single byte (zero beyond the written extent).
    pub fn byte(&self, offset: usize) -> u8 {
        self.bytes.get(offset).copied().unwrap_or(0)
    }

    /// Copies `len` bytes from `src` to `dst` within this device (used by
    /// PIM-side defragmentation: the copy never crosses devices because new
    /// versions share their origin row's rotation, §5.1). The store does
    /// not grow here: a caller moving several ranges sizes it once with
    /// [`DeviceMem::ensure`].
    ///
    /// # Panics
    ///
    /// Panics if either range reaches past the allocated length.
    #[inline]
    pub fn copy_within(&mut self, src: usize, dst: usize, len: usize) {
        // A version's slice on one device is a few bytes, most often a
        // power of two: those move as one load and one store, where a
        // length known only at run time costs a `memmove` call each.
        match len {
            1 => self.copy_fixed::<1>(src, dst),
            2 => self.copy_fixed::<2>(src, dst),
            4 => self.copy_fixed::<4>(src, dst),
            8 => self.copy_fixed::<8>(src, dst),
            _ => self.bytes.copy_within(src..src + len, dst),
        }
    }

    /// [`DeviceMem::copy_within`] of a length fixed at compile time.
    #[inline]
    fn copy_fixed<const N: usize>(&mut self, src: usize, dst: usize) {
        let mut word = [0u8; N];
        word.copy_from_slice(&self.bytes[src..src + N]);
        self.bytes[dst..dst + N].copy_from_slice(&word);
    }
}

/// The lockstep devices of one rank (the ADE dimension).
#[derive(Debug, Clone)]
pub struct DeviceArray {
    devices: Vec<DeviceMem>,
}

impl DeviceArray {
    /// Creates an array of `n` empty devices, each holding `bytes` bytes
    /// before it reallocates ([`DeviceMem::with_capacity`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_capacity(n: u32, bytes: usize) -> DeviceArray {
        assert!(n > 0, "device array needs at least one device");
        DeviceArray {
            devices: (0..n).map(|_| DeviceMem::with_capacity(bytes)).collect(),
        }
    }

    /// Number of devices.
    pub fn width(&self) -> u32 {
        self.devices.len() as u32
    }

    /// Immutable access to device `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn device(&self, i: u32) -> &DeviceMem {
        &self.devices[i as usize]
    }

    /// Mutable access to device `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn device_mut(&mut self, i: u32) -> &mut DeviceMem {
        &mut self.devices[i as usize]
    }

    /// Iterates over all devices.
    pub fn iter(&self) -> impl Iterator<Item = &DeviceMem> {
        self.devices.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip() {
        let mut m = DeviceMem::new();
        m.write(10, &[1, 2, 3]);
        assert_eq!(m.read(10, 3), vec![1, 2, 3]);
        assert_eq!(m.len(), 13);
        // Unwritten bytes are zero, even past the extent.
        assert_eq!(m.read(0, 10), vec![0u8; 10]);
        assert_eq!(m.read(1000, 4), vec![0u8; 4]);
    }

    /// `read_into` is `read` without the allocation, and overwrites every
    /// byte of its buffer.
    #[test]
    fn read_into_equals_read_at_every_offset_length_and_extent_edge() {
        let mut m = DeviceMem::new();
        m.write(3, &[1, 2, 3, 4, 5]);
        for offset in 0..12 {
            for len in 0..12 {
                let mut out = vec![0xEE; len];
                m.read_into(offset, &mut out);
                assert_eq!(out, m.read(offset, len), "offset {offset} len {len}");
            }
        }
    }

    /// `read_le` is `read` decoded, at every offset and length around
    /// the extent: inside, straddling it, at it and far past it.
    #[test]
    fn read_le_equals_read_at_every_offset_length_and_extent_edge() {
        let mut m = DeviceMem::new();
        m.write(0, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        for offset in 0..24 {
            for len in 0..=8 {
                let mut le = [0u8; 8];
                le[..len].copy_from_slice(&m.read(offset, len));
                assert_eq!(
                    m.read_le(offset, len),
                    u64::from_le_bytes(le),
                    "offset {offset} len {len}"
                );
            }
        }
        assert_eq!(m.read_le(1, 2), 0x0302);
        assert_eq!(m.read_le(9, 4), 0x0b0a, "zeros past the extent");
        assert_eq!(DeviceMem::new().read_le(0, 8), 0);
        assert_eq!(m.read_le(1000, 8), 0);
    }

    #[test]
    #[should_panic(expected = "at most 8 bytes")]
    fn read_le_rejects_wide_values() {
        let _ = DeviceMem::new().read_le(0, 9);
    }

    #[test]
    fn byte_accessors() {
        let mut m = DeviceMem::new();
        m.write(5, &[0xAB]);
        assert_eq!(m.byte(5), 0xAB);
        assert_eq!(m.byte(6), 0, "zero beyond the written extent");
        assert!(!m.is_empty());
    }

    #[test]
    fn copy_within_moves_versions() {
        let mut m = DeviceMem::new();
        m.write(0, &[9, 9, 9, 9]);
        m.write(100, &[1, 2, 3, 4]);
        m.copy_within(100, 0, 4);
        assert_eq!(m.read(0, 4), &[1, 2, 3, 4]);
        // A range past the extent is the caller's to size first.
        m.ensure(204);
        m.copy_within(100, 200, 4);
        assert_eq!(m.read(200, 4), &[1, 2, 3, 4]);
    }

    /// Every length — the fixed-size ones and the rest — moves the same
    /// bytes a byte-by-byte copy through a buffer would, overlapping
    /// ranges included.
    #[test]
    fn copy_within_equals_a_buffered_copy_at_every_length_and_overlap() {
        let bytes: Vec<u8> = (1..=40).collect();
        for len in 0..=17 {
            for (src, dst) in [(0, 20), (20, 3), (5, 7), (7, 5), (9, 9)] {
                let mut m = DeviceMem::new();
                m.write(0, &bytes);
                m.copy_within(src, dst, len);
                let mut expect = bytes.clone();
                expect[dst..dst + len].copy_from_slice(&bytes[src..src + len]);
                assert_eq!(m.read(0, 40), expect, "len {len} from {src} to {dst}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn copy_within_does_not_grow_the_store() {
        let mut m = DeviceMem::new();
        m.write(0, &[1, 2, 3, 4]);
        m.copy_within(0, 100, 4);
    }

    #[test]
    fn device_array_is_independent() {
        let mut a = DeviceArray::with_capacity(4, 0);
        a.device_mut(0).write(0, &[7]);
        a.device_mut(3).write(0, &[8]);
        assert_eq!(a.device(0).byte(0), 7);
        assert_eq!(a.device(3).byte(0), 8);
        assert_eq!(a.device(1).len(), 0);
        assert_eq!(a.width(), 4);
        assert_eq!(a.device(0).len(), 1);
    }

    /// A reserved store reads and grows like an unreserved one, and
    /// writing within its capacity moves nothing.
    #[test]
    fn reserved_capacity_is_not_written() {
        let mut a = DeviceArray::with_capacity(2, 64);
        assert_eq!(a.device(1).len(), 0, "reserved, not written");
        assert_eq!(a.device(1).read(0, 64), vec![0u8; 64]);
        let before = a.device(1).bytes.as_ptr();
        a.device_mut(1).write(60, &[1, 2, 3, 4]);
        a.device_mut(1).ensure(64);
        assert_eq!(a.device(1).bytes.as_ptr(), before, "grew within capacity");
        assert_eq!(a.device(1).len(), 64);
        assert_eq!(a.device(1).read_le(60, 4), 0x0403_0201);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_array_panics() {
        let _ = DeviceArray::with_capacity(0, 0);
    }
}

//! Functional (value-carrying) device memory.
//!
//! The timing simulator models *when* data moves; these buffers hold the
//! bytes themselves so the database built on top is value-correct. A
//! [`DeviceArray`] holds the lockstep devices of a rank (the ADE dimension
//! of the unified format): each device's share of a table region, all in
//! one buffer.

use std::fmt;

/// The lockstep devices of one rank (the ADE dimension): `devices`
/// stores of `stride` bytes each, device `i`'s at `i * stride` of one
/// buffer. The buffer is allocated zeroed and sized once: unwritten bytes
/// read as zero, like fresh DRAM, and the allocator's zeroed pages are
/// touched only as bytes are written.
#[derive(Clone)]
pub struct DeviceArray {
    devices: u32,
    stride: usize,
    bytes: Vec<u8>,
}

impl fmt::Debug for DeviceArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceArray")
            .field("devices", &self.devices)
            .field("stride", &self.stride)
            .finish()
    }
}

impl DeviceArray {
    /// Creates an array of `n` zeroed devices of `bytes` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u32, bytes: usize) -> DeviceArray {
        assert!(n > 0, "device array needs at least one device");
        DeviceArray {
            devices: n,
            stride: bytes,
            bytes: vec![0; n as usize * bytes],
        }
    }

    /// Number of devices.
    pub fn width(&self) -> u32 {
        self.devices
    }

    /// Device `i`'s bytes.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn device(&self, i: u32) -> &[u8] {
        assert!(i < self.devices, "device {i} out of {}", self.devices);
        let start = i as usize * self.stride;
        &self.bytes[start..start + self.stride]
    }

    /// Fills `out` with device `i`'s bytes at `offset`, without
    /// allocating. Bytes past the device's end read as zero.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn read_into(&self, i: u32, offset: usize, out: &mut [u8]) {
        let stored = self.device(i).get(offset..).unwrap_or(&[]);
        let n = out.len().min(stored.len());
        out[..n].copy_from_slice(&stored[..n]);
        out[n..].fill(0);
    }

    /// The little-endian integer held in the `len` (at most 8) bytes at
    /// `offset` of device `i`, decoded in place — how a PIM unit loads a
    /// scanned column value. Bytes past the device's end count as zero.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds 8 or `i` is out of range.
    #[inline]
    pub fn read_le(&self, i: u32, offset: usize, len: usize) -> u64 {
        assert!(len <= 8, "an integer spans at most 8 bytes, not {len}");
        // One fixed-width load, masked down to `len` bytes; only within 8
        // bytes of the device's end are the stored bytes copied one by one.
        let mut le = [0u8; 8];
        match self.device(i).get(offset..offset + 8) {
            Some(word) => le.copy_from_slice(word),
            None => self.read_into(i, offset, &mut le),
        }
        let keep = if len == 8 {
            !0
        } else {
            (1u64 << (8 * len)) - 1
        };
        u64::from_le_bytes(le) & keep
    }

    /// Writes `data` at `offset` of device `i`.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past the device's end or `i` is out of
    /// range.
    pub fn write(&mut self, i: u32, offset: usize, data: &[u8]) {
        self.device_mut(i)[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Copies `len` bytes from `src` to `dst` within device `i` (used by
    /// PIM-side defragmentation: the copy never crosses devices because
    /// new versions share their origin row's rotation, §5.1).
    ///
    /// # Panics
    ///
    /// Panics if either range reaches past the device's end.
    #[inline]
    pub fn copy_within(&mut self, i: u32, src: usize, dst: usize, len: usize) {
        let device = self.device_mut(i);
        // A version's slice on one device is a few bytes, most often a
        // power of two: those move as one load and one store, where a
        // length known only at run time costs a `memmove` call each.
        match len {
            1 => copy_fixed::<1>(device, src, dst),
            2 => copy_fixed::<2>(device, src, dst),
            4 => copy_fixed::<4>(device, src, dst),
            8 => copy_fixed::<8>(device, src, dst),
            _ => device.copy_within(src..src + len, dst),
        }
    }

    /// Device `i`'s bytes, writable.
    fn device_mut(&mut self, i: u32) -> &mut [u8] {
        assert!(i < self.devices, "device {i} out of {}", self.devices);
        let start = i as usize * self.stride;
        &mut self.bytes[start..start + self.stride]
    }
}

/// [`DeviceArray::copy_within`] of a length fixed at compile time.
#[inline]
fn copy_fixed<const N: usize>(device: &mut [u8], src: usize, dst: usize) {
    let mut word = [0u8; N];
    word.copy_from_slice(&device[src..src + N]);
    device[dst..dst + N].copy_from_slice(&word);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-device array of 16 bytes holding `bytes` from offset 0.
    fn one_device(bytes: &[u8]) -> DeviceArray {
        let mut a = DeviceArray::new(1, 16);
        a.write(0, 0, bytes);
        a
    }

    /// What device `i` holds at `offset..offset + len`, zeros past its
    /// end: the reference the in-place reads are held to.
    fn reference(a: &DeviceArray, i: u32, offset: usize, len: usize) -> Vec<u8> {
        (offset..offset + len)
            .map(|at| a.device(i).get(at).copied().unwrap_or(0))
            .collect()
    }

    #[test]
    fn write_read_round_trip() {
        let mut a = DeviceArray::new(1, 16);
        a.write(0, 10, &[1, 2, 3]);
        let mut out = [0u8; 3];
        a.read_into(0, 10, &mut out);
        assert_eq!(out, [1, 2, 3]);
        // Unwritten bytes are zero, even past the device's end.
        let mut out = [0xEE; 10];
        a.read_into(0, 0, &mut out);
        assert_eq!(out, [0u8; 10]);
        let mut out = [0xEE; 4];
        a.read_into(0, 1000, &mut out);
        assert_eq!(out, [0u8; 4]);
    }

    /// `read_into` overwrites every byte of its buffer with the device's
    /// bytes, and zeros past the device's end — never the next device's.
    #[test]
    fn read_into_equals_read_at_every_offset_length_and_extent_edge() {
        let mut a = DeviceArray::new(2, 8);
        a.write(0, 3, &[1, 2, 3, 4, 5]);
        a.write(1, 0, &[0xFF; 8]);
        for offset in 0..12 {
            for len in 0..12 {
                let mut out = vec![0xEE; len];
                a.read_into(0, offset, &mut out);
                assert_eq!(
                    out,
                    reference(&a, 0, offset, len),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    /// `read_le` is the reference bytes decoded, at every offset and
    /// length around the device's end: inside, straddling it, at it and
    /// far past it.
    #[test]
    fn read_le_equals_read_at_every_offset_length_and_extent_edge() {
        let mut a = DeviceArray::new(2, 11);
        a.write(0, 0, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        a.write(1, 0, &[0xFF; 11]);
        for offset in 0..24 {
            for len in 0..=8 {
                let mut le = [0u8; 8];
                le[..len].copy_from_slice(&reference(&a, 0, offset, len));
                assert_eq!(
                    a.read_le(0, offset, len),
                    u64::from_le_bytes(le),
                    "offset {offset} len {len}"
                );
            }
        }
        assert_eq!(a.read_le(0, 1, 2), 0x0302);
        assert_eq!(a.read_le(0, 9, 4), 0x0b0a, "zeros past the device's end");
        assert_eq!(DeviceArray::new(1, 0).read_le(0, 0, 8), 0);
        assert_eq!(a.read_le(0, 1000, 8), 0);
    }

    #[test]
    #[should_panic(expected = "at most 8 bytes")]
    fn read_le_rejects_wide_values() {
        let _ = DeviceArray::new(1, 8).read_le(0, 0, 9);
    }

    #[test]
    fn byte_accessors() {
        let a = one_device(&[0, 0, 0, 0, 0, 0xAB]);
        assert_eq!(a.device(0)[5], 0xAB);
        assert_eq!(a.device(0)[6], 0, "unwritten bytes are zero");
        assert_eq!(a.device(0).len(), 16);
    }

    #[test]
    fn copy_within_moves_versions() {
        let mut a = DeviceArray::new(1, 16);
        a.write(0, 0, &[9, 9, 9, 9]);
        a.write(0, 8, &[1, 2, 3, 4]);
        a.copy_within(0, 8, 0, 4);
        assert_eq!(reference(&a, 0, 0, 4), [1, 2, 3, 4]);
        // Unwritten bytes copy as zeros.
        a.copy_within(0, 12, 8, 4);
        assert_eq!(reference(&a, 0, 8, 4), [0; 4]);
    }

    /// Every length — the fixed-size ones and the rest — moves the same
    /// bytes a byte-by-byte copy through a buffer would, overlapping
    /// ranges included.
    #[test]
    fn copy_within_equals_a_buffered_copy_at_every_length_and_overlap() {
        let bytes: Vec<u8> = (1..=40).collect();
        for len in 0..=17 {
            for (src, dst) in [(0, 20), (20, 3), (5, 7), (7, 5), (9, 9)] {
                let mut a = DeviceArray::new(2, 40);
                a.write(0, 0, &bytes);
                a.copy_within(0, src, dst, len);
                let mut expect = bytes.clone();
                expect[dst..dst + len].copy_from_slice(&bytes[src..src + len]);
                assert_eq!(a.device(0), expect, "len {len} from {src} to {dst}");
                assert_eq!(a.device(1), [0; 40], "len {len}: the other device moved");
            }
        }
    }

    #[test]
    #[should_panic]
    fn copy_within_does_not_grow_the_store() {
        let mut a = one_device(&[1, 2, 3, 4]);
        a.copy_within(0, 0, 14, 4);
    }

    #[test]
    fn device_array_is_independent() {
        let mut a = DeviceArray::new(4, 2);
        a.write(0, 0, &[7]);
        a.write(3, 1, &[8]);
        assert_eq!(a.device(0), [7, 0]);
        assert_eq!(a.device(3), [0, 8]);
        assert_eq!(a.device(1), [0, 0]);
        assert_eq!(a.width(), 4);
    }

    /// The bytes are allocated once: a write anywhere in a device lands
    /// in place, and reads see it.
    #[test]
    fn reserved_capacity_is_not_written() {
        let mut a = DeviceArray::new(2, 64);
        assert_eq!(a.device(1), [0u8; 64], "allocated zeroed");
        let before = a.device(1).as_ptr();
        a.write(1, 60, &[1, 2, 3, 4]);
        assert_eq!(a.device(1).as_ptr(), before, "written in place");
        assert_eq!(a.read_le(1, 60, 4), 0x0403_0201);
        assert_eq!(a.device(0), [0u8; 64], "device 0 untouched");
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_array_panics() {
        let _ = DeviceArray::new(0, 0);
    }
}

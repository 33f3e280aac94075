//! Device memory management.
//!
//! A slab of `f32` buffers with byte accounting against the configured
//! device capacity. Allocation failure is a first-class outcome — the
//! paper notes that GPU memory limits are what force large problems into
//! hybrid CPU/GPU execution.

/// Handle to a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevBuf(pub(crate) usize);

/// Device out-of-memory error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceOom {
    /// Bytes requested by the failing allocation.
    pub requested: usize,
    /// Bytes free at the time of the request.
    pub available: usize,
}

impl std::fmt::Display for DeviceOom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device out of memory: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for DeviceOom {}

/// Error for an operation on a buffer handle that is out of range or
/// already freed (double-free / use-after-free). Reported as a value so a
/// solve-path error can degrade gracefully instead of aborting the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidBuffer {
    /// The offending handle's id.
    pub id: usize,
}

impl std::fmt::Display for InvalidBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid device buffer handle {} (freed or never allocated)", self.id)
    }
}

impl std::error::Error for InvalidBuffer {}

/// A view into a device buffer: column-major matrix at `off` with leading
/// dimension `ld`.
#[derive(Debug, Clone, Copy)]
pub struct DevMat {
    /// Buffer holding the data.
    pub buf: DevBuf,
    /// Element offset of the (0,0) entry.
    pub off: usize,
    /// Leading dimension in elements.
    pub ld: usize,
}

impl DevMat {
    /// View of the whole buffer as an `ld`-strided matrix starting at 0.
    pub fn whole(buf: DevBuf, ld: usize) -> Self {
        DevMat { buf, off: 0, ld }
    }

    /// Sub-view displaced by (`di`, `dj`) rows/columns.
    pub fn offset(self, di: usize, dj: usize) -> Self {
        DevMat { buf: self.buf, off: self.off + di + dj * self.ld, ld: self.ld }
    }
}

#[derive(Debug)]
pub(crate) struct DeviceMemory {
    slabs: Vec<Option<Vec<f32>>>,
    lens: Vec<usize>,
    free_ids: Vec<usize>,
    capacity: usize,
    used: usize,
    /// Virtual mode: track sizes and charge capacity without backing
    /// storage — used by timing-only estimation on huge fronts.
    pub virtual_mode: bool,
}

impl DeviceMemory {
    pub fn new(capacity: usize) -> Self {
        DeviceMemory {
            slabs: Vec::new(),
            lens: Vec::new(),
            free_ids: Vec::new(),
            capacity,
            used: 0,
            virtual_mode: false,
        }
    }

    pub fn alloc(&mut self, len: usize) -> Result<DevBuf, DeviceOom> {
        let bytes = len * 4;
        if self.used + bytes > self.capacity {
            return Err(DeviceOom { requested: bytes, available: self.capacity - self.used });
        }
        self.used += bytes;
        let data = if self.virtual_mode { Vec::new() } else { vec![0.0f32; len] };
        let id = match self.free_ids.pop() {
            Some(id) => {
                self.slabs[id] = Some(data);
                self.lens[id] = len;
                id
            }
            None => {
                self.slabs.push(Some(data));
                self.lens.push(len);
                self.slabs.len() - 1
            }
        };
        Ok(DevBuf(id))
    }

    /// Check that `buf` names a live slab.
    fn check(&self, buf: DevBuf) -> Result<(), InvalidBuffer> {
        match self.slabs.get(buf.0) {
            Some(Some(_)) => Ok(()),
            _ => Err(InvalidBuffer { id: buf.0 }),
        }
    }

    /// Release a buffer. A double free or out-of-range handle is reported
    /// as [`InvalidBuffer`] with the accounting untouched.
    pub fn free(&mut self, buf: DevBuf) -> Result<(), InvalidBuffer> {
        self.check(buf)?;
        self.slabs[buf.0] = None;
        self.used -= self.lens[buf.0] * 4;
        self.free_ids.push(buf.0);
        Ok(())
    }

    pub fn len(&self, buf: DevBuf) -> Result<usize, InvalidBuffer> {
        self.check(buf)?;
        Ok(self.lens[buf.0])
    }

    pub fn get(&self, buf: DevBuf) -> Result<&[f32], InvalidBuffer> {
        self.check(buf)?;
        Ok(self.slabs[buf.0].as_ref().unwrap())
    }

    pub fn get_mut(&mut self, buf: DevBuf) -> Result<&mut [f32], InvalidBuffer> {
        self.check(buf)?;
        Ok(self.slabs[buf.0].as_mut().unwrap())
    }

    pub fn used(&self) -> usize {
        self.used
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_accounting() {
        let mut m = DeviceMemory::new(1000);
        let a = m.alloc(100).unwrap(); // 400 bytes
        assert_eq!(m.used(), 400);
        let b = m.alloc(100).unwrap();
        assert_eq!(m.used(), 800);
        m.free(a).unwrap();
        assert_eq!(m.used(), 400);
        m.free(b).unwrap();
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn oom_reports_sizes() {
        let mut m = DeviceMemory::new(100);
        let err = m.alloc(1000).unwrap_err();
        assert_eq!(err.requested, 4000);
        assert_eq!(err.available, 100);
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    fn slot_reuse_after_free() {
        let mut m = DeviceMemory::new(10_000);
        let a = m.alloc(10).unwrap();
        m.free(a).unwrap();
        let b = m.alloc(20).unwrap();
        // Freed slot id is reused.
        assert_eq!(a.0, b.0);
        assert_eq!(m.len(b), Ok(20));
    }

    #[test]
    fn double_free_is_an_error_not_a_panic() {
        let mut m = DeviceMemory::new(10_000);
        let a = m.alloc(10).unwrap();
        m.free(a).unwrap();
        assert_eq!(m.free(a), Err(InvalidBuffer { id: a.0 }));
        // Accounting must be untouched by the failed free.
        assert_eq!(m.used(), 0);
        // The slab can still be allocated from afterwards.
        assert!(m.alloc(10).is_ok());
    }

    #[test]
    fn use_after_free_is_an_error_not_a_panic() {
        let mut m = DeviceMemory::new(10_000);
        let a = m.alloc(10).unwrap();
        m.free(a).unwrap();
        assert_eq!(m.len(a), Err(InvalidBuffer { id: a.0 }));
        assert_eq!(m.get(a).err(), Some(InvalidBuffer { id: a.0 }));
        assert_eq!(m.get_mut(a).err(), Some(InvalidBuffer { id: a.0 }));
    }

    #[test]
    fn out_of_range_handle_is_an_error() {
        let mut m = DeviceMemory::new(10_000);
        assert_eq!(m.free(DevBuf(42)), Err(InvalidBuffer { id: 42 }));
        assert_eq!(m.len(DevBuf(42)), Err(InvalidBuffer { id: 42 }));
    }

    #[test]
    fn devmat_offset_arithmetic() {
        let v = DevMat { buf: DevBuf(0), off: 5, ld: 10 };
        let w = v.offset(2, 3);
        assert_eq!(w.off, 5 + 2 + 30);
        assert_eq!(w.ld, 10);
    }

    #[test]
    fn buffers_zero_initialized() {
        let mut m = DeviceMemory::new(10_000);
        let a = m.alloc(16).unwrap();
        assert!(m.get(a).unwrap().iter().all(|&v| v == 0.0));
    }
}

//! Mapped shared-memory segments under `/dev/shm`, plus the bounds-checked
//! accessors that carve rings, seqlock slots, doorbells and bare atomics
//! out of one.
//!
//! All unsafety lives here and in the primitives this module hands out:
//! every accessor checks bounds and alignment against the mapping before
//! materialising a pointer, and the returned primitives borrow the segment,
//! so they cannot outlive the mapping.  `corki-serve` builds entirely on
//! these safe constructors.

use std::ffi::CString;
use std::io;
use std::sync::atomic::{AtomicU32, AtomicU64};

use crate::doorbell::Doorbell;
use crate::ring::SpscRing;
use crate::seqlock::SeqlockSlot;
use crate::sys;

/// A shared-memory mapping, either a named segment under `/dev/shm` or an
/// anonymous process-private one (used by tests).
///
/// The creator *owns* the name: dropping the owner unmaps **and unlinks**
/// the segment, so a coordinator that crashes after `create` does not leak
/// `/dev/shm` entries on any unwinding exit path.  Openers only unmap.
#[derive(Debug)]
pub struct ShmSegment {
    ptr: *mut u8,
    len: usize,
    /// `Some` only for the creating side of a named segment.
    owned_name: Option<String>,
}

// The raw pointer is to a MAP_SHARED mapping designed for cross-process
// concurrent access; all reads/writes through the accessors below are
// atomic or volatile and bounds-checked.
unsafe impl Send for ShmSegment {}
unsafe impl Sync for ShmSegment {}

fn shm_path(name: &str) -> io::Result<CString> {
    if name.is_empty()
        || !name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("invalid shared-memory segment name `{name}`"),
        ));
    }
    CString::new(format!("/dev/shm/{name}"))
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "segment name contains NUL"))
}

fn map_fd(fd: i32, len: usize) -> io::Result<*mut u8> {
    let ptr = unsafe {
        sys::mmap(
            std::ptr::null_mut(),
            len,
            sys::PROT_READ | sys::PROT_WRITE,
            sys::MAP_SHARED,
            fd,
            0,
        )
    };
    if ptr == sys::MAP_FAILED {
        return Err(io::Error::last_os_error());
    }
    Ok(ptr.cast())
}

impl ShmSegment {
    /// Creates (exclusively) and maps a named segment of `len` bytes under
    /// `/dev/shm`, zero-filled.  Fails if the name already exists — callers
    /// that want to recover from a stale segment [`unlink`](Self::unlink)
    /// it first.
    pub fn create(name: &str, len: usize) -> io::Result<Self> {
        let path = shm_path(name)?;
        assert!(len > 0, "a shared-memory segment needs a non-zero size");
        let fd =
            unsafe { sys::open(path.as_ptr(), sys::O_RDWR | sys::O_CREAT | sys::O_EXCL, 0o600) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let result = (|| {
            if unsafe { sys::ftruncate(fd, len as i64) } != 0 {
                return Err(io::Error::last_os_error());
            }
            map_fd(fd, len)
        })();
        unsafe { sys::close(fd) };
        match result {
            Ok(ptr) => Ok(ShmSegment { ptr, len, owned_name: Some(name.to_owned()) }),
            Err(err) => {
                unsafe { sys::unlink(path.as_ptr()) };
                Err(err)
            }
        }
    }

    /// Opens and maps an existing named segment of `len` bytes.  The opener
    /// never unlinks the name — that stays with the creator.
    pub fn open(name: &str, len: usize) -> io::Result<Self> {
        let path = shm_path(name)?;
        assert!(len > 0, "a shared-memory segment needs a non-zero size");
        let fd = unsafe { sys::open(path.as_ptr(), sys::O_RDWR, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let result = map_fd(fd, len);
        unsafe { sys::close(fd) };
        Ok(ShmSegment { ptr: result?, len, owned_name: None })
    }

    /// An anonymous `MAP_SHARED` mapping with no `/dev/shm` entry.  It has
    /// the exact memory semantics of a named segment (tests exercise the
    /// ring/seqlock primitives on it without touching the filesystem).
    pub fn anonymous(len: usize) -> io::Result<Self> {
        assert!(len > 0, "a shared-memory segment needs a non-zero size");
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED | sys::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(ShmSegment { ptr: ptr.cast(), len, owned_name: None })
    }

    /// Removes a named segment without mapping it (stale-segment cleanup).
    pub fn unlink(name: &str) -> io::Result<()> {
        let path = shm_path(name)?;
        if unsafe { sys::unlink(path.as_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Size of the mapping, bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never: construction rejects zero).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bounds- and alignment-checked pointer to `size` bytes at `offset`.
    pub(crate) fn range(&self, offset: usize, size: usize, align: usize) -> *mut u8 {
        assert!(
            offset.checked_add(size).is_some_and(|end| end <= self.len),
            "segment range {offset}+{size} exceeds mapping of {} bytes",
            self.len
        );
        assert_eq!(offset % align, 0, "segment offset {offset} is not {align}-byte aligned");
        // The mapping itself is page-aligned, so offset alignment suffices.
        unsafe { self.ptr.add(offset) }
    }

    /// A bare shared atomic at `offset` (8-byte aligned, within bounds) —
    /// the building block for epoch barriers, abort flags and the
    /// link-arbiter clock of the live path.
    pub fn atomic_u64(&self, offset: usize) -> &AtomicU64 {
        let ptr = self.range(offset, 8, 8);
        unsafe { &*ptr.cast::<AtomicU64>() }
    }

    /// A [`Doorbell`] whose futex word sits at `offset` (4-byte aligned,
    /// within bounds).  The segment is zero-filled, so a fresh bell needs
    /// no initialisation.
    pub fn doorbell(&self, offset: usize) -> Doorbell<'_> {
        let ptr = self.range(offset, Doorbell::SIZE, 4);
        // SAFETY: `range` checked that the 4 bytes lie inside the mapping
        // and are 4-byte aligned; the returned bell borrows `self`, so the
        // mapping outlives the reference.
        Doorbell::new(unsafe { &*ptr.cast::<AtomicU32>() })
    }

    /// A bounds-checked slice of `len` bare shared atomics starting at
    /// `offset` (8-byte aligned) — the backing store for telemetry pages:
    /// arrays of monotonic counters written by one process and snapshot
    /// by another without any further framing.
    pub fn atomic_u64_array(&self, offset: usize, len: usize) -> &[AtomicU64] {
        let size = len.checked_mul(8).expect("atomic array size overflows");
        let ptr = self.range(offset, size, 8);
        unsafe { std::slice::from_raw_parts(ptr.cast::<AtomicU64>(), len) }
    }

    /// Initialises an SPSC ring of `capacity` slots of `slot_size` bytes at
    /// `offset` (creator side; the memory must not be shared yet).
    pub fn init_ring(&self, offset: usize, capacity: usize, slot_size: usize) -> SpscRing<'_> {
        let size = SpscRing::required_size(capacity, slot_size);
        SpscRing::init(self.range(offset, size, 64), capacity, slot_size)
    }

    /// Attaches to a ring previously initialised at `offset`, validating
    /// its magic and geometry against the mapping bounds.
    pub fn ring(&self, offset: usize) -> io::Result<SpscRing<'_>> {
        SpscRing::attach(self.range(offset, SpscRing::HEADER_SIZE, 64), self.len - offset)
    }

    /// Initialises a seqlock snapshot slot of `data_len` payload bytes at
    /// `offset` (creator side).
    pub fn init_seqlock(&self, offset: usize, data_len: usize) -> SeqlockSlot<'_> {
        let size = SeqlockSlot::required_size(data_len);
        SeqlockSlot::init(self.range(offset, size, 64), data_len)
    }

    /// Attaches to a seqlock slot previously initialised at `offset`.
    pub fn seqlock(&self, offset: usize) -> io::Result<SeqlockSlot<'_>> {
        SeqlockSlot::attach(self.range(offset, SeqlockSlot::HEADER_SIZE, 64), self.len - offset)
    }
}

impl Drop for ShmSegment {
    fn drop(&mut self) {
        unsafe { sys::munmap(self.ptr.cast(), self.len) };
        if let Some(name) = self.owned_name.take() {
            let _ = ShmSegment::unlink(&name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unique_name(tag: &str) -> String {
        format!("corki-test-{tag}-{}", std::process::id())
    }

    #[test]
    fn create_open_share_and_unlink_on_drop() {
        let name = unique_name("shm");
        let _ = ShmSegment::unlink(&name);
        let creator = ShmSegment::create(&name, 4096).expect("create");
        let opener = ShmSegment::open(&name, 4096).expect("open");
        creator.atomic_u64(128).store(0xDEAD_BEEF, std::sync::atomic::Ordering::Release);
        assert_eq!(
            opener.atomic_u64(128).load(std::sync::atomic::Ordering::Acquire),
            0xDEAD_BEEF,
            "both mappings must see the same memory"
        );
        assert!(ShmSegment::create(&name, 4096).is_err(), "exclusive create must refuse");
        drop(opener);
        drop(creator);
        assert!(ShmSegment::open(&name, 4096).is_err(), "the owner's drop must unlink the segment");
    }

    #[test]
    fn rejects_hostile_names() {
        for bad in ["", "../etc/passwd", "a/b", "nul\0byte"] {
            assert!(ShmSegment::create(bad, 64).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds mapping")]
    fn out_of_bounds_accessors_panic() {
        let seg = ShmSegment::anonymous(4096).expect("map");
        let _ = seg.atomic_u64(4096);
    }

    #[test]
    fn atomic_array_shares_memory_with_scalar_accessors() {
        let seg = ShmSegment::anonymous(4096).expect("map");
        let words = seg.atomic_u64_array(64, 8);
        assert_eq!(words.len(), 8);
        words[3].store(42, std::sync::atomic::Ordering::Release);
        assert_eq!(
            seg.atomic_u64(64 + 3 * 8).load(std::sync::atomic::Ordering::Acquire),
            42,
            "the array view and the scalar view must alias the same words"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds mapping")]
    fn out_of_bounds_atomic_array_panics() {
        let seg = ShmSegment::anonymous(4096).expect("map");
        let _ = seg.atomic_u64_array(4032, 9);
    }
}

//! Seqlock-protected snapshot slots: one writer publishes a fixed-size
//! record, any number of readers take tear-free copies without ever
//! blocking the writer.
//!
//! The sequence word starts even; the writer bumps it odd, overwrites the
//! payload, then bumps it even again with a release store.  A reader loads
//! the sequence, copies the payload with volatile word reads, and accepts
//! the copy only if the sequence was even and unchanged across the copy —
//! otherwise the copy may be torn and is retried.  This is the classic
//! Linux-kernel/crossbeam pattern; volatile per-word copies keep the
//! compiler from caching or widening the racing accesses.

use std::io;
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Identifies an initialised seqlock header in shared memory.
const SEQLOCK_MAGIC: u64 = 0x434f_524b_5345_5156; // "CORKSEQV"

#[repr(C)]
struct SeqHeader {
    /// Even = stable, odd = write in progress; publish count = `seq / 2`.
    seq: AtomicU64,
    data_len: AtomicU64,
    magic: AtomicU64,
    _pad: [u8; 40],
}

/// A seqlock snapshot slot laid out in a
/// [`ShmSegment`](crate::ShmSegment).  Obtain one with
/// [`ShmSegment::init_seqlock`](crate::ShmSegment::init_seqlock) (creator)
/// or [`ShmSegment::seqlock`](crate::ShmSegment::seqlock) (attacher).
///
/// At most one process may call [`write`](Self::write); any number may
/// read.  The payload length is fixed at init time and must be a multiple
/// of 8 (the copy granularity).
pub struct SeqlockSlot<'a> {
    hdr: &'a SeqHeader,
    data: *mut u64,
    words: usize,
    _segment: PhantomData<&'a ()>,
}

unsafe impl Send for SeqlockSlot<'_> {}
unsafe impl Sync for SeqlockSlot<'_> {}

impl<'a> SeqlockSlot<'a> {
    /// Bytes of the seqlock header (one padded cache line).
    pub const HEADER_SIZE: usize = std::mem::size_of::<SeqHeader>();

    /// Total bytes a slot of `data_len` payload bytes needs, rounded up to
    /// whole cache lines.
    pub fn required_size(data_len: usize) -> usize {
        (Self::HEADER_SIZE + data_len).div_ceil(64) * 64
    }

    pub(crate) fn init(mem: *mut u8, data_len: usize) -> SeqlockSlot<'a> {
        assert!(
            data_len > 0 && data_len.is_multiple_of(8),
            "seqlock payload must be a positive multiple of 8 bytes"
        );
        let hdr = unsafe { &*(mem as *const SeqHeader) };
        hdr.seq.store(0, Ordering::Relaxed);
        hdr.data_len.store(data_len as u64, Ordering::Relaxed);
        hdr.magic.store(SEQLOCK_MAGIC, Ordering::Release);
        SeqlockSlot {
            hdr,
            data: unsafe { mem.add(Self::HEADER_SIZE).cast() },
            words: data_len / 8,
            _segment: PhantomData,
        }
    }

    pub(crate) fn attach(mem: *mut u8, available: usize) -> io::Result<SeqlockSlot<'a>> {
        let hdr = unsafe { &*(mem as *const SeqHeader) };
        if hdr.magic.load(Ordering::Acquire) != SEQLOCK_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "no initialised seqlock at this segment offset",
            ));
        }
        let data_len = hdr.data_len.load(Ordering::Relaxed) as usize;
        if data_len == 0 || !data_len.is_multiple_of(8) || Self::required_size(data_len) > available
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("seqlock payload of {data_len} bytes exceeds the mapped segment"),
            ));
        }
        Ok(SeqlockSlot {
            hdr,
            data: unsafe { mem.add(Self::HEADER_SIZE).cast() },
            words: data_len / 8,
            _segment: PhantomData,
        })
    }

    /// Payload bytes per snapshot.
    pub fn data_len(&self) -> usize {
        self.words * 8
    }

    /// Number of snapshots published so far.
    pub fn version(&self) -> u64 {
        self.hdr.seq.load(Ordering::Acquire) / 2
    }

    /// Publishes a new snapshot (single writer only).
    pub fn write(&self, payload: &[u8]) {
        assert_eq!(payload.len(), self.data_len(), "payload must fill the slot exactly");
        let seq = self.hdr.seq.load(Ordering::Relaxed);
        debug_assert_eq!(seq % 2, 0, "a second concurrent writer corrupted the seqlock");
        self.hdr.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        for word in 0..self.words {
            let value = u64::from_le_bytes(payload[word * 8..word * 8 + 8].try_into().unwrap());
            unsafe { self.data.add(word).write_volatile(value) };
        }
        self.hdr.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// One snapshot attempt: copies the payload into `out` and returns the
    /// publish count, or `None` if a concurrent write made the copy
    /// potentially torn (the caller retries; `out` then holds garbage).
    pub fn try_read(&self, out: &mut [u8]) -> Option<u64> {
        assert_eq!(out.len(), self.data_len(), "output buffer must match the payload size");
        let before = self.hdr.seq.load(Ordering::Acquire);
        if before % 2 == 1 {
            return None; // A write is in progress.
        }
        for word in 0..self.words {
            let value = unsafe { self.data.add(word).read_volatile() };
            out[word * 8..word * 8 + 8].copy_from_slice(&value.to_le_bytes());
        }
        fence(Ordering::Acquire);
        (self.hdr.seq.load(Ordering::Relaxed) == before).then_some(before / 2)
    }

    /// Takes a consistent snapshot, retrying across concurrent writes, and
    /// returns the publish count alongside.  Retries spin briefly, then
    /// yield the CPU — on a single-core host a pure spin would otherwise
    /// burn the writer's entire timeslice.
    ///
    /// Retries are unbounded: a writer that publishes back to back without
    /// pause can starve readers, since each copy may overlap the next
    /// write.  The live path writes a slot once per plan, far apart.
    pub fn read(&self, out: &mut [u8]) -> u64 {
        let mut attempts = 0_u32;
        loop {
            if let Some(version) = self.try_read(out) {
                return version;
            }
            attempts += 1;
            if attempts.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ShmSegment;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Barrier;

    #[test]
    fn versions_count_publishes_and_reads_round_trip() {
        let seg = ShmSegment::anonymous(4096).expect("map");
        let slot = seg.init_seqlock(0, 32);
        let mut out = [0_u8; 32];
        assert_eq!(slot.try_read(&mut out), Some(0), "an initialised slot reads as version 0");
        assert_eq!(out, [0_u8; 32], "zero-filled before the first publish");
        let payload = [0xAB_u8; 32];
        slot.write(&payload);
        let reader = seg.seqlock(0).expect("attach");
        assert_eq!(reader.read(&mut out), 1);
        assert_eq!(out, payload);
        slot.write(&[0x11_u8; 32]);
        slot.write(&[0x22_u8; 32]);
        assert_eq!(reader.read(&mut out), 3);
        assert_eq!(out, [0x22_u8; 32]);
        assert!(seg.seqlock(2048).is_err(), "uninitialised offsets must not attach");
    }

    #[test]
    fn concurrent_writer_never_yields_a_torn_snapshot() {
        // Publish `v` fills the payload with the byte `v as u8`, so an
        // accepted snapshot must hold that one byte throughout; any other
        // byte is a torn read.  The run is bounded by work, not by
        // scheduling: the writer publishes a fixed number of versions, and
        // after each one waits (boundedly) for the reader to accept a
        // snapshot, since an unpaced writer can starve readers.  The reader
        // checks every snapshot it accepts until the writer is done.
        const LEN: usize = 512; // Large payload: torn windows are wide.
        const PUBLISHES: u64 = 10_000;
        const MIN_ACCEPTED: u64 = 5_000;
        const MAX_PAUSE_YIELDS: usize = 100;
        let seg = ShmSegment::anonymous(8192).expect("map");
        seg.init_seqlock(0, LEN);
        let start = Barrier::new(2);
        let done = AtomicBool::new(false);
        // Paces the writer only; it publishes no data.
        let accepted = AtomicU64::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let slot = seg.seqlock(0).expect("attach writer");
                start.wait();
                for version in 1..=PUBLISHES {
                    slot.write(&[version as u8; LEN]);
                    let seen = accepted.load(Ordering::Relaxed);
                    for _ in 0..MAX_PAUSE_YIELDS {
                        if accepted.load(Ordering::Relaxed) != seen {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                done.store(true, Ordering::Release);
            });
            scope.spawn(|| {
                let slot = seg.seqlock(0).expect("attach reader");
                let mut out = [0_u8; LEN];
                let mut last_version = 0_u64;
                start.wait();
                while !done.load(Ordering::Acquire) {
                    let version = slot.read(&mut out);
                    let expected = version as u8;
                    assert!(
                        out.iter().all(|&b| b == expected),
                        "torn snapshot at version {version}: {:?} != {expected}",
                        out.iter().find(|&&b| b != expected)
                    );
                    assert!(version >= last_version, "versions must be monotonic");
                    last_version = version;
                    accepted.fetch_add(1, Ordering::Relaxed);
                    // Hands a single core back to the waiting writer.
                    std::thread::yield_now();
                }
            });
        });
        let accepted = accepted.into_inner();
        assert!(
            accepted >= MIN_ACCEPTED,
            "the reader accepted only {accepted} snapshots while {PUBLISHES} were published"
        );
    }
}

//! Zero-copy, memory-mapped file views, and the array type that owns or
//! maps every large array in the workspace.
//!
//! [`Mmap`] is the mapping primitive: a whole file mapped read-only
//! (`PROT_READ` + `MAP_PRIVATE`) with `madvise` paging hints. Every
//! binary format in the workspace maps through it, by way of the
//! [`container`](crate::container) they share — the `.timg` v2 snapshots
//! here and the `.timp` v2 RR-set pools in `tim_engine`. The syscall
//! bindings (`mmap`/`munmap`/`madvise`) are direct `extern "C"`
//! declarations, so the workspace needs no `libc` crate.
//!
//! [`Array`] is the storage of both costly artifacts: the six CSR arrays
//! of a [`Graph`](crate::Graph) and the four arrays of an RR-set
//! collection in `tim_coverage`. It holds either a `Vec` or a section of
//! a shared mapping and dereferences to `&[T]` through a cached pointer,
//! so a graph opened from a v2 snapshot is the same `Graph` a heap load
//! builds, and the samplers and greedy run one monomorphization over
//! either owner. The kernel pages a mapped array in on demand, so
//! attaching a multi-gigabyte file costs a header parse, one structural
//! scan and one checksum pass, with no heap copy, and artifacts larger
//! than RAM stay servable.
//!
//! # Safety argument
//!
//! Every `unsafe` block in this module rests on the same three pillars:
//!
//! 1. **The mapping outlives every borrow.** [`Mmap`] only unmaps in
//!    `Drop`. Slices from [`Mmap`] borrow `&self`; a mapped [`Array`]
//!    holds an `Arc<Mmap>`, so the mapping lives as long as any array
//!    that views it, and the array's slices borrow the array.
//! 2. **The mapping is immutable.** `PROT_READ` + `MAP_PRIVATE` means
//!    neither this process nor (through this mapping) any other can write
//!    the pages. Writes to the underlying file by another process are not
//!    ordered with our reads, so every writer in the workspace replaces a
//!    file by rename (`io::write_atomically`) and never rewrites it in
//!    place. There is no unchecked open: the one open of each artifact
//!    (behind `io::load_graph` and `GraphStore::load` for graphs,
//!    `RrPool::load` and the pool store's restore for pools) runs the
//!    full checksum pass over the mapping before it returns. Every
//!    *structural* invariant (offsets, endpoints, probabilities) is
//!    validated at open into the arrays' private copies of their bounds,
//!    which a racing writer cannot retroactively change. A torn read of *data* under a racing
//!    in-place writer can change results but cannot read out of bounds:
//!    every slice is carved from the validated bounds, and the accessors
//!    clamp offsets defensively.
//! 3. **Alignment is guaranteed by the format.** Container sections start
//!    on 4096-byte boundaries and `mmap` returns page-aligned addresses, so
//!    reinterpreting section bytes as `u64`/`u32`/`f32` is always
//!    naturally-aligned ([`Array::mapped`] checks it anyway). Files are
//!    mapped only where [`CAN_MAP`] holds, which rules out big-endian
//!    hosts, where zero-copy reinterpretation of the little-endian
//!    sections would be wrong.

use std::ops::Deref;
use std::sync::Arc;

/// True where a file can be mapped: unix hosts with little-endian byte
/// order, since the formats are little-endian on disk and a mapping is
/// read in place. Elsewhere every open decodes binary files onto the
/// heap instead ([`FileBytes::read`](crate::container::FileBytes::read)).
pub const CAN_MAP: bool = cfg!(all(unix, target_endian = "little"));

#[cfg(unix)]
mod sys {
    //! Raw bindings to the three mapping syscalls, libc-free.

    extern "C" {
        pub fn mmap(
            addr: *mut u8,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        pub fn munmap(addr: *mut u8, length: usize) -> i32;
        pub fn madvise(addr: *mut u8, length: usize, advice: i32) -> i32;
    }

    pub const PROT_READ: i32 = 0x1;
    pub const MAP_PRIVATE: i32 = 0x02;
    /// `mmap` error sentinel (`MAP_FAILED`).
    pub const MAP_FAILED: *mut u8 = usize::MAX as *mut u8;

    /// Expect random access — don't aggressively read ahead. RR-set
    /// sampling walks reverse-reachable sets, which hop arbitrarily
    /// around the CSR.
    pub const MADV_RANDOM: i32 = 1;
    /// Expect access soon — fault these pages in now.
    pub const MADV_WILLNEED: i32 = 3;
}

/// A whole file mapped read-only (`PROT_READ` + `MAP_PRIVATE`),
/// page-aligned by the kernel.
///
/// The mapping primitive behind every mapped [`Array`]: `.timg` graph
/// snapshots and `.timp` RR-set pools.
/// [`FileBytes::read`](crate::container::FileBytes::read) maps a file
/// only where [`CAN_MAP`] holds, and never an empty one; dropping the
/// value unmaps the file.
pub struct Mmap {
    /// Base address of the mapping (page-aligned, never null).
    base: *const u8,
    /// Mapped length in bytes (the whole file).
    len: usize,
}

// SAFETY: the mapping is PROT_READ + MAP_PRIVATE — immutable shared
// state. The raw pointer is only ever read through, never written, so
// &Mmap is as shareable as &[u8] and moving the struct across threads
// moves only ownership of the unmap.
unsafe impl Send for Mmap {}
// SAFETY: as above — concurrent readers of an immutable mapping.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps all `len` bytes of `file`; `len` must not be 0 (no mapping
    /// has zero length).
    #[cfg(not(unix))]
    pub(crate) fn map_file(_file: &std::fs::File, _len: u64) -> std::io::Result<Mmap> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "mapped views are only supported on unix hosts; load the file on the heap instead",
        ))
    }

    /// Maps all `len` bytes of `file`; `len` must not be 0 (no mapping
    /// has zero length).
    #[cfg(unix)]
    pub(crate) fn map_file(file: &std::fs::File, len: u64) -> std::io::Result<Mmap> {
        use std::os::fd::AsRawFd;

        let len = usize::try_from(len).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "file is larger than the address space",
            )
        })?;
        // SAFETY: plain syscall; the kernel picks the address (addr =
        // null), the fd is live for the duration of the call, and a
        // PROT_READ | MAP_PRIVATE mapping cannot alias any writable
        // memory in this process.
        let base = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if base == sys::MAP_FAILED {
            return Err(std::io::Error::last_os_error());
        }
        // The mapping persists past the close of `file` (POSIX: the
        // mapping holds its own reference), so the File can drop freely.
        Ok(Mmap { base, len })
    }

    /// Mapped length in bytes (the whole file).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Never true: an empty file is never mapped.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The whole mapping as bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: base..base+len is a live readable mapping owned by self
        // (pillar 1); u8 has no alignment or validity requirements.
        unsafe { std::slice::from_raw_parts(self.base, self.len) }
    }

    /// Advises the kernel the whole mapping will be accessed randomly.
    /// Best-effort: errors are ignored — default paging is slower, not
    /// wrong.
    pub fn advise_random(&self) {
        #[cfg(unix)]
        // SAFETY: (base, len) is the live mapping; madvise only tunes
        // paging policy, it cannot invalidate the mapping.
        unsafe {
            sys::madvise(self.base as *mut u8, self.len, sys::MADV_RANDOM);
        }
    }

    /// Advises the kernel the first `prefix` bytes are needed soon
    /// (fault them in now). Best-effort; `prefix` is clamped to the
    /// mapping.
    pub fn advise_willneed_prefix(&self, prefix: usize) {
        #[cfg(unix)]
        // SAFETY: as advise_random(), over a clamped prefix.
        unsafe {
            sys::madvise(
                self.base as *mut u8,
                prefix.min(self.len),
                sys::MADV_WILLNEED,
            );
        }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        // SAFETY: (base, len) is the mapping created in map_file; we are
        // the sole owner, and no borrow of the mapping can outlive self.
        unsafe {
            sys::munmap(self.base as *mut u8, self.len);
        }
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

/// Element types an [`Array`] can view straight out of a mapping: plain
/// little-endian scalars whose alignment divides their width and for
/// which every bit pattern is a valid value. Sealed: `u32`, `u64` and
/// `f32`.
pub trait Element: Copy + Send + Sync + 'static + sealed::Sealed {}

mod sealed {
    /// The byte order of the binary formats, per element type.
    pub trait Sealed: Sized {
        /// Decodes one value from exactly `size_of::<Self>()`
        /// little-endian bytes.
        fn from_le(bytes: &[u8]) -> Self;
        /// Appends the value's little-endian bytes to `out`.
        fn put_le(self, out: &mut Vec<u8>);
    }

    macro_rules! little_endian {
        ($($t:ty),*) => {$(
            impl Sealed for $t {
                #[inline]
                fn from_le(bytes: &[u8]) -> Self {
                    <$t>::from_le_bytes(bytes.try_into().expect("one element's width of bytes"))
                }
                #[inline]
                fn put_le(self, out: &mut Vec<u8>) {
                    out.extend_from_slice(&self.to_le_bytes());
                }
            }
        )*};
    }
    little_endian!(u32, u64, f32);
}

impl Element for u32 {}
impl Element for u64 {}
impl Element for f32 {}

/// An array that either owns its elements (a `Vec`) or views a section
/// of a shared file mapping.
///
/// Dereferences to `&[T]` through a pointer and length cached at
/// construction, with no branch on the owner, so reading one costs what
/// reading a `Vec` costs. Cloning a mapped array shares the mapping;
/// cloning an owned one copies the elements. [`edit`](Array::edit)
/// copies a mapped array onto the heap first (copy on write), so a
/// mapped artifact can still be grown or re-weighted.
pub struct Array<T: Element> {
    /// First element: the `Vec`'s buffer, or a checked, aligned address
    /// inside the mapping `owner` holds.
    ptr: *const T,
    len: usize,
    owner: Owner<T>,
}

enum Owner<T> {
    Heap(Vec<T>),
    Mapped(Arc<Mmap>),
}

// SAFETY: `ptr` points into data `owner` owns — a `Vec<T>` or an
// `Arc<Mmap>`, both Send + Sync for `T: Element` — and is only read
// through (writes go through `edit`, which needs `&mut self`), so moving
// or sharing an `Array` moves or shares exactly what `owner` would.
unsafe impl<T: Element> Send for Array<T> {}
// SAFETY: as above — concurrent readers of data no `&Array` can mutate.
unsafe impl<T: Element> Sync for Array<T> {}

impl<T: Element> Array<T> {
    /// `count` elements of `T` starting at byte `offset` of `map`,
    /// without copying. Errors when the range overflows, leaves the
    /// mapping, or is not aligned for `T`.
    pub fn mapped(map: &Arc<Mmap>, offset: usize, count: usize) -> Result<Array<T>, String> {
        let width = std::mem::size_of::<T>();
        let len = count.checked_mul(width).ok_or("section length overflows")?;
        let end = offset.checked_add(len).ok_or("section end overflows")?;
        if end > map.len() {
            return Err(format!(
                "section [{offset}, {end}) leaves the {}-byte mapping",
                map.len()
            ));
        }
        if offset % width != 0 {
            return Err(format!("section offset {offset} is not {width}-aligned"));
        }
        Ok(Array {
            // In bounds and aligned per the checks above: the mapping's
            // base is page-aligned and every Element's alignment divides
            // its width (pillar 3).
            ptr: map.bytes()[offset..].as_ptr().cast::<T>(),
            len: count,
            owner: Owner::Mapped(Arc::clone(map)),
        })
    }

    /// The mapping this array views, or `None` when it owns a `Vec`.
    pub fn mapping(&self) -> Option<&Arc<Mmap>> {
        match &self.owner {
            Owner::Heap(_) => None,
            Owner::Mapped(map) => Some(map),
        }
    }

    /// Heap bytes the array holds (its `Vec`'s capacity); 0 when mapped.
    pub fn heap_bytes(&self) -> usize {
        match &self.owner {
            Owner::Heap(vec) => vec.capacity() * std::mem::size_of::<T>(),
            Owner::Mapped(_) => 0,
        }
    }

    /// Edits the elements as a `Vec`, copying a mapped array onto the
    /// heap first (copy on write).
    #[inline]
    pub fn edit<R>(&mut self, f: impl FnOnce(&mut Vec<T>) -> R) -> R {
        if let Owner::Mapped(_) = self.owner {
            self.copy_onto_heap();
        }
        // Until the cache is refreshed below, a panic in `f` leaves an
        // empty view rather than one of a buffer `f` reallocated.
        self.len = 0;
        let Owner::Heap(vec) = &mut self.owner else {
            unreachable!("copied onto the heap above")
        };
        let out = f(vec);
        self.ptr = vec.as_ptr();
        self.len = vec.len();
        out
    }

    /// Decodes little-endian `bytes` into an owned array: the heap
    /// counterpart of [`mapped`](Array::mapped), which also runs where a
    /// mapping cannot be reinterpreted in place. A trailing partial
    /// element is dropped.
    pub(crate) fn decode_le(bytes: &[u8]) -> Array<T> {
        let width = std::mem::size_of::<T>();
        Array::from(
            bytes
                .chunks_exact(width)
                .map(T::from_le)
                .collect::<Vec<T>>(),
        )
    }

    /// The copy half of copy on write, kept out of line so the common
    /// (heap) path of [`edit`](Array::edit) stays small enough to inline
    /// into per-set loops such as `SetCollection::push`.
    #[cold]
    #[inline(never)]
    fn copy_onto_heap(&mut self) {
        *self = Array::from(self.to_vec());
    }
}

impl<T: Element> From<Vec<T>> for Array<T> {
    fn from(vec: Vec<T>) -> Array<T> {
        Array {
            ptr: vec.as_ptr(),
            len: vec.len(),
            owner: Owner::Heap(vec),
        }
    }
}

impl<T: Element> Default for Array<T> {
    fn default() -> Array<T> {
        Array::from(Vec::new())
    }
}

impl<T: Element> Deref for Array<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr`/`len` always describe initialized, aligned
        // elements `owner` keeps alive: the `Vec`'s contents (refreshed
        // by `edit`, the only writer), or a range of the mapping checked
        // by `mapped` (pillars 1-3).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Element> Clone for Array<T> {
    fn clone(&self) -> Array<T> {
        match &self.owner {
            Owner::Heap(vec) => Array::from(vec.clone()),
            Owner::Mapped(map) => Array {
                ptr: self.ptr,
                len: self.len,
                owner: Owner::Mapped(Arc::clone(map)),
            },
        }
    }
}

impl<T: Element + std::fmt::Debug> std::fmt::Debug for Array<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::snapshot::{graph_checksum, save_snapshot, write_snapshot, MAGIC};
    use crate::{gen, weights, Graph, GraphError, GraphStore, NodeId};

    fn sample() -> (Graph, Vec<u64>) {
        let mut g = gen::barabasi_albert(120, 4, 0.1, 11);
        weights::assign_weighted_cascade(&mut g);
        let labels: Vec<u64> = (0..g.n() as u64).map(|i| i * 3 + 1).collect();
        (g, labels)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("timg_mmap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn mapped_graph_matches_heap_graph_exactly() {
        let (g, labels) = sample();
        let path = tmp("view.timg");
        save_snapshot(&g, &labels, &path).unwrap();
        let (store, mapped_labels) = GraphStore::load(&path, false, "keep", 0).unwrap();
        let view = store.graph();
        assert!(view.mapping().is_some());
        assert_eq!(
            view.memory_bytes(),
            0,
            "a mapped graph holds no heap arrays"
        );
        assert_eq!(view.n(), g.n());
        assert_eq!(view.m(), g.m());
        assert_eq!(store.checksum(), graph_checksum(&g));
        assert_eq!(&mapped_labels[..], labels.as_slice());
        for v in 0..g.n() as NodeId {
            assert_eq!(view.out_neighbors(v), g.out_neighbors(v));
            assert_eq!(view.out_probabilities(v), g.out_probabilities(v));
            assert_eq!(view.in_neighbors(v), g.in_neighbors(v));
            assert_eq!(view.in_probabilities(v), g.in_probabilities(v));
            assert_eq!(view.out_degree(v), g.out_degree(v));
            assert_eq!(view.in_degree(v), g.in_degree(v));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_snapshot_is_rejected_cleanly() {
        // The start of a version 1 file: no writer emits one any more.
        let path = tmp("v1.timg");
        std::fs::write(
            &path,
            [&MAGIC[..], &1u32.to_le_bytes(), &[0u8; 24]].concat(),
        )
        .unwrap();
        assert!(matches!(
            GraphStore::load(&path, false, "keep", 0),
            Err(GraphError::Snapshot { message }) if message.contains("version 1")
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn to_loaded_round_trips() {
        // The mapped graph is the graph the file holds: re-encoded, it
        // reproduces the file byte for byte.
        let (g, labels) = sample();
        let path = tmp("owned.timg");
        save_snapshot(&g, &labels, &path).unwrap();
        let (store, mapped_labels) = GraphStore::load(&path, false, "keep", 0).unwrap();
        assert!(store.is_mmap());
        let mut bytes = Vec::new();
        write_snapshot(store.graph(), &mapped_labels, &mut bytes).unwrap();
        assert_eq!(bytes, std::fs::read(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn view_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Array<u32>>();
        assert_send_sync::<Graph>();
    }

    fn mapped_words(name: &str, words: &[u32]) -> (Arc<Mmap>, std::path::PathBuf) {
        let path = tmp(name);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        std::fs::write(&path, bytes).unwrap();
        match crate::container::FileBytes::read(&path, true).unwrap() {
            crate::container::FileBytes::Mapped(map) => (map, path),
            other => panic!("expected a mapping, got {other:?}"),
        }
    }

    #[test]
    fn arrays_share_on_clone_and_copy_on_write() {
        let (map, path) = mapped_words("cow.bin", &[1, 2, 3, 4, 5]);
        let a = Array::<u32>::mapped(&map, 4, 3).unwrap();
        assert_eq!(&a[..], &[2, 3, 4]);
        assert_eq!(a.heap_bytes(), 0);
        let shared = a.clone();
        assert!(Arc::ptr_eq(shared.mapping().unwrap(), &map));
        assert_eq!(shared.as_ptr(), a.as_ptr(), "a clone shares the mapping");

        let mut edited = a.clone();
        edited.edit(|v| v.push(9));
        assert!(edited.mapping().is_none(), "an edit copies onto the heap");
        assert!(edited.heap_bytes() > 0);
        assert_eq!(&edited[..], &[2, 3, 4, 9]);
        assert_eq!(&a[..], &[2, 3, 4], "the mapped original is untouched");

        let owned = Array::from(vec![7u64, 8]);
        let copy = owned.clone();
        assert_ne!(copy.as_ptr(), owned.as_ptr(), "a heap clone copies");
        assert_eq!(&copy[..], &[7, 8]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_sections_out_of_bounds_or_misaligned_are_errors() {
        let (map, path) = mapped_words("bounds.bin", &[0; 4]);
        assert!(Array::<u32>::mapped(&map, 0, 4).is_ok());
        assert!(Array::<u32>::mapped(&map, 16, 0).is_ok());
        let leaves = Array::<u32>::mapped(&map, 4, 4).unwrap_err();
        assert!(leaves.contains("leaves"), "{leaves}");
        let misaligned = Array::<u64>::mapped(&map, 4, 1).unwrap_err();
        assert!(misaligned.contains("aligned"), "{misaligned}");
        let overflow = Array::<u64>::mapped(&map, 0, usize::MAX).unwrap_err();
        assert!(overflow.contains("overflows"), "{overflow}");
        std::fs::remove_file(&path).ok();
    }
}

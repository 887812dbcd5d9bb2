//! One I/O seam: every file call of the log and the page store.
//!
//! The engine opens, reads, writes, syncs and removes its files through
//! [`Fs`] and [`File`] and nothing else. [`OsFs`] is the one
//! implementation it runs on. Tests run the same code over [`FaultFs`], an
//! in-memory file system that fails the calls a script names and yields
//! the images a crash could leave behind.
//!
//! This file is compiled twice: here, for the page store, and as
//! `lstore_wal::io`, for the log, so that neither crate depends on the
//! other. Each crate's types are its own.
//!
//! ## The crash model
//!
//! ALICE's (Pillai et al., "All File Systems Are Not Created Equal",
//! OSDI 2014): each file keeps its durable image — what its last sync made
//! durable — and the writes made since. After a crash, each 512-byte
//! sector those writes changed may or may not have reached the disk.
//! [`FaultFs::crash`] yields
//!
//! * every subset of the changed sectors when there are at most four, and
//!   otherwise none, all, and all but one for each;
//! * every byte prefix, up to 512 bytes, of the first write since the
//!   last sync that changed a byte, landed alone: a torn write. A prefix
//!   whose last byte the file already held is the image one byte
//!   shorter, and is not yielded twice.
//!
//! A file that lost some sector keeps its durable length (and bytes past
//! a truncation), grown to cover the sectors that landed; one that lost
//! none is as a reader saw it. Creating, opening and removing a file take
//! effect at once.

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

/// An open file. Every call takes `&self`: positioned I/O needs no cursor,
/// so one handle serves concurrent readers, writers and syncs.
#[allow(clippy::len_without_is_empty)]
pub trait File: Send + Sync {
    /// Fill `buf` from offset `at`; an error if the file ends first.
    fn read_at(&self, buf: &mut [u8], at: u64) -> io::Result<()>;
    /// Write all of `bytes` at offset `at`, growing the file as needed.
    fn write_at(&self, bytes: &[u8], at: u64) -> io::Result<()>;
    /// Make the contents durable (`fdatasync`).
    fn sync_data(&self) -> io::Result<()>;
    /// Make the contents and the metadata durable (`fsync`).
    fn sync_all(&self) -> io::Result<()>;
    /// Truncate or extend the file to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
    /// The file's length in bytes.
    fn len(&self) -> io::Result<u64>;
}

/// Where files are created, opened and removed.
pub trait Fs: Send + Sync {
    /// Create the file at `path`, truncating it if it exists.
    fn create(&self, path: &Path) -> io::Result<Arc<dyn File>>;
    /// Open the file at `path`, creating it empty if it is absent.
    fn open(&self, path: &Path) -> io::Result<Arc<dyn File>>;
    /// Remove the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
}

/// The operating system's files: what the engine runs on.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsFs;

impl File for std::fs::File {
    fn read_at(&self, buf: &mut [u8], at: u64) -> io::Result<()> {
        self.read_exact_at(buf, at)
    }

    fn write_at(&self, bytes: &[u8], at: u64) -> io::Result<()> {
        self.write_all_at(bytes, at)
    }

    fn sync_data(&self) -> io::Result<()> {
        std::fs::File::sync_data(self)
    }

    fn sync_all(&self) -> io::Result<()> {
        std::fs::File::sync_all(self)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        std::fs::File::set_len(self, len)
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }
}

impl OsFs {
    fn open_with(path: &Path, truncate: bool) -> io::Result<Arc<dyn File>> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(truncate)
            .open(path)?;
        Ok(Arc::new(file))
    }
}

impl Fs for OsFs {
    fn create(&self, path: &Path) -> io::Result<Arc<dyn File>> {
        Self::open_with(path, true)
    }

    fn open(&self, path: &Path) -> io::Result<Arc<dyn File>> {
        Self::open_with(path, false)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

const SECTOR: usize = 512;

/// How a scripted call fails ([`FaultFs::fail`]).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The device is full: from the scripted call on, every write or
    /// resize fails with `StorageFull` and changes nothing.
    Full,
    /// The first sync from the scripted call on fails with `EIO` and makes
    /// nothing durable.
    Eio,
    /// The first write from the scripted call on lands the first half of
    /// its bytes, then fails with `StorageFull`.
    Short,
}

/// One file of a [`FaultFs`]; images are shared until written.
#[derive(Clone, Default)]
struct Disk {
    /// What the last sync made durable.
    durable: Arc<Vec<u8>>,
    /// What a reader sees.
    live: Arc<Vec<u8>>,
    /// The first write since the last sync that changed a byte: its offset
    /// and its first 512 bytes.
    first: Option<(usize, Vec<u8>)>,
}

/// Sector `s` of `bytes`, as far as `bytes` reaches.
fn sector(bytes: &[u8], s: usize) -> &[u8] {
    bytes
        .get(s * SECTOR..((s + 1) * SECTOR).min(bytes.len()))
        .unwrap_or(&[])
}

/// Whether `a` and `b` differ, a missing byte reading as zero.
fn differ(a: &[u8], b: &[u8]) -> bool {
    let common = a.len().min(b.len());
    let rest = if a.len() > common { a } else { b };
    // A sector at a time, so that the 1 MiB zero-fills of a log compare
    // fast in an unoptimized build too.
    let nonzero = |s: &[u8]| s != &[0; SECTOR][..s.len()];
    a[..common] != b[..common] || rest[common..].chunks(SECTOR).any(nonzero)
}

impl Disk {
    fn write(&mut self, bytes: &[u8], at: usize) {
        if bytes.is_empty() {
            return;
        }
        let end = at + bytes.len();
        let live = Arc::make_mut(&mut self.live);
        if self.first.is_none() && differ(bytes, live.get(at..end.min(live.len())).unwrap_or(&[])) {
            let first = SECTOR.min(bytes.len());
            self.first = Some((at, bytes[..first].to_vec()));
        }
        if live.len() < end {
            live.resize(end, 0);
        }
        live[at..end].copy_from_slice(bytes);
    }

    /// The sectors a crash may find either way: where the reader's image
    /// and the durable one differ.
    fn changed(&self) -> Vec<usize> {
        let len = self.live.len().max(self.durable.len());
        let differs = |&s: &usize| differ(sector(&self.live, s), sector(&self.durable, s));
        (0..len.div_ceil(SECTOR)).filter(differs).collect()
    }

    /// The file after a crash that landed the first `len` bytes of the
    /// first write since the sync, and nothing else.
    fn torn(&self, len: usize) -> Arc<Vec<u8>> {
        let first = self.first.iter();
        self.overlay(first.map(|(at, bytes)| (*at, &bytes[..len.min(bytes.len())])))
    }

    /// The durable image with each `(at, bytes)` written over it.
    fn overlay<'a>(&self, writes: impl Iterator<Item = (usize, &'a [u8])>) -> Arc<Vec<u8>> {
        let mut image = Vec::clone(&self.durable);
        for (at, bytes) in writes {
            let end = at + bytes.len();
            if image.len() < end {
                image.resize(end, 0);
            }
            image[at..end].copy_from_slice(bytes);
        }
        Arc::new(image)
    }
}

#[derive(Default)]
struct State {
    disks: Vec<Disk>,
    names: HashMap<PathBuf, usize>,
    /// Writes, syncs and resizes so far, and which were syncs.
    calls: u64,
    syncs: Vec<u64>,
    script: Vec<(u64, Fault)>,
    /// Keep the files as they are after this call, for [`FaultFs::crash`].
    crash_after: Option<u64>,
    crashed: Option<Vec<Disk>>,
}

/// An in-memory file system for tests: scripted faults and crash images
/// (see the module docs). Writes, syncs and resizes are counted as calls;
/// reads, lengths, opens, removals and existence checks are not.
#[doc(hidden)]
#[derive(Default)]
pub struct FaultFs {
    state: Arc<Mutex<State>>,
}

/// One image a crash could leave ([`FaultFs::crash`]).
#[doc(hidden)]
pub struct Crash {
    /// The files as the crash left them, each durable as it is.
    pub fs: FaultFs,
    /// Whether what landed of the unsynced writes is a prefix of them in
    /// file order: false when a later sector landed and an earlier one
    /// did not.
    pub in_order: bool,
}

impl FaultFs {
    /// An empty file system.
    pub fn new() -> FaultFs {
        FaultFs::default()
    }

    /// Fail call `call` (counted from 1, see [`FaultFs::calls`]) as
    /// `fault` says.
    pub fn fail(&self, call: u64, fault: Fault) {
        self.state.lock().script.push((call, fault));
    }

    /// Writes, syncs and resizes made so far.
    pub fn calls(&self) -> u64 {
        self.state.lock().calls
    }

    /// Make `bytes` the file at `path`, durable, as a crash could have
    /// left it: a new file under the name, as after a remove. Not a call.
    pub fn put(&self, path: &Path, bytes: &[u8]) {
        let image = Arc::new(bytes.to_vec());
        let mut state = self.state.lock();
        state.disks.push(Disk {
            durable: Arc::clone(&image),
            live: image,
            first: None,
        });
        let disk = state.disks.len() - 1;
        state.names.insert(path.to_path_buf(), disk);
    }

    /// What a reader of the file at `path` sees now.
    pub fn contents(&self, path: &Path) -> Option<Arc<Vec<u8>>> {
        let state = self.state.lock();
        let disk = state.disks.get(*state.names.get(path)?)?;
        Some(Arc::clone(&disk.live))
    }

    /// Every image a crash could leave (see the module docs), of the files
    /// as they are now — or as they were after the call a crash was set
    /// for, if it came.
    pub fn crash(&self) -> impl Iterator<Item = Crash> {
        let state = self.state.lock();
        let disks = Arc::new(state.crashed.clone().unwrap_or_else(|| state.disks.clone()));
        let names = state.names.clone();
        drop(state);
        let changed: Vec<(usize, usize)> = disks
            .iter()
            .enumerate()
            .flat_map(|(d, disk)| disk.changed().into_iter().map(move |s| (d, s)))
            .collect();
        let n = changed.len();
        let sets: Vec<Vec<bool>> = if n <= 4 {
            let subset = |set: usize| (0..n).map(|i| set >> i & 1 == 1).collect();
            (0..1 << n).map(subset).collect()
        } else {
            let holes = (0..n).map(|hole| (0..n).map(|i| i != hole).collect());
            [vec![false; n], vec![true; n]]
                .into_iter()
                .chain(holes)
                .collect()
        };
        let tears: Vec<(usize, usize)> = disks
            .iter()
            .enumerate()
            .flat_map(|(d, disk)| {
                let (at, bytes) = disk.first.as_ref().map_or((0, &[][..]), |(at, b)| (*at, b));
                // A prefix whose last byte the durable image already holds
                // there is the same image as the prefix one byte shorter.
                let new =
                    move |&len: &usize| disk.durable.get(at + len - 1) != Some(&bytes[len - 1]);
                (1..=bytes.len()).filter(new).map(move |len| (d, len))
            })
            .collect();
        let landed = Arc::clone(&disks);
        let by_sector = sets.into_iter().map(move |set| {
            let files = landed.iter().enumerate().map(|(d, disk)| {
                let mine = || {
                    changed
                        .iter()
                        .zip(&set)
                        .filter(move |((of, _), _)| *of == d)
                };
                if mine().all(|(_, &l)| l) {
                    return Arc::clone(&disk.live);
                }
                let sectors = mine().filter(|(_, &l)| l).map(|(&(_, s), _)| s);
                disk.overlay(sectors.map(|s| (s * SECTOR, sector(&disk.live, s))))
            });
            (files.collect(), set.windows(2).all(|w| w[0] || !w[1]))
        });
        let by_tear = tears.into_iter().map(move |(torn, len)| {
            let files = disks.iter().enumerate().map(|(d, disk)| {
                if d == torn {
                    disk.torn(len)
                } else {
                    Arc::clone(&disk.durable)
                }
            });
            (files.collect(), true)
        });
        by_sector
            .chain(by_tear)
            .map(move |(files, in_order): (Vec<_>, _)| {
                let disks = files.into_iter().map(|bytes: Arc<Vec<u8>>| Disk {
                    durable: Arc::clone(&bytes),
                    live: bytes,
                    first: None,
                });
                let state = State {
                    disks: disks.collect(),
                    names: names.clone(),
                    ..State::default()
                };
                Crash {
                    fs: FaultFs {
                        state: Arc::new(Mutex::new(state)),
                    },
                    in_order,
                }
            })
    }

    fn handle(&self, path: &Path, truncate: bool) -> Arc<dyn File> {
        let mut state = self.state.lock();
        let state = &mut *state;
        let disk = *state.names.entry(path.to_path_buf()).or_insert_with(|| {
            state.disks.push(Disk::default());
            state.disks.len() - 1
        });
        if truncate {
            state.disks[disk] = Disk::default();
        }
        Arc::new(FaultFile {
            state: Arc::clone(&self.state),
            disk,
        })
    }
}

impl Fs for FaultFs {
    fn create(&self, path: &Path) -> io::Result<Arc<dyn File>> {
        Ok(self.handle(path, true))
    }

    fn open(&self, path: &Path) -> io::Result<Arc<dyn File>> {
        Ok(self.handle(path, false))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match self.state.lock().names.remove(path) {
            Some(_) => Ok(()),
            None => Err(io::ErrorKind::NotFound.into()),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        self.state.lock().names.contains_key(path)
    }
}

/// An open file of a [`FaultFs`].
struct FaultFile {
    state: Arc<Mutex<State>>,
    disk: usize,
}

impl FaultFile {
    /// Count a call — a sync, or a write or resize — and run `op` on the
    /// file with the scripted fault that fires at it, which is then the
    /// call's error.
    fn call(&self, sync: bool, op: impl FnOnce(&mut Disk, Option<Fault>)) -> io::Result<()> {
        let mut state = self.state.lock();
        state.calls += 1;
        let calls = state.calls;
        if sync {
            state.syncs.push(calls);
        }
        let fires = |&(at, fault): &(u64, Fault)| at <= calls && (fault == Fault::Eio) == sync;
        let fault = state.script.iter().position(fires).map(|i| {
            // The device stays full; the other faults fire once.
            match state.script[i].1 {
                Fault::Full => Fault::Full,
                _ => state.script.remove(i).1,
            }
        });
        if let Some(disk) = state.disks.get_mut(self.disk) {
            op(disk, fault);
        }
        if state.crash_after == Some(calls) {
            state.crashed = Some(state.disks.clone());
        }
        match fault {
            None => Ok(()),
            Some(Fault::Eio) => Err(io::Error::from_raw_os_error(5)),
            Some(_) => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "no space left on device (injected)",
            )),
        }
    }
}

impl File for FaultFile {
    fn read_at(&self, buf: &mut [u8], at: u64) -> io::Result<()> {
        let state = self.state.lock();
        let live = state.disks.get(self.disk).map_or(&[][..], |d| &d.live[..]);
        let bytes = live.get(at as usize..at as usize + buf.len());
        buf.copy_from_slice(bytes.ok_or(io::ErrorKind::UnexpectedEof)?);
        Ok(())
    }

    fn write_at(&self, bytes: &[u8], at: u64) -> io::Result<()> {
        self.call(false, |disk, fault| {
            let landed = match fault {
                None => bytes.len(),
                Some(Fault::Short) => bytes.len() / 2,
                Some(_) => 0,
            };
            disk.write(&bytes[..landed], at as usize);
        })
    }

    fn sync_data(&self) -> io::Result<()> {
        self.call(true, |disk, fault| {
            if fault.is_none() {
                disk.durable = Arc::clone(&disk.live);
                disk.first = None;
            }
        })
    }

    fn sync_all(&self) -> io::Result<()> {
        self.sync_data()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.call(false, |disk, fault| {
            if fault.is_none() {
                Arc::make_mut(&mut disk.live).resize(len as usize, 0);
            }
        })
    }

    fn len(&self) -> io::Result<u64> {
        let state = self.state.lock();
        Ok(state
            .disks
            .get(self.disk)
            .map_or(0, |d| d.live.len() as u64))
    }
}

/// Crash `workload` after its I/O calls and hand `check` every image each
/// crash could leave, with the number of calls made before it; returns
/// how many images were checked.
///
/// The workload runs once to count its calls, then once more per crash
/// point, on a fresh [`FaultFs`] each time, so it must make the same calls
/// every run. With `all`, every call is a crash point; otherwise a sample
/// is: each call a sync follows, where the most is unsynced, and every
/// eighth of the run besides.
#[doc(hidden)]
pub fn every_crash_point(
    all: bool,
    workload: impl Fn(&FaultFs),
    mut check: impl FnMut(u64, Crash),
) -> usize {
    let probe = FaultFs::new();
    workload(&probe);
    let (calls, syncs) = {
        let state = probe.state.lock();
        (state.calls, state.syncs.clone())
    };
    let step = if all { 1 } else { (calls / 8).max(1) };
    let before_syncs = syncs.iter().map(|&s| s - 1).filter(|&p| p > 0);
    let points: BTreeSet<u64> = before_syncs
        .chain((step..=calls).step_by(step as usize))
        .collect();
    let mut checked = 0;
    for point in points {
        let fs = FaultFs::new();
        fs.state.lock().crash_after = Some(point);
        workload(&fs);
        for image in fs.crash() {
            check(point, image);
            checked += 1;
        }
    }
    checked
}

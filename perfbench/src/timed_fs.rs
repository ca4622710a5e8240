//! A `FileSystem` adapter owned by the benchmark: it forwards every call to
//! the real file system and times it with the [`Probe`]. The MapReduce
//! framework is handed this adapter, so the calls it makes into BSFS are
//! spanned from outside the program, at the dfs boundary.

use std::sync::Arc;

use dfs::{BlockLocation, DfsPath, FileReader, FileStatus, FileSystem, FileWriter, FsResult};
use fabric::{Payload, Proc};

use crate::probe::{control, moved, OpKind, Outcome, Probe};

pub struct TimedFs {
    inner: Arc<dyn FileSystem>,
    probe: Arc<Probe>,
}

impl TimedFs {
    pub fn new(inner: Arc<dyn FileSystem>, probe: Arc<Probe>) -> TimedFs {
        TimedFs { inner, probe }
    }
}

impl FileSystem for TimedFs {
    fn create(&self, p: &Proc, path: &DfsPath) -> FsResult<Box<dyn FileWriter>> {
        let pr = &self.probe;
        pr.timed(
            p,
            "bsfs.create",
            0,
            None,
            || self.inner.create(p, path),
            control,
        )
    }

    fn append(&self, p: &Proc, path: &DfsPath) -> FsResult<Box<dyn FileWriter>> {
        let pr = &self.probe;
        pr.timed(
            p,
            "bsfs.append",
            0,
            None,
            || self.inner.append(p, path),
            control,
        )
    }

    fn open(&self, p: &Proc, path: &DfsPath) -> FsResult<Box<dyn FileReader>> {
        let pr = &self.probe;
        let inner = pr.timed(
            p,
            "bsfs.open",
            0,
            None,
            || self.inner.open(p, path),
            control,
        )?;
        Ok(Box::new(TimedReader {
            inner,
            probe: self.probe.clone(),
            reads: 0,
        }))
    }

    fn delete(&self, p: &Proc, path: &DfsPath, recursive: bool) -> FsResult<bool> {
        let pr = &self.probe;
        pr.timed(
            p,
            "bsfs.delete",
            0,
            None,
            || self.inner.delete(p, path, recursive),
            control,
        )
    }

    fn rename(&self, p: &Proc, src: &DfsPath, dst: &DfsPath) -> FsResult<()> {
        let pr = &self.probe;
        pr.timed(
            p,
            "bsfs.rename",
            0,
            None,
            || self.inner.rename(p, src, dst),
            control,
        )
    }

    fn mkdirs(&self, p: &Proc, path: &DfsPath) -> FsResult<()> {
        let pr = &self.probe;
        pr.timed(
            p,
            "bsfs.mkdirs",
            0,
            None,
            || self.inner.mkdirs(p, path),
            control,
        )
    }

    fn status(&self, p: &Proc, path: &DfsPath) -> FsResult<FileStatus> {
        let pr = &self.probe;
        pr.timed(
            p,
            "bsfs.status",
            0,
            None,
            || self.inner.status(p, path),
            control,
        )
    }

    fn list(&self, p: &Proc, path: &DfsPath) -> FsResult<Vec<FileStatus>> {
        let pr = &self.probe;
        pr.timed(
            p,
            "bsfs.list",
            0,
            None,
            || self.inner.list(p, path),
            control,
        )
    }

    fn block_locations(
        &self,
        p: &Proc,
        path: &DfsPath,
        offset: u64,
        len: u64,
    ) -> FsResult<Vec<BlockLocation>> {
        let pr = &self.probe;
        let call = || self.inner.block_locations(p, path, offset, len);
        pr.timed(p, "bsfs.block_locations", 0, None, call, control)
    }

    fn default_block_size(&self) -> u64 {
        self.inner.default_block_size()
    }

    fn supports_append(&self) -> bool {
        self.inner.supports_append()
    }

    fn scheme(&self) -> &'static str {
        self.inner.scheme()
    }

    fn append_all(&self, p: &Proc, path: &DfsPath, data: Payload) -> FsResult<()> {
        let n = data.len();
        let call = || self.inner.append_all(p, path, data);
        let pr = &self.probe;
        pr.timed(p, "bsfs.append_all", 0, Some(OpKind::Append), call, |r| {
            moved(r, n)
        })
    }
}

/// A map task opens its split, reads it with one `read_at`, then reads on
/// in 64 KiB windows until the next record delimiter. Only the first read
/// of a reader is a data op; the lookahead reads are spanned apart
/// (`bsfs.read_lookahead`) and kept out of the op distribution, so its
/// median does not sit on the boundary between the two read sizes.
struct TimedReader {
    inner: Box<dyn FileReader>,
    probe: Arc<Probe>,
    /// Reads issued through this reader so far.
    reads: u64,
}

impl TimedReader {
    fn timed_read(
        &mut self,
        p: &Proc,
        call: impl FnOnce(&mut dyn FileReader) -> FsResult<Payload>,
    ) -> FsResult<Payload> {
        let (name, kind) = if self.reads == 0 {
            ("bsfs.read", Some(OpKind::Read))
        } else {
            ("bsfs.read_lookahead", None)
        };
        self.reads += 1;
        let inner = &mut self.inner;
        self.probe
            .timed(p, name, 0, kind, || call(inner.as_mut()), read_outcome)
    }
}

fn read_outcome(r: &FsResult<Payload>) -> Outcome {
    Outcome {
        ok: r.is_ok(),
        bytes: r.as_ref().map_or(0, Payload::len),
    }
}

impl FileReader for TimedReader {
    fn read(&mut self, p: &Proc, len: u64) -> FsResult<Payload> {
        self.timed_read(p, |r| r.read(p, len))
    }

    fn seek(&mut self, pos: u64) -> FsResult<()> {
        self.inner.seek(pos)
    }

    fn pos(&self) -> u64 {
        self.inner.pos()
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&mut self, p: &Proc, offset: u64, len: u64) -> FsResult<Payload> {
        self.timed_read(p, |r| r.read_at(p, offset, len))
    }
}

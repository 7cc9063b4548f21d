//! One durable log: the file format, the recovery scan, the append path and
//! the atomic rewrite under both the [write-ahead log](crate::wal) and the
//! [performance store](crate::store). Every file operation of either is
//! here; the two are schemas (a header type, a record type) and policies
//! (when to [`sync`](DurableLog::sync)) on top. DESIGN.md, "Durable log",
//! has the reasoning at length.
//!
//! **Format.** JSON lines: line 1 a header, every further line one record,
//! each made by [`push_line`]. A line is a record only when it ends in
//! `\n`: a file that stops after a complete `{…}` holds a write cut one
//! byte short, and counting it would let the next append share its line.
//!
//! **Recovery.** [`scan`] streams the file through one buffer, once. The
//! header goes through the caller's check before any record line is read;
//! records count up to the first line that is not one — not UTF-8, not
//! newline-terminated, or refused by the caller's [`LineReader`], which
//! decodes each line into state of its own (the WAL's through the derive,
//! the store's in place). A readable record *after* that line means damage
//! in the middle of the log, which [`DurableLog::open`] refuses by line
//! number; otherwise the rest is the tail of an append a crash cut short,
//! and open truncates it, so an opened log always ends in `\n`.
//!
//! **Appends** go in whole lines at the log's committed length, and a write
//! that fails half way (a full disk) is truncated back to it. They are
//! durable after the next [`sync`](DurableLog::sync), the caller's call to
//! make. **[`rewrite`](DurableLog::rewrite)** streams a new file from the
//! old one through a temp file, a rename and a sync of the directory: a
//! crash leaves the old log or the new.

use crate::error::{HarmonyError, Result};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn io_err(what: &str, path: &Path, e: std::io::Error) -> HarmonyError {
    HarmonyError::Io(format!("{what} {}: {e}", path.display()))
}

/// Append `value`'s JSON line — what the derive writes, and a newline — to
/// `out`. Every line of either log is made here, or read by the store's
/// own reader from a line made here: a header, a batch's records into the
/// batch's one buffer, a merged record the reader declined.
pub(crate) fn push_line<T: Serialize>(value: &T, out: &mut Vec<u8>) {
    serde_json::to_writer(out, value).expect("log lines serialize");
    out.push(b'\n');
}

/// Whether `path` holds a log to [`open`](DurableLog::open): it exists and
/// is not empty.
pub(crate) fn has_content(path: &Path) -> bool {
    std::fs::metadata(path).is_ok_and(|m| m.len() > 0)
}

/// Bytes [`DurableLog::open`] reads the file in at a time: the scan holds
/// this and the longest line, never the whole log.
const READ_BUFFER: usize = 64 * 1024;

/// Move the next line of `reader` into `buf`: `Ok` with how many bytes it
/// took and its text, less the line ending, or with why it is not a line.
/// `None` at the end.
fn next_line<'a>(
    reader: &mut impl BufRead,
    buf: &'a mut Vec<u8>,
) -> std::io::Result<Option<(usize, std::result::Result<&'a str, String>)>> {
    buf.clear();
    // `read_until` for its newline search, which is several times faster
    // than a loop over the bytes; open is a benchmark's whole set-up.
    let taken = reader.read_until(b'\n', buf)?;
    if taken == 0 {
        return Ok(None);
    }
    let line = match buf.last() {
        Some(b'\n') => std::str::from_utf8(buf)
            .map(str::trim_end)
            .map_err(|_| "invalid UTF-8".into()),
        _ => Err("no trailing newline".into()),
    };
    Ok(Some((taken, line)))
}

/// How a log's record lines become records: the decode is the caller's.
/// [`scan`] hands every line to [`read`](Self::read), and says whether to
/// keep its record: only while no line before it was refused.
pub(crate) trait LineReader {
    /// Read `line` (the text less its line ending), taking its record when
    /// `keep`, or say why it is not a record.
    fn read(&mut self, line: &str, keep: bool) -> std::result::Result<(), String>;
}

/// The derive's decode of one line as an `R`.
pub(crate) fn derived<R: Deserialize>(line: &str) -> std::result::Result<R, String> {
    serde_json::from_str(line).map_err(|e| e.to_string())
}

/// The one reader of header-plus-records JSON lines, from a file or from
/// bytes already in memory. Line 1 goes through `check` before any other
/// line is read; then every line goes through `lines`, and every record up
/// to the first line that is not one is kept, in order; blank lines are
/// skipped. Returns the header and the offset just past the last record
/// kept; the inner `Err` says why line 1 is not a header or was refused,
/// or which line has a readable record *after* it and so is damage mid-log,
/// not the end of the last append. The outer `Err` is a read that failed,
/// which says nothing about the log.
pub(crate) fn scan<H: Deserialize>(
    mut reader: impl BufRead,
    check: impl FnOnce(&H) -> std::result::Result<(), String>,
    lines: &mut impl LineReader,
) -> std::io::Result<std::result::Result<(H, usize), String>> {
    let mut buf = Vec::new();
    let Some((mut consumed, line)) = next_line(&mut reader, &mut buf)? else {
        return Ok(Err("empty log has no header".into()));
    };
    let header = match line.and_then(derived::<H>) {
        Ok(header) => header,
        Err(why) => return Ok(Err(format!("bad header: {why}"))),
    };
    if let Err(why) = check(&header) {
        return Ok(Err(why));
    }
    let mut good_end = consumed;
    // The first line that is not a record: its number, and why.
    let mut bad: Option<(usize, String)> = None;
    let mut line_no = 1;
    while let Some((taken, line)) = next_line(&mut reader, &mut buf)? {
        consumed += taken;
        line_no += 1;
        let read = match line {
            Ok("") => continue,
            Ok(text) => lines.read(text, bad.is_none()),
            Err(why) => Err(why),
        };
        match (read, &bad) {
            (Ok(()), None) => good_end = consumed,
            (Ok(()), Some((line, error))) => {
                return Ok(Err(format!("unreadable record at line {line}: {error}")))
            }
            (Err(error), None) => bad = Some((line_no, error)),
            (Err(_), Some(_)) => {}
        }
    }
    Ok(Ok((header, good_end)))
}

/// An open log file; see the [module docs](self).
pub(crate) struct DurableLog {
    path: PathBuf,
    file: File,
    /// Length of the file as of the last append that succeeded: where the
    /// next one starts, and what a failed one truncates back to.
    committed: u64,
    /// Records ever appended through this handle: the position a sync
    /// credit names.
    appended: u64,
    /// `appended` as of the last sync known to cover it: a `sync`, a
    /// `rewrite`, or a credited [`pending_sync`](Self::pending_sync).
    synced: u64,
    last_append: Instant,
}

/// Cut `file` back to `len` bytes and leave its cursor there. No handle of
/// a log is in append mode (ext4 serves an `O_APPEND` write ≈ 0.8 µs slower
/// than one at the cursor), so the cursor is where the next append lands.
fn cut(file: &mut File, len: u64) -> std::io::Result<()> {
    file.set_len(len)?;
    file.seek(SeekFrom::Start(len)).map(|_| ())
}

/// A log's bytes up to its committed length when [`DurableLog::committed`]
/// took it. It reads a duplicate of the append handle only with positional
/// reads, so it never moves the cursor where appends land, and it reads the
/// file it was taken from whatever is later appended, renamed over the path
/// or unlinked.
pub(crate) struct Committed {
    file: File,
    at: u64,
    end: u64,
}

impl Committed {
    /// The committed length: where reads stop.
    pub(crate) fn end(&self) -> u64 {
        self.end
    }

    /// Read on from byte `at`.
    pub(crate) fn at(&mut self, at: u64) -> &mut Self {
        self.at = at;
        self
    }
}

impl Read for Committed {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = usize::try_from(self.end.saturating_sub(self.at)).unwrap_or(usize::MAX);
        let want = left.min(buf.len());
        let n = self.file.read_at(&mut buf[..want], self.at)?;
        self.at += n as u64;
        Ok(n)
    }
}

/// `File::create`, but readable too: a log's own handle is what
/// [`DurableLog::committed`] duplicates.
fn create_readable(path: &Path) -> std::io::Result<File> {
    let mut options = OpenOptions::new();
    options
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
}

impl DurableLog {
    fn new(path: &Path, file: File, committed: usize) -> Self {
        DurableLog {
            path: path.to_path_buf(),
            file,
            committed: committed as u64,
            appended: 0,
            synced: 0,
            last_append: Instant::now(),
        }
    }

    /// Start a log at `path` (replacing any file there) holding `header`.
    pub(crate) fn create(path: &Path, header: &impl Serialize) -> Result<Self> {
        let mut line = Vec::new();
        push_line(header, &mut line);
        let file = create_readable(path)
            .and_then(|mut file| {
                file.write_all(&line)?;
                file.sync_data().map(|()| file)
            })
            .map_err(|e| io_err("create", path, e))?;
        Ok(Self::new(path, file, line.len()))
    }

    /// Open the log at `path` and recover it: the header goes through
    /// `check` and is returned, every line through `lines` (see [`scan`]),
    /// a torn tail is truncated off the file and reported. A refused header
    /// or damage mid-log is the error `corrupt` makes of `"{path}: {what}"`.
    pub(crate) fn open<H: Deserialize>(
        path: &Path,
        corrupt: fn(String) -> HarmonyError,
        check: impl FnOnce(&H) -> std::result::Result<(), String>,
        lines: &mut impl LineReader,
    ) -> Result<(Self, H, bool)> {
        let unread = |e| io_err("read", path, e);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(unread)?;
        let mut reader = BufReader::with_capacity(READ_BUFFER, &file);
        let scanned = scan::<H>(&mut reader, check, lines).map_err(unread)?;
        let refuse = |what: String| corrupt(format!("{}: {what}", path.display()));
        let (header, good_end) = scanned.map_err(refuse)?;
        // The scan read to the end, so where the reader stands is the
        // file's length as read.
        let len = reader.stream_position().map_err(unread)?;
        let torn = (good_end as u64) < len;
        if torn {
            // Off the disk, not merely skipped: the next append must start
            // a line of its own.
            cut(&mut file, good_end as u64)
                .and_then(|()| file.sync_data())
                .map_err(|e| io_err("truncate torn tail of", path, e))?;
        } else {
            file.seek(SeekFrom::Start(good_end as u64))
                .map_err(unread)?;
        }
        Ok((Self::new(path, file, good_end), header, torn))
    }

    /// Path of the file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Length of the file in bytes.
    pub(crate) fn len(&self) -> u64 {
        self.committed
    }

    /// Records appended and not yet covered by a `sync_data`.
    pub(crate) fn unsynced(&self) -> usize {
        (self.appended - self.synced) as usize
    }

    /// Append `lines` — whole lines from [`push_line`], `records` of them —
    /// with one write. Not durable until the next [`sync`](Self::sync).
    #[inline] // as is `PerfStore::append`: +2 % on `store-cold` as calls
    pub(crate) fn append(&mut self, lines: &[u8], records: usize) -> Result<()> {
        self.append_with(lines, records, |file, lines| file.write_all(lines))
    }

    /// [`append`](Self::append) with the write as an argument, for the test
    /// that makes it fail half way.
    #[inline]
    fn append_with(
        &mut self,
        lines: &[u8],
        records: usize,
        write: impl FnOnce(&mut File, &[u8]) -> std::io::Result<()>,
    ) -> Result<()> {
        if let Err(e) = write(&mut self.file, lines) {
            // Whatever part of `lines` reached the file goes again (best
            // effort), or the next append would continue its last line.
            let _ = cut(&mut self.file, self.committed);
            return Err(io_err("append to", &self.path, e));
        }
        self.committed += lines.len() as u64;
        self.appended += records as u64;
        self.last_append = Instant::now();
        Ok(())
    }

    /// `sync_data`, when there is an append it has not covered.
    pub(crate) fn sync(&mut self) -> Result<()> {
        if self.unsynced() > 0 {
            self.file
                .sync_data()
                .map_err(|e| io_err("sync", &self.path, e))?;
            self.synced = self.appended;
        }
        Ok(())
    }

    /// Group commit from another thread: when records are unsynced and the
    /// last append is at least `quiet` old (an fsync stalls appends to the
    /// same inode), the sync to run *without* the lock around this log
    /// held, on a duplicate of the file handle; it returns the records to
    /// [`mark_synced`](Self::mark_synced) the append position it covers.
    pub(crate) fn pending_sync(
        &self,
        quiet: Duration,
    ) -> Option<impl FnOnce() -> std::io::Result<u64>> {
        if self.unsynced() == 0 || self.last_append.elapsed() < quiet {
            return None;
        }
        let (file, position) = (self.file.try_clone().ok()?, self.appended);
        Some(move || file.sync_data().map(|()| position))
    }

    /// The log as it stands, to read without the lock around this log held:
    /// its bytes up to the committed length, on a duplicate of the file
    /// handle (see [`Committed`]).
    pub(crate) fn committed(&self) -> std::io::Result<Committed> {
        let (file, end) = (self.file.try_clone()?, self.committed);
        Ok(Committed { file, at: 0, end })
    }

    /// Credit the appends up to `position` as synced. A credit is a
    /// position, not a count, because the log may have moved on while the
    /// sync ran: a `sync` or a [`rewrite`](Self::rewrite) in between
    /// already covered everything the credit names, and the appends after
    /// them went to a file, or a part of one, the credited sync never saw.
    /// Such a credit changes nothing.
    pub(crate) fn mark_synced(&mut self, position: u64) {
        self.synced = self.synced.max(position);
    }

    /// Replace the whole log, atomically, with what `copy` writes (a
    /// header line and record lines) while it reads the log as it stands
    /// through a handle of its own: temp file, sync, rename over the log,
    /// sync of the directory, so that the new entry is as durable as the
    /// bytes. `Err` when a step before the rename fails, with the log as it
    /// was; once the new file is the log, `Ok` with the directory sync's
    /// outcome.
    pub(crate) fn rewrite(
        &mut self,
        copy: impl FnOnce(BufReader<File>, &mut BufWriter<File>) -> Result<()>,
    ) -> Result<Result<()>> {
        let tmp = self.path.with_extension("compact");
        let wrote = |e| io_err("write", &tmp, e);
        let log = File::open(&self.path).map_err(|e| io_err("read", &self.path, e))?;
        let written = create_readable(&tmp).map_err(wrote).and_then(|file| {
            let mut out = BufWriter::with_capacity(READ_BUFFER, file);
            copy(BufReader::with_capacity(READ_BUFFER, log), &mut out)?;
            let file = out.into_inner().map_err(|e| wrote(e.into_error()))?;
            file.sync_data().map_err(wrote)?;
            // The cursor is at the end, where the next append lands.
            let len = (&file).stream_position().map_err(wrote)?;
            Ok((file, len))
        });
        let (file, len) = written.inspect_err(|_| _ = std::fs::remove_file(&tmp))?;
        std::fs::rename(&tmp, &self.path).map_err(|e| io_err("rename over", &self.path, e))?;
        // The handle follows the file through the rename.
        (self.file, self.committed, self.synced) = (file, len, self.appended);
        let dir = self.path.parent().filter(|dir| !dir.as_os_str().is_empty());
        let synced = File::open(dir.unwrap_or(Path::new("."))).and_then(|dir| dir.sync_all());
        Ok(synced.map_err(|e| io_err("sync the directory of", &self.path, e)))
    }
}

impl Drop for DurableLog {
    fn drop(&mut self) {
        // Best effort; `sync` is the call that reports.
        let _ = self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Head {
        kind: String,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Rec {
        n: u32,
    }

    fn head() -> Head {
        Head { kind: "t".into() }
    }

    fn line(n: u32) -> Vec<u8> {
        let mut out = Vec::new();
        push_line(&Rec { n }, &mut out);
        out
    }

    fn temp_path(tag: &str) -> crate::TempPath {
        crate::TempPath::new(&format!("log-{tag}.log"))
    }

    /// A [`LineReader`] that decodes each line with the derive and keeps
    /// the records in `.0`, in order.
    struct Derived<R>(Vec<R>);

    impl<R> Default for Derived<R> {
        fn default() -> Self {
            Derived(Vec::new())
        }
    }

    impl<R: Deserialize> LineReader for Derived<R> {
        fn read(&mut self, line: &str, keep: bool) -> std::result::Result<(), String> {
            let record = derived(line)?;
            if keep {
                self.0.push(record);
            }
            Ok(())
        }
    }

    fn ns(lines: Derived<Rec>) -> Vec<u32> {
        lines.0.iter().map(|r| r.n).collect()
    }

    fn any_header(_: &Head) -> std::result::Result<(), String> {
        Ok(())
    }

    /// Open `path`: the log, the `n` of every record, a torn tail dropped.
    fn reopen(path: &Path) -> Result<(DurableLog, Vec<u32>, bool)> {
        let mut lines = Derived::default();
        let (log, header, torn) =
            DurableLog::open(path, HarmonyError::StoreCorrupt, any_header, &mut lines)?;
        assert_eq!(header, head());
        Ok((log, ns(lines), torn))
    }

    /// Rewrite `log` to hold `contents`.
    fn rewrite_to(log: &mut DurableLog, contents: &[u8]) -> Result<()> {
        log.rewrite(|_, out| {
            out.write_all(contents)
                .map_err(|e| HarmonyError::Io(e.to_string()))
        })?
    }

    /// `scan` over `body` after a good header: the records kept, and either
    /// how many bytes of `body` they span or the line found damaged mid-log.
    fn scan_body(body: &[u8]) -> (Vec<u32>, std::result::Result<usize, usize>) {
        let mut bytes = Vec::new();
        push_line(&head(), &mut bytes);
        let header_len = bytes.len();
        bytes.extend_from_slice(body);
        let mut lines = Derived::default();
        let scanned = scan::<Head>(&bytes[..], any_header, &mut lines);
        let end = match scanned.expect("memory reads") {
            Ok((_, good_end)) => Ok(good_end - header_len),
            Err(what) => {
                let rest = what
                    .strip_prefix("unreadable record at line ")
                    .expect(&what);
                Err(rest.split_once(": ").expect(&what).0.parse().expect(&what))
            }
        };
        (ns(lines), end)
    }

    #[test]
    fn a_write_that_fails_half_way_is_rolled_back() {
        let path = temp_path("short-write");
        let mut log = DurableLog::create(&path, &head()).unwrap();
        log.append(&line(1), 1).unwrap();
        let before = log.len();
        // A disk that fills up: half the line lands, then the write fails.
        let failed = log.append_with(&line(2), 1, |file, lines| {
            file.write_all(&lines[..lines.len() / 2])?;
            Err(std::io::Error::other("no space left on device"))
        });
        match failed {
            Err(HarmonyError::Io(msg)) => assert!(msg.contains("append to"), "{msg}"),
            other => panic!("expected an I/O error, got {other:?}"),
        }
        assert_eq!((log.len(), log.unsynced()), (before, 1));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
        // The caller carries on, as the server does with an advisory store.
        log.append(&line(3), 1).unwrap();
        log.append(&line(4), 1).unwrap();
        drop(log);
        let (_, seen, torn) = reopen(&path).expect("the half line must not be in the file");
        assert_eq!((seen, torn), (vec![1, 3, 4], false));
    }

    #[test]
    fn a_line_is_a_record_only_when_newline_terminated_text() {
        // A complete record without its newline is a torn tail.
        assert_eq!(scan_body(b"{\"n\":1}\n{\"n\":2}"), (vec![1], Ok(8)));
        // So is a tail cut inside a multi-byte character, or garbage with
        // newlines of its own and nothing readable after it.
        assert_eq!(scan_body(b"{\"n\":1}\n{\"n\":\"\xc3"), (vec![1], Ok(8)));
        assert_eq!(
            scan_body(b"{\"n\":1}\n\xff\xfe\n\x00{\n\n"),
            (vec![1], Ok(8))
        );
        // A line that is not a record with a record after it is damage
        // mid-log, and the records stop there either way.
        assert_eq!(
            scan_body(b"{\"n\":1}\n\xff\n{\"n\":3}\n"),
            (vec![1], Err(3))
        );
        assert_eq!(
            scan_body(b"nope\n\n{\"n\":3}\n{\"n\":4}\n"),
            (vec![], Err(2))
        );
        assert_eq!(
            scan_body(b"{\"n\":1}{\"n\":2}\n\xff\n{\"n\":3}\n").1,
            Err(2)
        );
        // Blank lines are not records and not damage.
        assert_eq!(
            scan_body(b"\n{\"n\":1}\r\n \n{\"n\":2}\n"),
            (vec![1, 2], Ok(20))
        );
        assert_eq!(scan_body(b""), (vec![], Ok(0)));
    }

    #[test]
    fn line_one_must_be_a_whole_header() {
        let refused = |bytes: &[u8]| {
            scan::<Head>(bytes, any_header, &mut Derived::<Rec>::default())
                .expect("memory reads")
                .map(|_| ())
                .expect_err("refused")
        };
        assert_eq!(refused(b""), "empty log has no header");
        assert!(refused(b"{\"kind\":\"t\"}").starts_with("bad header: no trailing"));
        assert!(refused(b"{\"kind\":\"\xff\"}\n").starts_with("bad header: invalid"));
        assert!(refused(b"{\"sort\":1}\n").starts_with("bad header: "));
    }

    #[test]
    fn open_truncates_a_torn_tail_and_refuses_damage_in_the_middle() {
        let path = temp_path("open");
        let mut log = DurableLog::create(&path, &head()).unwrap();
        log.append(&[line(1), line(2)].concat(), 2).unwrap();
        let good = log.len();
        drop(log);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"n\":3}").unwrap();
        let (mut log, seen, torn) = reopen(&path).unwrap();
        assert_eq!((seen, torn, log.len()), (vec![1, 2], true, good));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good);
        log.append(&line(3), 1).unwrap();
        drop(log);
        let (log, seen, torn) = reopen(&path).unwrap();
        assert_eq!((seen, torn), (vec![1, 2, 3], false));
        drop(log);

        let mut bytes = std::fs::read(&path).unwrap();
        bytes[good as usize - 2] = 0xff; // inside record 2, line 3
        std::fs::write(&path, &bytes).unwrap();
        match reopen(&path) {
            Err(HarmonyError::StoreCorrupt(msg)) => {
                assert!(msg.contains("unreadable record at line 3: "), "{msg}");
                assert!(msg.starts_with(&path.display().to_string()), "{msg}");
            }
            other => panic!(
                "expected corruption, got {:?}",
                other.map(|(_, seen, _)| seen)
            ),
        }
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "a refused log is left as found"
        );
        // So is one whose header the caller refuses, torn tail and all.
        bytes.truncate(good as usize - 3);
        std::fs::write(&path, &bytes).unwrap();
        let not_mine = |h: &Head| Err(format!("not mine: {}", h.kind));
        let mut lines = Derived::<Rec>::default();
        match DurableLog::open(&path, HarmonyError::WalCorrupt, not_mine, &mut lines) {
            Err(HarmonyError::WalCorrupt(msg)) => assert!(msg.ends_with(": not mine: t"), "{msg}"),
            other => panic!("expected a refusal, got {:?}", other.map(|(_, h, _)| h)),
        }
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
    }

    #[test]
    fn appends_after_a_rewrite_land_in_the_new_file() {
        let path = temp_path("rewrite");
        let mut log = DurableLog::create(&path, &head()).unwrap();
        log.append(&[line(1), line(2), line(3)].concat(), 3)
            .unwrap();
        let mut contents = Vec::new();
        push_line(&head(), &mut contents);
        contents.extend(line(3));
        rewrite_to(&mut log, &contents).unwrap();
        assert_eq!((log.len(), log.unsynced()), (contents.len() as u64, 0));
        assert!(!path.with_extension("compact").exists());
        log.append(&line(4), 1).unwrap();
        drop(log);
        assert_eq!(reopen(&path).unwrap().1, [3, 4]);
    }

    #[test]
    fn a_rewrite_reads_the_log_as_it_stands_and_a_failed_one_changes_nothing() {
        let path = temp_path("rewrite-copy");
        let mut log = DurableLog::create(&path, &head()).unwrap();
        log.append(&[line(1), line(2)].concat(), 2).unwrap();
        let before = std::fs::read(&path).unwrap();
        let failed = log.rewrite(|mut old, out| {
            let mut seen = Vec::new();
            std::io::Read::read_to_end(&mut old, &mut seen).unwrap();
            assert_eq!(seen, before);
            out.write_all(&seen[..3]).unwrap();
            Err(HarmonyError::Io("full".into()))
        });
        assert!(matches!(failed, Err(HarmonyError::Io(_))));
        assert!(!path.with_extension("compact").exists());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        log.append(&line(3), 1).unwrap();
        drop(log);
        assert_eq!(reopen(&path).unwrap().1, [1, 2, 3]);
    }

    #[test]
    fn a_sync_taken_before_a_rewrite_credits_nothing_after_it() {
        let path = temp_path("stale-credit");
        let mut log = DurableLog::create(&path, &head()).unwrap();
        log.append(&[line(1), line(2), line(3)].concat(), 3)
            .unwrap();
        let stale = log.pending_sync(Duration::ZERO).expect("3 unsynced");
        let mut contents = Vec::new();
        push_line(&head(), &mut contents);
        contents.extend(line(3));
        rewrite_to(&mut log, &contents).unwrap();
        log.append(&[line(4), line(5)].concat(), 2).unwrap();
        // The flusher's sync ran on the replaced file: the two appends to
        // the new one are still unsynced, so the next flush must sync.
        log.mark_synced(stale().unwrap());
        assert_eq!(log.unsynced(), 2);
    }

    #[test]
    fn a_sync_taken_before_a_flush_credits_nothing_after_it() {
        let path = temp_path("flushed-credit");
        let mut log = DurableLog::create(&path, &head()).unwrap();
        log.append(&[line(1), line(2), line(3)].concat(), 3)
            .unwrap();
        let stale = log.pending_sync(Duration::ZERO).expect("3 unsynced");
        log.sync().unwrap();
        log.append(&[line(4), line(5)].concat(), 2).unwrap();
        log.mark_synced(stale().unwrap());
        assert_eq!(log.unsynced(), 2);
        // A credit taken now covers them.
        let fresh = log.pending_sync(Duration::ZERO).expect("2 unsynced");
        log.mark_synced(fresh().unwrap());
        assert_eq!(log.unsynced(), 0);
    }

    /// A record with text that is mostly two-byte characters.
    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Text {
        n: u32,
        text: String,
    }

    #[test]
    fn a_streamed_open_keeps_what_the_byte_scan_keeps_across_buffer_boundaries() {
        let mut bytes = Vec::new();
        push_line(&head(), &mut bytes);
        let mut n = 0;
        while bytes.len() < 200 * 1024 {
            // Lines of 24 to 1 200 bytes, an odd ASCII prefix before the
            // two-byte characters: lines and characters fall across the
            // reader's buffer boundaries at every offset.
            let text = format!(
                "{}{}",
                "a".repeat(n as usize % 3),
                "é".repeat(n as usize * 37 % 600)
            );
            push_line(&Text { n, text }, &mut bytes);
            n += 1;
        }
        let boundaries: Vec<usize> = (1..=bytes.len() / READ_BUFFER)
            .map(|k| k * READ_BUFFER)
            .collect();
        assert!(
            boundaries.iter().any(|&b| bytes[b] & 0xc0 == 0x80),
            "a character of a whole record straddles a boundary"
        );
        // A torn tail from before the next boundary to just after it, cut
        // after the first byte of a two-byte character.
        let next = (bytes.len() / READ_BUFFER + 1) * READ_BUFFER;
        let mut torn = b"{\"n\":99,\"text\":\"".to_vec();
        while bytes.len() + torn.len() < next + 2 {
            torn.extend_from_slice("é".as_bytes());
        }
        torn.push(0xc3);
        bytes.extend_from_slice(&torn);
        assert!(bytes.len() > next, "the torn tail crosses a boundary");

        let mut by_slice = Derived::<Text>::default();
        let (_, good_end) = scan::<Head>(&bytes[..], any_header, &mut by_slice)
            .expect("memory reads")
            .expect("a torn tail is not damage");
        let by_slice = by_slice.0;
        assert_eq!(good_end, bytes.len() - torn.len());
        assert_eq!(by_slice.len(), n as usize);

        let path = temp_path("streamed-open");
        std::fs::write(&path, &bytes).unwrap();
        let mut streamed = Derived::<Text>::default();
        let (mut log, _, truncated) =
            DurableLog::open(&path, HarmonyError::StoreCorrupt, any_header, &mut streamed).unwrap();
        assert_eq!(streamed.0, by_slice);
        assert!(truncated);
        assert_eq!(log.len(), good_end as u64);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_end as u64);
        // The next append lands where the kept records end.
        let mut appended = Vec::new();
        push_line(
            &Text {
                n: 100,
                text: "ü".into(),
            },
            &mut appended,
        );
        log.append(&appended, 1).unwrap();
        drop(log);
        let mut want = bytes[..good_end].to_vec();
        want.extend_from_slice(&appended);
        assert_eq!(std::fs::read(&path).unwrap(), want);
    }
}

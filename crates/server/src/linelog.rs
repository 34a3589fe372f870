//! The one framing every durable file of the data directory shares
//! (see [`durability_layout`](crate::durability_layout)).
//!
//! A log is UTF-8 text whose first line is `lixto-store\tv1\t<kind>`.
//! The store's `snapshot.log` and `wal.log` and the watch spool's
//! `watches.log` are logs, whose modules only encode and decode their
//! `put`/`del` records. Wrapper manifests have their own layout but use
//! the same field escaping, name encoding and atomic rewrite.
//!
//! * A record is a line that ends in `\n`, its string fields [`escape`]d.
//! * An unterminated last line is *torn* (a crash mid-append): counted,
//!   never decoded, and cut off before the log is appended to again.
//! * A complete first line that is not the header refuses the open with
//!   [`InvalidData`](io::ErrorKind::InvalidData) and leaves the file as
//!   it is.
//! * Replay applies records in order: a later `put` of a key replaces an
//!   earlier one, a `del` removes it, and a line that does not decode is
//!   skipped, counted and logged as a `store_corrupt_record` warning.
//! * An append writes one whole line and flushes it to the OS (no fsync);
//!   a failed append is cut back off.
//! * A whole-file rewrite goes through a temporary file renamed over the
//!   old one ([`write_atomic`]).

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::hash::Hash;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// One decoded record: `Put` sets a key's value, `Del` removes the key.
pub(crate) enum Record<K, V> {
    Put(K, V),
    Del(K),
}

fn header(kind: &str) -> String {
    format!("lixto-store\tv1\t{kind}")
}

/// Replay the log of `kind` at `path` into `live`, as the module docs
/// describe. Returns the number of lines skipped (a torn tail included)
/// and the length of the log's complete lines. A missing file replays
/// as an empty log.
pub(crate) fn replay<K: Eq + Hash, V>(
    path: &Path,
    kind: &str,
    live: &mut HashMap<K, V>,
    mut decode: impl FnMut(&str) -> Option<Record<K, V>>,
) -> io::Result<(u64, u64)> {
    let bytes = match fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((0, 0)),
        read => read?,
    };
    let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let mut skipped = 0;
    let mut skip = |line: &[u8]| {
        skipped += 1;
        let file = path.file_name().unwrap_or_default().to_string_lossy();
        lixto_obs::warn_event!("store_corrupt_record", "file" => &*file, "bytes" => line.len());
    };
    if complete < bytes.len() {
        skip(&bytes[complete..]);
    }
    let mut lines = bytes[..complete]
        .split_inclusive(|&b| b == b'\n')
        .map(|line| &line[..line.len() - 1]);
    if matches!(lines.next(), Some(first) if first != header(kind).as_bytes()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not a lixto-store v1 {kind} log", path.display()),
        ));
    }
    for line in lines.filter(|line| !line.is_empty()) {
        match std::str::from_utf8(line).ok().and_then(&mut decode) {
            Some(Record::Put(key, value)) => {
                live.insert(key, value);
            }
            Some(Record::Del(key)) => {
                live.remove(&key);
            }
            None => skip(line),
        }
    }
    Ok((skipped, complete as u64))
}

/// An append-only log, open for writing.
pub(crate) struct LineLog {
    path: PathBuf,
    kind: &'static str,
    file: File,
    /// Bytes of complete lines in the file.
    len: u64,
}

impl LineLog {
    /// Replay the log of `kind` at `path` into `live`, cut a torn tail
    /// off and open the log for appending; a missing or empty log starts
    /// with its header. Returns the log and the number of lines skipped.
    pub(crate) fn open<K: Eq + Hash, V>(
        path: PathBuf,
        kind: &'static str,
        live: &mut HashMap<K, V>,
        decode: impl FnMut(&str) -> Option<Record<K, V>>,
    ) -> io::Result<(LineLog, u64)> {
        let (skipped, len) = replay(&path, kind, live, decode)?;
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        file.set_len(len)?;
        let mut log = LineLog {
            path,
            kind,
            file,
            len,
        };
        if len == 0 {
            log.append(header(kind))?;
        }
        Ok((log, skipped))
    }

    /// Append `line` and flush it to the OS.
    pub(crate) fn append(&mut self, mut line: String) -> io::Result<()> {
        line.push('\n');
        let written = self.file.write_all(line.as_bytes());
        match written.and_then(|()| self.file.flush()) {
            Ok(()) => self.len += line.len() as u64,
            Err(e) => {
                let _ = self.file.set_len(self.len);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Replace the whole log with its header and `records`, atomically,
    /// and keep appending after them.
    pub(crate) fn rewrite(&mut self, records: impl IntoIterator<Item = String>) -> io::Result<()> {
        self.len = rewrite(&self.path, self.kind, records)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        Ok(())
    }

    /// Bytes in the log.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Where the log lives.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

/// Write a log of `kind` holding `records` to `path` through
/// [`write_atomic`]; returns its length in bytes.
pub(crate) fn rewrite(
    path: &Path,
    kind: &str,
    records: impl IntoIterator<Item = String>,
) -> io::Result<u64> {
    let mut out = String::new();
    for line in std::iter::once(header(kind)).chain(records) {
        out.push_str(&line);
        out.push('\n');
    }
    write_atomic(path, out.as_bytes())?;
    Ok(out.len() as u64)
}

/// Replace `path` with `contents` through `<path>.tmp` renamed over it,
/// so the path holds the old contents or the new, never a mix — and a
/// hard link to the old file keeps the old contents.
pub(crate) fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

/// Escape a string for one tab-separated field of one line: `\\`, `\n`,
/// `\r` and `\t` are backslash-escaped, everything else is verbatim.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`]; errors on a dangling or unknown escape.
pub(crate) fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            other => return Err(format!("bad escape \\{other:?}")),
        }
    }
    Ok(out)
}

/// Keep `[A-Za-z0-9_-]` and percent-encode every other byte: a wrapper
/// name made safe for a file name or a URL path segment.
pub(crate) fn percent_encode(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02x}"));
        }
    }
    out
}

/// Inverse of [`percent_encode`]; `None` on a malformed escape or a
/// result that is not UTF-8.
pub(crate) fn percent_decode(s: &str) -> Option<String> {
    let mut out = Vec::with_capacity(s.len());
    let mut bytes = s.bytes();
    while let Some(b) = bytes.next() {
        if b == b'%' {
            let hex = [bytes.next()?, bytes.next()?];
            out.push(u8::from_str_radix(std::str::from_utf8(&hex).ok()?, 16).ok()?);
        } else {
            out.push(b);
        }
    }
    String::from_utf8(out).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lixto-linelog-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("test.log")
    }

    fn decode(line: &str) -> Option<Record<String, String>> {
        match line.split('\t').collect::<Vec<_>>().as_slice() {
            ["put", key, value] => Some(Record::Put(unescape(key).ok()?, unescape(value).ok()?)),
            ["del", key] => Some(Record::Del(unescape(key).ok()?)),
            _ => None,
        }
    }

    fn open(path: &Path) -> io::Result<(LineLog, HashMap<String, String>, u64)> {
        let mut live = HashMap::new();
        let (log, skipped) = LineLog::open(path.to_path_buf(), "test", &mut live, decode)?;
        Ok((log, live, skipped))
    }

    #[test]
    fn later_records_win_and_bad_lines_are_counted() {
        let path = temp_log("replay");
        {
            let (mut log, live, _) = open(&path).unwrap();
            assert!(live.is_empty());
            for record in ["put\ta\t1", "put\tb\t2", "garbage", "put\ta\t3", "del\tb"] {
                log.append(record.to_string()).unwrap();
            }
            assert_eq!(log.len(), fs::metadata(&path).unwrap().len());
        }
        let (_, live, skipped) = open(&path).unwrap();
        assert_eq!(live, HashMap::from([("a".to_string(), "3".to_string())]));
        assert_eq!(skipped, 1);
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_torn_tail_is_counted_never_decoded_and_cut_before_the_next_append() {
        let path = temp_log("torn");
        fs::write(&path, "lixto-store\tv1\ttest\nput\ta\t1\nput\tb\t2").unwrap();
        let (mut log, live, skipped) = open(&path).unwrap();
        assert_eq!((live.len(), skipped), (1, 1), "put b has no newline");
        log.append("put\tc\t3".to_string()).unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "lixto-store\tv1\ttest\nput\ta\t1\nput\tc\t3\n"
        );
        // A torn header is cut too; the log starts over.
        fs::write(&path, "lixto-st").unwrap();
        let (_, live, skipped) = open(&path).unwrap();
        assert_eq!((live.len(), skipped), (0, 1));
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "lixto-store\tv1\ttest\n"
        );
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_complete_foreign_first_line_refuses_the_open_and_keeps_the_file() {
        let path = temp_log("foreign");
        for text in ["lixto-store\tv1\tother\nput\ta\t1\n", "not a log\n"] {
            fs::write(&path, text).unwrap();
            let err = open(&path).err().expect("a foreign log must not open");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(fs::read_to_string(&path).unwrap(), text);
        }
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn rewrite_replaces_the_log_and_appends_continue_after_it() {
        let path = temp_log("rewrite");
        let (mut log, _, _) = open(&path).unwrap();
        log.append("put\told\tx".to_string()).unwrap();
        log.rewrite(["put\tnew\ty".to_string()]).unwrap();
        log.append("del\tnew".to_string()).unwrap();
        let text = "lixto-store\tv1\ttest\nput\tnew\ty\ndel\tnew\n";
        assert_eq!(fs::read_to_string(&path).unwrap(), text);
        assert_eq!(log.len(), text.len() as u64);
        assert!(!Path::new(&format!("{}.tmp", path.display())).exists());
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn percent_encoding_round_trips() {
        for name in ["shop", "weird name/v=1", "a@b", "ünïcode", ""] {
            let encoded = percent_encode(name);
            assert!(encoded
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_-%".contains(&b)));
            assert_eq!(percent_decode(&encoded).as_deref(), Some(name));
        }
        assert_eq!(percent_decode("%zz"), None);
        assert_eq!(percent_decode("%4"), None);
    }
}

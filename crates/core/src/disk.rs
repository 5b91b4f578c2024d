//! The content-addressed on-disk tier of the [`ArtifactStore`]: persisted
//! result memos, sampling plans and warm-state checkpoints, shared across
//! processes.
//!
//! Every entry is one file under `<root>/<class>/<fnv64(key)>.bin`,
//! written **atomically** (temp file + rename) so a crash mid-write — or
//! a `SIGKILL` mid-campaign — can never leave a half-entry that later
//! reads as valid. The container framing is
//!
//! ```text
//! magic "MLCH" | format version (u32) | build fingerprint (u64) | full key string | payload | fnv1a-64 checksum
//! ```
//!
//! with the key string and payload length-prefixed. Reads verify all five
//! in order; *any* failure (bad magic, version mismatch, another build's
//! fingerprint, short file, checksum mismatch, key collision) is treated
//! as a cache miss — corrupt entries are never trusted, the artifact is
//! recomputed, and the next write replaces the bad file. The embedded
//! full key makes filename hash collisions safe: an entry only serves the
//! exact content key it was written under. The build fingerprint (a hash
//! of the running executable) makes *code* changes safe: content keys
//! cover the simulation's inputs, not the simulator, so a rebuilt binary
//! deliberately starts cold rather than serving the old build's results.
//!
//! Because the filename and the embedded key both derive from the full
//! content key (configuration, window, seed, sampling mode, …), cache
//! invalidation is automatic and *incremental*: changing one experiment
//! knob re-keys only the cells it touches, and every other lookup keeps
//! hitting disk. Nothing is ever read stale — a stale entry is simply a
//! key nobody asks for anymore.
//!
//! [`ArtifactStore`]: crate::ArtifactStore

use microlib_model::codec::{fnv1a, CodecError, Decoder, Encoder};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Magic bytes opening every cache entry.
const MAGIC: [u8; 4] = *b"MLCH";

/// Fingerprint of the running executable (FNV-1a of its bytes), folded
/// into every entry: the content key covers *inputs* (configuration,
/// window, seed), not the simulator's code, so without it a rebuilt
/// binary with changed behavior would keep serving results computed by
/// the old code — a code change would look like a no-op. Any rebuild
/// starts the cache cold instead; stale entries are overwritten as the
/// new build recomputes them. Falls back to `0` when the executable
/// cannot be read (entries then still share within that degraded mode).
fn build_fingerprint() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        std::env::current_exe()
            .ok()
            .and_then(|exe| fs::read(exe).ok())
            .map(|bytes| fnv1a(&bytes))
            .unwrap_or(0)
    })
}

/// The on-disk format version. Bumping it invalidates every existing
/// entry (old files decode as [`CodecError::BadVersion`] and are
/// recomputed). Bump whenever any persisted type's encoding changes.
pub const FORMAT_VERSION: u32 = 1;

/// A directory of content-addressed cache entries (see the module docs).
///
/// All operations are best-effort: I/O errors on write are swallowed (the
/// cache is an accelerator, never a correctness dependency) and errors on
/// read are misses.
#[derive(Debug)]
pub struct DiskCache {
    root: PathBuf,
    tmp_seq: AtomicU64,
}

impl DiskCache {
    /// A cache rooted at `root` (created lazily on first write).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DiskCache {
            root: root.into(),
            tmp_seq: AtomicU64::new(0),
        }
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_for(&self, class: &str, key: &str) -> PathBuf {
        self.root
            .join(class)
            .join(format!("{:016x}.bin", fnv1a(key.as_bytes())))
    }

    /// Loads the payload stored under `(class, key)`, or `None` if the
    /// entry is absent, unreadable, corrupt, from another format version,
    /// or written under a different (hash-colliding) key.
    pub fn load(&self, class: &str, key: &str) -> Option<Vec<u8>> {
        let bytes = fs::read(self.path_for(class, key)).ok()?;
        decode_entry(&bytes, key).ok()
    }

    /// Atomically stores `payload` under `(class, key)`, replacing any
    /// previous entry. Failures are silently ignored (the entry will be
    /// recomputed next time).
    pub fn store(&self, class: &str, key: &str, payload: &[u8]) {
        let path = self.path_for(class, key);
        let Some(dir) = path.parent() else { return };
        if fs::create_dir_all(dir).is_err() {
            return;
        }
        match crate::fault::injected("disk-write", class) {
            Some(crate::fault::FaultKind::Torn) => {
                // A torn write: half the framed entry lands at the FINAL
                // path (deliberately bypassing the atomic rename), which
                // readers must reject as a miss and a later write must
                // replace. This is the crash the temp+rename discipline
                // exists to prevent — injected here so tests can prove
                // the read path survives it anyway.
                let framed = encode_entry(key, payload);
                let _ = fs::write(&path, &framed[..framed.len() / 2]);
                return;
            }
            Some(kind) => crate::fault::execute(kind, "disk-write", class),
            None => {}
        }
        // Unique temp name per process *and* per write: concurrent
        // writers never clobber each other's partial file, and rename
        // makes publication atomic on the same filesystem.
        let tmp = dir.join(format!(
            ".tmp.{}.{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        // A failed write (e.g. ENOSPC after some bytes) or failed rename
        // must not strand the partial temp file in the cache directory.
        if fs::write(&tmp, encode_entry(key, payload)).is_err() || fs::rename(&tmp, &path).is_err()
        {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// Loads the entry under `(class, key)` and decodes it with `decode`,
    /// which must consume the whole payload: a decode error or trailing
    /// bytes make the entry a miss, like any other corruption.
    pub fn load_with<T>(
        &self,
        class: &str,
        key: &str,
        decode: impl FnOnce(&mut Decoder<'_>) -> Result<T, CodecError>,
    ) -> Option<T> {
        let payload = self.load(class, key)?;
        let mut d = Decoder::new(&payload);
        let value = decode(&mut d).ok()?;
        d.finish().ok()?;
        Some(value)
    }

    /// Encodes a payload with `encode` and [`store`](Self::store)s it
    /// under `(class, key)` — unless it exceeds `cap` bytes, in which case
    /// nothing is written (`usize::MAX` stores everything).
    pub fn store_with(
        &self,
        class: &str,
        key: &str,
        cap: usize,
        encode: impl FnOnce(&mut Encoder),
    ) {
        let mut e = Encoder::new();
        encode(&mut e);
        if e.as_bytes().len() <= cap {
            self.store(class, key, e.as_bytes());
        }
    }

    /// Fsyncs every entry of `class` and the class directory itself, so
    /// a clean exit guarantees its journaled memos survive a machine
    /// crash (rename gives atomicity, not durability). Best effort, like
    /// every other cache operation.
    pub fn sync_class(&self, class: &str) {
        let dir = self.root.join(class);
        let Ok(entries) = fs::read_dir(&dir) else {
            return;
        };
        for entry in entries.flatten() {
            if entry.path().extension().and_then(|e| e.to_str()) == Some("bin") {
                if let Ok(f) = fs::File::open(entry.path()) {
                    let _ = f.sync_all();
                }
            }
        }
        if let Ok(d) = fs::File::open(&dir) {
            let _ = d.sync_all();
        }
    }
}

/// Frames `payload` in the container format (see the module docs).
fn encode_entry(key: &str, payload: &[u8]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(MAGIC[0]);
    e.put_u8(MAGIC[1]);
    e.put_u8(MAGIC[2]);
    e.put_u8(MAGIC[3]);
    e.put_u32(FORMAT_VERSION);
    e.put_u64(build_fingerprint());
    e.put_str(key);
    e.put_bytes(payload);
    let checksum = fnv1a(e.as_bytes());
    e.put_u64(checksum);
    e.into_bytes()
}

/// Unframes an entry, verifying magic, version, build fingerprint, key
/// and checksum.
fn decode_entry(bytes: &[u8], expected_key: &str) -> Result<Vec<u8>, CodecError> {
    let mut d = Decoder::new(bytes);
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = d.take_u8()?;
    }
    if magic != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = d.take_u32()?;
    if version != FORMAT_VERSION {
        return Err(CodecError::BadVersion {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    if d.take_u64()? != build_fingerprint() {
        return Err(CodecError::Invalid("written by a different build"));
    }
    if d.take_str()? != expected_key {
        return Err(CodecError::Invalid("key mismatch"));
    }
    let payload = d.take_bytes()?;
    let body_len = bytes.len().saturating_sub(8);
    let stored = d.take_u64()?;
    d.finish()?;
    if fnv1a(&bytes[..body_len]) != stored {
        return Err(CodecError::BadChecksum);
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("microlib-disk-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_and_replace() {
        let root = tmp_root("roundtrip");
        let cache = DiskCache::new(&root);
        assert!(cache.load("memo", "k1").is_none(), "empty cache misses");
        cache.store("memo", "k1", b"hello");
        assert_eq!(cache.load("memo", "k1").unwrap(), b"hello");
        cache.store("memo", "k1", b"replaced");
        assert_eq!(cache.load("memo", "k1").unwrap(), b"replaced");
        // Classes are separate namespaces.
        assert!(cache.load("plan", "k1").is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_entry_is_a_miss() {
        let root = tmp_root("truncated");
        let cache = DiskCache::new(&root);
        cache.store("memo", "k", b"some payload bytes");
        let path = cache.path_for("memo", "k");
        let full = fs::read(&path).unwrap();
        for cut in [0, 3, 7, full.len() / 2, full.len() - 1] {
            fs::write(&path, &full[..cut]).unwrap();
            assert!(cache.load("memo", "k").is_none(), "cut at {cut}");
        }
        // Restoring the full bytes hits again.
        fs::write(&path, &full).unwrap();
        assert_eq!(cache.load("memo", "k").unwrap(), b"some payload bytes");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn flipped_bit_fails_the_checksum() {
        let root = tmp_root("checksum");
        let cache = DiskCache::new(&root);
        cache.store("memo", "k", b"payload under test");
        let path = cache.path_for("memo", "k");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(cache.load("memo", "k").is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_format_version_is_a_miss() {
        let root = tmp_root("version");
        let cache = DiskCache::new(&root);
        // Hand-frame an entry from a future format version, checksum and
        // all — only the version check can reject it.
        let mut e = Encoder::new();
        for b in MAGIC {
            e.put_u8(b);
        }
        e.put_u32(FORMAT_VERSION + 1);
        e.put_str("k");
        e.put_bytes(b"from the future");
        let checksum = fnv1a(e.as_bytes());
        e.put_u64(checksum);
        let path = cache.path_for("memo", "k");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, e.into_bytes()).unwrap();
        assert!(cache.load("memo", "k").is_none());
        assert!(matches!(
            decode_entry(&fs::read(&path).unwrap(), "k"),
            Err(CodecError::BadVersion { .. })
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn another_builds_fingerprint_is_a_miss() {
        let root = tmp_root("fingerprint");
        let cache = DiskCache::new(&root);
        // Hand-frame an otherwise-valid entry carrying a different build
        // fingerprint (≈ a cache left behind by an older binary).
        let mut e = Encoder::new();
        for b in MAGIC {
            e.put_u8(b);
        }
        e.put_u32(FORMAT_VERSION);
        e.put_u64(build_fingerprint().wrapping_add(1));
        e.put_str("k");
        e.put_bytes(b"stale build's result");
        let checksum = fnv1a(e.as_bytes());
        e.put_u64(checksum);
        let path = cache.path_for("memo", "k");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, e.into_bytes()).unwrap();
        assert!(cache.load("memo", "k").is_none());
        // A store by THIS build overwrites it and hits again.
        cache.store("memo", "k", b"fresh");
        assert_eq!(cache.load("memo", "k").unwrap(), b"fresh");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn wrong_magic_is_a_miss() {
        let root = tmp_root("magic");
        let cache = DiskCache::new(&root);
        let path = cache.path_for("memo", "k");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, b"GZIP....not a cache entry").unwrap();
        assert!(cache.load("memo", "k").is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn colliding_key_is_rejected_by_the_embedded_key() {
        let root = tmp_root("collision");
        let cache = DiskCache::new(&root);
        cache.store("memo", "key-a", b"a's payload");
        // Simulate a filename collision: copy a's file onto b's name.
        let a = cache.path_for("memo", "key-a");
        let b = cache.path_for("memo", "key-b");
        fs::copy(&a, &b).unwrap();
        assert!(cache.load("memo", "key-b").is_none(), "wrong key inside");
        assert_eq!(cache.load("memo", "key-a").unwrap(), b"a's payload");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn typed_round_trip_rejects_unread_bytes_and_honours_the_cap() {
        let root = tmp_root("typed");
        let cache = DiskCache::new(&root);
        cache.store_with("mine", "k", usize::MAX, |e| {
            e.put_u8(7);
            e.put_u8(8);
        });
        assert_eq!(cache.load_with("mine", "k", |d| d.take_u8()), None);
        cache.store_with("mine", "k", usize::MAX, |e| e.put_u8(7));
        assert_eq!(cache.load_with("mine", "k", |d| d.take_u8()), Some(7));
        cache.store_with("mine", "big", 1, |e| e.put_u64(1));
        assert!(cache.load("mine", "big").is_none(), "over the cap");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn trailing_garbage_is_a_miss() {
        let root = tmp_root("trailing");
        let cache = DiskCache::new(&root);
        cache.store("memo", "k", b"payload");
        let path = cache.path_for("memo", "k");
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"extra");
        fs::write(&path, &bytes).unwrap();
        assert!(cache.load("memo", "k").is_none());
        let _ = fs::remove_dir_all(&root);
    }
}

//! The incremental-scan cache: per-file [`FileFacts`] keyed by an FNV-64
//! content hash, persisted as JSON under `target/`.
//!
//! Facts are a pure function of `(path, contents)`, so a file whose hash
//! is unchanged skips the lex/parse/extract pipeline entirely — a warm
//! rescan after a one-file edit re-lexes only that file. The cache is
//! invalidated wholesale when [`RULES_VERSION`] changes (rules read facts
//! differently) and degrades to a cold scan when missing or corrupt; it
//! never affects scan *results*, only scan *time*.

use std::collections::BTreeMap;
use std::path::Path;

use raceloc_obs::Json;

use crate::facts::FileFacts;

/// Bump on any change to fact extraction or rule semantics: stale facts
/// from an older analyzer must not satisfy a newer scan. Also part of the
/// CI cache key.
pub const RULES_VERSION: &str = "2026-10-17.r9";

/// The persisted cache: `path → (content hash, facts)`.
#[derive(Debug, Default)]
pub struct ScanCache {
    entries: BTreeMap<String, (u64, FileFacts)>,
    /// Whether the loaded document was usable (matching version).
    pub warm: bool,
}

/// FNV-1a over the file contents: fast, dependency-free, and stable
/// across platforms. Collisions only cost a stale-facts reuse within one
/// developer checkout; content hashes never cross machines.
pub fn fnv64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl ScanCache {
    /// Loads the cache from `path`; missing, corrupt, or version-skewed
    /// documents yield a cold (empty) cache.
    pub fn load(path: &Path) -> Self {
        let Ok(text) = std::fs::read_to_string(path) else {
            return Self::default();
        };
        let Ok(doc) = Json::parse(&text) else {
            return Self::default();
        };
        if doc.get("rules_version").and_then(Json::as_str) != Some(RULES_VERSION) {
            return Self::default();
        }
        let Some(files) = doc.get("files").and_then(Json::as_object) else {
            return Self::default();
        };
        let mut entries = BTreeMap::new();
        for (file, entry) in files {
            let hash = entry
                .get("hash")
                .and_then(Json::as_str)
                .and_then(|h| h.strip_prefix("0x"))
                .and_then(|h| u64::from_str_radix(h, 16).ok());
            let facts = entry.get("facts").and_then(FileFacts::from_json);
            if let (Some(hash), Some(facts)) = (hash, facts) {
                entries.insert(file.clone(), (hash, facts));
            }
        }
        Self {
            entries,
            warm: true,
        }
    }

    /// The cached facts for `path` when its content hash still matches.
    pub fn lookup(&self, path: &str, hash: u64) -> Option<&FileFacts> {
        self.entries
            .get(path)
            .and_then(|(h, facts)| (*h == hash).then_some(facts))
    }

    /// Number of cached files.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replaces the cache contents with this scan's facts (dropped files
    /// age out automatically — only scanned paths are written back).
    pub fn store(&mut self, path: &str, hash: u64, facts: FileFacts) {
        self.entries.insert(path.to_string(), (hash, facts));
    }

    /// Drops entries for paths not in `scanned` (deleted files).
    pub fn retain_paths(&mut self, scanned: &[&str]) {
        let keep: std::collections::BTreeSet<&str> = scanned.iter().copied().collect();
        self.entries.retain(|k, _| keep.contains(k.as_str()));
    }

    /// Serializes the cache document. Hashes go as hex strings: `Json`
    /// numbers are `f64` and would corrupt 64-bit hashes.
    pub fn to_json(&self) -> String {
        let files: Vec<(String, Json)> = self
            .entries
            .iter()
            .map(|(file, (hash, facts))| {
                (
                    file.clone(),
                    Json::Obj(vec![
                        ("hash".to_string(), Json::Str(format!("{hash:#x}"))),
                        ("facts".to_string(), facts.to_json()),
                    ]),
                )
            })
            .collect();
        let doc = Json::Obj(vec![
            (
                "rules_version".to_string(),
                Json::Str(RULES_VERSION.to_string()),
            ),
            ("files".to_string(), Json::Obj(files)),
        ]);
        format!("{doc}\n")
    }

    /// Persists to `path`, creating parent directories as needed. Save
    /// failures are non-fatal for the scan; the caller decides whether to
    /// surface them.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::extract;

    #[test]
    fn fnv_is_stable_and_content_sensitive() {
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64("a"), fnv64("a"));
        assert_ne!(fnv64("a"), fnv64("b"));
    }

    #[test]
    fn round_trips_and_honors_hash_mismatches() {
        let src = "fn f(t: &T) { t.add(\"pf.motion\", 1); }\n";
        let facts = extract("crates/pf/src/x.rs", src);
        let mut cache = ScanCache::default();
        cache.store("crates/pf/src/x.rs", fnv64(src), facts.clone());

        let dir = std::env::temp_dir().join("raceloc-analyze-cache-test");
        let path = dir.join("cache.json");
        cache.save(&path).expect("writable temp dir");
        let back = ScanCache::load(&path);
        assert!(back.warm);
        assert_eq!(
            back.lookup("crates/pf/src/x.rs", fnv64(src)),
            Some(&facts),
            "hit on matching hash"
        );
        assert_eq!(
            back.lookup("crates/pf/src/x.rs", fnv64("edited")),
            None,
            "miss after an edit"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_skew_and_corruption_cold_start() {
        let dir = std::env::temp_dir().join("raceloc-analyze-cache-skew");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("cache.json");
        std::fs::write(&path, "{\"rules_version\": \"older\", \"files\": {}}\n").expect("write");
        assert!(!ScanCache::load(&path).warm, "version skew → cold");
        std::fs::write(&path, "not json").expect("write");
        assert!(!ScanCache::load(&path).warm, "corruption → cold");
        assert!(!ScanCache::load(&dir.join("missing.json")).warm);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retain_drops_deleted_files() {
        let mut cache = ScanCache::default();
        cache.store("a.rs", 1, FileFacts::default());
        cache.store("b.rs", 2, FileFacts::default());
        cache.retain_paths(&["a.rs"]);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup("a.rs", 1).is_some());
    }
}
